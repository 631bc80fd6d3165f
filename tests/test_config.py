import pytest

from simplicial_ideals import ParameterError
from simplicial_ideals.cli import main
from simplicial_ideals.config import load_config, parse_config_file
from simplicial_ideals.errors import DEFAULT_MAX_CANDIDATES


def test_defaults(tmp_path):
    assert load_config(environ={}) == DEFAULT_MAX_CANDIDATES
    # a file that sets nothing leaves the default
    path = tmp_path / "empty.conf"
    path.write_text("# nothing here\n\n")
    assert parse_config_file(path) is None
    assert load_config(config_path=str(path), environ={}) == DEFAULT_MAX_CANDIDATES


def test_config_file(tmp_path):
    path = tmp_path / "sideal.conf"
    path.write_text(
        "# comment\n"
        "max_candidates = 1000   # trailing comment\n"
        "\n")
    assert parse_config_file(path) == 1000
    assert load_config(config_path=str(path), environ={}) == 1000


def test_config_file_errors(tmp_path, capsys):
    path = tmp_path / "bad.conf"
    path.write_text("no equals sign\n")
    with pytest.raises(ParameterError):
        parse_config_file(path)
    with pytest.raises(ParameterError):
        parse_config_file(tmp_path / "missing.conf")
    # a bad value names its file and line, as an unknown key does; format
    # and deep are flags only, so they are unknown keys
    for line, message in (
            ("max_candidates = 0", "max_candidates=0 must be >= 1"),
            ("max_candidates = -3", "max_candidates=-3 must be >= 1"),
            ("max_candidates = lots",
             "config key max_candidates: expected integer, got 'lots'"),
            ("unknown_key = 1", "unknown config key 'unknown_key'"),
            ("max_intersection_gens = 1",
             "unknown config key 'max_intersection_gens'"),
            ("format = json", "unknown config key 'format'"),
            ("deep = yes", "unknown config key 'deep'")):
        path.write_text(f"# header\n{line}\n")
        with pytest.raises(ParameterError) as info:
            parse_config_file(path)
        assert str(info.value) == f"{path}:2: {message}"
    # and the CLI prints it as its usage error
    path.write_text("max_candidates = 5\nmax_candidates = 0\n")
    assert main(["gens", "--n", "2", "--c", "2", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}:2: max_candidates=0 must be >= 1\n"


def test_env_variables(tmp_path):
    environ = {"SIDEAL_MAX_CANDIDATES": "6", "OTHER_ORACLE_N_CAP": "6"}
    assert load_config(environ=environ) == 6
    with pytest.raises(ParameterError, match="expected integer, got 'lots'"):
        load_config(environ={"SIDEAL_MAX_CANDIDATES": "lots"})
    # an unknown SIDEAL_* variable is an error, as an unknown file key is;
    # format and deep are flags only
    for name in ("SIDEAL_ORACLE_N_CAP", "SIDEAL_MAX_INTERSECTION_GENS",
                 "SIDEAL_max_candidates", "SIDEAL_", "SIDEAL_FORMAT",
                 "SIDEAL_DEEP"):
        with pytest.raises(ParameterError, match=name):
            load_config(environ={name: "6"})
    path = tmp_path / "sideal.conf"
    path.write_text("max_candidates = 8\n")
    assert load_config(environ={"SIDEAL_CONFIG": str(path)}) == 8


def test_precedence_flags_env_file(tmp_path):
    path = tmp_path / "sideal.conf"
    path.write_text("max_candidates = 7\n")
    environ = {"SIDEAL_CONFIG": str(path)}
    # file applies when only SIDEAL_CONFIG points at it
    assert load_config(environ=environ) == 7
    # env beats file
    environ["SIDEAL_MAX_CANDIDATES"] = "8"
    assert load_config(environ=environ) == 8
    # flags beat env
    assert load_config(environ=environ, max_candidates=9) == 9
    # explicit path beats SIDEAL_CONFIG
    other = tmp_path / "other.conf"
    other.write_text("max_candidates = 10\n")
    del environ["SIDEAL_MAX_CANDIDATES"]
    assert load_config(config_path=str(other), environ=environ) == 10
    # every source is checked, whichever one wins
    path.write_text("max_candidates = 0\n")
    with pytest.raises(ParameterError, match=":1: max_candidates=0"):
        load_config(environ=environ, max_candidates=9)


def test_override_validation():
    # a budget that is not a string is never converted: int(2.7) == 2 and
    # True == 1, but neither is a budget
    for bad, message in ((-1, "=-1 must be >= 1$"),
                         (0, "=0 must be >= 1$"),
                         (2.7, "=2.7 must be an integer, not float$"),
                         (True, "=True must be an integer, not a bool$")):
        with pytest.raises(ParameterError, match="^max_candidates" + message):
            load_config(environ={}, max_candidates=bad)


@pytest.mark.parametrize("name", ["SIDEAL_FORMAT", "SIDEAL_DEEP"])
def test_flag_only_settings_refused_from_the_environment(name, capsys,
                                                         monkeypatch):
    monkeypatch.setenv(name, "json" if name == "SIDEAL_FORMAT" else "true")
    assert main(["resurgence", "--n", "2", "--c", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown environment variable {name}\n"


@pytest.mark.parametrize("line", ["format = json", "deep = yes"])
def test_flag_only_settings_refused_from_a_file(line, tmp_path, capsys):
    path = tmp_path / "sideal.conf"
    path.write_text(f"{line}\n")
    assert main(["verify", "triangle", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    key = line.split()[0]
    assert captured.out == ""
    assert captured.err == f"error: {path}:1: unknown config key {key!r}\n"


def test_no_deep_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "triangle", "--no-deep"])
    assert info.value.code == 2
    assert "unrecognized arguments: --no-deep" in capsys.readouterr().err
