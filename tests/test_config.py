import pytest

from simplicial_ideals import ParameterError
from simplicial_ideals.cli import main
from simplicial_ideals.config import CliConfig, load_config, parse_config_file


def test_defaults():
    config = load_config(environ={})
    assert config == CliConfig()
    assert config.format == "text"
    assert not config.deep
    assert config.max_candidates > 0


def test_config_file(tmp_path):
    path = tmp_path / "sideal.conf"
    path.write_text(
        "# comment\n"
        "format = json\n"
        "max_candidates = 1000   # trailing comment\n"
        "deep = yes\n"
        "\n")
    settings = parse_config_file(path)
    assert settings == {"format": "json", "max_candidates": 1000, "deep": True}
    config = load_config(config_path=str(path), environ={})
    assert config.format == "json"
    assert config.max_candidates == 1000
    assert config.deep


def test_config_file_errors(tmp_path, capsys):
    path = tmp_path / "bad.conf"
    path.write_text("no equals sign\n")
    with pytest.raises(ParameterError):
        parse_config_file(path)
    for key in ("unknown_key", "max_intersection_gens"):
        path.write_text(f"{key} = 1\n")
        with pytest.raises(ParameterError):
            parse_config_file(path)
    path.write_text("max_candidates = lots\n")
    with pytest.raises(ParameterError):
        parse_config_file(path)
    path.write_text("max_candidates = -3\n")
    with pytest.raises(ParameterError):
        parse_config_file(path)
    with pytest.raises(ParameterError):
        parse_config_file(tmp_path / "missing.conf")
    # a bad value names its file and line, as an unknown key does
    for line, message in (
            ("max_candidates = 0", "max_candidates=0 must be >= 1"),
            ("max_candidates = lots",
             "config key max_candidates: expected integer, got 'lots'"),
            ("deep = maybe", "config key deep: expected boolean, got 'maybe'"),
            ("format = xml",
             "config key format: expected text or json, got 'xml'")):
        path.write_text(f"# header\n{line}\n")
        with pytest.raises(ParameterError) as info:
            parse_config_file(path)
        assert str(info.value) == f"{path}:2: {message}"
    # and the CLI prints it as its usage error
    path.write_text("format = text\nmax_candidates = 0\n")
    assert main(["gens", "--n", "2", "--c", "2", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}:2: max_candidates=0 must be >= 1\n"


def test_env_variables(tmp_path):
    environ = {"SIDEAL_FORMAT": "json", "SIDEAL_MAX_CANDIDATES": "6",
               "SIDEAL_DEEP": "true", "OTHER_ORACLE_N_CAP": "6"}
    config = load_config(environ=environ)
    assert config.format == "json"
    assert config.max_candidates == 6
    assert config.deep
    with pytest.raises(ParameterError):
        load_config(environ={"SIDEAL_FORMAT": "xml"})
    with pytest.raises(ParameterError):
        load_config(environ={"SIDEAL_DEEP": "maybe"})
    # an unknown SIDEAL_* variable is an error, as an unknown file key is
    for name in ("SIDEAL_ORACLE_N_CAP", "SIDEAL_MAX_INTERSECTION_GENS",
                 "SIDEAL_max_candidates", "SIDEAL_"):
        with pytest.raises(ParameterError, match=name):
            load_config(environ={name: "6"})
    path = tmp_path / "sideal.conf"
    path.write_text("deep = yes\n")
    assert load_config(environ={"SIDEAL_CONFIG": str(path)}).deep
    # every false spelling, in any case, from the environment (over the
    # file's yes) and from a file
    for spelling in ("0", "false", "No", "OFF"):
        assert not load_config(environ={"SIDEAL_CONFIG": str(path),
                                        "SIDEAL_DEEP": spelling}).deep
    for spelling in ("0", "false", "No", "OFF"):
        other = tmp_path / f"{spelling}.conf"
        other.write_text(f"deep = {spelling}\n")
        assert parse_config_file(other) == {"deep": False}


def test_precedence_flags_env_file(tmp_path):
    path = tmp_path / "sideal.conf"
    path.write_text("format = json\nmax_candidates = 7\n")
    environ = {"SIDEAL_CONFIG": str(path)}
    # file applies when only SIDEAL_CONFIG points at it
    assert load_config(environ=environ).format == "json"
    # env beats file
    environ["SIDEAL_FORMAT"] = "text"
    assert load_config(environ=environ).format == "text"
    # flags beat env
    config = load_config(environ=environ, overrides={"format": "json"})
    assert config.format == "json"
    assert config.max_candidates == 7
    # explicit path beats SIDEAL_CONFIG
    other = tmp_path / "other.conf"
    other.write_text("max_candidates = 9\n")
    config = load_config(config_path=str(other), environ=environ)
    assert config.max_candidates == 9


def test_override_validation():
    # a budget that is not a string is never converted: int(2.7) == 2 and
    # True == 1, but neither is a budget
    for bad, message in ((-1, "=-1 must be >= 1$"),
                         (2.7, "=2.7 must be an integer, not float$"),
                         (True, "=True must be an integer, not a bool$")):
        with pytest.raises(ParameterError, match="^max_candidates" + message):
            load_config(environ={}, overrides={"max_candidates": bad})
    with pytest.raises(ParameterError, match="unknown config key 'no_such_key'"):
        load_config(environ={}, overrides={"no_such_key": 1})
    with pytest.raises(ParameterError, match="expected text or json"):
        load_config(environ={}, overrides={"format": "xml"})
    assert load_config(environ={}, overrides={"deep": True}).deep
    assert not load_config(environ={}, overrides={"deep": False}).deep
    # an override that is not a string must be a bool: 1 == True and
    # str(1) reads as a boolean word, but neither makes it one
    for bad in (1, 0, 1.0, [], b"yes", "maybe"):
        with pytest.raises(ParameterError) as info:
            load_config(environ={}, overrides={"deep": bad})
        assert str(info.value) == f"config key deep: expected boolean, got {bad!r}"
    # None means unset, not an override
    assert load_config(environ={}, overrides={"format": None}).format == "text"
