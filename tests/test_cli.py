import argparse
import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplicial_ideals
from _brute import (
    brute_capped_degree,
    brute_power_gens,
    brute_skeleton_gens,
    brute_symbolic_binding,
    brute_symbolic_gens,
    brute_symbolic_representatives,
)
from simplicial_ideals import (Monomial, MonomialIdeal, SimplicialSpec,
                               ordinary_power_min_gens, symbolic_power)
from simplicial_ideals.cli import COMMANDS, build_parser, main
from simplicial_ideals.simplicial import (ordinary_power_stream,
                                          symbolic_power_stream)
from simplicial_ideals.verification import ClaimResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(*argv):
    """Run the CLI without pytest's capture fixture, for property tests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, _ = run_quiet(*argv)
    assert code == 0
    return json.loads(out)


def test_gens_symbolic_listing(capsys):
    code, out, _ = run_cli(capsys, "gens", "--n", "2", "--c", "2",
                           "--symbolic", "2")
    assert code == 0
    assert out == "x0^2*x1^2\nx0^2*x2^2\nx1^2*x2^2\nx0*x1*x2\n"


def test_gens_default_and_power(capsys):
    code, out, _ = run_cli(capsys, "gens", "--n", "3", "--c", "2")
    assert code == 0
    assert len(out.splitlines()) == 4
    code, out, _ = run_cli(capsys, "gens", "--n", "2", "--c", "1",
                           "--power", "3")
    assert code == 0
    assert out == "x0^3*x1^3*x2^3\n"


@pytest.mark.parametrize("n", range(1, 6))
def test_gens_ideal_is_its_first_power(n):
    """I(n,c) = I(n,c)^1: the flagless listing and --power 1 print the same
    rows, and their JSON differs only in kind and exponent."""
    for c in range(1, n + 1):
        argv = ["gens", "--n", str(n), "--c", str(c)]
        assert run_quiet(*argv) == run_quiet(*argv, "--power", "1")
        ideal = run_json(*argv, "--format", "json")
        power = run_json(*argv, "--power", "1", "--format", "json")
        assert (ideal.pop("kind"), ideal.pop("exponent")) == ("ideal", None)
        assert (power.pop("kind"), power.pop("exponent")) == ("power", 1)
        assert ideal == power


def test_gens_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "gens", "--n", "2", "--c", "2",
                           "--symbolic", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "symbolic" and payload["exponent"] == 3
    rebuilt = MonomialIdeal.from_lists(payload["n"], payload["generators"])
    assert rebuilt == symbolic_power(SimplicialSpec(2, 2), 3)
    assert payload["count"] == len(rebuilt.gens)


def _brute_listing(n, c, kind, exponent):
    """The generators a listing must print, from the naive routes."""
    if kind == "ideal":
        gens = brute_skeleton_gens(n, c)
    elif kind == "power":
        gens = brute_power_gens(n, c, exponent)
    elif (exponent + 1) ** (n + 1) <= 5000:
        gens = brute_symbolic_gens(n, c, exponent)
    else:
        # the full box scan is too slow here: permute the representatives
        # that the weakly decreasing scan finds
        gens = [perm
                for rep in brute_symbolic_representatives(n, c, exponent)
                for perm in set(permutations(rep))]
    return MonomialIdeal(n, map(Monomial, gens))


@pytest.mark.parametrize("n", range(1, 7))
def test_gens_stream_matches_brute(n):
    """The streamed listing, text and JSON, has the bytes of the listing
    built from the naive generators."""
    for c in range(1, n + 1):
        cases = ([("ideal", None)] + [("power", r) for r in range(1, 4)]
                 + [("symbolic", m) for m in range(1, 7)])
        for kind, exponent in cases:
            ideal = _brute_listing(n, c, kind, exponent)
            argv = ["gens", "--n", str(n), "--c", str(c)]
            if exponent is not None:
                argv += [f"--{kind}", str(exponent)]
            code, text, _ = run_quiet(*argv)
            assert code == 0 and text == ideal.to_text(), argv
            code, out, _ = run_quiet(*argv, "--format", "json")
            payload = {"n": n, "c": c, "kind": kind, "exponent": exponent,
                       "count": len(ideal.gens),
                       "generators": ideal.to_lists()}
            assert code == 0 and out == json.dumps(payload, indent=2) + "\n"
            assert json.loads(out)["count"] == len(text.splitlines())


@pytest.mark.parametrize("n, c, kind, exponent", [(2, 2, "symbolic", 12),
                                                  (4, 3, "symbolic", 10),
                                                  (3, 1, "power", 11)])
def test_gens_json_rows_of_several_digits(n, c, kind, exponent):
    """Rows with entries of two digits are written as json.dumps writes
    them; I(3,1)^11 is one row, written with the header."""
    spec = SimplicialSpec(n, c)
    ideal = (symbolic_power(spec, exponent) if kind == "symbolic"
             else ordinary_power_min_gens(spec, exponent))
    assert max(map(max, ideal.to_lists())) >= 10
    code, out, _ = run_quiet("gens", "--n", str(n), "--c", str(c),
                             f"--{kind}", str(exponent), "--format", "json")
    payload = {"n": n, "c": c, "kind": kind, "exponent": exponent,
               "count": len(ideal.gens), "generators": ideal.to_lists()}
    assert code == 0 and out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("stream", [symbolic_power_stream,
                                    ordinary_power_stream])
def test_every_listing_has_a_first_generator(stream):
    # the JSON writer takes the first row with next(stream), outside any
    # loop: an empty listing would escape main as StopIteration; the budget
    # is lifted so that the few listings past the default one count too
    for n in range(1, 9):
        for c in range(1, n + 1):
            for exponent in range(1, 7):
                count, rows = stream(SimplicialSpec(n, c), exponent, 10**12)
                assert count >= 1, (n, c, exponent)
                first = next(rows, None)
                assert isinstance(first, tuple) and len(first) == n + 1


class _Discard(io.TextIOBase):
    """A stdout that drops what it is given."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", [(), ("--format", "json")])
def test_gens_listing_memory_is_bounded(fmt):
    # 4917 generators: streamed, the listing peaks near 20 KB; held whole
    # (as tuples, or joined into one string) it takes 0.4 MB or more
    argv = ["gens", "--n", "10", "--c", "4", "--power", "2", *fmt]
    # a first call of the same listing fills what calls share and keep: the
    # caches (regexes, ...) and the interpreter's free list of tuples of
    # this length, about a quarter MB that tracemalloc counts as held
    run_quiet(*argv)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 18, peak


def test_member_output(capsys):
    code, out, _ = run_cli(capsys, "member", "--n", "2", "--c", "2",
                           "--symbolic", "2", "x0*x1*x2")
    assert code == 0
    assert out == ("true\nevery 2-subset of variables has exponent sum >= 2"
                   " (minimum 2 on {x0, x1})\n")
    code, out, _ = run_cli(capsys, "member", "--n", "2", "--c", "2",
                           "--symbolic", "2", "x0^2*x1")
    assert code == 0
    assert out == "false\nsubset {x1, x2} has exponent sum 1 < 2\n"
    code, out, _ = run_cli(capsys, "member", "--n", "3", "--c", "2",
                           "--power", "2", "x0^2*x1^2*x2^2")
    assert code == 0
    assert out == "true\ncapped degree 6 meets required 6\n"
    code, out, _ = run_cli(capsys, "member", "--n", "3", "--c", "2",
                           "--power", "2", "x0^2*x1^2*x3")
    assert code == 0
    assert out == "false\ncapped degree 5 below required 6 (deficit 1)\n"


def test_member_json_detail(capsys):
    code, out, _ = run_cli(capsys, "member", "--n", "2", "--c", "2",
                           "--symbolic", "2", "x0^2*x1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is False
    assert payload["detail"] == {"subset": [1, 2], "subset_sum": 1,
                                 "required": 2}
    assert payload["query"]["monomial"] == "x0^2*x1"


@given(st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_member_json_detail_matches_brute(n, data):
    c = data.draw(st.integers(1, n))
    exponent = data.draw(st.integers(1, 6))
    mono = Monomial(data.draw(st.lists(st.integers(0, 6), min_size=n + 1,
                                       max_size=n + 1)))
    query = ["member", "--n", str(n), "--c", str(c), str(mono),
             "--format", "json"]

    subset, subset_sum = brute_symbolic_binding(n, c, mono.exps)
    payload = run_json(*query, "--symbolic", str(exponent))
    assert payload["detail"] == {"subset": subset, "subset_sum": subset_sum,
                                 "required": exponent}
    assert payload["member"] is (subset_sum >= exponent)

    capped = brute_capped_degree(exponent, mono.exps)
    required = (n - c + 2) * exponent
    payload = run_json(*query, "--power", str(exponent))
    assert payload["detail"] == {"capped_degree": capped, "required": required}
    assert payload["member"] is (capped >= required)


def test_containment_output(capsys):
    code, out, _ = run_cli(capsys, "containment", "--n", "3", "--c", "2",
                           "--m", "3", "--r", "2", "--oracle")
    assert code == 0
    assert out == ("query: I^(3)(3,2) in I(3,2)^2\n"
                   "fast: true\noracle: true\nagree: true\n")
    code, out, _ = run_cli(capsys, "containment", "--n", "2", "--c", "2",
                           "--m", "2", "--r", "2")
    assert code == 0  # a false verdict is still a successful query
    assert "fast: false" in out and "oracle" not in out


def test_containment_sym_counterexample(capsys):
    code, out, _ = run_cli(capsys, "containment-sym", "--n", "3", "--c", "2",
                           "--d", "3", "--m", "3", "--s", "5", "--oracle")
    assert code == 0  # disagreement is expected: the fast path is one-sided
    assert "fast: false" in out
    assert "oracle: true" in out
    assert "agree: false" in out


def test_containment_oracle_disagreement_exits_one(capsys, monkeypatch):
    # the criterion is exact, so an oracle that disagrees fails the query
    monkeypatch.setattr("simplicial_ideals.cli.containment_oracle",
                        lambda *args, **kwargs: False)
    code, out, _ = run_cli(capsys, "containment", "--n", "3", "--c", "2",
                           "--m", "3", "--r", "2", "--oracle")
    assert code == 1
    assert out.endswith("fast: true\noracle: false\nagree: false\n")


def test_containment_sym_checks_both_codimensions(capsys):
    # (n, c) first, then (n, d), before any verdict is printed
    code, out, err = run_cli(capsys, "containment-sym", "--n", "2", "--c",
                             "1", "--d", "3", "--m", "1", "--s", "1")
    assert (code, out) == (2, "")
    assert err == "error: d=3 must satisfy 1 <= d <= n=2\n"
    code, out, err = run_cli(capsys, "containment-sym", "--n", "2", "--c",
                             "4", "--d", "3", "--m", "1", "--s", "1")
    assert (code, out) == (2, "")
    assert err == "error: c=4 must satisfy 1 <= c <= n=2\n"


def test_resurgence_output(capsys):
    code, out, _ = run_cli(capsys, "resurgence", "--n", "2", "--c", "2")
    assert code == 0
    assert out == "rho(I(2,2)) = 4/3\n"
    code, out, _ = run_cli(capsys, "resurgence", "--n", "3", "--c", "1")
    assert out == "rho(I(3,1)) = 1\n"
    code, out, _ = run_cli(capsys, "resurgence", "--n", "2", "--c", "2",
                           "--witnesses", "5", "--box", "12", "12")
    assert code == 0
    assert "k=5  m=10  r=8  ratio=5/4" in out
    assert "sup 5/4 at m=10, r=8" in out
    # the sweep is one pass over m, so a box of 10**8 pairs is quick
    code, out, _ = run_cli(capsys, "resurgence", "--n", "2", "--c", "2",
                           "--box", "9999", "9999")
    assert code == 0
    assert out.endswith("sup 9998/7499 at m=9998, r=7499\n")
    # a box with no noncontained pair has no supremum
    code, out, _ = run_cli(capsys, "resurgence", "--n", "2", "--c", "2",
                           "--box", "1", "1")
    assert code == 0
    assert out.endswith("box m <= 1, r <= 1: no noncontained pairs\n")


def test_resurgence_json(capsys):
    code, out, _ = run_cli(capsys, "resurgence", "--n", "2", "--c", "2",
                           "--witnesses", "5", "--box", "12", "12",
                           "--format", "json")
    payload = json.loads(out)
    assert payload["rho"] == "4/3"
    assert payload["witnesses"][-1] == [5, 10, 8, "5/4"]
    assert payload["empirical_sup"] == "5/4"
    assert payload["empirical_argmax"] == [10, 8]
    code, out, _ = run_cli(capsys, "resurgence", "--n", "2", "--c", "2",
                           "--box", "1", "1", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["box"] == [1, 1]
    assert payload["empirical_sup"] is None
    assert payload["empirical_argmax"] is None


def test_verify_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "triangle")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("claims passed")


def test_verify_json_deterministic(capsys):
    code, first, _ = run_cli(capsys, "verify", "triangle", "--format", "json")
    assert code == 0
    code, second, _ = run_cli(capsys, "verify", "triangle", "--format", "json")
    assert first == second
    payload = json.loads(first)
    assert payload["failed"] == 0
    assert payload["scope"] == "triangle"
    assert all("wall_time_ms" not in claim for claim in payload["claims"])


def test_verify_report_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # --format json writes the report's bytes to stdout
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["verify", "triangle", "--report", "x.json"])
    assert info.value.code == 2
    assert "unrecognized arguments: --report x.json" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_verify_failing_claim_exits_one(capsys, monkeypatch):
    failing = ClaimResult(
        claim_id="demo/failing", statement="demo", params_range="m <= 1",
        status="fail", counterexample={"m": 1}, detail=None, wall_time_ms=0.0)
    monkeypatch.setattr("simplicial_ideals.verification.run_verification",
                        lambda scope, deep: [failing])
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 1
    assert "FAIL  demo/failing" in out


# the least argv each subcommand parses
VALID_ARGV = {
    "gens": ["gens", "--n", "2", "--c", "2"],
    "member": ["member", "--n", "2", "--c", "2", "--power", "1", "x0"],
    "containment": ["containment", "--n", "2", "--c", "2", "--m", "1",
                    "--r", "1"],
    "containment-sym": ["containment-sym", "--n", "2", "--c", "2", "--d", "2",
                        "--m", "1", "--s", "1"],
    "resurgence": ["resurgence", "--n", "2", "--c", "2"],
    "verify": ["verify", "all"],
}


def _parse_exit(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def _print_words(args, budget=None):
    # stands in for every handler: prints what was parsed, not an answer
    print(sorted((k, v) for k, v in vars(args).items() if k != "command"))
    sys.exit(0)


@pytest.mark.parametrize("argv", [
    argv for command, valid in VALID_ARGV.items() for argv in (
        valid,
        [command, "--help"],
        [*valid, "-h"],
        [command],  # a required flag or positional is missing
        [*valid, "--bogus"],
        # the stray positional is reported in the top-level usage
        [*valid, "stray"],
        [command, "--"], [*valid, "--"], [*valid, "--", "x"],
        [command, "--n=2"], [*valid, "--format", "xml"],
        # a repeated option: the last one counts
        [*valid, "--format", "json", "--format", "text"],
        # member and verify take no budget, the other four do
        [*valid, "--max-candidates", "5"], [*valid, "--max-candidates"])
] + [["gens", "--n", "2", "--c", "2", "--power", "1", "--symbolic", "1"],
     ["gens", "--n=2", "--c=2", "--sym", "2"],  # an abbreviation
     ["member", "--n", "2", "--c", "2", "--power", "1", "x0", "x1"],
     ["verify", "all", "--no-deep"],
     # argv[0] names no command, so main builds every subcommand
     [], ["-h"], ["bogus"], ["--format", "json", "gens"]],
    ids=lambda argv: " ".join(argv) or "(none)")
def test_one_command_build_prints_what_the_full_build_prints(argv, monkeypatch):
    assert set(VALID_ARGV) == set(COMMANDS)
    for command in COMMANDS:
        monkeypatch.setattr(f"simplicial_ideals.cli._cmd_"
                            f"{command.replace('-', '_')}", _print_words)
    # argparse wraps help and usage at the terminal width
    for columns in ("50", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        expected = _parse_exit(
            lambda words: _print_words(build_parser().parse_args(words)), argv)
        assert _parse_exit(main, argv) == expected
        code, out, err = expected
        # help or the parsed words on stdout, or a usage error on stderr
        assert (code, bool(out), bool(err)) in ((0, True, False),
                                                 (2, False, True))
    if argv[:1] in ([], ["bogus"], ["--format"]):
        # the full build names the subparsers action by its dest
        assert ("argument command: invalid choice" in err
                or err.endswith("required: command\n"))


def test_main_builds_only_the_chosen_subcommand(monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    # a valid command line is parsed by its command's own parser alone
    assert run_quiet("gens", "--n", "2", "--c", "2")[0] == 0
    assert built == []
    # no command, or a word the command does not take: the full parser
    # reports it
    for argv in (["bogus"], ["gens", "--n", "2", "--c", "2", "stray"]):
        with pytest.raises(SystemExit):
            run_quiet(*argv)
        assert built == list(COMMANDS)
        built.clear()


def test_main_reuses_a_command_parser_and_finds_its_handler_per_call(
        monkeypatch):
    built = []

    def counting(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr("simplicial_ideals.cli.build_parser", counting)
    monkeypatch.setattr("simplicial_ideals.cli._PARSERS", {})
    member = ["member", "--n", "3", "--c", "2"]
    for flags, expected in ((["--power", "2", "x0*x1"], "false"),
                            (["--symbolic", "1", "x0*x1*x2"], "true"),
                            (["--power", "1", "x0", "--format", "json"], "{"),
                            (["--power", "1", "x0*x1*x2"], "true")):
        code, out, _ = run_quiet(*member, *flags)
        assert (code, out.split()[0]) == (0, expected)
    assert built == ["member"]
    # a handler replaced after its parser was kept is the one that runs
    monkeypatch.setattr("simplicial_ideals.cli._cmd_member",
                        lambda args, budget: print("patched", args.n) or 5)
    assert run_quiet(*member, "--power", "1", "x0") == (5, "patched 3\n", "")
    assert built == ["member"]


def test_budget_flag_only_where_a_budget_is_read():
    budgeted = {"gens", "containment", "containment-sym", "resurgence"}
    assert budgeted < set(COMMANDS)
    for command, valid in VALID_ARGV.items():
        _, out, _ = _parse_exit(main, [command, "--help"])
        assert ("--max-candidates N" in out) == (command in budgeted)
        if command in budgeted:
            assert run_quiet(*valid, "--max-candidates", "5")[0] == 0
        else:
            code, _, err = _parse_exit(main, [*valid, "--max-candidates", "5"])
            assert code == 2
            assert err.endswith(
                "sideal: error: unrecognized arguments: --max-candidates 5\n")


def test_usage_errors_exit_two(capsys):
    code, _, err = run_cli(capsys, "gens", "--n", "2", "--c", "5")
    assert code == 2 and "c=5" in err
    code, _, err = run_cli(capsys, "member", "--n", "2", "--c", "2",
                           "--symbolic", "2", "x9")
    assert code == 2 and "x9" in err
    # too many digits for int(), or digits outside ASCII: a parse error,
    # not a traceback
    for text in ("x1^" + "9" * 5000, "x" + "1" * 5000, "x\u0661^\u0662",
                 "x1^\uff13"):
        code, _, err = run_cli(capsys, "member", "--n", "2", "--c", "2",
                               "--symbolic", "1", text)
        assert code == 2 and err.startswith("error: "), text
    code, _, err = run_cli(capsys, "gens", "--n", "2", "--c", "2",
                           "--symbolic", "0")
    assert code == 2
    # an explicit --power 0 is refused, not read as the flagless listing
    code, out, err = run_cli(capsys, "gens", "--n", "3", "--c", "2",
                             "--power", "0")
    assert (code, out) == (2, "") and "r=0 must be >= 1" in err
    # the error names the box, not a parameter the user never passed
    code, _, err = run_cli(capsys, "resurgence", "--n", "2", "--c", "2",
                           "--box", "0", "5")
    assert code == 2 and err == "error: box M=0 must be >= 1\n"


def test_one_row_listings_at_huge_exponents(capsys):
    # I(1,1)^r and I^(m)(1,1) have one generator at any exponent, so the
    # row's text costs what the row holds, not what the exponent reaches
    for flag in ("--power", "--symbolic"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "gens", "--n", "1", "--c", "1",
                                 flag, "100000000")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (0, "x0^100000000*x1^100000000\n", "")


def test_budget_errors_exit_three(capsys):
    # counted before anything is built, so each refusal is immediate; the
    # count stops at the first partial product past the budget, here
    # binomial(31, 7) and binomial(41, 6) of the first orbit's
    # binomial(31, 14) and binomial(41, 19)
    for argv, message in (
            (("gens", "--n", "30", "--c", "15", "--power", "5"),
             "I(30,15)^5 has at least 2629575 generators"),
            (("gens", "--n", "40", "--c", "20"),
             "I(40,20) has at least 4496388 generators"),
            (("resurgence", "--n", "2", "--c", "2", "--witnesses",
              "100000000"), "witness_count=100000000 lists")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 3 and message in err and "max_candidates=" in err
        assert out == ""
    code, _, err = run_cli(capsys, "containment", "--n", "6", "--c", "2",
                           "--m", "3", "--r", "2", "--oracle",
                           "--max-candidates", "10")
    assert code == 3 and "I^(3)(6,2) has at least 14 generators" in err
    # a listing streams, but only after the count passed the budget check
    code, out, err = run_cli(capsys, "gens", "--n", "4", "--c", "2",
                             "--symbolic", "6", "--max-candidates", "5",
                             "--format", "json")
    assert code == 3 and out == ""
    code, _, err = run_cli(capsys, "gens", "--n", "8", "--c", "4",
                           "--symbolic", "8", "--max-candidates", "100")
    assert code == 3 and "more than max_candidates=100" in err
    code, _, err = run_cli(capsys, "resurgence", "--n", "2", "--c", "2",
                           "--box", "101", "5", "--max-candidates", "100")
    assert code == 3 and "box M=101" in err
    assert err.endswith("more than max_candidates=100\n")


@pytest.mark.parametrize("error", [MemoryError, OverflowError])
def test_memory_error_exits_three(capsys, monkeypatch, error):
    # an allocation the budget let through can still fail, as I(10**9, 1)'s
    # one generator of 10**9 + 1 exponents does under a memory limit, and
    # I(2**63 - 1, 1)'s one generator is past the platform's index size
    def out_of_memory(args, budget):
        raise error

    monkeypatch.setattr("simplicial_ideals.cli._cmd_gens", out_of_memory)
    assert run_cli(capsys, "gens", "--n", "2", "--c", "2") == (
        3, "", "out of memory\n")


def test_orbit_count_of_a_long_representative_is_fast(capsys):
    # one representative of 10**6 entries: its orbit is counted without
    # forming (10**6)!
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "gens", "--n", "999999", "--c", "1",
                           "--power", "1")
    assert code == 0 and out.count("\n") == 1
    code, out, err = run_cli(capsys, "gens", "--n", "999999", "--c", "999999",
                             "--symbolic", "1")
    assert code == 3 and out == ""
    assert "has at least 499999500000 generators" in err
    assert time.perf_counter() - start < 10


CALL_SECONDS = 5  # generous: the slowest drawn call takes well under 1 s


@given(st.integers(1, 40), st.data())
@settings(max_examples=140, deadline=None)
def test_listings_and_oracles_stay_within_budget(n, data):
    """Every command that counts work against the budget ends in an answer
    or exit 3, and within CALL_SECONDS, at any n, c and exponent drawn."""
    c = data.draw(st.integers(1, n))
    d = str(data.draw(st.integers(1, n)))
    nc = ["--n", str(n), "--c", str(c)]
    exponent = str(data.draw(st.integers(1, 40)))
    r = str(data.draw(st.integers(1, 40)))
    exps = data.draw(st.lists(st.integers(0, 40), min_size=n + 1,
                              max_size=n + 1))
    monomial = "*".join(f"x{i}^{e}" for i, e in enumerate(exps) if e) or "1"
    count = str(data.draw(st.integers(0, 40000)))
    box_m = str(data.draw(st.integers(1, 40000)))
    argv = data.draw(st.sampled_from([
        ["gens", *nc], ["gens", *nc, "--power", exponent],
        ["gens", *nc, "--symbolic", exponent],
        ["member", *nc, "--symbolic", exponent, monomial],
        ["member", *nc, "--power", r, monomial],
        ["containment", *nc, "--m", exponent, "--r", r, "--oracle"],
        ["containment-sym", *nc, "--d", d, "--m", exponent, "--s", r,
         "--oracle"],
        ["resurgence", *nc, "--witnesses", count, "--box", box_m, r]]))
    budget = [] if argv[0] == "member" else ["--max-candidates", "20000"]
    start = time.perf_counter()
    code, out, err = run_quiet(*argv, *budget)
    assert time.perf_counter() - start < CALL_SECONDS
    assert code in (0, 3)
    if code == 3:
        assert "more than max_candidates=20000" in err
    elif argv[0] == "gens":
        assert 1 <= len(out.splitlines()) <= 20000
    elif argv[0] == "member":
        assert out.splitlines()[0] in ("true", "false")
    elif argv[0] == "containment":
        assert out.endswith("agree: true\n")
    elif argv[0] == "containment-sym":
        # the fast path is sufficient: it may miss a containment, never
        # claim a false one
        assert "\noracle: " in out
        assert not ("fast: true" in out and "oracle: false" in out)
    else:
        assert out.startswith(f"rho(I({n},{c})) = ")
        assert len(out.splitlines()) == 3 + int(count) - (count == "0")


# the integers a fuzzed command line draws: out of range, small, and past
# the platform's index size; 10**9 and 10**12 stay out, as in process their
# one generator would be allocated (CI's "No hang" step runs them)
FUZZ_INTS = st.sampled_from([-1, *range(9), 12, 30, 100, 10**3, 10**6,
                             2**63 - 1, 2**63])


@st.composite
def command_lines(draw):
    """A command line of gens, member, containment, containment-sym or
    resurgence, its integers drawn from FUZZ_INTS, with --max-candidates
    1, 10 or 1000 where the command takes it and sometimes --format json."""
    def number():
        return str(draw(FUZZ_INTS))

    command = draw(st.sampled_from(["gens", "member", "containment",
                                    "containment-sym", "resurgence"]))
    argv = [command, "--n", number(), "--c", number()]
    if command == "gens":
        kind = draw(st.sampled_from([None, "--power", "--symbolic"]))
        argv += [kind, number()] if kind else []
    elif command == "member":
        factors = draw(st.lists(st.tuples(
            FUZZ_INTS.filter((0).__le__),
            st.sampled_from([1, 2, 3, 12, 10**6])), max_size=4))
        monomial = "*".join(f"x{i}^{e}" for i, e in factors) or "1"
        argv += [draw(st.sampled_from(["--power", "--symbolic"])), number(),
                 monomial]
    elif command == "containment":
        argv += ["--m", number(), "--r", number()]
    elif command == "containment-sym":
        argv += ["--d", number(), "--m", number(), "--s", number()]
    else:
        if draw(st.booleans()):
            argv += ["--witnesses", number()]
        if draw(st.booleans()):
            argv += ["--box", number(), number()]
    if command.startswith("containment") and draw(st.booleans()):
        argv.append("--oracle")
    if command != "member":
        argv += ["--max-candidates", str(draw(st.sampled_from([1, 10, 1000])))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@given(command_lines())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_fuzzed_command_lines_exit_zero_two_or_three(argv):
    """Any command line a user can type ends, within CALL_SECONDS, in an
    answer, a usage error or a resource refusal, and writes nothing to
    stdout unless it answers."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert time.perf_counter() - start < CALL_SECONDS, argv
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert code == 0 or out.getvalue() == "", argv


# I(2,2) has 3 generators: a budget of 2 refuses the listing, 3 lists it
GENS_I22 = ("gens", "--n", "2", "--c", "2")


def test_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("SIDEAL_MAX_CANDIDATES", "2")
    code, out, err = run_cli(capsys, *GENS_I22)
    assert code == 3 and out == ""
    assert err.endswith("more than max_candidates=2\n")
    code, out, _ = run_cli(capsys, *GENS_I22, "--max-candidates", "3")
    assert code == 0 and out == "x0*x1\nx0*x2\nx1*x2\n"


def test_config_file_flag(tmp_path, capsys):
    conf = tmp_path / "sideal.conf"
    conf.write_text("max_candidates = 2\n")
    code, out, err = run_cli(capsys, *GENS_I22, "--config", str(conf))
    assert code == 3 and out == ""
    assert err.endswith("more than max_candidates=2\n")
    code, _, err = run_cli(capsys, *GENS_I22,
                           "--config", str(tmp_path / "missing.conf"))
    assert code == 2


def test_oracle_runs_within_the_generator_budget(capsys):
    # 8830 generators: no cap on n, m or r, only the one budget
    code, out, _ = run_cli(capsys, "containment", "--n", "8", "--c", "4",
                           "--m", "12", "--r", "5", "--oracle")
    assert code == 0
    assert out.endswith("agree: true\n")


def module_env():
    """The environment in which ``python -m simplicial_ideals`` runs the
    copy these tests import."""
    src = os.path.dirname(os.path.dirname(simplicial_ideals.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_module(*argv):
    """Run ``python -m simplicial_ideals`` on the copy these tests import."""
    return subprocess.run(
        [sys.executable, "-m", "simplicial_ideals", *argv],
        capture_output=True, text=True, env=module_env())


def test_module_entry_point(capsys, monkeypatch):
    # main() with no argv reads sys.argv, and prints what main(argv) prints
    proc = run_module("gens", "--n", "2", "--c", "2")
    assert proc.returncode == 0
    assert proc.stdout == "x0*x1\nx0*x2\nx1*x2\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(
        capsys, "gens", "--n", "2", "--c", "2")
    # a word the command does not take: the full parser's top-level usage,
    # wrapped at one width in both processes
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["gens", "--n", "2", "--c", "2", "stray"]
    proc = run_module(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == _parse_exit(main, argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: sideal [-h]")


def test_listing_past_the_budget_builds_no_representative():
    # I(10**9, 10**9) has about 5*10**17 generators; its one representative
    # would hold 10**9 + 1 exponents, which do not fit a 2 GB address space
    resource = pytest.importorskip("resource")

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))

    proc = subprocess.run(
        [sys.executable, "-m", "simplicial_ideals", "gens", "--n",
         "1000000000", "--c", "1000000000"], capture_output=True, text=True,
        env=module_env(), preexec_fn=limit_address_space, timeout=10)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("resource budget exceeded: ")


def test_principal_face_primes_answer_for_a_huge_exponent():
    # c = 1: each face-prime power has one generator and each oracle step
    # one candidate, so m = 10**9 answers at once, in a 1 GB address space
    # that a tuple of m entries would not fit
    resource = pytest.importorskip("resource")

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

    script = """if True:
        import json, sys, time
        from simplicial_ideals import FacePrime, SimplicialSpec
        from simplicial_ideals import symbolic_power_oracle
        answers = []
        for call in (lambda: symbolic_power_oracle(SimplicialSpec(3, 1), 10**9),
                     lambda: FacePrime(3, (1,)).power_ideal(10**9)):
            start = time.perf_counter()
            lists = call().to_lists()
            answers.append([lists, time.perf_counter() - start])
        print(json.dumps(answers))
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=module_env(),
                          preexec_fn=limit_address_space, timeout=30)
    assert proc.returncode == 0, proc.stderr
    (oracle, oracle_s), (power, power_s) = json.loads(proc.stdout)
    assert oracle == [[10**9] * 4] and power == [[0, 10**9, 0, 0]]
    assert oracle_s < 1 and power_s < 1


def test_missing_subcommand_exits_two():
    proc = run_module()
    assert proc.returncode == 2


def test_only_verify_loads_the_harness():
    # in a fresh interpreter: the package root loads the algebra only, and
    # a sideal call loads the claim harness only for ``verify``
    script = """if True:
        import json, sys
        import simplicial_ideals
        root = sorted(m for m in sys.modules
                      if m.startswith("simplicial_ideals."))
        from simplicial_ideals.cli import main
        main(["containment", "--n", "3", "--c", "2", "--m", "3", "--r", "2"])
        query = "simplicial_ideals.verification" in sys.modules
        main(["verify", "triangle"])
        verify = "simplicial_ideals.verification" in sys.modules
        print(json.dumps([root, query, verify]), file=sys.stderr)
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=module_env())
    assert proc.returncode == 0, proc.stderr
    root, query, verify = json.loads(proc.stderr)
    assert root == [f"simplicial_ideals.{name}" for name in (
        "containment", "errors", "faceprime", "ideals", "monomials",
        "simplicial")]
    assert (query, verify) == (False, True)


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_listing_into_a_closed_pipe_ends_quietly():
    # as in ``sideal gens ... | head -2``: the reader leaves after two rows
    # of a listing far longer than a pipe buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "simplicial_ideals", "gens", "--n", "12",
         "--c", "4", "--power", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=module_env())
    rows = [proc.stdout.readline(), proc.stdout.readline()]
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == -signal.SIGPIPE
    assert err == ""
    assert rows == ["x0^2*x1^2*x2^2*x3^2*x4^2*x5^2*x6^2*x7^2*x8^2*x9^2\n",
                    "x0^2*x1^2*x2^2*x3^2*x4^2*x5^2*x6^2*x7^2*x8^2*x9*x10\n"]
