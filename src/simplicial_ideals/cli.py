"""Command line front end.

Subcommands: ``gens`` (generator listings), ``member`` (membership with an
explanation), ``containment`` and ``containment-sym`` (fast verdicts with
optional brute-force cross checks), ``resurgence`` (exact value, witnesses,
box sweep) and ``verify`` (the claim harness, imported by it alone).

Exit codes: 0 success, 1 a verified claim failed, 2 usage error, 3 a
resource budget was exceeded or memory ran out.
"""

import argparse
import json
import signal
import sys

from .config import load_config
from .containment import (containment_criterion, containment_oracle, resurgence_report,
                          symbolic_containment_oracle, symbolic_containment_sufficient)
from .errors import (BudgetExceededError, DimensionError, MonomialParseError,
                     ParameterError)
from .monomials import Monomial, exps_lines
from .simplicial import (
    SimplicialSpec,
    _check_spec,
    ordinary_member_detail,
    ordinary_power_stream,
    simplicial_ideal_stream,
    symbolic_member_detail,
    symbolic_power_stream,
)

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _dumps(payload):
    # insertion-ordered keys, fixed indent: byte-identical across runs
    return json.dumps(payload, indent=2) + "\n"


def _bool_text(value):
    return "true" if value else "false"


def _frac_text(value):
    return None if value is None else str(value)


def _cmd_gens(args, budget):
    spec = SimplicialSpec(args.n, args.c)
    # counted (and checked against the budget) before the first byte is
    # written; the rows are then written as the stream yields them
    if args.power is not None:
        count, stream = ordinary_power_stream(spec, args.power, budget)
        kind, exponent = "power", args.power
    elif args.symbolic is not None:
        count, stream = symbolic_power_stream(spec, args.symbolic, budget)
        kind, exponent = "symbolic", args.symbolic
    else:
        count, stream = simplicial_ideal_stream(spec, budget)
        kind, exponent = "ideal", None
    out = sys.stdout
    if args.format != "json":
        out.writelines(exps_lines(stream, args.n + 1))
        return EXIT_OK
    # the bytes of _dumps(payload) with the generator list written row by
    # row: every listing has at least one generator, so the list is never []
    payload = {"n": args.n, "c": args.c, "kind": kind, "exponent": exponent,
               "count": count, "generators": []}
    head, tail = _dumps(payload).rsplit("[]", 1)
    out.write(head + "[")
    sep = "\n"
    for exps in stream:
        row = ",\n      ".join(map(str, exps))
        out.write(f"{sep}    [\n      {row}\n    ]")
        sep = ",\n"
    out.write("\n  ]" + tail)
    return EXIT_OK


def _cmd_member(args, budget):
    spec = SimplicialSpec(args.n, args.c)
    mono = Monomial.parse(args.monomial, args.n)
    if args.symbolic is not None:
        m = args.symbolic
        kind, exponent = "symbolic", m
        member, subset, subset_sum = symbolic_member_detail(spec, m, mono)
        detail = {"subset": subset, "subset_sum": subset_sum, "required": m}
        names = ", ".join(f"x{i}" for i in subset)
        if member:
            explain = (f"every {args.c}-subset of variables has exponent sum"
                       f" >= {m} (minimum {subset_sum} on {{{names}}})")
        else:
            explain = f"subset {{{names}}} has exponent sum {subset_sum} < {m}"
    else:
        r = args.power
        kind, exponent = "power", r
        member, capped, required = ordinary_member_detail(spec, r, mono)
        detail = {"capped_degree": capped, "required": required}
        if member:
            explain = f"capped degree {capped} meets required {required}"
        else:
            explain = (f"capped degree {capped} below required {required}"
                       f" (deficit {required - capped})")
    if args.format == "json":
        payload = {"query": {"n": args.n, "c": args.c, "kind": kind,
                             "exponent": exponent, "monomial": str(mono)},
                   "member": member, "detail": detail}
        sys.stdout.write(_dumps(payload))
    else:
        print(_bool_text(member))
        print(explain)
    return EXIT_OK


def _print_verdict(query, label, fast, oracle, fmt):
    agree = None if oracle is None else fast == oracle
    if fmt == "json":
        sys.stdout.write(_dumps({"query": query, "fast": fast,
                                 "oracle": oracle, "agree": agree}))
    else:
        print(f"query: {label}")
        print(f"fast: {_bool_text(fast)}")
        if oracle is not None:
            print(f"oracle: {_bool_text(oracle)}")
            print(f"agree: {_bool_text(agree)}")
    return agree


def _cmd_containment(args, budget):
    n, c, m, r = args.n, args.c, args.m, args.r
    fast = containment_criterion(n, c, m, r)
    oracle = (containment_oracle(n, c, m, r, max_candidates=budget)
              if args.oracle else None)
    agree = _print_verdict({"n": n, "c": c, "m": m, "r": r},
                           f"I^({m})({n},{c}) in I({n},{c})^{r}",
                           fast, oracle, args.format)
    # the closed form is exact, so any oracle disagreement is a claim failure
    return EXIT_CLAIM_FAILED if agree is False else EXIT_OK


def _cmd_containment_sym(args, budget):
    n, c, d, m, s = args.n, args.c, args.d, args.m, args.s
    # the sufficient condition never sees n: check c and d against it first
    _check_spec(n, c)
    _check_spec(n, d)
    fast = symbolic_containment_sufficient(c, d, m, s)
    oracle = (symbolic_containment_oracle(n, c, d, m, s, max_candidates=budget)
              if args.oracle else None)
    # the fast path is sufficient only: fast=false with oracle=true is
    # expected, so a disagreement is still exit 0
    _print_verdict({"n": n, "c": c, "d": d, "m": m, "s": s},
                   f"I^({m})({n},{c}) in I^({s})({n},{d})",
                   fast, oracle, args.format)
    return EXIT_OK


def _cmd_resurgence(args, budget):
    report = resurgence_report(args.n, args.c, witness_count=args.witnesses,
                               box=args.box, max_candidates=budget)
    if args.format == "json":
        payload = {
            "n": report.n, "c": report.c, "rho": _frac_text(report.rho),
            "witnesses": [[k, m, r, _frac_text(ratio)]
                          for k, m, r, ratio in report.witnesses],
            "box": list(report.box) if report.box else None,
            "empirical_sup": _frac_text(report.empirical_sup),
            "empirical_argmax": (list(report.empirical_argmax)
                                 if report.empirical_argmax else None),
        }
        sys.stdout.write(_dumps(payload))
        return EXIT_OK
    print(f"rho(I({report.n},{report.c})) = {report.rho}")
    if report.witnesses:
        print("witnesses (noncontained, ratio -> rho):")
        for k, m, r, ratio in report.witnesses:
            print(f"  k={k}  m={m}  r={r}  ratio={ratio}")
    if report.box:
        where = report.empirical_argmax
        if report.empirical_sup is None:
            print(f"box m <= {report.box[0]}, r <= {report.box[1]}: "
                  "no noncontained pairs")
        else:
            print(f"box m <= {report.box[0]}, r <= {report.box[1]}: "
                  f"sup {report.empirical_sup} at m={where[0]}, r={where[1]}")
    return EXIT_OK


def _cmd_verify(args, budget):
    from .verification import (DEEP_BOUNDS, DEFAULT_BOUNDS, results_to_records,
                               run_verification, summary_lines)
    results = run_verification(
        args.scope, DEEP_BOUNDS if args.deep else DEFAULT_BOUNDS)
    records = results_to_records(results, include_times=args.timings)
    failed = sum(1 for res in results if res.status != "pass")
    payload = {"scope": args.scope, "deep": args.deep,
               "passed": len(results) - failed, "failed": failed,
               "claims": records}
    if args.report:
        try:
            with open(args.report, "w") as fh:
                fh.write(_dumps(payload))
        except OSError as exc:
            raise ParameterError(f"cannot write report {args.report}: {exc}")
    if args.format == "json":
        sys.stdout.write(_dumps(payload))
    else:
        for line in summary_lines(results, include_times=args.timings):
            print(line)
        if args.report:
            print(f"report written to {args.report}")
    return EXIT_OK if failed == 0 else EXIT_CLAIM_FAILED


def _common_args(p, budget):
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default text)")
    p.add_argument("--config", default=None, metavar="PATH",
                   help="config file of key = value lines")
    if budget:
        p.add_argument("--max-candidates", type=int, default=None, metavar="N",
                       help="most generators a listing or oracle builds; "
                            "also the largest --box M and --witnesses K")


def _spec_args(p, budget=True):
    # the ideal I(n,c) that gens, member, containment* and resurgence ask about
    _common_args(p, budget)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)


def _gens_args(p):
    _spec_args(p)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--power", type=int, metavar="R",
                       help="ordinary power I^R")
    which.add_argument("--symbolic", type=int, metavar="M",
                       help="symbolic power I^(M)")
    p.set_defaults(handler=_cmd_gens)


def _member_args(p):
    _spec_args(p, budget=False)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--power", type=int, metavar="R")
    which.add_argument("--symbolic", type=int, metavar="M")
    p.add_argument("monomial", help="e.g. 'x0^2*x1' or '1'")
    p.set_defaults(handler=_cmd_member)


def _containment_args(p):
    _spec_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the generator sweep")
    p.set_defaults(handler=_cmd_containment)


def _containment_sym_args(p):
    _spec_args(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(handler=_cmd_containment_sym)


def _resurgence_args(p):
    _spec_args(p)
    p.add_argument("--witnesses", type=int, default=0, metavar="K",
                   help="print witness pairs for k = 1..K")
    p.add_argument("--box", type=int, nargs=2, metavar=("M", "R"),
                   help="scan the m x r box for the empirical supremum")
    p.set_defaults(handler=_cmd_resurgence)


def _verify_args(p):
    from .verification import SCOPES
    _common_args(p, budget=False)
    p.add_argument("scope", choices=SCOPES)
    p.add_argument("--deep", action="store_true", help="widen every sweep")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="also write the JSON report here")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock (breaks byte-identical output)")
    p.set_defaults(handler=_cmd_verify)


# subcommand -> (help line, function adding its arguments), in help order
COMMANDS = {
    "gens": ("list minimal generators", _gens_args),
    "member": ("membership test with the binding constraint", _member_args),
    "containment": ("is I^(m)(n,c) inside I(n,c)^r?", _containment_args),
    "containment-sym": ("is I^(m)(n,c) inside I^(s)(n,d)?",
                        _containment_sym_args),
    "resurgence": ("exact resurgence with optional evidence",
                   _resurgence_args),
    "verify": ("run the registered claim suite", _verify_args),
}


def build_parser(command=None):
    """The parser of the words after ``sideal <command>``, or, when
    ``command`` is None, the full parser with every subcommand.  The full
    parser names its subparser ``"sideal " + command`` too, so both print
    the same bytes; building one command costs a fraction of all six.
    """
    if command is not None:
        parser = argparse.ArgumentParser(prog="sideal " + command)
        COMMANDS[command][1](parser)
        return parser
    parser = argparse.ArgumentParser(
        prog="sideal",
        description="skeleton ideals of the coordinate simplex: generators, "
                    "powers, containments, resurgence")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args) in COMMANDS.items():
        add_args(sub.add_parser(name, help=help_line))
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    if command is not None:
        args, rest = build_parser(command).parse_known_args(argv[1:])
    if command is None or rest:
        # no command, or words it does not take: the full parser reports it
        args = build_parser().parse_args(argv)
    try:
        budget = load_config(args.config, getattr(args, "max_candidates", None))
        return args.handler(args, budget)
    except (ParameterError, MonomialParseError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        # an allocation the budget let through failed: still a resource
        # running out, not a failed claim
        print("out of memory", file=sys.stderr)
        return EXIT_BUDGET


def entry():
    # a listing piped into ``head`` ends quietly when the reader leaves, as
    # ``seq | head`` does, instead of raising BrokenPipeError on the next write
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
