"""Write cli_digests.tsv, the table that tests/test_cli_digests.py replays:
one row per invocation of the grid below, each in text (the default)
and in JSON.

Run it from the repository root, with no SIDEAL_* variable set, after an
intended output change, and list every changed row in CHANGES.md:

    PYTHONPATH=src python tests/data/make_cli_digests.py
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
from test_cli_digests import TABLE, digest_row  # noqa: E402

# the listings and queries that CI's "No hang" step refuses by the budget
REFUSALS = [
    "gens --n 30 --c 15 --power 5", "gens --n 40 --c 20",
    "gens --n 100000 --c 50000", "gens --n 4000000 --c 2000000",
    "gens --n 1200 --c 1200 --symbolic 2",
    "resurgence --n 2 --c 2 --witnesses 100000000",
    "gens --n 1000000000 --c 1000000000",
    "gens --n 999999 --c 999999 --symbolic 1",
    "containment --n 8 --c 7 --m 20 --r 1 --oracle",
    "containment-sym --n 8 --c 7 --d 8 --m 20 --s 1 --oracle",
    "gens --n 8 --c 4 --symbolic 6 --max-candidates 1000",
]

# an n of 2**63 - 1 or more asks for a tuple or list past the platform's
# index size, which exits 3 as out of memory
OVERFLOWS = [
    "gens --n 9223372036854775807 --c 1",
    "member --n 9223372036854775807 --c 6 --power 1 x0",
    "containment --n 9223372036854775808 --c 1 --m 100 --r 2 --oracle",
]

# usage errors that the commands themselves report (argparse's own
# messages vary with the Python version and stay out)
ERRORS = [
    "gens --n 2 --c 3", "gens --n 3 --c 2 --power 0",
    "gens --n 3 --c 2 --symbolic 0", "member --n 3 --c 2 --power 1 x4",
    "member --n 3 --c 2 --symbolic 1 x0^", "containment --n 3 --c 2 --m 0 --r 1",
    "containment-sym --n 3 --c 2 --d 4 --m 1 --s 1",
    "resurgence --n 0 --c 1",
    # a bad (n, c) is reported before any count is checked against the budget
    "resurgence --n 2 --c 5 --witnesses 100000000",
    "resurgence --n 2 --c 5 --box 1000000000 1",
]


def grid():
    """Every invocation of the table, as space-separated argv strings."""
    for n in range(1, 7):
        for c in range(1, n + 1):
            spec = f"--n {n} --c {c}"
            yield f"gens {spec}"
            yield from (f"gens {spec} --power {r}" for r in range(1, 4))
            yield from (f"gens {spec} --symbolic {m}" for m in range(1, 7))
    # past _BLOCK generators in one degree: one orbit of C(13, 7) = 1716
    # generators, degrees whose orbits mix and are split on their leading
    # entries, and a lone orbit of 1260 beside a smaller degree
    yield "gens --n 12 --c 7"
    yield from ("gens --n 8 --c 6 --symbolic 4", "gens --n 8 --c 5 --power 2",
                "gens --n 9 --c 6 --symbolic 3")
    # exponents of two digits: 19 and 210 generators with entries up to 12
    # and 10, and a single generator, written with the listing's header
    yield from ("gens --n 2 --c 2 --symbolic 12", "gens --n 4 --c 3 --symbolic 10",
                "gens --n 3 --c 1 --power 11")
    for monomial in ("1", "x0^2*x1", "x0*x1*x2*x3", "x0^3*x1^2*x2^2*x3^5"):
        for kind in ("--power 1", "--power 2", "--symbolic 1",
                     "--symbolic 2", "--symbolic 4"):
            yield f"member --n 3 --c 2 {kind} {monomial}"
    for n in range(2, 5):
        for c in range(1, n + 1):
            for m in (1, 3, 5):
                for r in (1, 2, 4):
                    yield f"containment --n {n} --c {c} --m {m} --r {r}"
                    yield f"containment --n {n} --c {c} --m {m} --r {r} --oracle"
            for d in range(1, n + 1):
                for m in (2, 5):
                    for s in (1, 3):
                        query = f"--n {n} --c {c} --d {d} --m {m} --s {s}"
                        yield f"containment-sym {query}"
                        yield f"containment-sym {query} --oracle"
    # noncontainments just under the budget stop at a representative
    yield "containment --n 8 --c 7 --m 19 --r 9 --oracle"
    yield "containment-sym --n 8 --c 7 --d 6 --m 19 --s 1 --oracle"
    for n, c in ((1, 1), (2, 2), (3, 2), (4, 3), (6, 4)):
        yield f"resurgence --n {n} --c {c}"
        yield f"resurgence --n {n} --c {c} --witnesses 4 --box 6 5"
    yield from REFUSALS
    yield from OVERFLOWS
    yield from ERRORS
    yield "verify all"


def invocations():
    """The table's argv column: each line of grid() in text, then in JSON."""
    for line in grid():
        yield line
        yield f"{line} --format json"


def main():
    if any(name.startswith("SIDEAL_") for name in os.environ):
        raise SystemExit("unset every SIDEAL_* variable first")
    rows = [digest_row(argv.split()) for argv in invocations()]
    TABLE.write_text("".join(row + "\n" for row in rows))
    print(f"{TABLE}: {len(rows)} rows")


if __name__ == "__main__":
    main()
