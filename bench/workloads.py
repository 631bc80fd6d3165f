"""The three benchmark workloads.

Each workload turns a seed into a fixed batch of operations (one *pass*),
runs one operation at a time (a closed loop with one client), and checks
every answer outside the timed region.  ``lib`` is a namespace holding the
package modules; every call goes through a module attribute, so the tracing
wrappers see it.

* ``verify-all``: ``run_verification("all")`` at the default bounds.  This is
  the end-to-end command users run, and the workload where ideal reduction
  and monomial divisibility do most of the work.
* ``oracle-sweep``: containment oracles for n in 5..8 and 2 <= c < n.  The
  symbolic powers are built through the trusted minimal-generator path, so
  antichain reduction never runs: the bypass case for a faster ideal core
  and the target for symmetry-reduced oracles.
* ``cli-queries``: small ``sideal`` invocations through ``cli.main`` in
  process, where argument parsing and config loading dominate each call.
  Every parameter stays inside the default budgets, so no call can hang.
"""

import contextlib
import hashlib
import io
import json
import random

N_CLAIMS = 28


def _digest(view):
    return hashlib.sha256(json.dumps(view).encode()).digest()


class VerifyAll:
    """One operation per pass: the whole default sweep.  Its latency samples
    are the 28 per-claim wall times that run_verification reports."""

    name = "verify-all"
    samples_per_op = N_CLAIMS

    def make_inputs(self, lib, seed):
        # no inputs to draw: the claims and bounds are fixed
        return [("all",)]

    def warm_up(self, lib):
        lib.verification.run_verification("triangle")

    def run(self, lib, op):
        return lib.verification.run_verification(*op)

    def latencies_ms(self, outcome, seconds):
        return [res.wall_time_ms for res in outcome]

    def claim_seconds(self, outcome):
        # "general/filtrations-descend" -> verification.claim.general.filtrations-descend.s
        return {"verification.claim.%s.s" % res.claim_id.replace("/", "."):
                res.wall_time_ms / 1000.0 for res in outcome}

    def check(self, lib, op, outcome):
        verdicts = [res.status == "pass" and res.counterexample is None
                    for res in outcome]
        # a missing claim counts as a failed one
        return verdicts + [False] * (N_CLAIMS - len(verdicts))

    def describe(self, batch):
        return {"operations_per_pass": 1, "claims_per_pass": N_CLAIMS}


class _Queries:
    """A workload whose operations are single queries: one latency sample
    each, timed by the harness."""

    samples_per_op = 1

    def latencies_ms(self, outcome, seconds):
        return [seconds * 1000.0]

    def claim_seconds(self, outcome):
        return {}


class OracleSweep(_Queries):
    """Per pass: for each cell (n, c) with 5 <= n <= 8, 2 <= c < n, and each
    m in 1..M_MAX, one oracle query, plus one least-containing-m query per
    cell.

    Everything that sets a query's cost is the same for every seed, so the
    seed does not move the pass time: the grid (n, c, m); which oracle
    answers each m (the two alternate with m); for symbolic-in-ordinary
    queries, the side of the containment boundary (the largest contained r,
    a full scan, or one above it, a scan that stops at the first
    noncontained generator; the two alternate), so the oracle is checked
    where it is hardest; for symbolic-in-symbolic queries, d (cycling
    through c..n), with s at most the largest s the closed form proves
    contained, so every generator is scanned and the oracle must say True;
    and the least-m query's r.  The seed draws s and the order of the
    queries.
    """

    name = "oracle-sweep"
    M_MAX = 8
    R_MAX = 8
    S_MAX = 12
    # least-containing-m queries scan m = 1, 2, ...; keep that scan short
    LEAST_M_MAX = 6

    def make_inputs(self, lib, seed):
        rng = random.Random(seed)
        criterion = lib.containment.containment_criterion
        smallest = lib.containment.smallest_containing_symbolic_power
        batch = []
        for n in range(5, 9):
            for c in range(2, n):
                for m in range(1, self.M_MAX + 1):
                    # the m of one kind in this cell are m0, m0 + 2, ...;
                    # j counts them
                    j = (m - 1) // 2
                    if (m + n + c) % 2 == 0:
                        r = 1  # m >= 1 always gives containment at r = 1
                        while criterion(n, c, m, r + 1):
                            r += 1
                        above = (j + n + c) % 2
                        batch.append(("sym-in-ord", n, c, m, r + above))
                    else:
                        d = c + (j + n) % (n - c + 1)
                        # s * c <= m * d: the closed form proves containment
                        s_max = min(self.S_MAX, m * d // c)
                        batch.append(("sym-in-sym", n, c, d, m,
                                      rng.randint(1, s_max)))
                rs = [r for r in range(1, self.R_MAX + 1)
                      if smallest(n, c, r) <= self.LEAST_M_MAX]
                batch.append(("least-m", n, c, rs[(n + c) % len(rs)]))
        rng.shuffle(batch)
        return batch

    def warm_up(self, lib):
        lib.containment.containment_oracle(5, 2, 2, 1)
        lib.containment.symbolic_containment_oracle(5, 2, 3, 2, 2)
        lib.containment.smallest_containing_symbolic_power(5, 2, 1,
                                                           use_oracle=True)

    def run(self, lib, op):
        kind, *params = op
        con = lib.containment
        if kind == "sym-in-ord":
            return con.containment_oracle(*params)
        if kind == "sym-in-sym":
            return con.symbolic_containment_oracle(*params)
        n, c, r = params
        return con.smallest_containing_symbolic_power(n, c, r, use_oracle=True)

    def check(self, lib, op, outcome):
        kind, *params = op
        con = lib.containment
        if kind == "sym-in-ord":
            ok = outcome == con.containment_criterion(*params)
        elif kind == "sym-in-sym":
            n, c, d, m, s = params
            # the closed form is only sufficient: it may say False on a
            # containment, never True on a noncontainment
            ok = isinstance(outcome, bool) and (
                outcome or not con.symbolic_containment_sufficient(c, d, m, s))
        else:
            ok = outcome == con.smallest_containing_symbolic_power(*params)
        return [ok]

    def describe(self, batch):
        return {"operations_per_pass": len(batch)}


class CliQueries(_Queries):
    """Per pass: for each command shape and each (n, c) with 1 <= c <= n <= 6,
    two invocations, plus LARGEST.  The seed draws the other parameters and
    the format (about half ``--format json``).

    The listings and the oracle containments (n <= ORACLE_N_MAX) cost most
    and grow steeply with the exponent, so their cost-setting parameters
    are the same for every seed, and each seed does as much work.  Of the
    two such calls per (n, c), one takes its exponent from the lower half
    of the range and one from the upper half, cycling through each half
    over the cells.  An oracle containment in an ordinary power sits at
    the largest contained r for the lower call and one above it for the
    upper; in a symbolic power, d cycles through c..n and the seed draws s
    up to the largest s the closed form proves contained.
    """

    name = "cli-queries"
    KINDS = ("gens", "gens-symbolic", "gens-power", "member-symbolic",
             "member-power", "containment", "containment-sym", "resurgence")
    N_MAX = 6
    ORACLE_N_MAX = 4
    # the largest listings allowed (7140 and 4158 generators), in both
    # formats, are in every batch, so peak memory does not depend on the seed
    LARGEST = (("gens", "--n", "6", "--c", "5", "--power", "4"),
               ("gens", "--n", "6", "--c", "6", "--symbolic", "8"))

    def __init__(self):
        # digests of the expected answers by query (format stripped),
        # computed once; digests keep large generator lists out of memory
        self._expected = {}

    def make_inputs(self, lib, seed):
        rng = random.Random(seed)
        batch = [argv + fmt for argv in self.LARGEST
                 for fmt in ((), ("--format", "json"))]
        for kind in self.KINDS:
            for n in range(1, self.N_MAX + 1):
                for c in range(1, n + 1):
                    for upper in (False, True):
                        batch.append(self._argv(lib, rng, kind, n, c,
                                                upper))
        rng.shuffle(batch)
        return batch

    def _argv(self, lib, rng, kind, n, c, upper):
        nc = ["--n", str(n), "--c", str(c)]
        if kind == "gens":
            argv = ["gens", *nc]
        elif kind == "gens-symbolic":
            m = 1 + 4 * upper + (n + c) % 4
            argv = ["gens", *nc, "--symbolic", str(m)]
        elif kind == "gens-power":
            r = 1 + 2 * upper + (n + c) % 2
            argv = ["gens", *nc, "--power", str(r)]
        elif kind.startswith("member"):
            flag = "--symbolic" if kind == "member-symbolic" else "--power"
            exps = [rng.randint(0, 4) for _ in range(n + 1)]
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exps) if e) or "1"
            argv = ["member", *nc, flag, str(rng.randint(1, 6)), mono]
        elif kind.startswith("containment") and n <= self.ORACLE_N_MAX:
            # m <= 11 keeps r + 1 <= m + 1 inside the oracle's r cap of 12
            m = 1 + 5 * upper + (n + c) % 6
            if kind == "containment":
                r = 1  # m >= 1 always gives containment at r = 1
                while lib.containment.containment_criterion(n, c, m, r + 1):
                    r += 1
                argv = ["containment", *nc, "--m", str(m),
                        "--r", str(r + upper)]
            else:
                d = c + (n + upper) % (n - c + 1)
                s = rng.randint(1, min(12, m * d // c))
                argv = ["containment-sym", *nc, "--d", str(d),
                        "--m", str(m), "--s", str(s)]
        elif kind == "containment":
            argv = ["containment", *nc, "--m", str(rng.randint(1, 12)),
                    "--r", str(rng.randint(1, 12))]
        elif kind == "containment-sym":
            argv = ["containment-sym", *nc, "--d", str(rng.randint(c, n)),
                    "--m", str(rng.randint(1, 12)),
                    "--s", str(rng.randint(1, 12))]
        else:
            argv = ["resurgence", *nc, "--witnesses", str(rng.randint(0, 10)),
                    "--box", str(rng.randint(1, 30)), str(rng.randint(1, 30))]
        if kind.startswith("containment") and n <= self.ORACLE_N_MAX:
            argv.append("--oracle")
        if rng.random() < 0.5:
            argv += ["--format", "json"]
        return tuple(argv)

    def warm_up(self, lib):
        for argv in (["gens", "--n", "2", "--c", "1"],
                     ["containment", "--n", "3", "--c", "2", "--m", "3",
                      "--r", "2", "--format", "json"]):
            self.run(lib, argv)

    def run(self, lib, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(list(op))
        return code, out.getvalue()

    def check(self, lib, op, outcome):
        code, text = outcome
        if code != 0:
            return [False]
        as_json = op[-2:] == ("--format", "json")
        query = op[:-2] if as_json else op
        if query not in self._expected:
            self._expected[query] = tuple(
                _digest(view) for view in self._expect(lib, query))
        expected = self._expected[query]
        if as_json:
            got = self._json_view(query[0], json.loads(text))
        else:
            got = self._text_view(query[0], text)
        return [_digest(got) == expected[1 if as_json else 0]]

    @staticmethod
    def _opt(query, flag):
        if flag not in query:
            return None
        return int(query[query.index(flag) + 1])

    def _expect(self, lib, query):
        """(text view, json view) of the answer, from direct library calls."""
        si = lib.package
        cmd = query[0]
        n, c = self._opt(query, "--n"), self._opt(query, "--c")
        spec = si.SimplicialSpec(n, c)
        oracle = "--oracle" in query
        if cmd == "gens":
            m, r = self._opt(query, "--symbolic"), self._opt(query, "--power")
            if m is not None:
                ideal = si.symbolic_power(spec, m)
            elif r is not None:
                ideal = si.ordinary_power_min_gens(spec, r)
            else:
                ideal = si.simplicial_ideal(spec)
            return ideal.to_text(), ideal.to_lists()
        if cmd == "member":
            mono = si.Monomial.parse(query[-1], n)
            m = self._opt(query, "--symbolic")
            if m is not None:
                member = si.symbolic_member(spec, m, mono)
            else:
                member = si.ordinary_member(spec, self._opt(query, "--power"),
                                            mono)
            return member, member
        if cmd == "containment":
            m, r = self._opt(query, "--m"), self._opt(query, "--r")
            fast = si.containment_criterion(n, c, m, r)
            slow = si.containment_oracle(n, c, m, r) if oracle else None
            return (fast, slow), (fast, slow)
        if cmd == "containment-sym":
            d, m, s = (self._opt(query, k) for k in ("--d", "--m", "--s"))
            fast = si.symbolic_containment_sufficient(c, d, m, s)
            slow = (si.symbolic_containment_oracle(n, c, d, m, s)
                    if oracle else None)
            return (fast, slow), (fast, slow)
        k = self._opt(query, "--witnesses")
        box_at = query.index("--box")
        box = (int(query[box_at + 1]), int(query[box_at + 2]))
        report = si.resurgence_report(n, c, witness_count=k, box=box)
        sup = None if report.empirical_sup is None else str(report.empirical_sup)
        view = (str(report.rho), len(report.witnesses), sup)
        return view, view

    @staticmethod
    def _json_view(cmd, payload):
        if cmd == "gens":
            return payload["generators"]
        if cmd == "member":
            return payload["member"]
        if cmd.startswith("containment"):
            return payload["fast"], payload["oracle"]
        return payload["rho"], len(payload["witnesses"]), payload["empirical_sup"]

    @staticmethod
    def _text_view(cmd, text):
        if cmd == "gens":
            return text
        lines = text.splitlines()
        if cmd == "member":
            return {"true": True, "false": False}.get(lines[0])
        if cmd.startswith("containment"):
            fields = dict(line.split(": ", 1) for line in lines[1:])
            as_bool = {"true": True, "false": False}
            return (as_bool.get(fields.get("fast")),
                    as_bool.get(fields["oracle"]) if "oracle" in fields else None)
        rho = lines[0].split(" = ", 1)[1]
        witnesses = sum(1 for line in lines if line.startswith("  k="))
        box = lines[-1]
        sup = None if box.endswith("no noncontained pairs") else (
            box.split(" sup ", 1)[1].split(" at ", 1)[0])
        return rho, witnesses, sup

    def describe(self, batch):
        return {"operations_per_pass": len(batch),
                "json_share": sum(op[-1] == "json" for op in batch) / len(batch)}


WORKLOADS = {w.name: w for w in (VerifyAll, OracleSweep, CliQueries)}
