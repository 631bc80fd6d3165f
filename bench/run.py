"""Benchmark for simplicial_ideals.

    python3 bench/run.py --workload {verify-all,oracle-sweep,cli-queries}
        --seed N --seconds S --trace {0,1}

Imports the package from ``src/`` next to this directory, in this process,
on one thread, with the fixed hash seed HASH_SEED (the script re-executes
itself to set it).  A run:

1. sets up SETUP_REPEATS times (fresh import of the package, input
   generation from the seed, a small warm-up) and reports the median as
   ``setup_s``;
2. runs whole passes over the seeded batch, one operation at a time, until
   ``--seconds`` have passed, checking every answer between operations
   (outside the timed region);
3. takes each operation's median over the passes (see median_times_ms),
   prints a summary, then one JSON line with ``correct``, ``attempted``,
   ``failed`` and ``metrics``.

Every time reported, ``setup_s`` too, is wall time at a reference CPU speed:
the host's speed is sampled every few milliseconds all through the run, and
each time is scaled by the speed sampled during it (see speed.py).  The
summary also prints the raw wall time per pass and the host's median speed.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
passes alternate between the unmodified package and the package wrapped by
``tracing.Tracer``; the metrics are then the per-layer figures and the
tracing overhead, and the full layer table and every span are written to
``bench/out/``.

Exits 2 without a result when the package cannot be imported from ``src/``,
and 1 when no operation succeeds.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "simplicial_ideals"
MODULES = ("monomials", "ideals", "simplicial", "containment",
           "verification", "cli", "config")
SETUP_REPEATS = 15
# str hashes, and with them the layout of dicts and sets, differ between
# processes and move the package's speed by several percent; every run uses
# this one hash seed
HASH_SEED = "0"

sys.path.insert(0, str(HERE))
from speed import Speedometer  # noqa: E402
from tracing import LAYER_EXPECTATIONS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_package():
    """Import a fresh copy of the package from SRC; return a namespace of
    its modules, the package itself as ``package``."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    origin = Path(package.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"{PACKAGE} came from {origin}, not {SRC}")
    mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in MODULES}
    return types.SimpleNamespace(package=package, **mods)


def set_up(workload, seed):
    """Set up once; return (start, wall seconds) of the set-up, the package
    and the batch."""
    start = perf_counter()
    lib = import_package()
    batch = workload.make_inputs(lib, seed)
    workload.warm_up(lib)
    return (start, perf_counter() - start), lib, batch


class Pass:
    __slots__ = ("traced", "attempted", "failed", "timed", "latencies_ms",
                 "claims", "layers", "inputs", "wall_s")

    def __init__(self, traced):
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.timed = []  # (start, latencies in ms) per operation
        self.latencies_ms = []
        self.claims = {}
        self.layers = None
        self.inputs = None
        self.wall_s = 0.0


def run_pass(workload, lib, batch, tracer, errors):
    rec = Pass(traced=tracer is not None)
    if tracer is not None:
        tracer.reset()
    for op in batch:
        if tracer is not None:
            tracer.op += 1
            tracer.install()
        try:
            start = perf_counter()
            outcome = workload.run(lib, op)
            seconds = perf_counter() - start
        except Exception as exc:  # a failed operation is counted, never dropped
            seconds = perf_counter() - start
            outcome = exc
        finally:
            if tracer is not None:
                tracer.uninstall()
        latencies = []
        if isinstance(outcome, Exception):
            verdicts = [False] * workload.samples_per_op
            errors.append(f"{op!r}: {type(outcome).__name__}: {outcome}")
        else:
            try:
                verdicts = workload.check(lib, op, outcome)
            except Exception as exc:
                verdicts = [False] * workload.samples_per_op
                errors.append(f"{op!r}: check raised {type(exc).__name__}: {exc}")
            latencies = workload.latencies_ms(outcome, seconds)
            rec.claims.update(workload.claim_seconds(outcome))
            if not all(verdicts):
                errors.append(f"{op!r}: wrong answer")
        rec.wall_s += seconds
        rec.timed.append((start, latencies))
        rec.attempted += len(verdicts)
        rec.failed += verdicts.count(False)
    if tracer is not None:
        rec.layers = tracer.layer_metrics()
        rec.inputs = tracer.input_properties()
    return rec


def measure(workload, lib, batch, seconds, tracer):
    """Whole passes until `seconds` have passed; with a tracer, passes
    alternate untraced / traced and at least one of each is made."""
    passes, errors = [], []
    deadline = perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(workload, lib, batch,
                               tracer if traced else None, errors))
        enough = tracer is None or len(passes) >= 2
        if enough and perf_counter() >= deadline:
            return passes, errors


def to_reference(workload, passes, speed):
    """Fill each pass's latencies_ms: its operations' samples at the
    reference speed.  An operation's samples ran one after another from its
    start (verify-all's claims), so each is scaled by the speed during it."""
    for rec in passes:
        for start, latencies in rec.timed:
            for ms in latencies:
                rec.latencies_ms.append(
                    1000.0 * speed.at_reference(start, ms / 1000.0))
                start += ms / 1000.0
            # one slot per sample, so that slot i is the same sample in
            # every pass
            rec.latencies_ms.extend(
                [None] * (workload.samples_per_op - len(latencies)))


def median_times_ms(passes):
    """Each operation's median time over the passes, in batch order.

    Every slot of the batch runs once per pass.  The times are already at
    the reference speed, so the median only has to absorb what the sampling
    misses, such as a sample that was itself interrupted.
    """
    slots = zip(*(p.latencies_ms for p in passes))
    return [statistics.median(done) for done in
            ([ms for ms in slot if ms is not None] for slot in slots) if done]


def end_to_end(passes, setup_times):
    """End-to-end metrics of the untraced passes: the batch's time and rate
    at each operation's median, and the median and 90th percentile over the
    operations' median times."""
    plain = [p for p in passes if not p.traced]
    times = median_times_ms(plain)
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    sweep_s = sum(times) / 1000.0
    correct = statistics.mean(p.attempted - p.failed for p in plain)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "sweep_s": (sweep_s, "s"),
        "ops_per_s": (correct / sweep_s, "1/s"),
        "op_p50_ms": (deciles[4], "ms"),
        "op_p90_ms": (deciles[8], "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }, (len(times), len(plain))


def layer_table(passes):
    """Each layer figure at its best over the traced passes (counts are the
    same in every pass), the best per-claim wall times (measured by the
    package) of the untraced passes, and the tracing overhead: traced over
    untraced sweep time, both at the reference speed."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    table = {name: min(p.layers[name] for p in traced)
             for name in traced[0].layers}
    for claim in plain[0].claims:
        table[claim] = min(p.claims[claim] for p in plain)
    table["trace.overhead"] = (sum(median_times_ms(traced))
                               / sum(median_times_ms(plain)))
    return table


def trace_report(workload, seed, passes, tracer):
    """Print and write out the layer table; return the JSON-line metrics."""
    table = layer_table(passes)
    inputs = next(p.inputs for p in passes if p.traced)
    print(f"input properties (one traced pass): {json.dumps(inputs)}")
    for name, value in table.items():
        print(f"  {name:<64} {value:.6g}")
    for layer, moves in LAYER_EXPECTATIONS.items():
        print(f"  {layer} should move: {moves}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "layers": table, "input_properties": inputs,
                   "layer_expectations": LAYER_EXPECTATIONS,
                   "span_fields": ["op", "span", "parent", "name",
                                   "start_s", "end_s"],
                   "spans": tracer.spans}, fh)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    with open(ROOT / "BENCHMARK.json") as fh:
        reported = json.load(fh)["per_layer"]
    return {m["name"]: {"value": table[m["name"]], "unit": m["unit"]}
            for m in reported}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the CLI reads SIDEAL_* settings; the benchmark runs on the defaults
    for key in [k for k in os.environ if k.startswith("SIDEAL_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    speed = Speedometer()
    speed.start()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            lib = batch = None
            # free the previous copy of the package, untimed, so that the
            # copies do not add up in peak memory
            gc.collect()
            timing, lib, batch = set_up(workload, args.seed)
            setups.append(timing)
        tracer = Tracer(vars(lib)) if args.trace else None
        start = perf_counter()
        passes, errors = measure(workload, lib, batch, args.seconds, tracer)
        wall = perf_counter() - start
        speed.settle()
    except ImportError as exc:
        print(f"cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
        return 2
    finally:
        speed.stop()
    setup_times = [speed.at_reference(*timing) for timing in setups]
    to_reference(workload, passes, speed)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if failed == attempted:
        print("\n".join(errors[:20]), file=sys.stderr)
        print("no operation succeeded; nothing to measure", file=sys.stderr)
        return 1
    e2e, (n_ops, n_plain) = end_to_end(passes, setup_times)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes in {wall:.1f} s, closed loop, one client")
    print(f"inputs: {json.dumps(workload.describe(batch))}")
    for err in errors[:20]:
        print(f"FAILED {err}")
    for name, (value, unit) in e2e.items():
        print(f"{name:<12} {value:12.4f} {unit}")
    print(f"{'error_rate':<12} {failed / attempted:12.4f} "
          f"({failed} failed / {attempted} attempted)")
    print(f"times: each of {n_ops} operations at its median of {n_plain} "
          f"untraced passes; setup_s the median of {SETUP_REPEATS} set-ups; "
          f"all at the reference speed")
    raw = statistics.median(p.wall_s for p in passes if not p.traced)
    print(f"raw wall time per untraced pass (median) {raw:.4f} s; host speed "
          f"median {speed.median_speed():.3f} x reference over "
          f"{len(speed.durations)} samples")

    if args.trace:
        metrics = trace_report(workload, args.seed, passes, tracer)
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # replaces this process (same pid), so there is no child to wait for
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
