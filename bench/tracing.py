"""Per-layer tracing from outside the package.

The layers are the package modules.  Each public function or method the
benchmark calls into is replaced, in every module namespace and class that
bound it at import, by a wrapper that records its work.  Nothing under
``src/`` changes, and the wrappers exist only while ``Tracer.install`` is in
effect, so untraced passes run the unmodified code.

Two kinds of wrapper:

* a *span* records name, start, end, parent span and operation id, and adds
  the call's duration minus its children's (its self time) to the target;
* a *count* only counts calls.  The monomial methods and the two closed-form
  membership tests run more than 10**6 times per verify sweep, and a span per
  call would measure the tracer, so their time is part of their caller's
  self time.
"""

import sys
from time import perf_counter

SPAN = "span"
COUNT = "count"

# (module, qualified name, kind).  A class method is wrapped under every
# class attribute bound to the same function, which covers the aliases
# MonomialIdeal.__and__ (intersect) and __contains__ (contains).
TARGETS = [
    ("monomials", "Monomial.divides", COUNT),
    ("monomials", "Monomial.__mul__", COUNT),
    ("monomials", "Monomial.lcm", COUNT),
    ("monomials", "Monomial.__init__", COUNT),
    ("ideals", "MonomialIdeal.__init__", SPAN),
    ("ideals", "MonomialIdeal.__mul__", SPAN),
    ("ideals", "MonomialIdeal.__pow__", SPAN),
    ("ideals", "MonomialIdeal.__add__", SPAN),
    ("ideals", "MonomialIdeal.intersect", SPAN),
    ("ideals", "MonomialIdeal.__le__", SPAN),
    ("ideals", "MonomialIdeal.contains", SPAN),
    ("ideals", "intersect_all", SPAN),
    ("simplicial", "simplicial_ideal", SPAN),
    ("simplicial", "symbolic_power", SPAN),
    ("simplicial", "ordinary_power_min_gens", SPAN),
    ("simplicial", "symbolic_power_oracle", SPAN),
    ("simplicial", "FacePrime.power_ideal", SPAN),
    ("simplicial", "symbolic_member", COUNT),
    ("simplicial", "ordinary_member", COUNT),
    ("containment", "containment_criterion", SPAN),
    ("containment", "containment_oracle", SPAN),
    ("containment", "symbolic_containment_oracle", SPAN),
    ("containment", "smallest_containing_symbolic_power", SPAN),
    ("containment", "empirical_resurgence_sup", SPAN),
    ("containment", "resurgence_report", SPAN),
    ("verification", "run_verification", SPAN),
    ("cli", "main", SPAN),
    ("cli", "build_parser", SPAN),
    ("config", "load_config", SPAN),
]

# Metrics each layer reports, by the end-to-end metric and workload that the
# layer should move.  Printed with every traced run and kept in baseline.json.
LAYER_EXPECTATIONS = {
    "monomials": "sweep_s on verify-all; not oracle-sweep",
    "ideals": "sweep_s on verify-all (faster ideal core); no change on "
              "oracle-sweep or cli-queries",
    "simplicial": "ops_per_s and op_p90_ms on oracle-sweep (symmetry-reduced "
                  "oracles); sweep_s on verify-all through symbolic-routes-agree",
    "containment": "op_p90_ms on oracle-sweep; op_p90_ms on cli-queries for "
                   "resurgence --box (O(M) resurgence sweep)",
    "verification": "sweep_s on verify-all",
    "cli": "op_p50_ms and ops_per_s on cli-queries; nothing else",
    "config": "op_p50_ms on cli-queries",
}


class _Target:
    __slots__ = ("name", "kind", "calls", "total_s", "self_s",
                 "gens_in", "gens_out")

    def __init__(self, name, kind):
        self.name = name
        self.kind = kind
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.gens_in = 0
        self.gens_out = 0


class Tracer:
    """Wrappers for TARGETS over one imported copy of the package.

    Spans stay in memory (``spans``) until the caller writes them out.  Each
    span is ``(op, span_id, parent_id, name, start, end)``; spans of one
    benchmark operation share ``op``, which the caller sets.
    """

    def __init__(self, modules):
        # modules: {"monomials": module, ..., "package": the package}
        self.op = 0
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._ideal_type = modules["ideals"].MonomialIdeal
        self.targets = {}
        self._bindings = []  # (owner, attribute, original, wrapper)
        for mod_name, qualname, kind in TARGETS:
            name = f"{mod_name}.{qualname}"
            target = self.targets[name] = _Target(name, kind)
            owner = modules[mod_name]
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            wrapper = self._wrap(target, original)
            if cls_path:
                places = [(owner, key) for key, value in vars(owner).items()
                          if value is original]
            else:
                places = [(mod, key) for mod in modules.values()
                          for key, value in vars(mod).items()
                          if value is original]
            self._bindings.extend((o, key, original, wrapper)
                                  for o, key in places)
        self.reset()

    def install(self):
        for owner, key, _, wrapper in self._bindings:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._bindings:
            setattr(owner, key, original)

    def reset(self):
        """Zero every figure kept per pass; recorded spans persist."""
        for target in self.targets.values():
            target.calls = 0
            target.total_s = target.self_s = 0.0
            target.gens_in = target.gens_out = 0
        self.exit_codes = {}
        self.stdout_bytes = 0
        self.max_gens = self.max_n = 0
        self.sym_keys = set()
        self.sym_calls = self.sym_repeats = 0

    # ------------------------------------------------------------ wrappers

    def _wrap(self, target, fn):
        if target.kind == COUNT:
            def count(*args, **kwargs):
                target.calls += 1
                return fn(*args, **kwargs)
            return count
        span = self._span(target, fn)
        special = {
            "ideals.MonomialIdeal.__init__": self._ideal_init,
            "simplicial.symbolic_power": self._symbolic_power,
            "cli.main": self._cli_main,
        }.get(target.name)
        return special(target, span) if special else span

    def _span(self, target, fn):
        stack = self._stack
        spans = self.spans
        ideal_type = self._ideal_type

        def span(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                target.calls += 1
                target.total_s += duration
                target.self_s += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                spans.append((self.op, sid, parent[0] if parent else None,
                              target.name, start, end))
            if isinstance(result, ideal_type):
                self._built(result)
                target.gens_out += len(result.gens)
            return result
        return span

    def _built(self, ideal):
        if len(ideal.gens) > self.max_gens:
            self.max_gens = len(ideal.gens)
        if ideal.n > self.max_n:
            self.max_n = ideal.n

    def _ideal_init(self, target, span):
        # materialise a generator argument exactly once, before the span
        # starts, so producing candidates is charged to the caller (the
        # product or lcm loop) and the span holds validation and reduction
        def init(ideal, n, gens=()):
            gens = tuple(gens)
            target.gens_in += len(gens)
            span(ideal, n, gens)
            target.gens_out += len(ideal.gens)
            self._built(ideal)
        return init

    def _symbolic_power(self, target, span):
        def symbolic_power(spec, m, *args, **kwargs):
            key = (spec.n, spec.c, m)
            self.sym_calls += 1
            if key in self.sym_keys:
                self.sym_repeats += 1
            else:
                self.sym_keys.add(key)
            return span(spec, m, *args, **kwargs)
        return symbolic_power

    def _cli_main(self, target, span):
        # the benchmark always points sys.stdout at a StringIO, whose
        # position counts characters; sideal prints ASCII only
        def main(argv=None):
            before = sys.stdout.tell()
            code = span(argv)
            self.stdout_bytes += sys.stdout.tell() - before
            self.exit_codes[code] = self.exit_codes.get(code, 0) + 1
            return code
        return main

    # ------------------------------------------------------------- results

    def layer_metrics(self):
        """Flat ``{metric name: value}`` for the figures since reset."""
        out = {}
        for target in self.targets.values():
            out[f"{target.name}.calls"] = target.calls
            if target.kind == SPAN:
                out[f"{target.name}.self_s"] = target.self_s
                out[f"{target.name}.total_s"] = target.total_s
        init = self.targets["ideals.MonomialIdeal.__init__"]
        out["ideals.MonomialIdeal.__init__.gens_in"] = init.gens_in
        out["ideals.MonomialIdeal.__init__.gens_out"] = init.gens_out
        # with no candidates nothing was wasted
        out["ideals.reduce.kept_ratio"] = (
            init.gens_out / init.gens_in if init.gens_in else 1.0)
        for name in ("symbolic_power", "ordinary_power_min_gens"):
            target = self.targets[f"simplicial.{name}"]
            out[f"simplicial.{name}.gens_out"] = target.gens_out
        out["cli.stdout_bytes"] = self.stdout_bytes
        for code in range(4):
            out[f"cli.exit.{code}"] = self.exit_codes.get(code, 0)
        return out

    def input_properties(self):
        """Input properties a caching or symmetry change may rely on."""
        return {
            "symbolic_power_nmc_repeat_share": (
                self.sym_repeats / self.sym_calls if self.sym_calls else 0.0),
            "symbolic_power_calls": self.sym_calls,
            "max_gens_built": self.max_gens,
            "max_n": self.max_n,
        }
