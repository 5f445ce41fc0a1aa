"""Per-layer tracing of cfrac from outside the package.

``Tracer.install(cfrac)`` rebinds public functions wherever a cfrac module
holds them (module globals and module-level dicts such as the CLI's spec
table), so calls made inside cfrac through those names are timed too.
``uninstall`` restores every binding.

Two kinds of boundary are recorded:

- spans, kept one per call as (name, start, end, parent, op id);
- leaves, the hot inner calls (``termgen``, ``PolyTerm.__call__``,
  ``poly_gcd``), kept as a count and a total time per (parent span, name),
  because a traced run makes millions of them.

A span's self time is its duration minus its child spans and the leaves
directly under it.  Work the tracer itself adds inside a span (re-wrapping
term pairs) is booked as the ``trace.overhead`` leaf so it is not charged
to the layer.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

TERMGEN, POLYTERM, POLY_GCD, OVERHEAD = (
    "expansions.termgen", "expansions.polyterm", "exact.poly_gcd", "trace.overhead",
)

# (module, function) -> span name, or a callable naming the span from the args
SPANS = {
    ("core", "eval_backward"): "core.eval_backward",
    ("core", "eval_forward"): "core.eval_forward",
    ("core", "eval_lentz"): "core.eval_lentz",
    ("core", "eval_adaptive"): "core.eval_adaptive",
    ("expansions", "sec_tan"): "expansions.sec_tan",
    ("expansions", "halved_value"): "expansions.halved_value",
    ("exact", "convergent_exact"): lambda cf, depth, *_: (
        f"exact.convergent_exact.{cf.name}.{'odd' if depth % 2 else 'even'}"
    ),
    ("exact", "series_from_ratfunc"): "exact.series_from_ratfunc",
    ("exact", "verify_pairing"): "exact.verify_pairing",
    ("exact", "verify_offset_rewrite"): "exact.verify_offset",
    ("exact", "verify_halving_rewrite"): "exact.verify_halving",
    ("exact", "verify_flattening"): "exact.verify_flatten",
    ("exact", "verify_series"): "exact.verify_series",
    ("cli", "main"): lambda argv=None, *_: f"cli.main.{(argv or ['none'])[0]}",
}
LEAVES = {("exact", "poly_gcd"): POLY_GCD}
SPEC_FACTORIES = (("expansions", "sec_tan_spec"), ("expansions", "xcot_spec"))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.leaves: dict = defaultdict(lambda: [0, 0.0])  # (span, name) -> [count, seconds]
        self._stack: list[int] = []
        self._undo: list = []
        self.op_id = -1

    # -- recording ---------------------------------------------------------

    def _leaf(self, name: str, seconds: float) -> None:
        acc = self.leaves[(self._stack[-1] if self._stack else -1, name)]
        acc[0] += 1
        acc[1] += seconds

    def span(self, name, fn):
        """fn wrapped so each call records a span; name may be a callable of the args."""
        spans, stack = self.spans, self._stack
        naming = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = naming(*args, **kwargs) if naming else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.op_id)
        return traced

    def operation(self, name: str, fn):
        """fn as the root span of one benchmark operation, with a fresh op id."""
        traced = self.span(name, fn)

        def call():
            self.op_id += 1
            return traced()
        return call

    def leaf(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leaf(name, perf_counter() - start)
        return timed

    def _timed_spec_factory(self, factory, core):
        tracer = self

        class TimedPolyTerm(core.PolyTerm):
            def __call__(self, x):
                start = perf_counter()
                try:
                    return core.PolyTerm.__call__(self, x)
                finally:
                    tracer._leaf(POLYTERM, perf_counter() - start)

        timed_terms: dict = {}

        def timed(term):
            key = term.coefficients()
            if key not in timed_terms:
                timed_terms[key] = TimedPolyTerm(*key)
            return timed_terms[key]

        @functools.wraps(factory)
        def make_spec(*args, **kwargs):
            spec = factory(*args, **kwargs)
            gen = spec.termgen

            def termgen(k):
                start = perf_counter()
                try:
                    pair = gen(k)
                finally:
                    mid = perf_counter()
                    tracer._leaf(TERMGEN, mid - start)
                wrapped = core.TermPair(a=timed(pair.a), b=timed(pair.b))
                tracer._leaf(OVERHEAD, perf_counter() - mid)
                return wrapped

            return dataclasses.replace(spec, leading=timed(spec.leading), termgen=termgen)
        return make_spec

    # -- installing --------------------------------------------------------

    def install(self, package) -> None:
        """Rebind cfrac's public functions to traced wrappers."""
        core = sys.modules[f"{package.__name__}.core"]
        replacements = {}
        for table, wrap in ((SPANS, self.span), (LEAVES, self.leaf)):
            for (mod, attr), name in table.items():
                fn = getattr(sys.modules.get(f"{package.__name__}.{mod}"), attr, None)
                if fn is not None:
                    replacements[fn] = wrap(name, fn)
        for mod, attr in SPEC_FACTORIES:
            fn = getattr(sys.modules.get(f"{package.__name__}.{mod}"), attr, None)
            if fn is not None:
                replacements[fn] = self._timed_spec_factory(fn, core)
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
        for module in modules:
            for namespace in [vars(module)] + [v for v in vars(module).values() if type(v) is dict]:
                for key, value in list(namespace.items()):
                    try:
                        new = replacements.get(value)
                    except TypeError:  # unhashable value
                        continue
                    if new is not None:
                        namespace[key] = new
                        self._undo.append((namespace, key, value))

    def uninstall(self) -> None:
        for namespace, key, value in reversed(self._undo):
            namespace[key] = value
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        for (span, _), (_, seconds) in self.leaves.items():
            if span >= 0:
                out[span] -= seconds
        return out

    def subtree_leaf_counts(self, leaf: str) -> list[int]:
        counts = [0] * len(self.spans)
        for (span, name), (count, _) in self.leaves.items():
            if span >= 0 and name == leaf:
                counts[span] += count
        for idx in range(len(self.spans) - 1, -1, -1):
            parent = self.spans[idx][3]
            if parent >= 0:
                counts[parent] += counts[idx]
        return counts

    def dump(self, path) -> None:
        """Write every span and leaf aggregate as JSON."""
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": self.spans,
                "leaves": [[span, name, count, seconds]
                           for (span, name), (count, seconds) in self.leaves.items()],
            }, fh)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer figures from one traced segment of ``ops`` operations."""
    self_t = tracer.self_times()
    op_seconds = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    calls: dict[str, int] = defaultdict(int)
    self_sum: dict[str, float] = defaultdict(float)
    for (name, *_), s in zip(tracer.spans, self_t):
        calls[name] += 1
        self_sum[name] += s
    leaf_calls: dict[str, int] = defaultdict(int)
    leaf_time: dict[str, float] = defaultdict(float)
    for (_, name), (count, seconds) in tracer.leaves.items():
        leaf_calls[name] += count
        leaf_time[name] += seconds

    def per(num, den):
        return num / den if den else 0.0

    def self_ms(name):
        return per(self_sum[name], calls[name]) * 1e3

    def children(parent_name, child_name):
        return sum(1 for name, _, _, parent, _ in tracer.spans
                   if name == child_name and parent >= 0 and tracer.spans[parent][0] == parent_name)

    names = list(calls)
    terms = tracer.subtree_leaf_counts(TERMGEN)
    gcds = tracer.subtree_leaf_counts(POLY_GCD)
    adaptive_terms = sum(t for span, t in zip(tracer.spans, terms) if span[0] == "core.eval_adaptive")
    conv_names = [n for n in names if n.startswith("exact.convergent_exact.")]
    conv_calls = sum(calls[n] for n in conv_names)
    conv_gcds = sum(g for span, g in zip(tracer.spans, gcds) if span[0] in conv_names)

    m = {
        "expansions.termgen.calls_per_op": per(leaf_calls[TERMGEN], ops),
        "expansions.polyterm.calls_per_op": per(leaf_calls[POLYTERM], ops),
        "expansions.termgen.self_share": per(leaf_time[TERMGEN], op_seconds),
        "core.eval_adaptive.probes_per_call": per(
            children("core.eval_adaptive", "core.eval_backward"), calls["core.eval_adaptive"]),
        "core.eval_adaptive.terms_per_call": per(adaptive_terms, calls["core.eval_adaptive"]),
    }
    for fn in ("eval_backward", "eval_forward", "eval_lentz", "eval_adaptive"):
        m[f"core.{fn}.self_ms_per_call"] = self_ms(f"core.{fn}")
    m["expansions.sec_tan.self_ms_per_call"] = self_ms("expansions.sec_tan")
    m["expansions.halved_value.calls_per_sec_tan"] = per(
        children("expansions.sec_tan", "expansions.halved_value"), calls["expansions.sec_tan"])
    for stream in ("sec-tan", "xcot"):
        for parity in ("odd", "even"):
            m[f"exact.convergent_exact.{stream}.{parity}.self_ms"] = self_ms(
                f"exact.convergent_exact.{stream}.{parity}")
    m["exact.poly_gcd.calls_per_convergent"] = per(conv_gcds, conv_calls)
    m["exact.poly_gcd.share"] = per(leaf_time[POLY_GCD], op_seconds)
    m["exact.series_from_ratfunc.self_ms_per_call"] = self_ms("exact.series_from_ratfunc")
    for suite in ("pairing", "offset", "halving", "flatten", "series"):
        m[f"exact.verify_{suite}.self_ms"] = self_ms(f"exact.verify_{suite}")
    for sub in ("eval", "verify", "convergents", "series", "terms"):
        m[f"cli.main.{sub}.self_ms"] = self_ms(f"cli.main.{sub}")
    return m


# name -> unit, in the order they are reported
LAYER_UNITS = {
    "expansions.termgen.calls_per_op": "calls/op",
    "expansions.polyterm.calls_per_op": "calls/op",
    "expansions.termgen.self_share": "ratio",
    "core.eval_adaptive.probes_per_call": "calls/call",
    "core.eval_adaptive.terms_per_call": "calls/call",
    **{f"core.{fn}.self_ms_per_call": "ms"
       for fn in ("eval_backward", "eval_forward", "eval_lentz", "eval_adaptive")},
    "expansions.sec_tan.self_ms_per_call": "ms",
    "expansions.halved_value.calls_per_sec_tan": "calls/call",
    **{f"exact.convergent_exact.{s}.{p}.self_ms": "ms"
       for s in ("sec-tan", "xcot") for p in ("odd", "even")},
    "exact.poly_gcd.calls_per_convergent": "calls/call",
    "exact.poly_gcd.share": "ratio",
    "exact.series_from_ratfunc.self_ms_per_call": "ms",
    **{f"exact.verify_{s}.self_ms": "ms"
       for s in ("pairing", "offset", "halving", "flatten", "series")},
    **{f"cli.main.{s}.self_ms": "ms" for s in ("eval", "verify", "convergents", "series", "terms")},
    "trace.overhead_share": "ratio",
}
