"""Per-layer tracing from outside finsep.

The tracer replaces each traced function, in every finsep module that
holds it by name, with a wrapper that records one span per call: name,
start, end, parent span and operation id.  Spans stay in memory in flat
arrays and are written once, when the run ends.  ``ms`` metrics are self
time: a span's duration minus the time its child spans cover.  The
wrappers are removed again by ``uninstall``; ``check_untraced`` proves,
before an untraced run is timed and after a traced one, that none is
left in place.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (module, attribute, span name); "Class.method" wraps a method
TARGETS = (
    ("cli", "parse_poly", "cli.parse_poly"),
    ("cli", "run", "cli.run"),
    ("cli", "_cmd_verify", "cli.verify"),
    ("separability", "decide", "separability.decide"),
    ("poly", "gcd_q", "poly.gcd_q"),
    ("intarith", "squarefree", "intarith.squarefree"),
    ("intarith", "factorize", "intarith.factorize"),
    ("ideal", "canonical_basis", "ideal.canonical_basis"),
    ("ideal", "reduce_with_quotients", "ideal.reduce_with_quotients"),
    ("ideal", "membership", "ideal.membership"),
    ("ideal", "monic_multiple_search", "ideal.monic_multiple_search"),
    ("invariants", "torsion_data", "invariants.torsion_data"),
    ("quotients", "build_quotient", "quotients.build_quotient"),
    ("quotients", "FiniteRing.mul", "quotients.FiniteRing.mul"),
    ("quotients", "separate", "quotients.separate"),
)

# every per-layer metric, in the order it is reported
METRICS = (
    ("cli.parse_poly.ms", "ms", "lower"), ("cli.parse_poly.calls", "count", "lower"),
    ("cli.run.ms", "ms", "lower"), ("cli.verify.ms", "ms", "lower"),
    ("cli.json_kb", "kB", "lower"),
    ("separability.decide.ms", "ms", "lower"),
    ("separability.decide.calls", "count", "lower"),
    ("poly.gcd_q.ms", "ms", "lower"), ("poly.gcd_q.calls", "count", "lower"),
    ("poly.gcd_q.bits_max", "bits", "lower"),
    ("intarith.squarefree.ms", "ms", "lower"), ("intarith.factorize.ms", "ms", "lower"),
    ("intarith.factorize.calls", "count", "lower"),
    ("ideal.canonical_basis.ms", "ms", "lower"),
    ("ideal.canonical_basis.completions", "count", "lower"),
    ("ideal.canonical_basis.hit_ratio", "ratio", "higher"),
    ("ideal.basis.cofactor_bits_max", "bits", "lower"),
    ("ideal.basis.coeff_bits_max", "bits", "lower"),
    ("ideal.reduce_with_quotients.ms", "ms", "lower"),
    ("ideal.reduce_with_quotients.calls", "count", "lower"),
    ("ideal.membership.ms", "ms", "lower"), ("ideal.membership.calls", "count", "lower"),
    ("ideal.membership.cofactor_bits_max", "bits", "lower"),
    ("ideal.monic_multiple_search.ms", "ms", "lower"),
    ("ideal.monic_multiple_search.calls", "count", "lower"),
    ("ideal.monic_multiple_search.hit_ratio", "ratio", "higher"),
    ("invariants.torsion_data.ms", "ms", "lower"),
    ("invariants.torsion_data.multipliers_tried", "count", "lower"),
    ("quotients.build_quotient.ms", "ms", "lower"),
    ("quotients.build_quotient.calls", "count", "lower"),
    ("quotients.build_quotient.infinite", "count", "lower"),
    ("quotients.FiniteRing.mul.ms", "ms", "lower"),
    ("quotients.FiniteRing.mul.calls", "count", "lower"),
    ("quotients.separate.ms", "ms", "lower"),
    ("quotients.separate.moduli_tried", "count", "lower"),
    ("quotients.separate.hit_ratio", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)

_MARK = "_bench_span"


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _ratbits(polys) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for p in polys for c in p.coeffs), default=0)


def _holders(fs, module: str, attr: str):
    """(namespace, name, current object) for every place the target lives."""
    owner = getattr(fs, module)
    if "." in attr:
        cls, meth = attr.split(".")
        yield getattr(owner, cls), meth, getattr(owner, cls).__dict__[meth]
        return
    obj = getattr(owner, attr)
    for name, mod in list(sys.modules.items()):
        if name == "finsep" or name.startswith("finsep."):
            for key, value in vars(mod).items():
                if value is obj:
                    yield mod, key, obj


def check_untraced(fs) -> None:
    """Raise unless every traceable name holds finsep's own function.

    No finsep namespace may hold a tracing wrapper, and each target must
    be the object its defining module created under that name.
    """
    spaces = [m for n, m in sys.modules.items()
              if n == "finsep" or n.startswith("finsep.")]
    spaces.append(fs.quotients.FiniteRing)
    for space in spaces:
        for key, value in vars(space).items():
            if getattr(value, _MARK, None):
                raise RuntimeError(f"{key} is traced in an untraced run")
    for module, attr, _ in TARGETS:
        obj = next(_holders(fs, module, attr))[2]
        if obj.__module__ != f"finsep.{module}" or obj.__qualname__ != attr:
            raise RuntimeError(f"{module}.{attr} is not finsep's own function")


class Tracer:
    def __init__(self, fs):
        self.fs = fs
        self.op = -1
        self.names = [span for _, _, span in TARGETS]
        self.name_ix = {n: i for i, n in enumerate(self.names)}
        self.start, self.end = array("d"), array("d")
        self.name, self.parent, self.op_of = array("i"), array("i"), array("i")
        self.stack: list[list] = []  # [span id, child time]
        self.self_s = {n: 0.0 for n in self.names}
        self.calls = {n: 0 for n in self.names}
        self.active = {n: 0 for n in self.names}
        self.counts: dict[str, float] = {}
        self.maxes: dict[str, int] = {}
        self._restore: list = []
        self._cache = fs.basis_cache
        self._infinite = fs.quotients.InfiniteQuotient

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        for module, attr, span in TARGETS:
            holders = list(_holders(self.fs, module, attr))
            wrapper = self._wrap(holders[0][2], span)
            for ns, key, obj in holders:
                self._restore.append((ns, key, obj))
                setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            ns, key, obj = self._restore.pop()
            setattr(ns, key, obj)

    def _wrap(self, fn, span: str):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._call(span, fn, args, kwargs)

        setattr(wrapper, _MARK, span)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- recording ------------------------------------------------------------

    def _call(self, span: str, fn, args, kwargs):
        entered = perf_counter()
        sid = len(self.start)
        self.name.append(self.name_ix[span])
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.op_of.append(self.op)
        frame = [sid, 0.0]
        self.stack.append(frame)
        self.active[span] += 1
        misses = self._cache.cache_info().misses if span == "ideal.canonical_basis" else 0
        t0 = perf_counter()
        self.start.append(t0)
        self.end.append(t0)
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.end[sid] = t1
            self.stack.pop()
            self.active[span] -= 1
            self.self_s[span] += (t1 - t0) - frame[1]
            self.calls[span] += 1
        self._observe(span, result, misses)
        if self.stack:
            # the parent's child time also covers this bookkeeping
            self.stack[-1][1] += perf_counter() - entered
        return result

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _max(self, key: str, value: int) -> None:
        self.maxes[key] = max(self.maxes.get(key, 0), value)

    def _observe(self, span: str, result, misses: int) -> None:
        if span == "poly.gcd_q":
            self._max("poly.gcd_q.bits_max", _ratbits([result.gamma, *result.cofactors]))
        elif span == "ideal.canonical_basis":
            if self._cache.cache_info().misses > misses:
                self.add("ideal.canonical_basis.completions", 1)
                self._max("ideal.basis.coeff_bits_max",
                          _bits(c for e in result.elements for c in e.coeffs))
                self._max("ideal.basis.cofactor_bits_max",
                          _bits(c for row in result.element_cofactors
                                for p in row for c in p.coeffs))
        elif span == "ideal.membership":
            if result[1] is not None:
                self._max("ideal.membership.cofactor_bits_max",
                          _bits(c for p in result[1].cofactors for c in p.coeffs))
        elif span == "ideal.monic_multiple_search":
            self.add("monic.found", result is not None)
            if self.active["invariants.torsion_data"]:
                self.add("invariants.torsion_data.multipliers_tried", 1)
        elif span == "quotients.build_quotient":
            self.add("quotients.build_quotient.infinite",
                     isinstance(result, self._infinite))
            if self.active["quotients.separate"]:
                self.add("quotients.separate.moduli_tried", 1)
        elif span == "quotients.separate":
            self.add("separate.found", result.found)

    # -- results --------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        ratio = lambda a, b: a / b if b else 0.0
        calls = self.calls["ideal.canonical_basis"]
        completions = self.counts.get("ideal.canonical_basis.completions", 0)
        values = {f"{n}.ms": 1000 * s for n, s in self.self_s.items()}
        values.update({f"{n}.calls": c for n, c in self.calls.items()})
        values.update(self.counts)
        values.update(self.maxes)
        values["ideal.canonical_basis.hit_ratio"] = ratio(calls - completions, calls)
        values["ideal.monic_multiple_search.hit_ratio"] = ratio(
            self.counts.get("monic.found", 0),
            self.calls["ideal.monic_multiple_search"])
        values["quotients.separate.hit_ratio"] = ratio(
            self.counts.get("separate.found", 0),
            self.counts.get("quotients.separate.moduli_tried", 0))
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit, _ in METRICS}

    def write(self, path) -> None:
        """All spans, column-wise; times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "name": list(self.name),
            "start": [round(t - t0, 7) for t in self.start],
            "end": [round(t - t0, 7) for t in self.end],
            "parent": list(self.parent),
            "op": list(self.op_of),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
