"""Per-layer trace of schubreg, installed from outside the library.

In a traced process only, the public functions are replaced, in the module
namespace where their callers look them up, by wrappers that record a span
(name, parent, start, end) and the work counts their results carry.  The
library's source is never edited.  Spans live in flat arrays until the run
ends; layer metrics are computed from them afterwards:

    total_s  time inside the layer's outermost spans (recursion counted once)
    self_s   span time minus the time of its direct child spans
"""

from __future__ import annotations

import importlib
import time
from array import array

# Wrapped names: (module, attribute where callers look it up, layer name).
# The layer name is the module that defines the function.
WRAPPED = (
    ("schubreg.reg", "max_reg_scan", "reg.max_reg_scan"),
    ("schubreg.reg", "scan_pairs", "reg.scan_pairs"),
    ("schubreg.reg", "scan_record", "reg.scan_record"),
    ("schubreg.reg", "regularity", "reg.regularity"),
    ("schubreg.reg", "kl_polynomial", "reg.kl_polynomial"),
    ("schubreg.reg", "bruhat_interval", "perm.bruhat_interval"),
    ("schubreg.reg", "regularity_formula", "shapes.regularity_formula"),
    ("schubreg.reg", "hilbert_data", "gb.hilbert_data"),
    ("schubreg.reg", "companion_permutation", "shapes.companion_permutation"),
    ("schubreg.shapes", "companion_permutation", "shapes.companion_permutation"),
    ("schubreg.gb", "kl_generators", "ideal.kl_generators"),
    ("schubreg.gb", "buchberger", "gb.buchberger"),
    ("schubreg.gb", "hilbert_numerator", "gb.hilbert_numerator"),
    ("schubreg.kernel", "normal_form", "kernel.normal_form"),
    ("schubreg.kernel", "s_polynomial", "kernel.s_polynomial"),
)
WRAPPED_METHODS = (
    ("schubreg.reg", "ScanRecord", "to_json_line", "reg.ScanRecord.to_json_line"),
    ("schubreg.reg", "ScanRecord", "from_json_line", "reg.ScanRecord.from_json_line"),
)

# Work counts the observers below record, by metric field.
COUNT_FIELDS = (
    "elements", "generators", "pairs", "zero_reductions", "basis_size",
    "max_coeff_bits", "monomials", "bytes",
)


class WiringError(RuntimeError):
    """A wrapped name is gone, or an expected layer recorded no calls."""


class Tracer:
    """Spans in flat arrays plus per-layer counters, for one process."""

    def __init__(self):
        self.layer_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, dict[str, int]] = {}
        self.hilbert_keys: set = set()
        self._companion_cache = None
        self._companion_misses_before = 0

    def _id(self, layer: str) -> int:
        found = self._ids.get(layer)
        if found is None:
            found = self._ids[layer] = len(self.layer_names)
            self.layer_names.append(layer)
        return found

    def _count(self, layer: str, **amounts):
        bucket = self.counts.setdefault(layer, {})
        for key, amount in amounts.items():
            bucket[key] = bucket.get(key, 0) + amount

    def wrap(self, fn, layer: str):
        """A wrapper that records one span per call of fn."""
        name_id = self._id(layer)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack,
        )
        observe = _OBSERVERS.get(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                relabel = observe(self, args, kwargs, result)
                if relabel is not None:
                    names[sid] = self._id(relabel)
            return result

        return traced

    def install(self):
        """Wrap every name in WRAPPED; raise WiringError if one is gone."""
        wrappers: dict[int, object] = {}
        for module_name, attr, layer in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                raise WiringError("%s.%s no longer exists" % (module_name, attr))
            # One wrapper per original, so a function looked up in two
            # modules records one span per call.
            traced = wrappers.get(id(original))
            if traced is None:
                traced = wrappers[id(original)] = self.wrap(original, layer)
            setattr(module, attr, traced)
            if layer == "shapes.companion_permutation":
                self._companion_cache = original
        for module_name, cls_name, attr, layer in WRAPPED_METHODS:
            module = importlib.import_module(module_name)
            cls = getattr(module, cls_name, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if raw is None:
                raise WiringError(
                    "%s.%s.%s no longer exists" % (module_name, cls_name, attr)
                )
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(raw.__func__, layer)))
            else:
                setattr(cls, attr, self.wrap(raw, layer))
        info = getattr(self._companion_cache, "cache_info", None)
        if info is None:
            raise WiringError("companion_permutation is no longer an lru_cache")
        self._companion_misses_before = info().misses

    def layer_metrics(self, metrics) -> dict[str, float]:
        """The named metrics ("<layer>.<field>"), from the spans and counters."""
        n = len(self.start)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        dur = [ends[i] - starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        layers = len(self.layer_names)
        calls = [0] * layers
        total = [0.0] * layers
        self_s = [0.0] * layers
        for i in range(n):
            k = names[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
            p = parents[i]
            while p >= 0 and names[p] != k:
                p = parents[p]
            if p < 0:
                total[k] += dur[i]

        def get(series, layer):
            k = self._ids.get(layer)
            return series[k] if k is not None else 0

        def count(layer, key):
            return self.counts.get(layer, {}).get(key, 0)

        def frac(top, bottom):
            return top / bottom if bottom else 0.0

        out: dict[str, float] = {}
        for metric in metrics:
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = get(calls, layer)
            elif field == "total_s":
                out[metric] = get(total, layer)
            elif field == "self_s":
                out[metric] = get(self_s, layer)
            elif field == "misses":
                out[metric] = (
                    self._companion_cache.cache_info().misses
                    - self._companion_misses_before
                )
            elif field == "repeat_frac":
                hd_calls = get(calls, layer)
                out[metric] = frac(hd_calls - len(self.hilbert_keys), hd_calls)
            elif field == "useful_frac":
                pairs = count(layer, "pairs")
                out[metric] = frac(pairs - count(layer, "zero_reductions"), pairs)
            elif field in COUNT_FIELDS:
                out[metric] = count(layer, field)
            else:
                raise WiringError("no way to measure %s" % metric)
        return out

    def layer_calls(self, layer: str) -> int:
        k = self._ids.get(layer)
        return 0 if k is None else self.name.count(k)


# Observers read work counts off a call's arguments and result, after its
# span has closed.  One that returns a name relabels the span.


def _observe_buchberger(tracer, args, kwargs, basis):
    layer = "gb.buchberger.%s" % basis.order.kind
    stats = basis.stats
    bits = max(
        (abs(c).bit_length() for terms in basis._terms for (_, _, c) in terms),
        default=0,
    )
    tracer._count(
        layer,
        pairs=stats.get("pairs_processed", 0),
        zero_reductions=stats.get("zero_reductions", 0),
        basis_size=stats.get("basis_size", 0),
    )
    bucket = tracer.counts[layer]
    bucket["max_coeff_bits"] = max(bucket.get("max_coeff_bits", 0), bits)
    return layer


def _observe_hilbert_data(tracer, args, kwargs, data):
    tracer.hilbert_keys.add((data.v.word, data.w.word))


def _observe_hilbert_numerator(tracer, args, kwargs, result):
    monomials = args[0] if args else kwargs["monomials"]
    generators = getattr(monomials, "generators", monomials)
    tracer._count("gb.hilbert_numerator", monomials=len(generators))


def _observe_kl_generators(tracer, args, kwargs, ideal):
    tracer._count("ideal.kl_generators", generators=len(ideal.generators))


def _observe_bruhat_interval(tracer, args, kwargs, interval):
    tracer._count("perm.bruhat_interval", elements=len(interval))


def _observe_to_json_line(tracer, args, kwargs, line):
    tracer._count("reg.ScanRecord.to_json_line", bytes=len(line.encode()))


_OBSERVERS = {
    "gb.buchberger": _observe_buchberger,
    "gb.hilbert_data": _observe_hilbert_data,
    "gb.hilbert_numerator": _observe_hilbert_numerator,
    "ideal.kl_generators": _observe_kl_generators,
    "perm.bruhat_interval": _observe_bruhat_interval,
    "reg.ScanRecord.to_json_line": _observe_to_json_line,
}
