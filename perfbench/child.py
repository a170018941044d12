"""One timed item of a workload, in a fresh interpreter.

run.py starts this script once per timed item, so the library's
process-wide lru_caches (perm, shapes, reg, groth, gb) start empty every
time.  The single argument is a JSON object:

    {"task": "scan" | "resume" | "sweep" | "charts" | "setup",
     "workload": name, "cache": path or null, "charts": [[v, w], ...],
     "trace": bool, "metrics": [per-layer metric names, when traced]}

The last line printed is a JSON object: setup_s, the timed figures (wall_s,
pair_ms between record_sink calls or per chart, peak_rss_mb), a
summary of the outputs for run.py to check against the frozen reference,
and, when traced, the per-layer metrics.  An exception raised by the
library is reported as "error" and counted as a failed item; exit code 3
means the trace wiring is broken.

Times are reported in reference-host seconds: each is measured here and
multiplied by PROBE_REF_S over the mean time of a fixed probe taken around
and during it (see HostSpeed).  raw_wall_s keeps the unscaled wall time.
"""

import bisect
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback

from tracing import Tracer, WiringError
from workloads import EXPECTED_LAYERS

# setup_s runs from here: importing the library plus building the inputs.
_T0 = time.perf_counter()

SCAN_N = 5
# The unit of reference-host time: about what one probe takes on the 2-core
# VM this benchmark was written on when nothing else runs there (10-11 ms).
PROBE_REF_S = 0.010
# Probes taken before and after each timed region (each chart has its own,
# since some take only milliseconds), the period of the probes taken inside
# it, and how far from a timed span the probes that scale it may lie.
EDGE_PROBES = 3
CHART_PROBES = 2
PROBE_EVERY_S = 0.1
PROBE_REACH_S = 0.5


def probe() -> float:
    """Seconds this host takes for a fixed piece of pure-Python work.

    Dict updates keyed by small tuples and integer arithmetic past 64 bits:
    the kinds of work the library does, but none of its code, so no change
    to the library changes what a probe costs.
    """
    start = time.perf_counter()
    table = {}
    x = 1
    for _ in range(15000):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        key = (x >> 58, (x >> 52) & 63)
        table[key] = table.get(key, 0) + (x >> 40)
    sorted(table.items())
    return time.perf_counter() - start


class HostSpeed:
    """Probe samples taken around and inside timed regions.

    The host is shared, and its speed drifts by tens of percent within
    seconds to minutes.  Inside a `with` block a timer signal runs a probe
    every PROBE_EVERY_S, and without_probes() cuts the time those probes
    took out of clock readings made in the block.  factor() turns seconds
    measured between two readings into reference-host seconds, in which a
    probe takes PROBE_REF_S, from the probes run within PROBE_REACH_S of
    that span; those stay comparable between runs minutes apart.  Traced
    items take edge probes only, so no probe lands inside a span.
    """

    def __init__(self, periodic: bool):
        self.periodic = periodic
        self.starts: list[float] = []
        self.lengths: list[float] = []
        self.ticks: list[tuple[float, float]] = []

    def _probe(self) -> tuple[float, float]:
        start = time.perf_counter()
        length = probe()
        self.starts.append(start)
        self.lengths.append(length)
        return start, length

    def sample(self, count: int = 1):
        for _ in range(count):
            self._probe()

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._probe()
        self.ticks.append((start, time.perf_counter() - start))

    def __enter__(self):
        self.ticks = []
        if self.periodic:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def without_probes(self, moments):
        """Ascending clock readings, each less the probe time before it.

        A probe runs in the main thread, so none is under way at a reading.
        """
        out = []
        paused = 0.0
        ticks = iter(self.ticks)
        tick = next(ticks, None)
        for moment in moments:
            while tick is not None and tick[0] < moment:
                paused += tick[1]
                tick = next(ticks, None)
            out.append(moment - paused)
        return out

    def factor(self, begin=None, end=None) -> float:
        """PROBE_REF_S over the mean probe time near [begin, end], or overall."""
        lengths = self.lengths
        if begin is not None:
            lo = bisect.bisect_left(self.starts, begin - PROBE_REACH_S)
            hi = bisect.bisect_right(self.starts, end + PROBE_REACH_S)
            lengths = lengths[lo:hi] or lengths
        return PROBE_REF_S / statistics.fmean(lengths)


def scan_summary(result) -> dict:
    """What a scan must reproduce: max, argmax, a digest of every pair, tallies."""
    digest = hashlib.sha256()
    tallies: dict = {}
    errors = 0
    for r in result.records:
        digest.update(("%s %s %s %s\n" % (r.v, r.w, r.reg, r.h_coeffs)).encode())
        errors += r.error is not None
        for name, value in r.conjectures.items():
            bucket = tallies.setdefault(name, {})
            bucket[value] = bucket.get(value, 0) + 1
    return {
        "max_reg": result.max_reg,
        "argmax": [list(pair) for pair in result.argmax],
        "digest": digest.hexdigest(),
        "records": len(result.records),
        "partial": result.partial,
        "errors": errors,
        "falsified": [list(f) for f in result.conjecture_failures],
        "tallies": {k: dict(sorted(v.items())) for k, v in sorted(tallies.items())},
    }


def run_scan(reg, spec, host: HostSpeed, tracer) -> dict:
    """max_reg_scan(5), timed, with one record_sink stamp per computed pair."""
    checks = reg.ALL_CHECKS if spec["task"] == "sweep" else ()
    clock = time.perf_counter
    stamps = []

    def record_sink(record):
        stamps.append(clock())

    if tracer is not None:
        record_sink = tracer.wrap(record_sink, "bench.record_sink")
    with host:
        start = clock()
        result = reg.max_reg_scan(
            SCAN_N, checks=checks, cache_path=spec["cache"], workers=1,
            record_sink=record_sink,
        )
        end = clock()
    host.sample(EDGE_PROBES)
    # Spans between stamps: one per computed pair, then the scan's tail.
    moments = [start] + stamps + [end]
    net = host.without_probes(moments)
    spans = [
        (net[i + 1] - net[i]) * host.factor(moments[i], moments[i + 1])
        for i in range(len(moments) - 1)
    ]
    return {
        "raw_wall_s": net[-1] - net[0],
        "wall_s": sum(spans),
        "pair_ms": [span * 1000.0 for span in spans[:-1]],
        "sink_calls": len(stamps),
        "summary": scan_summary(result),
    }


def run_charts(reg, charts, host: HostSpeed) -> dict:
    """regularity(v, w) on each chart in the given order, each timed."""
    clock = time.perf_counter
    raw_ms = []
    spans = []
    results = []
    for v, w in charts:
        host.sample(CHART_PROBES)
        with host:
            start = clock()
            report = reg.regularity(v, w)
            end = clock()
        net_start, net_end = host.without_probes([start, end])
        raw_ms.append((net_end - net_start) * 1000.0)
        spans.append((start, end))
        results.append([str(v), str(w), report.reg, list(report.H.coeffs)])
    host.sample(EDGE_PROBES)
    chart_ms = [ms * host.factor(*span) for ms, span in zip(raw_ms, spans)]
    return {
        "raw_wall_s": sum(raw_ms) / 1000.0,
        "wall_s": sum(chart_ms) / 1000.0,
        "pair_ms": chart_ms,
        "summary": {"charts": results},
    }


def main(spec) -> dict:
    from schubreg import Permutation, kernel, reg

    charts = [
        (Permutation.from_string(v), Permutation.from_string(w))
        for v, w in spec.get("charts", ())
    ]
    setup = time.perf_counter() - _T0
    host = HostSpeed(periodic=not spec["trace"])
    host.sample(EDGE_PROBES)
    out = {
        "setup_s": setup * host.factor(),
        "kernel": kernel.implementation_name(),
    }
    if spec["task"] == "setup":
        return out
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    try:
        if spec["task"] == "charts":
            out.update(run_charts(reg, charts, host))
        else:
            out.update(run_scan(reg, spec, host, tracer))
    except Exception:  # reported to run.py, which counts the item as failed
        out["error"] = traceback.format_exc()
        return out
    out["host_factor"] = host.factor()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        silent = [
            layer
            for layer in EXPECTED_LAYERS[spec["workload"]]
            if tracer.layer_calls(layer) == 0
        ]
        if silent:
            raise WiringError(
                "layers with zero calls on %s: %s" % (spec["workload"], ", ".join(silent))
            )
        layers = tracer.layer_metrics(spec["metrics"])
        out["layers"] = {
            name: value * out["host_factor"] if name.endswith("_s") else value
            for name, value in layers.items()
        }
    return out


if __name__ == "__main__":
    try:
        result = main(json.loads(sys.argv[1]))
    except WiringError as exc:
        print("perfbench: trace wiring broken: %s" % exc, file=sys.stderr)
        sys.exit(3)
    print(json.dumps(result))
