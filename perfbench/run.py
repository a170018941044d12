"""schubreg benchmark: scans, a resumed scan, a conjecture sweep, slow charts.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan5 --seed 1 --seconds 10 --trace 0

The library is used from ./src as it is; nothing is built or installed.
Each timed item (one scan, one resume, one sweep, or one pass over the
slow-charts pool) runs in a fresh interpreter started by this script, one
after another, for at least --seconds seconds (closed loop, one caller).
Every output is checked against perfbench/reference.json.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced items and prints the per-layer metrics of
BENCHMARK.json, the traced wall time and the tracing overhead (traced
wall_s / untraced wall_s).  The last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The seed picks the order of the slow-charts pool and the hash seed
(PYTHONHASHSEED) of every child interpreter; the scans have no other free
input.  perfbench/README.md says what each metric measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, chart_order  # noqa: E402

# Past this many seconds a run stops its child and fails.
RUN_LIMIT_S = 170.0
# setup_s is the median of at least this many fresh-interpreter set-ups.
MIN_SETUPS = 9
TASKS = {"scan5": "scan", "resume5": "resume", "sweep5": "sweep", "slow-charts": "charts"}
# Per-layer metrics that run.py computes itself rather than a traced child.
TRACE_WALL = "trace.wall_s"
TRACE_OVERHEAD = "trace.overhead"


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def percentile(values, p: int) -> float:
    """The p-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Runner:
    """Starts child interpreters for one run and checks what they return."""

    def __init__(self, workload: str, seed: int, workdir: Path, layer_metrics):
        self.workload = workload
        self.task = TASKS[workload]
        self.layer_metrics = layer_metrics
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        self.charts = [list(pair) for pair in chart_order(seed)]
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.cache = workdir / "cache.jsonl"
        self.cold = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.kernels: set = set()

    def child(self, task: str, trace: bool = False) -> dict:
        spec = {
            "task": task,
            "workload": self.workload,
            "cache": str(self.cache) if task in ("scan", "resume") else None,
            "charts": self.charts if task in ("charts", "setup") else [],
            "trace": trace,
            "metrics": self.layer_metrics if trace else [],
        }
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded %.0f s" % RUN_LIMIT_S)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("run exceeded %.0f s" % RUN_LIMIT_S) from None
        if proc.returncode != 0:
            raise BenchError(
                "child %s exited with %d:\n%s" % (task, proc.returncode, proc.stderr)
            )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.kernels.add(out["kernel"])
        return out

    def item(self, task: str, trace: bool = False) -> dict | None:
        """One scan, resume, sweep or chart pass, checked; None if it raised."""
        if task == "scan":
            self.cache.unlink(missing_ok=True)  # every scan writes a fresh cache
        size = self.cache.stat().st_size if task == "resume" else None
        out = self.child(task, trace)
        units = len(self.charts) if task == "charts" else 1
        self.attempted += units
        if "error" in out:
            self.failed += units
            self.problems.append("%s raised:\n%s" % (task, out["error"]))
            return None
        wrong = self.check(task, out)
        if size is not None and self.cache.stat().st_size != size:
            wrong.append("resume wrote to a complete cache")
        self.failed += min(units, len(wrong))
        self.problems.extend(wrong)
        return out

    def check(self, task: str, out: dict) -> list[str]:
        """Differences between an item's outputs and the frozen reference."""
        got = out["summary"]
        if task == "charts":
            ref = self.reference["slow-charts"]
            wrong = []
            for v, w, reg, h in got["charts"]:
                want = ref[v + " " + w]
                if [reg, h] != [want["reg"], want["h_coeffs"]]:
                    wrong.append(
                        "chart %s %s: reg %s h %s, expected reg %s h %s"
                        % (v, w, reg, h, want["reg"], want["h_coeffs"])
                    )
            return wrong
        ref = self.reference["sweep5" if task == "sweep" else "scan5"]
        wrong = [
            "%s: %s is %r, expected %r" % (task, key, got[key], ref[key])
            for key in ("max_reg", "argmax", "digest", "records", "tallies", "falsified")
            if got[key] != ref[key]
        ]
        if got["partial"] or got["errors"]:
            wrong.append("%s: %d error records" % (task, got["errors"]))
        computed = 0 if task == "resume" else got["records"]
        if out["sink_calls"] != computed:
            wrong.append(
                "%s: %d pairs computed, expected %d" % (task, out["sink_calls"], computed)
            )
        if task == "resume" and got["digest"] != self.cold["summary"]["digest"]:
            wrong.append("resume digest differs from the cold scan that wrote the cache")
        return wrong

    def measure(self, seconds: int, trace: bool):
        """Items for at least `seconds`; with trace, traced ones alternate in."""
        if self.task == "resume":
            self.cold = self.item("scan")
            if self.cold is None:
                raise BenchError("the cold scan that writes the cache raised")
        plain, traced = [], []
        start = time.monotonic()
        rounds = 0
        while rounds == 0 or time.monotonic() - start < seconds:
            # Alternate which side goes first, so drift does not favour one.
            for flag in (False, True) if rounds % 2 == 0 else (True, False):
                if flag and not trace:
                    continue
                out = self.item(self.task, flag)
                if out is not None:
                    (traced if flag else plain).append(out)
            rounds += 1
        setups = [out["setup_s"] for out in plain]
        while len(setups) < MIN_SETUPS and not trace:
            setups.append(self.child("setup")["setup_s"])
        return plain, traced, setups

    def timings(self, items):
        """wall_s and the per-pair latency percentiles, as medians over items.

        The percentiles are taken over the pairs of each item.  A resume
        computes no pair and serves all of them at once, so each pair of a
        resume costs the same share of it.
        """
        walls, p50s, p99s = [], [], []
        for out in items:
            walls.append(out["wall_s"])
            if self.task == "resume":
                pair_ms = [out["wall_s"] * 1000.0 / out["summary"]["records"]]
            else:
                pair_ms = out["pair_ms"]
            p50s.append(percentile(pair_ms, 50))
            p99s.append(percentile(pair_ms, 99))
        return tuple(statistics.median(x) for x in (walls, p50s, p99s))


def end_to_end(runner: Runner, plain, setups) -> dict:
    wall, p50, p99 = runner.timings(plain)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "pair_ms_p50": p50,
        "pair_ms_p99": p99,
        "peak_rss_mb": max(out["peak_rss_mb"] for out in plain),
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }


def per_layer(runner: Runner, plain, traced) -> dict:
    values = {
        name: statistics.median(out["layers"][name] for out in traced)
        for name in runner.layer_metrics
    }
    values[TRACE_WALL] = runner.timings(traced)[0]
    values[TRACE_OVERHEAD] = values[TRACE_WALL] / runner.timings(plain)[0]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "schubreg" / "__init__.py").is_file():
        raise BenchError("no schubreg sources under %s" % (ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    layer_metrics = [
        m["name"] for m in spec["per_layer"]
        if m["name"] not in (TRACE_WALL, TRACE_OVERHEAD)
    ]

    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        runner = Runner(args.workload, args.seed, Path(tmp), layer_metrics)
        plain, traced, setups = runner.measure(args.seconds, bool(args.trace))
    if not plain or (args.trace and not traced):
        raise BenchError("every item raised:\n" + "\n".join(runner.problems))
    if args.trace:
        values = per_layer(runner, plain, traced)
    else:
        values = end_to_end(runner, plain, setups)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError("metrics listed in BENCHMARK.json but not measured: %s" % missing)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": len(plain) + len(traced),
        "host_factor": statistics.median(out["host_factor"] for out in plain + traced),
        "raw_wall_s": statistics.median(out["raw_wall_s"] for out in plain),
        "kernel": sorted(runner.kernels),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print("run " + json.dumps(record))
    for problem in runner.problems:
        print("FAILED " + problem.replace("\n", "\n  "))
    print("error_frac %.6f (%d of %d items)" % (
        runner.failed / runner.attempted, runner.failed, runner.attempted))
    for name, unit in units.items():
        print("%-44s %14.6f %s" % (name, values[name], unit))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
