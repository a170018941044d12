"""The benchmark's per-layer trace still reaches the code it measures.

perfbench/tracing.py wraps library functions in the module namespaces where
their callers look them up (for example kernel.normal_form, called through
the kernel module at call time).  A refactor that moves a call behind a
from-import silently empties a layer, and a change to the generators or to
the algorithm's path moves the work counts the tracer reads; this test
catches both in the default tier.  The tracer patches modules for good, so it runs in a child
interpreter and leaves this process untouched.  The last two tests run the
benchmark's own traced items (perfbench/child.py) on all four workloads and
check their outputs against perfbench/reference.json.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"

LAYERS = (
    "gb.hilbert_data",
    "ideal.kl_generators",
    "gb.buchberger.grevlex",
    "gb.hilbert_numerator",
    "gb.buchberger.grevlex_t",
    "kernel.normal_form",
    "kernel.s_polynomial",
)

CHILD = """
import sys
sys.path[:0] = sys.argv[1:3]
from tracing import Tracer
tracer = Tracer()
tracer.install()
from schubreg import reg
from schubreg.perm import Permutation
exec(sys.argv[3])
for layer in sys.argv[4:]:
    print(layer, tracer.layer_calls(layer))
for layer, fields in sorted(tracer.counts.items()):
    for field, amount in sorted(fields.items()):
        print("%s.%s" % (layer, field), amount)
"""

# Work counts of the golden chart, as the benchmark's per-layer metrics read
# them.  They depend only on the generators and the path of the algorithm.
GOLDEN_COUNTS = {
    "ideal.kl_generators.generators": 51,
    "gb.buchberger.grevlex.pairs": 35,
    "gb.buchberger.grevlex.zero_reductions": 35,
    "gb.buchberger.grevlex.basis_size": 19,
    "gb.buchberger.grevlex_t.pairs": 5,
    "gb.buchberger.grevlex_t.zero_reductions": 5,
    "gb.buchberger.grevlex_t.basis_size": 12,
    "gb.hilbert_numerator.monomials": 12,
}


# the golden chart is not homogeneous, so it reaches the grevlex_t stage
GOLDEN_CHART = """
data = reg.hilbert_data(
    Permutation.from_string("1423576"), Permutation.from_string("7314562")
)
assert list(data.H.coeffs) == [1, 3, 1]
"""

# every check on a covexillary pair, which runs the tableau and KL routes
CHECK_PATH = """
report = reg.regularity(
    Permutation.from_string("12345"), Permutation.from_string("52341"),
    checks="all", with_kl=True,
)
assert report.kl_degree == 2 and set(report.conjecture_flags.values()) == {"pass"}
"""

CHECK_LAYERS = (
    "reg.kl_polynomial",
    "shapes.regularity_formula",
    "perm.bruhat_interval",
    "shapes.companion_permutation",
)

# a scan that writes its cache, then resumes from it: the record path.  Every
# cache line, less its newline, passes through the wrapped to_json_line.
SCAN_PATH = """
cache = %r
first = reg.max_reg_scan(4, cache_path=cache)
with open(cache, "rb") as handle:
    written = handle.read()
encoded = tracer.counts["reg.ScanRecord.to_json_line"]["bytes"]
assert encoded == len(written) - written.count(b"\\n"), (encoded, len(written))
again = reg.max_reg_scan(4, cache_path=cache)
assert len(first.records) == 213 and again.records == first.records
"""

SCAN_LAYERS = (
    "reg.max_reg_scan",
    "reg.scan_pairs",
    "reg.scan_record",
    "reg.regularity",
    "reg.ScanRecord.to_json_line",
    "reg.ScanRecord.from_json_line",
)


def run_child(task, layers):
    """The layer calls and work counts of `task`, run in a traced child."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), str(ROOT / "perfbench"), task, *layers],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    values = {}
    for line in done.stdout.splitlines():
        name, value = line.split()
        values[name] = int(value)
    silent = [layer for layer in layers if values[layer] == 0]
    assert not silent, silent
    return values


def test_tracer_records_every_pipeline_layer_on_the_golden_chart():
    values = run_child(GOLDEN_CHART, LAYERS)
    assert {name: values.get(name) for name in GOLDEN_COUNTS} == GOLDEN_COUNTS


def test_tracer_records_the_layers_of_the_conjecture_checks():
    run_child(CHECK_PATH, CHECK_LAYERS)


def test_tracer_records_the_layers_of_a_scan_and_its_resume(tmp_path):
    run_child(SCAN_PATH % str(tmp_path / "scan4.jsonl"), SCAN_LAYERS)


# The scan-summary keys that perfbench/run.py checks against the reference.
SUMMARY_KEYS = ("max_reg", "argmax", "digest", "records", "tallies", "falsified")


def traced_bench_item(task, workload, cache=None, charts=()):
    """One traced benchmark item, its spec built as perfbench/run.py builds it.

    The benchmark refuses a change whose traced item exits nonzero (a wrapped
    name gone, a layer with no calls, an observer that no longer fits) or
    reports an error, so both are asserted here.
    """
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {
        "task": task,
        "workload": workload,
        "cache": str(cache) if cache is not None else None,
        "charts": [list(pair) for pair in charts],
        "trace": True,
        "metrics": [
            m["name"] for m in benchmark["per_layer"] if not m["name"].startswith("trace.")
        ],
    }
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert "error" not in out, out["error"]
    return out


def test_traced_benchmark_scan_resume_and_sweep_match_the_reference(tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())
    cache = tmp_path / "cache.jsonl"
    for task, workload in (("scan", "scan5"), ("resume", "resume5"), ("sweep", "sweep5")):
        written = cache.read_bytes() if task == "resume" else None
        out = traced_bench_item(task, workload, cache=None if task == "sweep" else cache)
        got = out["summary"]
        want = reference["sweep5" if task == "sweep" else "scan5"]
        assert {k: got[k] for k in SUMMARY_KEYS} == {k: want[k] for k in SUMMARY_KEYS}, task
        assert (got["partial"], got["errors"]) == (False, 0), task
        assert out["sink_calls"] == (0 if task == "resume" else got["records"]), task
        if written is not None:
            assert cache.read_bytes() == written


def test_traced_benchmark_slow_charts_match_the_reference():
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    reference = json.loads((BENCH / "reference.json").read_text())["slow-charts"]
    out = traced_bench_item("charts", "slow-charts", charts=workloads.SLOW_CHARTS)
    got = {v + " " + w: {"reg": reg, "h_coeffs": h} for v, w, reg, h in out["summary"]["charts"]}
    assert got == reference
