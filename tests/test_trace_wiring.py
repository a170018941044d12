"""The benchmark's per-layer trace still reaches the code it measures.

perfbench/tracing.py wraps library functions in the module namespaces where
their callers look them up (for example kernel.normal_form, called through
the kernel module at call time).  A refactor that moves a call behind a
from-import silently empties a layer; this test catches that in the default
tier.  The tracer patches modules for good, so it runs in a child
interpreter and leaves this process untouched.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

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
# the golden chart is not homogeneous, so it reaches the grevlex_t stage
data = reg.hilbert_data(
    Permutation.from_string("1423576"), Permutation.from_string("7314562")
)
assert list(data.H.coeffs) == [1, 3, 1]
for layer in sys.argv[3:]:
    print(layer, tracer.layer_calls(layer))
"""


def test_tracer_records_every_pipeline_layer_on_the_golden_chart():
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), str(ROOT / "perfbench"), *LAYERS],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    calls = {}
    for line in done.stdout.splitlines():
        layer, count = line.split()
        calls[layer] = int(count)
    assert sorted(calls) == sorted(LAYERS)
    silent = [layer for layer in LAYERS if calls[layer] == 0]
    assert not silent, silent
