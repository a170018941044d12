"""The package's import surface: what `schubreg` itself exports, what one
import loads, and the callers outside the library that rely on it (the
benchmark child, README's examples and `python -m schubreg.cli`)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def test_importing_one_module_loads_only_it():
    # the package re-exports nothing but __version__ and Permutation, so
    # importing perm must not pull in gb, reg, cli and the rest
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, sys, schubreg.perm\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'schubreg')))",
        ],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["schubreg", "schubreg._version", "schubreg.perm"]


def test_no_module_loads_fractions():
    # every coefficient is an int, from the parser to the Hilbert numerator
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import importlib, json, pkgutil, sys, schubreg\n"
            "names = [m.name for m in pkgutil.walk_packages(schubreg.__path__, 'schubreg.')]\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "print(json.dumps([sorted(names), 'fractions' in sys.modules]))",
        ],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    names, loaded = json.loads(done.stdout)
    assert {"schubreg.cli", "schubreg.gb", "schubreg.kernel"} <= set(names)
    assert loaded is False


def test_benchmark_child_runs_against_this_tree():
    # perfbench/child.py imports Permutation from the package; run it as
    # perfbench/run.py does, from the repository root with src on the path.
    # (1234, 3412) is not covexillary, so the child reads a Groebner H.
    spec = {
        "task": "charts",
        "workload": "slow-charts",
        "cache": None,
        "charts": [["1234", "3412"]],
        "trace": False,
        "metrics": [],
    }
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert "error" not in out, out["error"]
    assert out["kernel"] == "python"
    assert out["summary"]["charts"] == [["1234", "3412", 1, [1, 1]]]


def test_readme_library_examples_run_as_written():
    text = (ROOT / "README.md").read_text()
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    report = namespace["report"]
    assert report.reg == 2
    assert str(report.H) == "1 + 3*q + q^2"
    assert (report.dim, report.height, report.n_vars) == (8, 10, 18)


def test_cli_module_runs_as_a_script():
    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "schubreg.cli", *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )

    done = cli("--version")
    assert done.returncode == 0 and done.stdout == "schubreg 0.1.0\n"
    done = cli("analyze", "--v", "1234", "--w", "4231", "--budget-ms", "-5")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
