"""The benchmark's contract with the library, read from perfbench/
without changing it: every workload command passes its check at seed 0,
the tracer installs and uninstalls cleanly, and every name its analysis
indexes directly still exists."""

import contextlib
import importlib
import importlib.util
import io
import os
import pathlib
import subprocess
import sys

import pytest

from laxlab import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")

# qualified names that tracer.analyse and tracer.per_command index
# without a fallback
INDEXED = (
    "laxlab.toda.toda_ode_flow",
    "laxlab.fredholm.nystrom_det",
    "laxlab.fredholm.nystrom_matrix",
    "laxlab.ensembles.sample_ensemble",
    "laxlab.mathcore.linalg.lu_determinant",
    "laxlab.cli.main",
)


def run_quiet(argv):
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_commands_pass_at_seed_0(workload):
    failed = [" ".join(argv) for argv in workloads.command_lines(workload, 0)
              if run_quiet(argv) != 0]
    assert failed == []


def test_tracer_round_trip_and_indexed_names():
    t = tracer.Tracer()
    assert set(INDEXED) <= set(t.names)
    originals = {name: fn for name, fn in t.functions.items()}
    t.install()
    try:
        # each function is bound at least in its own module
        assert t.sites >= len(t.names)
        assert run_quiet(["gapode", "pii", "--grid", "0:2:1", "--check"]) == 0
    finally:
        t.uninstall()
    spans = t.spans()
    metrics = tracer.analyse(t.names, spans)
    assert metrics["special.airy.points"] > 0
    assert len(tracer.per_command(t.names, spans)) == 1
    for name, fn in originals.items():
        module, attr = name.rsplit(".", 1)
        assert getattr(importlib.import_module(module), attr) is fn


def test_tracer_builds_in_a_fresh_process():
    # in this process other test modules may already have imported every
    # module the tracer reads from sys.modules; a fresh one has only what
    # importing laxlab.cli loads
    code = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('tracer', sys.argv[1])\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "module.Tracer()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code, str(PERFBENCH / "tracer.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
