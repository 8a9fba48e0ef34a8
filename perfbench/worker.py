"""One workload in one fresh Python process; prints its raw results as JSON.

run.py starts this script with OpenBLAS at one thread, LAXLAB_THREADS unset
and src/ on the path.  The process times its own set-up (import laxlab and
build the parser), then runs the workload's command list once cold and
again warm, at least twice and for ``--seconds``, every command
through ``laxlab.cli.main`` with ``--check``.  Every set-up and command is
timed in wall seconds and in reference seconds (speed.py).
With ``--setup-only`` it stops after the set-up.  With ``--trace 1`` it runs
a traced cold pass, an untraced warm pass, a traced warm pass and, when the
workload samples ensembles, the sampling commands again traced with
LAXLAB_THREADS=1.
"""

import argparse
import hashlib
import io
import json
import os
import resource
import sys
import time

from speed import SpeedClock  # noqa: E402

CLOCK = SpeedClock()
with CLOCK.section() as SETUP:
    import laxlab.cli as cli

    cli.build_parser()

import numpy as np  # noqa: E402

from workloads import WORKLOADS, command_lines  # noqa: E402

# warm times are per-command medians over the warm passes; two passes keep
# the slowest workload inside the benchmark's time budget on a slow machine,
# and shorter passes get more of them within --seconds
MIN_WARM_PASSES = 2


class _Stdout(io.TextIOBase):
    """Stand-in for sys.stdout: main writes report bytes to .buffer."""

    def __init__(self):
        self.buffer = io.BytesIO()

    def writable(self):
        return True

    def write(self, text):
        self.buffer.write(text.encode())
        return len(text)


def run_command(argv):
    """Run one command; returns its record.  An exception escaping main is
    a failed command, never a harness crash."""
    out, err = _Stdout(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        with CLOCK.section() as timed:
            code = cli.main(argv)
        raised = None
    except Exception as exc:  # the program's failure, counted below
        code, raised = None, f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdout, sys.stderr = saved
    report = out.buffer.getvalue()
    return {
        "argv": " ".join(argv),
        "code": code,
        "raised": raised,
        "wall_s": timed.wall_s,
        "ref_s": timed.ref_s,
        "digest": hashlib.sha256(report).hexdigest()[:16],
        "stderr_tail": err.getvalue()[-300:] if code != 0 else "",
    }


def run_pass(commands):
    start_cpu = time.process_time()
    records = [run_command(argv) for argv in commands]
    return {
        "wall_s": sum(r["wall_s"] for r in records),
        "ref_s": sum(r["ref_s"] for r in records),
        "cpu_s": time.process_time() - start_cpu,
        "commands": records,
    }


def environment():
    """Versions and thread settings of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "LAXLAB_THREADS": os.environ.get("LAXLAB_THREADS"),
        "sampler_threads": cli.ensembles.thread_count(),
    }


def traced_pass(tracer, commands):
    tracer.reset()
    tracer.install()
    try:
        record = run_pass(commands)
    finally:
        tracer.uninstall()
    return record, tracer.spans()


def run_traced(commands, out_stem):
    """Traced run: per-layer metrics, per-command counts and span files."""
    from tracer import Tracer, analyse, per_command, save_spans

    tracer = Tracer()
    cold, cold_spans = traced_pass(tracer, commands)
    warm = run_pass(commands)
    traced, spans = traced_pass(tracer, commands)
    save_spans(f"{out_stem}.cold.npz", tracer.names, cold_spans)
    save_spans(f"{out_stem}.warm.npz", tracer.names, spans)

    layers = analyse(tracer.names, spans)
    cold_layers = analyse(tracer.names, cold_spans)
    layers["quadrature.cold_self_s"] = cold_layers["quadrature.self_s"]
    for rec, counts in zip(traced["commands"], per_command(tracer.names, spans)):
        rec.update(counts)

    sampling = [argv for argv in commands if argv[:2] == ["ensemble", "sample"]]
    one_thread = None
    if sampling:
        os.environ["LAXLAB_THREADS"] = "1"
        try:
            one_thread, one_spans = traced_pass(tracer, sampling)
        finally:
            del os.environ["LAXLAB_THREADS"]
        single = analyse(tracer.names, one_spans)
        layers["ensembles.samples_1thread"] = single["ensembles.samples"]
        layers["ensembles.sample_wall_s_1thread"] = single["ensembles.sample_wall_s"]
    return {
        "cold": cold,
        "warm": [warm],
        "traced": traced,
        "one_thread": one_thread,
        "layers": layers,
        "binding_sites": tracer.sites,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-stem", default=None)
    args = parser.parse_args()

    result = {"setup_s": SETUP.ref_s, "setup_wall_s": SETUP.wall_s}
    if not args.setup_only:
        commands = command_lines(args.workload, args.seed)
        if args.trace:
            # probes only at the ends of each command, never inside a span
            CLOCK.sample = False
            result.update(run_traced(commands, args.out_stem))
        else:
            cold = run_pass(commands)
            warm = []
            begin = time.perf_counter()
            while (len(warm) < MIN_WARM_PASSES
                   or time.perf_counter() - begin < args.seconds):
                warm.append(run_pass(commands))
            result.update(cold=cold, warm=warm)
        result["env"] = environment()
        result["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["probe_s"] = CLOCK.median_probe_s()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
