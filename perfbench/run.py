"""laxlab benchmark: the CLI's own commands, timed end to end and per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload gap_pde --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Load model: a batch tool run by one user, so a closed loop with one client.
Each run starts one fresh Python process for the workload (worker.py), with
OpenBLAS at one thread and LAXLAB_THREADS at its default, so the sampler's
workers are the only parallelism.  The process times its set-up, runs the
workload's command list once cold, then repeats it warm for ``--seconds``
(at least twice).  A warm time (``pass_s`` and each heavy action's
``<group>.<action>_s``) is the sum of each command's median over the warm
passes.  Eight more fresh processes, four before and four after, time
set-up alone, and set-up is reported as the median of the nine samples.

Times are in reference seconds (speed.py): wall time scaled by how fast
the machine ran a fixed probe beside the work, so that a shared machine
whose speed drifts gives steady figures.  The report also prints the raw
wall times ``setup_wall_s``, ``pass_wall_s`` and ``cold_pass_wall_s``.

Every command runs with ``--check`` through ``laxlab.cli.main``.  The run is
correct when every command exits 0 and every command's report bytes are
the same in every pass.  A command that exits non-zero or raises counts as
failed.

With ``--trace 1`` the worker traces the calls into each layer (tracer.py)
and the run reports per-layer metrics instead of end-to-end ones.  Spans and
a full results file go to perfbench/out/.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from workloads import WORKLOADS, action_of  # noqa: E402

# set-up-only processes before and after the workload process; with its
# own set-up that makes 9 samples, taken about half a minute apart
SETUP_PROCESSES = 4
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("LAXLAB_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(argv, deadline):
    """Run worker.py in a fresh process; returns its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {argv}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit, samples=1):
    return {"value": value, "unit": unit, "samples": samples}


def median_metric(values, unit):
    return metric(statistics.median(values), unit, len(values))


def warm_time(warm, keep=lambda argv: True, key="ref_s"):
    """Warm time of the kept commands: the sum of each command's median
    over the warm passes."""
    times = {}
    for p in warm:
        for r in p["commands"]:
            if keep(r["argv"]):
                times.setdefault(r["argv"], []).append(r[key])
    return sum(statistics.median(t) for t in times.values())


def end_to_end(workload, res, setups):
    """The untraced metrics: set-up, cold and warm passes, memory, and the
    warm time of each heavy CLI action, in reference seconds; the raw wall
    times of set-up and the passes beside them."""
    warm, n = res["warm"], len(res["warm"])
    out = {
        "setup_s": median_metric([s["setup_s"] for s in setups], "s"),
        "cold_pass_s": metric(res["cold"]["ref_s"], "s"),
        "pass_s": metric(warm_time(warm), "s", n),
        "peak_rss_mib": metric(res["peak_rss_mib"], "MiB"),
    }
    for action in WORKLOADS[workload]["actions"]:
        def keep(argv, action=action):
            return action_of(argv.split()) == action
        out[f"{action}_s"] = metric(warm_time(warm, keep), "s", n)
    out["setup_wall_s"] = median_metric([s["setup_wall_s"] for s in setups], "s")
    out["cold_pass_wall_s"] = metric(res["cold"]["wall_s"], "s")
    out["pass_wall_s"] = metric(warm_time(warm, key="wall_s"), "s", n)
    return out


def _unit(name):
    if name.startswith("ensembles.samples_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "linalg.lu.flops":
        return "flop"
    return "count"


def per_layer(res):
    """The traced run's per-layer and whole-run metrics."""
    layers = dict(res["layers"])

    def rate(samples, wall):
        return samples / wall if wall > 0 else 0.0

    layers["ensembles.samples_per_s"] = rate(
        layers["ensembles.samples"], layers.pop("ensembles.sample_wall_s"))
    layers["ensembles.samples_per_s.1thread"] = rate(
        layers.pop("ensembles.samples_1thread", 0.0),
        layers.pop("ensembles.sample_wall_s_1thread", 0.0))
    warm, traced = res["warm"][0], res["traced"]
    layers["process.cpu_s"] = warm["cpu_s"]
    layers["machine.probe_s"] = res["probe_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - warm["wall_s"]
    layers["unattributed_s"] = traced["wall_s"] - layers.pop("traced_s")
    return {name: metric(value, _unit(name)) for name, value in layers.items()}


def verdict(passes):
    """(attempted, failed, commands whose report bytes changed)."""
    records = [r for p in passes for r in p["commands"]]
    failed = [r for r in records if r["code"] != 0]
    digests = {}
    for r in records:
        digests.setdefault(r["argv"], set()).add(r["digest"])
    unstable = sorted(argv for argv, d in digests.items() if len(d) > 1)
    return len(records), failed, unstable


def run_workload(workload, seed, seconds, trace, deadline):
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{trace}"
    argv = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-stem", str(stem)]

    def setup_only():
        return [run_worker(["--setup-only"], deadline)
                for _ in range(0 if trace else SETUP_PROCESSES)]

    setups = setup_only()
    res = run_worker(argv, deadline)
    setups += [res] + setup_only()

    passes = [res["cold"], *res["warm"]]
    if trace:
        passes += [p for p in (res["traced"], res["one_thread"]) if p]
        metrics = per_layer(res)
    else:
        metrics = end_to_end(workload, res, setups)
    attempted, failed, unstable = verdict(passes)
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "env": res["env"],
        "probe_s": [s["probe_s"] for s in setups],
        "correct": not failed and not unstable,
        "attempted": attempted, "failed": len(failed),
        "failed_ratio": len(failed) / attempted,
        "unstable_reports": unstable, "failures": failed,
        "metrics": metrics,
        "binding_sites": res.get("binding_sites"),
        "commands": (res["traced"] if trace else res["warm"][-1])["commands"],
        "digests": {r["argv"]: r["digest"] for r in res["cold"]["commands"]},
        "warm_pass_walls": [p["wall_s"] for p in res["warm"]],
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return summary


def print_report(s):
    env = s["env"]
    print(f"== laxlab benchmark: workload {s['workload']}, seed {s['seed']}, "
          f"seconds {s['seconds']}, trace {s['trace']}")
    print(f"   nproc {env['nproc']}, python {env['python']}, numpy "
          f"{env['numpy']}, {env['blas']}, OPENBLAS_NUM_THREADS="
          f"{env['OPENBLAS_NUM_THREADS']}, LAXLAB_THREADS="
          f"{env['LAXLAB_THREADS'] or 'unset'} (sampler threads "
          f"{env['sampler_threads']})")
    print(f"   machine speed: probe {speed.REF_PROBE_S:.6f} s at the reference "
          "speed; its median in each process of this run "
          + ", ".join(f"{p:.6f}" for p in s["probe_s"]))
    print(f"   {'failed_ratio':<34} {s['failed_ratio']:<14.6g} "
          f"{'ratio':<6} n={s['attempted']}")
    for name, m in s["metrics"].items():
        print(f"   {name:<34} {m['value']:<14.6g} {m['unit']:<6} n={m['samples']}")
    if s["trace"]:
        print(f"   binding sites wrapped: {s['binding_sites']}")
        for r in s["commands"]:
            if r.get("fredholm.dets"):
                print(f"   {r['argv']}: fredholm.dets {r['fredholm.dets']}, "
                      f"fredholm.matrices {r['fredholm.matrices']}")
    for r in s["failures"]:
        print(f"   FAILED {r['argv']}: exit {r['code']} {r['raised'] or ''} "
              f"{r['stderr_tail'].strip()}")
    for argv in s["unstable_reports"]:
        print(f"   REPORT BYTES CHANGED between passes: {argv}")


def result_line(summaries, prefix):
    """The last line: BENCHMARK.json's end_to_end metrics, or its per_layer
    metrics for a traced run, of every workload run."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    metrics = {}
    for s in summaries:
        for entry in spec["per_layer" if s["trace"] else "end_to_end"]:
            m = s["metrics"][entry["name"]]
            key = f"{s['workload']}.{entry['name']}" if prefix else entry["name"]
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    })


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "laxlab" / "cli.py").is_file():
        print(f"laxlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    try:
        for name in names:
            # one workload must finish inside the run limit
            deadline = time.monotonic() + RUN_LIMIT_S
            summaries.append(
                run_workload(name, args.seed, args.seconds, args.trace, deadline))
            print_report(summaries[-1])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(result_line(summaries, prefix=len(names) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
