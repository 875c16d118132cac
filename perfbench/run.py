"""killingkit benchmark: one workload per run, each in fresh processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  ``--workload all`` runs every workload in
turn.  The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a readable
report with sample counts and the environment.  The program is imported from
``src/`` of the checkout, and chart files go to ``.perfbench_work/``, which is
removed at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fresh processes timed for setup_s, the measuring process included.
SETUP_SAMPLES = 5
# Timings are reported at a fixed machine speed: the speed at which the
# reference mix of worker.reference_ms takes REF_MS.  That is about its time
# on the 2-vCPU machine where the benchmark was defined, when it was quiet.
REF_MS = 1.0
# One BLAS thread: the single closed-loop client gains little from more on
# these matrix sizes, and fewer threads keep run-to-run spread down.
BLAS_THREADS = 1
# A run of one workload, its set-up processes included, must end within this.
WORKLOAD_DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(mode, workload, seed, seconds, trace, workdir, deadline):
    timeout = deadline - time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process for {workload} ran past the "
                         f"{WORKLOAD_DEADLINE_S} s deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process for {workload} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def gate(rep):
    """Correctness-gate outcome of one measuring process.  Failures of queries
    marked as known defects are counted but do not make the run incorrect;
    any other failure, in the warm-up pass or the measurement, does."""
    measured = rep["failures"]
    unexpected = [f for f in rep["warmup"]["failures"] + measured if not f["known_defect"]]
    return measured, unexpected


def speed_factors(rep):
    """Per query, REF_MS over the median of the three reference samples
    nearest to it: the last two before it and the first after it."""
    refs = rep["ref_ms"]
    return [REF_MS / statistics.median(refs[max(k - 1, 0):k + 2]) for k in rep["ref_index"]]


def timings(lat, q):
    """queries_per_s, p50 and p90 of latencies sent in whole passes of q classes."""
    pass_ms = [sum(lat[i:i + q]) for i in range(0, len(lat), q)]
    deciles = statistics.quantiles(lat, n=10)
    return q / (statistics.median(pass_ms) / 1e3), deciles[4], deciles[8]


def end_to_end(setups, rep):
    """``setups`` holds (set-up seconds, reference ms) of each set-up process."""
    scaled = [ms * f for ms, f in zip(rep["latencies_ms"], speed_factors(rep))]
    qps, p50, p90 = timings(scaled, rep["classes"])
    failed = sum(f["count"] for f in rep["failures"])
    return {
        "setup_s": {"value": statistics.median(s * REF_MS / ref for s, ref in setups),
                    "unit": "s"},
        "queries_per_s": {"value": qps, "unit": "1/s"},
        "latency_p50_ms": {"value": p50, "unit": "ms"},
        "latency_p90_ms": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
        "correct_frac": {"value": (rep["attempted"] - failed) / rep["attempted"],
                         "unit": "ratio"},
    }


def wall_clock(setups, rep):
    """The same timings unscaled, for the readable report."""
    qps, p50, p90 = timings(rep["latencies_ms"], rep["classes"])
    return (f"  wall clock, unscaled: setup_s={statistics.median(s for s, _ in setups):.4g} "
            f"queries_per_s={qps:.4g} latency_p50_ms={p50:.4g} latency_p90_ms={p90:.4g}; "
            f"speed factor median={statistics.median(speed_factors(rep)):.3f} "
            f"over {len(rep['ref_ms'])} reference samples")


def run_workload(workload, seed, seconds, trace, workroot):
    workdir = workroot / f"{workload}-{seed}"
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    setups = []
    if not trace:
        for i in range(SETUP_SAMPLES - 1):
            rep = run_worker("setup", workload, seed, seconds, 0, f"{workdir}-setup{i}",
                             deadline)
            setups.append((rep["setup_s"], rep["setup_ref_ms"]))
    rep = run_worker("measure", workload, seed, seconds, trace, workdir, deadline)
    setups.append((rep["setup_s"], rep["setup_ref_ms"]))
    measured, unexpected = gate(rep)
    failed = sum(f["count"] for f in measured)
    problems = sorted(set(rep.get("problems", [])))
    metrics = rep["per_layer"] if trace else end_to_end(setups, rep)
    env = rep["env"]
    lines = [f"workload={workload} seed={seed} seconds={seconds} trace={trace} "
             f"python={env['python']} numpy={env['numpy']} "
             f"blas_threads={env['blas_threads']} nproc={os.cpu_count()} "
             f"client=closed-loop x1 classes={rep['classes']} passes={rep['passes']}"]
    notes = {}
    if not trace:
        n = rep["attempted"]
        notes = {"setup_s": f"median of {len(setups)} fresh processes",
                 "queries_per_s": f"median of {rep['passes']} passes",
                 "latency_p50_ms": f"n={n} samples",
                 "latency_p90_ms": f"n={n} samples, {n // 10} above p90",
                 "correct_frac": f"attempted={rep['attempted']} failed={failed}"}
    for name, m in metrics.items():
        lines.append(f"  {name:<38} {m['value']:>14.6g} {m['unit']:<11} {notes.get(name, '')}")
    if not trace:
        lines.append(wall_clock(setups, rep))
    lines.append(f"  gate: attempted={rep['attempted']} failed={failed} "
                 f"unexpected={sum(f['count'] for f in unexpected)}")
    for f in measured + [f for f in unexpected if f not in measured]:
        tag = "known defect" if f["known_defect"] else "UNEXPECTED"
        lines.append(f"    {tag}: {f['query']} x{f['count']}: {f['reason']}")
    for p in problems:
        lines.append(f"    SELF-CHECK: {p}")
    result = {"correct": not unexpected and not problems, "attempted": rep["attempted"],
              "failed": failed, "metrics": metrics}
    return lines, result


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "killingkit" / "__init__.py").is_file():
        print(f"error: no killingkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workroot = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            lines, results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                                workroot)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()
        except OSError:
            pass            # another run still uses it
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
