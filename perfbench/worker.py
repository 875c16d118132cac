"""One fresh benchmark process: set up a workload, then optionally measure it.

Run by ``run.py``; prints one JSON object as its last stdout line.

``--mode setup`` times importing killingkit, writing and loading the
workload's charts and one warm-up pass of every query class, then exits.
``--mode measure`` does the same set-up and then drives ``killingkit.cli.run``
in-process with one closed-loop client: the next query starts only after the
previous one returned.  It runs whole passes of the query mix, so every class
contributes equally (see ``measure_plain``).  With
``--trace 1`` each pass runs twice, untraced and traced, which gives the
tracing overhead and a byte-for-byte comparison of the two outputs.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

# Other tenants of a shared machine slow everything it runs, by up to 2x, in
# phases from seconds to minutes.  The measuring loop therefore times a fixed
# reference mix (see reference_ms) between queries, at most REF_INTERVAL_S
# apart, and run.py scales each query's latency by the machine speed that
# the reference samples around it show.
REF_INTERVAL_S = 0.1
# Set-up processes time the reference mix this many times after set-up.
SETUP_REF_SAMPLES = 5
MIN_SAMPLES = 100


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    return ap.parse_args(argv)


def invoke(cli, query):
    """Send one query and grade the answer: (seconds, stdout, failure or None)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(query.argv) + ["--json"])
    except Exception:   # a traceback is a failed query, never a crash of the client
        elapsed = time.perf_counter() - t0
        return elapsed, None, "traceback: " + traceback.format_exc(limit=1).strip()[-200:]
    elapsed = time.perf_counter() - t0
    text = out.getvalue()
    try:
        reason = query.check(code, json.loads(text))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        reason = f"exit {code}, unreadable report: {exc!r} {err.getvalue()[:120]!r}"
    return elapsed, text, reason


class Tally:
    """Latencies and correctness-gate outcomes of the measured queries."""

    def __init__(self):
        self.latencies_ms = []
        self.attempted = 0
        self.failures = {}      # (class, reason, known) -> count

    def add(self, query, elapsed, reason):
        self.latencies_ms.append(elapsed * 1e3)
        self.attempted += 1
        if reason is not None:
            key = (query.name, reason, query.known_defect)
            self.failures[key] = self.failures.get(key, 0) + 1

    def summary(self):
        return {
            "latencies_ms": self.latencies_ms,
            "attempted": self.attempted,
            "failures": [{"query": q, "reason": r, "known_defect": k, "count": c}
                         for (q, r, k), c in sorted(self.failures.items())],
        }


def reference_ms():
    """Time of a fixed mix of interpreter work, small-array numpy calls and
    small SVDs, in ms: the fastest of three runs.  The mix resembles the
    program's own work but calls nothing of killingkit, so a change to the
    program does not change it.  numpy is imported here, not at module level,
    so that set-up time still covers importing it."""
    import numpy as np
    rng = np.random.default_rng(0)
    vec, mat, sq = np.linspace(0.1, 1.0, 56), rng.random((6, 6)), rng.random((16, 16))
    idx = np.arange(0, 56, 3)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(120):
            y = vec * vec + vec
            y[idx] -= 0.5
            acc += float(y.sum()) + float(np.einsum("ij,jk->ik", mat, mat)[0, 0])
        for _ in range(8):
            np.linalg.svd(sq)
        for i in range(400):
            table[(i, i % 7)] = [i * 0.5, acc]
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def setup(args):
    """Import, build the charts and warm every query class once."""
    t0 = time.perf_counter()
    import killingkit
    from killingkit import cli
    from killingkit.metricdsl import known_killing_fields

    import workloads
    queries = workloads.build(args.workload, args.seed, args.workdir, known_killing_fields)
    warm = Tally()
    for q in queries:
        elapsed, _, reason = invoke(cli, q)
        warm.add(q, elapsed, reason)
    return time.perf_counter() - t0, killingkit, cli, queries, warm


def environment(blas_threads):
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": blas_threads}


def measure_plain(cli, queries, seconds):
    """Whole passes until ``seconds`` have elapsed and there are MIN_SAMPLES
    latencies.  Every answer is graded; latencies are returned in send order.
    Reference samples are taken before a query whenever REF_INTERVAL_S has
    passed since the last one, and once at the end; ``ref_index`` gives, per
    query, the last sample taken before it."""
    tally = Tally()
    refs, ref_index = [reference_ms()], []
    last_ref = time.perf_counter()
    passes = 0
    start = time.perf_counter()
    while (passes == 0 or time.perf_counter() - start < seconds
           or passes * len(queries) < MIN_SAMPLES):
        for q in queries:
            if time.perf_counter() - last_ref >= REF_INTERVAL_S:
                refs.append(reference_ms())
                last_ref = time.perf_counter()
            ref_index.append(len(refs) - 1)
            elapsed, _, reason = invoke(cli, q)
            tally.add(q, elapsed, reason)
        passes += 1
    refs.append(reference_ms())
    return tally, passes, refs, ref_index


def measure_traced(args, killingkit, cli, queries):
    """Alternate untraced and traced passes; the per-layer numbers come from
    the traced ones.  A last traced pass on the next seed's inputs checks that
    the shape-only counts repeat across seeds."""
    import tracer as tracing
    from killingkit import jets
    from killingkit.metricdsl import known_killing_fields

    import workloads
    tr = tracing.Tracer(killingkit)
    tally = Tally()
    problems = []
    plain_s, traced_s, passes = [], [], []

    def traced_pass(qs, grade):
        tr.begin_pass()
        tr.install()
        texts = []
        t0 = time.perf_counter()
        try:
            for q in qs:
                tr.begin_query(q.name, q.argv[0])
                elapsed, text, reason = invoke(cli, q)
                tr.end_query(elapsed * 1e3)
                texts.append(text)
                if grade:
                    tally.add(q, elapsed, reason)
        finally:
            tr.uninstall()
        return time.perf_counter() - t0, texts, tr.stats

    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        plain_texts = [invoke(cli, q)[1] for q in queries]
        plain_s.append(time.perf_counter() - t0)
        elapsed, texts, stats = traced_pass(queries, grade=True)
        traced_s.append(elapsed)
        passes.append(stats)
        if texts != plain_texts:
            problems.append("traced --json output differs from untraced output")
    problems += tracing.repeat_mismatches(passes)
    # The cached multiplication tables are private to jets: when they exist,
    # their miss count is the number of distinct tables built, and their
    # lengths confirm the computed pair counts.
    mul_table = getattr(jets, "_mul_table", None)
    misses = mul_table.cache_info().misses if hasattr(mul_table, "cache_info") else 0

    other = workloads.build(args.workload, args.seed + 1, args.workdir + "-next",
                            known_killing_fields)
    for q in other:          # warm the next seed's classes outside the trace
        invoke(cli, q)
    _, _, other_stats = traced_pass(other, grade=False)
    for name, counts in passes[0].shape_counts.items():
        if "random" not in name and other_stats.shape_counts.get(name) != counts:
            problems.append(f"shape counts of {name} differ between seeds")

    if mul_table is not None:
        for key, pairs in tr.table_sizes.items():
            if len(mul_table(*key).ai) != pairs:
                problems.append(f"computed table size {pairs} wrong for {key}")

    overhead = statistics.median(plain_s) / statistics.median(traced_s)
    metrics = tracing.per_layer_metrics(passes, misses, overhead)
    return tally, len(passes), metrics, problems


def main(argv=None):
    args = parse_args(argv)
    blas_threads = int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))
    setup_s, killingkit, cli, queries, warm = setup(args)
    report = {"setup_s": setup_s, "env": environment(blas_threads),
              "warmup": warm.summary(), "classes": len(queries),
              "setup_ref_ms": statistics.median(
                  [reference_ms() for _ in range(SETUP_REF_SAMPLES)])}
    if args.mode == "measure":
        if args.trace:
            tally, passes, metrics, problems = measure_traced(args, killingkit, cli, queries)
            report.update(per_layer=metrics, problems=problems)
        else:
            tally, passes, refs, ref_index = measure_plain(cli, queries, args.seconds)
            report.update(ref_ms=refs, ref_index=ref_index)
        report.update(tally.summary(), passes=passes,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
