#!/usr/bin/env python3
"""tirs benchmark: runs one workload for a fixed time and prints its metrics.

    python3 bench/run.py --workload wide --seed 0 --seconds 40 --trace 0

Run it from the root of a source tree; it imports tirs from ./src.  One
process, one thread, closed loop: a pass runs every job of the workload back
to back, and passes repeat until the next one would overrun --seconds.

Every time is CPU time (user plus system) of the process doing the work,
as time.process_time gives it.  The jobs are single-threaded and never wait,
so on an idle machine it equals their wall-clock time.  On a shared virtual
machine it leaves out the time the hypervisor gives the CPU to other guests,
which moved the wall-clock times of the same code by 20% and more between
runs.

--trace 0 prints the end-to-end metrics, measured with tracing off.  The
lines ahead of the JSON result also print the passes' wall-clock time.
--trace 1 runs every job twice in a row, untraced and traced, the order
alternating from job to job and from round to round.  It runs two rounds
at least, so that every job runs in both orders, even where that takes
longer than --seconds.  It prints the per-layer metrics of the traced runs,
plus the tracing overhead: traced minus untraced pass time.  Its spans are
written to .bench_out/ when the run ends.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A job whose results break a check counts as failed, never as dropped.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is timed in this many fresh processes ahead of every round, so
# that the probes are spread over the whole run.
SETUP_PROBES = 3

CLOCK = time.process_time


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("wide", "tall", "battery"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes of every family (smoke test)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_workload(args):
    """The workload's jobs, with their payloads, made from the seed."""
    import workloads
    w = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    os.environ["TIRS_SUITE_MAXSIZE"] = str(w.suite_maxsize)
    return w


def time_setup(argv) -> list[float]:
    """CPU seconds each of SETUP_PROBES fresh interpreters on this script
    spends from its start until it has its first job ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv,
           "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=60)
        word, _, took = out.stdout.partition(" ")
        if out.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up probe failed (exit {out.returncode})"
                               f":\n{out.stderr}")
        times.append(float(took))
    return times


@dataclass
class PassResult:
    job_times: dict = field(default_factory=dict)  # job name -> CPU seconds
    wall_clock: float = 0.0   # wall-clock seconds of the jobs, for a reader
    failed: int = 0
    totals: dict = field(default_factory=dict)     # span name -> [s, calls]
    counts: dict = field(default_factory=dict)     # exact size counts
    setup: list = field(default_factory=list)  # time_setup times ahead


def run_round(workload, variants, index=0) -> list[PassResult]:
    """One timed pass over every job of a workload for each variant, a pair
    (api, tracer).  The variants take turns on each job, and who goes first
    alternates from job to job and from round to round, so that no variant
    is always the one that runs a job cold."""
    from workloads import run_job

    results = [PassResult() for _ in variants]
    firsts = [len(tracer.spans) if tracer else 0 for _, tracer in variants]
    for _, tracer in variants:
        if tracer:
            tracer.counts.clear()
    for i, job in enumerate(workload.jobs):
        order = list(zip(variants, results))
        if (i + index) % 2:
            order.reverse()
        for (api, tracer), res in order:
            # no job pays for collecting the garbage of the one before it
            gc.collect()
            t0, w0 = CLOCK(), time.perf_counter()
            if tracer:
                tracer.job = f"{index}:{job.name}"
                rec = tracer.begin("job")
            try:
                run_job(api, job)
            except Exception:
                res.failed += 1
                print(f"job {job.name} failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
            finally:
                if tracer:
                    tracer.end(rec)
            res.job_times[job.name] = CLOCK() - t0
            res.wall_clock += time.perf_counter() - w0
    for (_, tracer), res, first in zip(variants, results, firsts):
        if tracer:
            res.totals = tracer.totals(first)
            res.counts = dict(tracer.counts)
    return results


def run_rounds(workload, seconds, variants, probe=None, min_rounds=1):
    """Repeat rounds until the next one would end after `seconds`, but run
    at least `min_rounds`.  Ahead of each round `probe`, if given, times
    set-up; its times go with the round's first pass, and count against
    `seconds` too."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup = probe() if probe else []
        rounds.append(run_round(workload, variants, len(rounds)))
        rounds[-1][0].setup = setup
        took = time.perf_counter() - t0
        if (len(rounds) >= min_rounds
                and time.perf_counter() - start + took > seconds):
            return rounds


def metric(value, unit):
    return {"value": value, "unit": unit}


def pass_time(p: PassResult) -> float:
    return sum(p.job_times.values())


def end_to_end(workload, passes):
    # each job's median over the passes, so one slow pass moves no job
    jobs = [statistics.median(p.job_times[job.name] for p in passes)
            for job in workload.jobs]
    setup = [t for p in passes for t in p.setup]
    out = ({"setup_s": metric(statistics.median(setup), "s")}
           if setup else {})
    return out | {
        "wall_s": metric(statistics.median(map(pass_time, passes)), "s"),
        "job_p50_ms": metric(statistics.median(jobs) * 1e3, "ms"),
        "largest_job_s": metric(statistics.median(
            p.job_times[workload.largest] for p in passes), "s"),
        "peak_rss_mib": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(traced, untraced):
    """Per-layer metrics from the traced passes.  Times are medians over
    the passes; calls and counts must repeat exactly from pass to pass."""
    from layers import COUNTS, FUNCTIONS, MODULES, suite_tasks

    def seconds(name):
        return statistics.median(p.totals.get(name, (0.0, 0))[0]
                                 for p in traced)

    def exact(values, what):
        values = list(values)
        if len(set(values)) != 1:
            raise RuntimeError(f"{what} differs between passes: {values}")
        return values[0]

    out = {}
    for name in FUNCTIONS:
        out[f"{name}.s"] = metric(seconds(name), "s")
        out[f"{name}.calls"] = metric(exact(
            (p.totals.get(name, (0.0, 0))[1] for p in traced), name),
            "count")
    for task in suite_tasks():
        out[f"suite.{task}.s"] = metric(seconds(f"suite.{task}"), "s")
    for name in COUNTS:
        out[name] = metric(exact((p.counts.get(name, 0) for p in traced),
                                 name),
                           "bytes" if name == "io.bytes_out" else "count")
    for module in MODULES:
        out[f"{module}.errors"] = metric(
            sum(p.counts.get(f"{module}.errors", 0) for p in traced),
            "count")
    # paired by round: the two passes of a round ran each job side by side
    out["trace.overhead_s"] = metric(statistics.median(
        pass_time(t) - pass_time(u) for t, u in zip(traced, untraced)),
        "s")
    return out


def summary(args, workload, timed, e2e, attempted, failed):
    """Human-readable lines printed ahead of the JSON result; `timed` are
    the untraced passes the end-to-end metrics come from."""
    samples = {"setup_s": sum(len(p.setup) for p in timed),
               "wall_s": len(timed),
               "largest_job_s": len(timed),
               "job_p50_ms": len(workload.jobs)}
    lines = [f"workload {args.workload} seed {args.seed}: "
             f"{len(workload.jobs)} jobs, {len(timed)} untraced passes, "
             f"largest job {workload.largest}"]
    for name, m in e2e.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        lines.append(f"  {name:<14} {m['value']:>12.4f} {m['unit']}{n}")
    lines.append(f"  {'error_rate':<14} {failed / attempted:>12.4f} "
                 f"failed/attempted ({failed}/{attempted})")
    lines.append(f"  {'wall-clock':<14} "
                 f"{statistics.median(p.wall_clock for p in timed):>12.4f} "
                 "s per pass, median")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "tirs" / "__init__.py").is_file():
        print(f"error: no tirs sources under {SRC}; run from the root of a "
              "tirs source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = load_workload(args)
    from layers import Tracer, make_api

    if args.setup_probe:
        make_api()
        print("ready", CLOCK(), flush=True)
        return 0

    plain = make_api()
    if args.trace:
        tracer = Tracer()
        # two rounds at least, so that every job runs in both orders
        rounds = run_rounds(workload, args.seconds,
                            [(plain, None), (make_api(tracer), tracer)],
                            min_rounds=2)
        timed = [r[0] for r in rounds]
        traced = [r[1] for r in rounds]
        passes = timed + traced
        metrics = per_layer(traced, timed)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        e2e = end_to_end(workload, timed)
    else:
        passes = timed = [r[0] for r in run_rounds(
            workload, args.seconds, [(plain, None)],
            lambda: time_setup(argv))]
        metrics = e2e = end_to_end(workload, timed)

    attempted = sum(len(p.job_times) for p in passes)
    failed = sum(p.failed for p in passes)
    print(summary(args, workload, timed, e2e, attempted, failed))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
