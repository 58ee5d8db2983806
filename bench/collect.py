#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 bench/collect.py --seeds 10                 # all workloads
    python3 bench/collect.py --workloads battery --seeds 5 --first-seed 100
    python3 bench/collect.py --seeds 10 --traced --out bench/baseline.json
    python3 bench/collect.py --first-seed 11 --compare bench/baseline.json

The spread of a metric is (Q3 - Q1) / median over the runs, with the
quartiles of statistics.quantiles(values, n=4).  --traced adds one traced
run per workload, on the first seed, for the per-layer numbers.  --out
writes every value together with the Python version, CPU count and git
revision it was measured on.  --compare reports how far each median moved
from a report written by --out, against the metric's bound.  The exit code
is 1 when a spread or a move toward worse is larger than its bound.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=180)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                           f"{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result\n"
                           f"{out.stderr}")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args(argv)
    before = (json.loads(args.compare.read_text())["workloads"]
              if args.compare else {})

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report = {"python": platform.python_version(),
              "cpu_count": os.cpu_count(), "machine": platform.machine(),
              "git_revision": git_revision(),
              "date": datetime.date.today().isoformat(),
              "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        print(f"{workload}: {entry['failed']}/{entry['attempted']} jobs "
              "failed")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            ok = s["spread"] <= bound
            entry["end_to_end"][name] = {"values": values, **s,
                                         "bound": bound}
            line = (f"  {name:<14} median {s['median']:>10.4f}  spread "
                    f"{s['spread']:6.3f}  bound {bound:.2f}")
            old = before.get(workload, {}).get("end_to_end", {}).get(name)
            if old:
                # every end-to-end metric is better lower
                moved = s["median"] / old["median"] - 1
                ok &= moved <= bound
                entry["end_to_end"][name]["moved"] = moved
                line += f"  moved {moved:+.3f}"
            steady &= ok
            print(f"{line}{'' if ok else '  OUTSIDE BOUND'}\n    "
                  + " ".join(f"{v:.4g}" for v in values))
        if args.traced:
            traced = run_once(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
