"""Per-stage CPU times of the duality pipeline on fixed lattices, and of
structure generation, for two source trees side by side.

    python3 tools/stage_table.py --parent REV --out BENCH_16.json

The change column times the working tree (./src), the parent column a
`git archive` of REV; the output names both by the git tree id of their
src.  A stage is timed on inputs built fresh for it, so no cached table
of an earlier stage is reused: maximal_pairs, dual_graph and the lattice
stages get a fresh lattice, check_graph, rho, alpha and dump_structure a
fresh dual graph, gr, beta and closed_sets a fresh rho frame, and
parse_structure the parsed JSON text of a fresh dual graph.  The
pipeline row times one pass of every stage but the two serialisation
ones in order on one fresh lattice, maximal_pairs first as the
benchmark's lattice jobs call it, so later stages do reuse what earlier
ones cached (the lattice's maximal-pair table and dual graph, the graph's
rho frame and condition report, and the frame's gr graph and condition
report, among them).  The generation rows time the GENERATION calls; a
random row is one call for each of the seeds 0 to 9.  The suite rows build
the suite's frame corpus (lattices and the exhaustive 3x3 RS frames
included) at TIRS_SUITE_MAXSIZE=8, run the pti-condition task
for seed 0 on that corpus built beforehand, and run check_frame on a
fresh copy of each frame of that corpus, so that every frame's table is
built on the clock.  Each figure is in
milliseconds of time.process_time: the median of every in-process call
of a row over INTERPRETERS interpreters per tree.  An interpreter calls
a row at least MIN_CALLS and at most MAX_CALLS times, until BUDGET_MS
of timed work is spent; each call gets an input built off the clock
(the suite rows on emptied corpus caches), after a gc.collect().  The
stages share one interpreter per round, and every generation or suite
row has one of its own, so no row runs on the heap another left; the
two trees take turns, and who goes first alternates.  The output keeps
each interpreter's median too, to show their spread.  It also records,
and the tool prints, the line count of src/tirs/*.py in each tree, as
`wc -l` counts it.  Stdlib only.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LATTICES = ("C32", "M16", "M32", "B8")
STAGES = ("maximal_pairs", "dual_graph", "check_graph", "rho", "gr", "alpha",
          "beta", "closed_sets", "canext_tandem", "canext_polarity",
          "check_pti", "dump_structure", "parse_structure")
INTERPRETERS = 3  # per tree
MIN_CALLS, MAX_CALLS, BUDGET_MS = 5, 40, 500  # per row and interpreter
# generation calls: name -> (kind, size, count, exhaustive)
GENERATION = {
    "gen lattice 8 x3 (seeds 0-9)": ("lattice", 8, 3, False),
    "gen distributive-lattice 8 x3 (seeds 0-9)":
        ("distributive-lattice", 8, 3, False),
    "gen poset 8 x3 (seeds 0-9)": ("poset", 8, 3, False),
    "gen poset 5 exhaustive": ("poset", 5, 1, True),
    "gen lattice 6 exhaustive": ("lattice", 6, 1, True),
    "gen lattice 8 exhaustive": ("lattice", 8, 1, True),
    "gen distributive-lattice 6 exhaustive":
        ("distributive-lattice", 6, 1, True),
    "gen tirs-graph 5 exhaustive": ("tirs-graph", 5, 1, True),
    "gen rs-frame 3 exhaustive": ("rs-frame", 3, 1, True),
}
SUITE_FRAMES = "suite._frames(0, 8)"
PTI_TASK = 'suite.TASKS["pti-condition"](0)'
CHECK_FRAMES = "check_frame over suite._frames(0, 8)"
ROWS = (*GENERATION, SUITE_FRAMES, PTI_TASK, CHECK_FRAMES)


def lattice_spec(name):
    """(elements, covers) of the chain C_n, of the Boolean lattice B_n (the
    subsets of n points, as bit strings) or of M_n."""
    n = int(name[1:])
    if name[0] == "C":
        elements = [f"c{i}" for i in range(n)]
        return elements, list(zip(elements, elements[1:]))
    if name[0] == "B":
        elements = [format(s, f"0{n}b") for s in range(1 << n)]
        return elements, [(elements[s], elements[s | 1 << k])
                          for s in range(1 << n) for k in range(n)
                          if not s >> k & 1]
    atoms = [f"a{i}" for i in range(n)]
    return (["0", *atoms, "1"],
            [("0", a) for a in atoms] + [(a, "1") for a in atoms])


def timed(build, call) -> list[float]:
    """The ms of each in-process call(build()), MIN_CALLS to MAX_CALLS of
    them until BUDGET_MS is spent; build and gc.collect run off the
    clock."""
    times = []
    while len(times) < MIN_CALLS or (len(times) < MAX_CALLS
                                     and sum(times) < BUDGET_MS):
        arg = build()
        gc.collect()
        start = time.process_time()
        call(arg)
        times.append((time.process_time() - start) * 1000)
    return times


def measure_row(row):
    """The ms of the calls of one generation or suite row, for the tirs on
    sys.path."""
    from tirs import suite
    from tirs.generators import GenSpec, generate
    from tirs.structures import Frame, check_frame

    def corpus(built):
        # trees that build the 3x3 RS frames once keep them in a cache of
        # their own, emptied too so the frame row still times them
        for cache in (suite._lattices, suite._frames,
                      getattr(suite, "_rs_frames_3x3", None)):
            if cache:
                cache.cache_clear()
        if built:
            suite._frames(0, 8)

    if row == SUITE_FRAMES:
        return timed(lambda: corpus(False), lambda _: suite._frames(0, 8))
    if row == PTI_TASK:
        os.environ["TIRS_SUITE_MAXSIZE"] = "8"
        # the task's corpus, built before the clock
        return timed(lambda: corpus(True),
                     lambda _: suite.TASKS["pti-condition"](0))
    if row == CHECK_FRAMES:
        frames = suite._frames(0, 8)
        return timed(lambda: [Frame._from_masks(f.x1, f.x2, f.rows, f.meta)
                              for f in frames],
                     lambda fresh: [check_frame(f) for f in fresh])
    kind, size, count, exhaustive = GENERATION[row]
    seeds = [0] if exhaustive else range(10)
    return timed(lambda: [GenSpec(kind, size, seed, count, exhaustive)
                          for seed in seeds],
                 lambda specs: [generate(s) for s in specs])


def measure():
    """{lattice: {stage: [ms, ...]}} for the tirs on sys.path."""
    from tirs import (alpha, beta, build_lattice, canext_polarity,
                      canext_tandem, check_graph, check_pti, closed_sets,
                      dual_graph, gr, maximal_pairs, rho)
    from tirs.io import dump_structure, parse_structure

    def lattice(name):
        return build_lattice(*lattice_spec(name))

    # stage -> (input builder from the lattice name, the timed call)
    stages = {
        "maximal_pairs": (lattice, maximal_pairs),
        "dual_graph": (lattice, dual_graph),
        "check_graph": (lambda L: dual_graph(lattice(L)), check_graph),
        "rho": (lambda L: dual_graph(lattice(L)), rho),
        "gr": (lambda L: rho(dual_graph(lattice(L))), gr),
        "alpha": (lambda L: dual_graph(lattice(L)), alpha),
        "beta": (lambda L: rho(dual_graph(lattice(L))), beta),
        "closed_sets": (lambda L: rho(dual_graph(lattice(L))), closed_sets),
        "canext_tandem": (lattice, canext_tandem),
        "canext_polarity": (lattice, canext_polarity),
        "check_pti": (lattice, check_pti),
        "dump_structure": (lambda L: dual_graph(lattice(L)), dump_structure),
        "parse_structure": (lambda L: json.loads(dump_structure(
            dual_graph(lattice(L)))), parse_structure),
    }

    def pipeline(name):
        L = lattice(name)  # on the clock: the row times the whole pass
        maximal_pairs(L)
        g = dual_graph(L)
        check_graph(g)
        f = rho(g)
        gr(f)
        alpha(g)
        beta(f)
        closed_sets(f)
        canext_tandem(L)
        canext_polarity(L)
        check_pti(L)

    out = {}
    for name in LATTICES:
        out[name] = {stage: timed(lambda: build(name), call)
                     for stage, (build, call) in stages.items()}
        out[name]["pipeline"] = timed(lambda: name, pipeline)
    return out


def run_tree(src: Path, row=None):
    """In a fresh interpreter importing tirs from src, measure_row(row), or
    measure() when row is None."""
    call = "measure()" if row is None else f"measure_row({row!r})"
    code = (f"import sys, json; sys.path.insert(0, {str(src)!r}); "
            f"sys.path.insert(0, {str(ROOT / 'tools')!r}); "
            f"import stage_table; "
            f"print(json.dumps(stage_table.{call}))")
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def median(xs) -> float:
    return round(statistics.median(xs), 1)


def summary(runs: list[list[float]]) -> tuple[float, list[float]]:
    """The median of every call in runs, and the median of each run."""
    return median([t for run in runs for t in run]), list(map(median, runs))


def src_lines(src: Path) -> int:
    """The newlines in src/tirs/*.py, the total `wc -l` prints."""
    return sum(p.read_bytes().count(b"\n")
               for p in (src / "tirs").glob("*.py"))


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    dirty = bool(git("status", "--porcelain", "--", "src"))
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive",
                                  args.parent, "src"], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"parent": Path(tmp) / "src", "change": ROOT / "src"}
        lines = {side: src_lines(src) for side, src in trees.items()}
        runs = {side: {row: [] for row in (None, *ROWS)} for side in trees}
        # the sides take turns, and who goes first alternates, so a drift
        # in machine speed reaches both
        for k in range(INTERPRETERS):
            for row in (None, *ROWS):
                for side in sorted(trees, reverse=k % 2 == 1):
                    runs[side][row].append(run_tree(trees[side], row))

    def row(key, side_runs):
        out = dict(key)
        for side, r in side_runs.items():
            out[f"{side}_ms"], out[f"{side}_interpreter_ms"] = summary(r)
        return out

    rows = [row({"lattice": name, "stage": stage},
                {side: [run[name][stage] for run in runs[side][None]]
                 for side in trees})
            for name in LATTICES for stage in (*STAGES, "pipeline")]
    gen_rows = [row({"call": call}, {side: runs[side][call] for side in trees})
                for call in ROWS]
    args.out.write_text(json.dumps({
        "tool": "tools/stage_table.py",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        # src tree ids are content hashes: they name the timed sources and
        # survive rebasing or amending the commit that records this file
        "revisions": {
            "parent": git("rev-parse", args.parent),
            "parent_src_tree": git("rev-parse", f"{args.parent}:src"),
            "change_src_tree": git("rev-parse", "HEAD:src")
            + (" + uncommitted changes" if dirty else "")},
        "src_lines": lines,
        "interpreters": INTERPRETERS,
        "calls": {"min": MIN_CALLS, "max": MAX_CALLS,
                  "budget_ms": BUDGET_MS},
        "unit": "ms of time.process_time, median of every in-process call "
                "over the interpreters (one per round for the stages, one "
                "per generation or suite row), parent and change taking "
                "turns; *_interpreter_ms are each interpreter's medians",
        "rows": rows,
        "generation_rows": gen_rows,
    }, indent=2) + "\n")
    for r in rows:
        print(f"{r['lattice']:>4} {r['stage']:<16} {r['parent_ms']:>9.1f} "
              f"{r['change_ms']:>9.1f}")
    for r in gen_rows:
        print(f"{r['call']:<42} {r['parent_ms']:>9.1f} {r['change_ms']:>9.1f}")
    print(f"{'src/tirs/*.py lines':<42} {lines['parent']:>9} "
          f"{lines['change']:>9}")


if __name__ == "__main__":
    main()
