"""One sha256 prefix per group of seeded outputs of a source tree, to show
that a change leaves every output byte as it was.

    python3 tools/output_hashes.py [TREE]

TREE is the root of a source tree, such as a `git archive` of a revision;
it defaults to this checkout.  tirs is imported from TREE/src, and the
benchmark's workloads and job runner from TREE/bench/workloads.py and
TREE/bench/layers.py, which are only read: no bytecode is written.  Run it
on two trees and compare the JSON objects the two runs print.  The groups:

generate             generate() of every kind at sizes 1-8 for seeds 0-5
                     with count=3, and exhaustively at every size up to 8
                     that the kind allows
random_monotone_map  3,000 seeded pairs of gen_poset posets of 1-6 points
run_job <workload>   the results of every job of wide, tall and battery,
                     for seeds 0-3
run_suite            run_suite(s) for s = 0-5 at TIRS_SUITE_MAXSIZE=8
suite corpus         every lattice of suite._lattices(s, m), then every
                     frame of suite._frames(s, m), for s = 0-5 and
                     m = 4, 6, 8

A structure is hashed as io.dump_structure writes it, and a request that
raises a toolkit error as the error's type and message.  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("poset", "lattice", "distributive-lattice", "tirs-graph", "rs-frame")
SIZES = range(1, 9)
GEN_SEEDS = range(6)
MONOTONE_PAIRS = 3000
JOB_SEEDS = range(4)
SUITE_SEEDS = range(6)
SUITE_MAXSIZE = "8"
CORPUS_MAXSIZES = (4, 6, 8)


class Digest:
    """A sha256 fed one text per item, each ended by a newline."""

    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, text: str):
        self.h.update(text.encode() + b"\n")

    def prefix(self) -> str:
        return self.h.hexdigest()[:16]


def generated(spec) -> list[str]:
    """The dumped structures of one generation request, or its error."""
    from tirs.errors import TirsError
    from tirs.generators import generate
    from tirs.io import dump_structure

    try:
        return [dump_structure(s) for s in generate(spec)]
    except TirsError as exc:
        return [f"{type(exc).__name__}: {exc}"]


def hash_generate() -> str:
    from tirs.errors import InvalidInput
    from tirs.generators import GenSpec

    d = Digest()
    for kind in KINDS:
        for size in SIZES:
            for seed in GEN_SEEDS:
                for text in generated(GenSpec(kind, size, seed, count=3)):
                    d.add(text)
            try:
                spec = GenSpec(kind, size, exhaustive=True)
            except InvalidInput:  # past the kind's exhaustive bound
                continue
            for text in generated(spec):
                d.add(text)
    return d.prefix()


def hash_monotone_maps() -> str:
    from tirs.generators import GenSpec, gen_poset, random_monotone_map

    d, rng = Digest(), random.Random(0)
    for _ in range(MONOTONE_PAIRS):
        p, q = (gen_poset(GenSpec("poset", rng.randrange(1, 7),
                                  rng.randrange(2 ** 32)))[0]
                for _ in range(2))
        m = random_monotone_map(p, q, rng)
        d.add(repr(None if m is None else list(m.items())))
    return d.prefix()


def hash_jobs(name: str) -> str:
    from layers import make_api
    from workloads import WORKLOADS, run_job

    d, api = Digest(), make_api()
    for seed in JOB_SEEDS:
        workload = WORKLOADS[name](seed)
        os.environ["TIRS_SUITE_MAXSIZE"] = str(workload.suite_maxsize)
        for job in workload.jobs:
            d.add(json.dumps([job.name, run_job(api, job)]))
    return d.prefix()


def hash_suite() -> str:
    from tirs.suite import run_suite

    os.environ["TIRS_SUITE_MAXSIZE"] = SUITE_MAXSIZE
    d = Digest()
    for seed in SUITE_SEEDS:
        d.add(repr(run_suite(seed)))
    return d.prefix()


def hash_suite_corpus() -> str:
    from tirs import suite
    from tirs.io import dump_structure

    d = Digest()
    for seed in SUITE_SEEDS:
        for maxsize in CORPUS_MAXSIZES:
            for s in (*suite._lattices(seed, maxsize),
                      *suite._frames(seed, maxsize)):
                d.add(dump_structure(s))
    return d.prefix()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", type=Path, default=ROOT,
                        help="root of the source tree (default: %(default)s)")
    tree = parser.parse_args(argv).tree.resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    out = {"generate": hash_generate(),
           "random_monotone_map": hash_monotone_maps()}
    for name in ("wide", "tall", "battery"):
        out[f"run_job {name}"] = hash_jobs(name)
    out["run_suite"] = hash_suite()
    out["suite corpus"] = hash_suite_corpus()
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
