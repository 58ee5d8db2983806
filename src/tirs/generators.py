"""Seeded random and exhaustive generation of posets, lattices, TiRS graphs
and RS frames for the property sweeps.

Random poset model: each strict pair (i, j) with i < j, visited in a
shuffled order, is included with probability 1/2, then the relation is
transitively closed.  Identical GenSpec values yield identical output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidInput, NoBounds, NotALattice, SizeUnreachable
from .galois import closed_sets, inclusion_lattice
from .lattice import (FiniteLattice, _finish_lattice, is_distributive,
                      lattice_iso, pairwise_closure, transitive_closure)
from .ploscica import dual_graph
from .structures import Frame, Graph, check_frame
from .functors import graph_iso

EXHAUSTIVE_POSET_MAX = 5
EXHAUSTIVE_LATTICE_MAX = 6
EXHAUSTIVE_FRAME_MAX = 3

# Largest size exhaustive mode accepts, by kind (tirs-graph also enumerates
# posets of the size).
_EXHAUSTIVE_MAX = {"poset": EXHAUSTIVE_POSET_MAX,
                   "lattice": EXHAUSTIVE_LATTICE_MAX,
                   "distributive-lattice": EXHAUSTIVE_LATTICE_MAX,
                   "tirs-graph": EXHAUSTIVE_POSET_MAX,
                   "rs-frame": EXHAUSTIVE_FRAME_MAX}


@dataclass(frozen=True)
class GenSpec:
    kind: str  # poset | lattice | distributive-lattice | tirs-graph | rs-frame
    size: int
    seed: int = 0
    count: int = 1
    exhaustive: bool = False

    def __post_init__(self):
        if self.kind not in _EXHAUSTIVE_MAX:
            raise InvalidInput(f"unknown kind {self.kind}")
        if self.size < 1 or self.count < 1:
            raise InvalidInput("size and count must be at least 1")
        if self.exhaustive and self.size > _EXHAUSTIVE_MAX[self.kind]:
            raise InvalidInput(f"exhaustive {self.kind} generation stops at "
                               f"size {_EXHAUSTIVE_MAX[self.kind]}")


def _expect_kind(spec: GenSpec, kinds):
    if spec.kind not in kinds:
        raise InvalidInput(f"not a {' or '.join(kinds)} spec: {spec.kind}")


def _random_strict_order(n: int, rng: random.Random) -> set[tuple[int, int]]:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    rel = set()
    for (i, j) in pairs:
        if rng.random() < 0.5:
            rel.add((i, j))
    return transitive_closure(n, rel)


def _poset_graph(n: int, strict: set[tuple[int, int]]) -> Graph:
    succ = [1 << i for i in range(n)]
    for a, b in strict:
        succ[a] |= 1 << b
    return Graph._from_masks(tuple(f"v{i}" for i in range(n)), succ)


def _enumerate_strict_orders(n: int):
    """All transitively closed subsets of {(i, j) : i < j}.  Every finite
    poset has a linear extension, so this hits every isomorphism class."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(2 ** len(pairs)):
        rel = {p for k, p in enumerate(pairs) if mask >> k & 1}
        if all((a, c) in rel
               for (a, b) in rel for (b2, c) in rel if b2 == b):
            yield rel


def gen_poset(spec: GenSpec) -> list[Graph]:
    """Posets as reflexive transitive graphs.  Exhaustive mode enumerates
    all posets of the given size up to isomorphism."""
    _expect_kind(spec, ("poset",))
    if spec.exhaustive:
        out: list[Graph] = []
        for rel in _enumerate_strict_orders(spec.size):
            g = _poset_graph(spec.size, rel)
            if not any(graph_iso(g, h) for h in out):
                out.append(g)
        return out
    rng = random.Random(spec.seed)
    return [_poset_graph(spec.size, _random_strict_order(spec.size, rng))
            for _ in range(spec.count)]


def _downset_lattice(g: Graph) -> FiniteLattice:
    """Lattice of downsets of a poset graph, ordered by inclusion."""
    # principal downsets (everything below v), closed under union and
    # intersection
    downs = pairwise_closure({frozenset()} | {g.col(v) for v in g.vertices},
                             frozenset.__or__, frozenset.__and__)
    return inclusion_lattice(downs)[1]


def _dm_completion(g: Graph) -> FiniteLattice:
    """Dedekind-MacNeille completion of a poset graph, computed as the
    Galois-closed sets of the order polarity (P, P, <=)."""
    frame = Frame._from_masks(g.vertices, g.vertices, g.succ)
    return closed_sets(frame).as_lattice


def gen_lattice(spec: GenSpec) -> list[FiniteLattice]:
    """Finite lattices of exactly the requested size.

    distributive-lattice: downset lattices of random posets.
    lattice: Dedekind-MacNeille completions of random posets.
    Exhaustive mode enumerates all lattices of the size up to isomorphism.
    Raises SizeUnreachable if the target size cannot be hit.
    """
    _expect_kind(spec, ("lattice", "distributive-lattice"))
    if spec.exhaustive:
        out: list[FiniteLattice] = []
        names = tuple(f"e{i}" for i in range(spec.size))
        loops = {(i, i) for i in range(spec.size)}
        for rel in _enumerate_strict_orders(spec.size):
            # every pair has i < j, so no cycle: only these two can fail
            try:
                lat = _finish_lattice(names, frozenset(rel | loops))
            except (NotALattice, NoBounds):
                continue
            if spec.kind == "distributive-lattice" and \
                    not is_distributive(lat):
                continue
            if not any(lattice_iso(lat, other) for other in out):
                out.append(lat)
        return out

    rng = random.Random(spec.seed)
    out = []
    attempts = 0
    max_attempts = 400 * spec.count
    while len(out) < spec.count:
        attempts += 1
        if attempts > max_attempts:
            raise SizeUnreachable(
                f"no {spec.kind} of size {spec.size} after {attempts} tries")
        base = max(1, spec.size - rng.randrange(0, 3))
        g = _poset_graph(base, _random_strict_order(base, rng))
        lat = (_downset_lattice(g) if spec.kind == "distributive-lattice"
               else _dm_completion(g))
        if lat.n == spec.size:
            out.append(lat)
    return out


def gen_rs_frame(spec: GenSpec) -> list[Frame]:
    """RS frames with both sides of the given size: rejection-sampled random
    relations, or (exhaustive) all relation patterns that pass RS."""
    _expect_kind(spec, ("rs-frame",))
    n = spec.size
    x1 = tuple(f"x{i}" for i in range(n))
    x2 = tuple(f"y{i}" for i in range(n))
    if spec.exhaustive:
        # bit a * n + b of mask relates x_a to y_b
        full = (1 << n) - 1
        frames = (Frame._from_masks(x1, x2, [mask >> a * n & full
                                             for a in range(n)])
                  for mask in range(2 ** (n * n)))
        return [f for f in frames if check_frame(f).is_rs]
    rng = random.Random(spec.seed)
    out = []
    attempts = 0
    while len(out) < spec.count:
        attempts += 1
        if attempts > 2000 * spec.count:
            raise SizeUnreachable(
                f"no RS frame at size {spec.size} after {attempts} tries")
        f = Frame._from_masks(x1, x2, [
            sum(1 << b for b in range(n) if rng.random() < 0.5)
            for _ in range(n)])
        if check_frame(f).is_rs:
            out.append(f)
    return out


def gen_tirs_graph(spec: GenSpec) -> list[Graph]:
    """TiRS graphs: dual graphs of generated lattices plus generated
    posets (every poset is a TiRS graph)."""
    _expect_kind(spec, ("tirs-graph",))
    posets = gen_poset(GenSpec("poset", spec.size, spec.seed, spec.count,
                               spec.exhaustive))
    out = list(posets)
    try:
        lats = gen_lattice(GenSpec("lattice", max(2, spec.size), spec.seed,
                                   spec.count, spec.exhaustive))
    except SizeUnreachable:
        lats = []
    out.extend(dual_graph(lat) for lat in lats if lat.n >= 2)
    return out


def generate(spec: GenSpec):
    if spec.kind == "poset":
        return gen_poset(spec)
    if spec.kind in ("lattice", "distributive-lattice"):
        return gen_lattice(spec)
    if spec.kind == "rs-frame":
        return gen_rs_frame(spec)
    return gen_tirs_graph(spec)


def random_monotone_map(p: Graph, q: Graph,
                        rng: random.Random) -> Optional[dict]:
    """A monotone map between poset graphs, chosen by seeded backtracking;
    None if the search fails (cannot happen when q has a least element,
    but kept defensive)."""
    order = sorted(p.vertices, key=lambda v: len(p.col(v)))  # linear ext
    targets = list(q.vertices)
    assign: dict[str, str] = {}

    def bt(k):
        if k == len(order):
            return True
        v = order[k]
        cand = targets[:]
        rng.shuffle(cand)
        for t in cand:
            if all(not p.has(u, v) or q.has(assign[u], t) for u in assign) \
                    and all(not p.has(v, u) or q.has(t, assign[u])
                            for u in assign):
                assign[v] = t
                if bt(k + 1):
                    return True
                del assign[v]
        return False

    return dict(assign) if bt(0) else None
