"""Seeded random and exhaustive generation of posets, lattices, TiRS graphs
and RS frames for the property sweeps.

Random poset model: each strict pair (i, j) with i < j, visited in a
shuffled order, is included with probability 1/2, then the relation is
transitively closed: the successor masks are Warshall's rows of the drawn
pairs and the loops.  Identical GenSpec values yield identical output.

Generation works on int masks and builds a structure only once it is kept:
a random lattice attempt takes its principal downsets from Warshall's rows
of the drawn pairs reversed, with no Graph, and is sized on its family of
sets before it is built; an RS frame is decided on its masks; and an
exhaustive lattice of n elements is a poset class of n - 2 points between
a bottom and a top, whose up-masks go straight to the lattice scan.
Exhaustive poset classes grow by one-point extension: a new maximal point
goes above each downset of each class one point smaller, and the
candidates are deduped on a canonical labelling, the least pair mask over
the natural labellings.  Exhaustive mode reaches 8 points for posets and
TiRS graphs, 10 elements for lattices and 3x3 for RS frames.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidInput, NotALattice, SizeUnreachable
from .galois import inclusion_lattice
from .lattice import (FiniteLattice, _scan, _transpose, _warshall, bits,
                      closed_under, is_distributive)
from .ploscica import dual_graph
from .structures import Frame, Graph, _is_rs

EXHAUSTIVE_POSET_MAX = 8
EXHAUSTIVE_LATTICE_MAX = EXHAUSTIVE_POSET_MAX + 2
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


def _random_pairs(n: int, rng: random.Random) -> list[tuple[int, int]]:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    return [p for p in pairs if rng.random() < 0.5]


def _canonical(ups, bit_lists) -> tuple[int, ...]:
    """The least pair mask over the natural labellings of the poset with
    strict up-set masks ups, as its rows (the labels above each label)
    from label n - 1 down, so that tuple order is mask order.  Labels
    n - 1, n - 2, ... go to maximal points of what is left, keeping every
    choice whose row is least.  A state packs each unlabelled point's
    labels so far in a field of n + 1 bits, and the unlabelled points above
    the fields; equal states are kept once."""
    n = len(ups)
    width, low = n + 1, (1 << n) - 1
    base = width * n
    clear = [~(low << width * x | 1 << base + x) for x in range(n)]
    spread = [0] * n  # bit 0 of the field of every point below x
    for z, up in enumerate(ups):
        for x in bit_lists[up]:
            spread[x] |= 1 << width * z
    states, rows = {low << base}, []
    for k in range(n - 1, -1, -1):
        best, kept = low, set()
        for state in states:
            left = state >> base
            for x in bit_lists[left]:
                if ups[x] & left:
                    continue
                row = state >> width * x & low
                if row <= best:
                    if row < best:
                        best, kept = row, set()
                    kept.add(state & clear[x] | spread[x] << k)
        rows.append(best)
        states = kept
    return tuple(rows)


def _poset_classes(n: int) -> list[list[int]]:
    """The succ masks of one poset on n points per isomorphism class, the
    first strict order i < j of its class in pair-mask order, in that
    order.  The classes on m + 1 points are the canonical labellings of
    the classes on m points with a new maximal point above each downset
    (the complement of an upset), deduped in a set; nothing is kept from
    one call to the next."""
    bit_lists = [tuple(bits(m)) for m in range(1 << n)]
    found = {()}
    for m in range(n):
        grown = set()
        for rows in found:
            ups, uppers = rows[::-1], [0]
            for x in range(m - 1, -1, -1):
                uppers += [u | 1 << x for u in uppers if not ups[x] & ~u]
            grown.update(_canonical([u | (~up >> x & 1) << m
                                     for x, u in enumerate(ups)] + [0],
                                    bit_lists) for up in uppers)
        found = grown
    return [[row | 1 << i for i, row in enumerate(rows[::-1])]
            for rows in sorted(found)]


def gen_poset(spec: GenSpec) -> list[Graph]:
    """Posets as reflexive transitive graphs.  Exhaustive mode enumerates
    all posets of the given size up to isomorphism."""
    _expect_kind(spec, ("poset",))
    n, names = spec.size, tuple(f"v{i}" for i in range(spec.size))
    if spec.exhaustive:
        return [Graph._from_masks(names, succ) for succ in _poset_classes(n)]
    rng, loops = random.Random(spec.seed), [(i, i) for i in range(n)]
    return [Graph._from_masks(names, _warshall(n, _random_pairs(n, rng)
                                               + loops))
            for _ in range(spec.count)]


def _lattice_sets(downs, distributive: bool, limit=None) -> frozenset[int]:
    """As masks, the sets whose inclusion lattice is the downset lattice of
    the poset with principal downsets downs (unions of them), or else its
    Dedekind-MacNeille completion: the Galois-closed sets of the order
    polarity (P, P, <=); cut short once there are more than limit."""
    if distributive:
        return closed_under(int.__or__, {0, *downs}, limit)
    return closed_under(int.__and__, {(1 << len(downs)) - 1, *downs}, limit)


def gen_lattice(spec: GenSpec) -> list[FiniteLattice]:
    """Finite lattices of exactly the requested size.

    distributive-lattice: downset lattices of random posets.
    lattice: Dedekind-MacNeille completions of random posets.
    Exhaustive mode enumerates all lattices of the size up to isomorphism.
    Raises SizeUnreachable if the target size cannot be hit.
    """
    _expect_kind(spec, ("lattice", "distributive-lattice"))
    if spec.exhaustive:
        # bound each poset class of n - 2 points by 0 and n - 1, which every
        # isomorphism fixes: one lattice class at most, in its first labelling
        # (for n = 1 the bottom is the top, and the slice keeps one mask)
        n = spec.size
        names, top = tuple(f"e{i}" for i in range(n)), 1 << n - 1
        lats: list[FiniteLattice] = []
        for succ in _poset_classes(max(n - 2, 0)):
            try:
                lat = _scan(names, [(top << 1) - 1,
                                    *(row << 1 | top for row in succ),
                                    top][:n])
            except NotALattice:
                continue
            if spec.kind == "lattice" or is_distributive(lat):
                lats.append(lat)
        return lats

    rng = random.Random(spec.seed)
    out = []
    attempts = 0
    while len(out) < spec.count:
        attempts += 1
        if attempts > 400 * spec.count:
            raise SizeUnreachable(
                f"no {spec.kind} of size {spec.size} after {attempts} tries")
        base = max(1, spec.size - rng.randrange(0, 3))
        downs = _warshall(base, [(j, i) for i, j in _random_pairs(base, rng)]
                          + [(i, i) for i in range(base)])
        family = _lattice_sets(downs, spec.kind != "lattice", spec.size)
        if len(family) == spec.size:
            points = tuple(f"v{i}" for i in range(base))
            out.append(inclusion_lattice(family, points)[2])
    return out


def gen_rs_frame(spec: GenSpec) -> list[Frame]:
    """RS frames with both sides of the given size: rejection-sampled random
    relations, or (exhaustive) all relation patterns that pass RS."""
    _expect_kind(spec, ("rs-frame",))
    n = spec.size
    x1 = tuple(f"x{i}" for i in range(n))
    x2 = tuple(f"y{i}" for i in range(n))
    if spec.exhaustive:
        # (R) rejects equal rows, so only distinct rows are tried; reversed,
        # each tuple varies row 0 fastest, in the order of the frame masks
        candidates = (rows[::-1] for rows in
                      itertools.permutations(range(1 << n), n))
        return [Frame._from_masks(x1, x2, rows) for rows in candidates
                if _is_rs(rows, _transpose(rows, n))]
    rng = random.Random(spec.seed)
    out = []
    attempts = 0
    while len(out) < spec.count:
        attempts += 1
        if attempts > 2000 * spec.count:
            raise SizeUnreachable(
                f"no RS frame at size {spec.size} after {attempts} tries")
        rows = [sum(1 << b for b in range(n) if rng.random() < 0.5)
                for _ in range(n)]
        if _is_rs(rows, _transpose(rows, n)):
            out.append(Frame._from_masks(x1, x2, rows))
    return out


def gen_tirs_graph(spec: GenSpec) -> list[Graph]:
    """TiRS graphs: dual graphs of generated lattices plus generated
    posets (every poset is a TiRS graph)."""
    _expect_kind(spec, ("tirs-graph",))
    out = gen_poset(GenSpec("poset", spec.size, spec.seed, spec.count,
                            spec.exhaustive))
    try:
        lats = gen_lattice(GenSpec("lattice", max(2, spec.size), spec.seed,
                                   spec.count, spec.exhaustive))
    except SizeUnreachable:
        lats = []
    out.extend(map(dual_graph, lats))
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
    """A monotone map p -> q as a name dict, by seeded backtracking over p
    by predecessor count; None if there is none, never so on poset graphs:
    a constant map into a reflexive graph is monotone."""
    order = sorted(range(len(p.vertices)), key=lambda v: p.pred[v].bit_count())
    assign: dict[int, int] = {}

    def bt(k):
        if k == len(order):
            return True
        v = order[k]
        cand = list(range(len(q.vertices)))
        rng.shuffle(cand)
        below = [s for u, s in assign.items() if p.pred[v] >> u & 1]
        above = [s for u, s in assign.items() if p.succ[v] >> u & 1]
        for t in cand:
            if all(q.succ[s] >> t & 1 for s in below) and \
                    all(q.succ[t] >> s & 1 for s in above):
                assign[v] = t
                if bt(k + 1):
                    return True
                del assign[v]
        return False

    return {p.vertices[v]: q.vertices[t] for v, t in assign.items()} \
        if bt(0) else None
