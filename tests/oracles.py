"""Independent brute-force oracles used to compute expected values.

Everything here works by exhaustive enumeration over subsets and stays
deliberately independent of the code paths it is used to check.
"""

from __future__ import annotations

import itertools

from tirs.lattice import FiniteLattice
from tirs.structures import Frame


def subsets(xs):
    xs = list(xs)
    for k in range(len(xs) + 1):
        yield from map(frozenset, itertools.combinations(xs, k))


def is_filter(L: FiniteLattice, s: frozenset[int]) -> bool:
    if not s:
        return False
    up_closed = all(b in s for a in s for b in range(L.n) if L.le(a, b))
    meet_closed = all(L.meet[a][b] in s for a in s for b in s)
    return up_closed and meet_closed


def is_ideal(L: FiniteLattice, s: frozenset[int]) -> bool:
    if not s:
        return False
    down_closed = all(b in s for a in s for b in range(L.n) if L.le(b, a))
    join_closed = all(L.join[a][b] in s for a in s for b in s)
    return down_closed and join_closed


def brute_filters(L: FiniteLattice) -> set[frozenset[int]]:
    return {s for s in subsets(range(L.n)) if is_filter(L, s)}


def brute_ideals(L: FiniteLattice) -> set[frozenset[int]]:
    return {s for s in subsets(range(L.n)) if is_ideal(L, s)}


def brute_maximal_pairs(L: FiniteLattice) -> set[tuple[frozenset, frozenset]]:
    """All disjoint (filter, ideal) pairs maximal by inclusion sweep."""
    filters = brute_filters(L)
    ideals = brute_ideals(L)
    out = set()
    for F in filters:
        for I in ideals:
            if F & I:
                continue
            f_max = not any(F < F2 and not (F2 & I) for F2 in filters)
            i_max = not any(I < I2 and not (F & I2) for I2 in ideals)
            if f_max and i_max:
                out.add((F, I))
    return out


def brute_irreducibles(L: FiniteLattice):
    """Irreducibles straight from the definition: not a join (meet) of the
    strictly smaller (larger) elements."""
    j, m = set(), set()
    for a in range(L.n):
        below = [b for b in range(L.n) if L.le(b, a) and b != a]
        if L.join_of(below) != a:
            j.add(L.name(a))
        above = [b for b in range(L.n) if L.le(a, b) and b != a]
        if L.meet_of(above) != a:
            m.add(L.name(a))
    return frozenset(j), frozenset(m)


def brute_closed_sets(f: Frame) -> set[frozenset[str]]:
    """Scan every subset of the first carrier for Galois-closedness."""
    out = set()
    for A in subsets(f.x1):
        up = frozenset(y for y in f.x2 if all(f.has(a, y) for a in A))
        down = frozenset(x for x in f.x1 if all(f.has(x, b) for b in up))
        if down == A:
            out.add(A)
    return out


def transitive_reflexive_pairs(names, covers):
    """Reflexive-transitive closure of a cover list, as name pairs."""
    rel = {(a, a) for a in names} | set(covers)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (b2, c) in list(rel):
                if b2 == b and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    return rel


def pointwise_dual_edges(g) -> set[tuple[str, str]]:
    """Edges of a dual graph recomputed from its vertex metadata by the
    pointwise form: each vertex is a partial map into {0, 1} (1 on its
    filter, 0 on its ideal), and (u, v) is an edge iff u(a) <= v(a) for
    every a on which both maps are defined."""
    maps = {v: {**{a: 0 for a in m["zeros"]}, **{a: 1 for a in m["ones"]}}
            for v, m in g.meta.items()}
    return {(u, v) for u in g.vertices for v in g.vertices
            if all(maps[u][a] <= maps[v][a]
                   for a in maps[u].keys() & maps[v].keys())}


def literal_ti_failures(f: Frame) -> list[tuple[str, str]]:
    """Frame (Ti) by literal quantifier search, in scan order: the
    non-related (x, y) for which no (w, z) has row(x) inside row(w),
    col(y) inside col(z), w not related to z, z related from every u != w
    whose row contains row(w), and w related to every v != z whose column
    contains col(z)."""
    rows = {x: f.row(x) for x in f.x1}
    cols = {y: f.col(y) for y in f.x2}

    def witnessed(x, y):
        return any(
            rows[x] <= rows[w] and cols[y] <= cols[z] and not f.has(w, z)
            and all(f.has(u, z) for u in f.x1
                    if u != w and rows[w] <= rows[u])
            and all(f.has(w, v) for v in f.x2
                    if v != z and cols[z] <= cols[v])
            for w in f.x1 for z in f.x2)

    return [(x, y) for x in f.x1 for y in f.x2
            if not f.has(x, y) and not witnessed(x, y)]


def all_frames(n1: int, n2: int):
    """Every relation between an n1-point and an n2-point carrier."""
    x1 = tuple(f"x{i}" for i in range(n1))
    x2 = tuple(f"y{i}" for i in range(n2))
    cells = [(a, b) for a in x1 for b in x2]
    for mask in range(2 ** len(cells)):
        yield Frame(x1, x2, frozenset(c for k, c in enumerate(cells)
                                      if mask >> k & 1))
