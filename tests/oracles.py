"""Independent brute-force oracles used to compute expected values.

Everything here works by exhaustive enumeration over subsets and stays
deliberately independent of the code paths it is used to check.
"""

from __future__ import annotations

import functools
import itertools
import json
import random

from tirs.errors import (InvalidInput, NoBounds, NotALattice,
                         NotAPartialOrder, NotPerfect, SizeUnreachable)
from tirs.functors import graph_iso
from tirs.galois import GaloisLattice
from tirs.generators import _random_pairs
from tirs.lattice import (CheckReport, FiniteLattice, Witness, bits,
                          is_distributive, lattice_iso)
from tirs.pti import PTiWitness
from tirs.structures import ConditionReport, Frame, Graph, check_frame


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


# -- set-based graph/frame checkers -----------------------------------------
#
# The library holds every relation as index bitmasks.  These are the
# frozenset bodies it replaced: rows and columns come from scanning the edge
# set, and every condition is its quantifier sweep.  Witness order is the
# library's contract, so the tests compare whole reports.


def _report(gen, all_witnesses) -> CheckReport:
    out = list(gen) if all_witnesses else list(itertools.islice(gen, 1))
    return CheckReport.fail(out) if out else CheckReport.ok()


def graph_rows_cols(g: Graph):
    rows = {x: frozenset(b for a, b in g.edges if a == x) for x in g.vertices}
    cols = {x: frozenset(a for a, b in g.edges if b == x) for x in g.vertices}
    return rows, cols


def frame_rows_cols(f: Frame):
    return ({x: frozenset(b for a, b in f.r if a == x) for x in f.x1},
            {y: frozenset(a for a, b in f.r if b == y) for y in f.x2})


def set_check_graph(g: Graph, all_witnesses: bool = False) -> ConditionReport:
    rows, cols = graph_rows_cols(g)
    vs, e = g.vertices, g.edges

    def refl():
        for x in vs:
            if (x, x) not in e:
                yield Witness("reflexive", (x,))

    def cond_s():
        for i, x in enumerate(vs):
            for y in vs[i + 1:]:
                if rows[x] == rows[y] and cols[x] == cols[y]:
                    yield Witness("S", (x, y))

    def cond_r():
        for z in vs:
            for x in vs:
                if rows[z] < rows[x] and (z, x) in e:
                    yield Witness("R(i)", (z, x))
        for y in vs:
            for z in vs:
                if cols[z] < cols[y] and (y, z) in e:
                    yield Witness("R(ii)", (y, z))

    def cond_ti():
        for x in vs:
            for y in vs:
                if (x, y) in e and not any(
                        rows[z] <= rows[x] and cols[z] <= cols[y]
                        for z in vs):
                    yield Witness("Ti", (x, y))

    return ConditionReport(_report(refl(), all_witnesses),
                           _report(cond_s(), all_witnesses),
                           _report(cond_r(), all_witnesses),
                           _report(cond_ti(), all_witnesses))


def _is_h_pair(f: Frame, rows, cols, x, y) -> bool:
    return (y not in rows[x]
            and all(y in rows[u] for u in f.x1
                    if u != x and rows[x] <= rows[u])
            and all(x in cols[v] for v in f.x2
                    if v != y and cols[y] <= cols[v]))


def set_h_set(f: Frame) -> list[tuple[str, str]]:
    rows, cols = frame_rows_cols(f)
    return [(x, y) for x in f.x1 for y in f.x2
            if _is_h_pair(f, rows, cols, x, y)]


def set_ti_failures(f: Frame) -> list[tuple[str, str]]:
    rows, cols = frame_rows_cols(f)
    return [(x, y) for x in f.x1 for y in f.x2
            if y not in rows[x] and not any(
                _is_h_pair(f, rows, cols, w, z)
                for w in f.x1 if rows[x] <= rows[w]
                for z in f.x2 if cols[y] <= cols[z])]


def set_check_frame(f: Frame, all_witnesses: bool = False) -> ConditionReport:
    rows, cols = frame_rows_cols(f)

    def has(x, y):
        return (x, y) in f.r

    def cond_s():
        for i, a in enumerate(f.x1):
            for b in f.x1[i + 1:]:
                if rows[a] == rows[b]:
                    yield Witness("S(i)", (a, b))
        for i, a in enumerate(f.x2):
            for b in f.x2[i + 1:]:
                if cols[a] == cols[b]:
                    yield Witness("S(ii)", (a, b))

    def cond_r():
        for x in f.x1:
            if not any(not has(x, y)
                       and all(has(w, y) for w in f.x1
                               if w != x and rows[x] <= rows[w])
                       for y in f.x2):
                yield Witness("R(i)", (x,))
        for y in f.x2:
            if not any(not has(x, y)
                       and all(has(x, z) for z in f.x2
                               if z != y and cols[y] <= cols[z])
                       for x in f.x1):
                yield Witness("R(ii)", (y,))

    return ConditionReport(
        CheckReport.ok(), _report(cond_s(), all_witnesses),
        _report(cond_r(), all_witnesses),
        _report((Witness("Ti", p) for p in set_ti_failures(f)),
                all_witnesses))


def set_rho(g: Graph) -> Frame:
    rows, cols = graph_rows_cols(g)

    def classes(key):
        first = {}
        for v in g.vertices:
            first.setdefault(key[v], v)
        return (tuple(dict.fromkeys(first[key[v]] for v in g.vertices)),
                {v: first[key[v]] for v in g.vertices})

    x1, cls1 = classes(rows)
    x2, cls2 = classes(cols)
    r = frozenset((cls1[x], cls2[y]) for x in g.vertices for y in g.vertices
                  if (x, y) not in g.edges)
    return Frame(x1, x2, r, {"class1": cls1, "class2": cls2})


def set_is_poset_graph(g: Graph, all_witnesses: bool = False) -> CheckReport:
    rows, _ = graph_rows_cols(g)
    e = g.edges

    def gen():
        for x in g.vertices:
            if (x, x) not in e:
                yield Witness("reflexive", (x,))
        for x, y in sorted(e):
            if x != y and (y, x) in e:
                yield Witness("antisymmetric", (x, y))
        for x, y in sorted(e):
            for z in sorted(rows[y]):
                if (x, z) not in e:
                    yield Witness("transitive", (x, y, z))

    return _report(gen(), all_witnesses)


def _backtrack(slots, cands, consistent):
    """First-found assignment of slots to candidates, each candidate used
    once per sort, under the consistency test; None if there is none."""
    assign = {}
    used = set()

    def bt(k):
        if k == len(slots):
            return True
        slot = slots[k]
        for b in cands[slot]:
            if (slot[0], b) in used or not consistent(slot, b, assign):
                continue
            assign[slot] = b
            used.add((slot[0], b))
            if bt(k + 1):
                return True
            del assign[slot]
            used.discard((slot[0], b))
        return False

    return assign if bt(0) else None


def set_graph_iso(g1: Graph, g2: Graph):
    if len(g1.vertices) != len(g2.vertices):
        return None
    r1, c1 = graph_rows_cols(g1)
    r2, c2 = graph_rows_cols(g2)

    def profile(rows, cols, e, v):
        return len(rows[v]), len(cols[v]), (v, v) in e

    cands = {(0, a): [b for b in g2.vertices
                      if profile(r1, c1, g1.edges, a)
                      == profile(r2, c2, g2.edges, b)]
             for a in g1.vertices}
    slots = sorted(cands, key=lambda s: (len(cands[s]),
                                         g1.vertices.index(s[1])))

    def consistent(slot, b, assign):
        a = slot[1]
        return all(((a, a2) in g1.edges) == ((b, b2) in g2.edges)
                   and ((a2, a) in g1.edges) == ((b2, b) in g2.edges)
                   for (_, a2), b2 in assign.items())

    out = _backtrack(slots, cands, consistent)
    return None if out is None else {a: b for (_, a), b in out.items()}


def set_frame_iso(f1: Frame, f2: Frame):
    if len(f1.x1) != len(f2.x1) or len(f1.x2) != len(f2.x2):
        return None
    r1, c1 = frame_rows_cols(f1)
    r2, c2 = frame_rows_cols(f2)
    cands = {(1, a): [b for b in f2.x1 if len(r1[a]) == len(r2[b])]
             for a in f1.x1}
    cands.update({(2, a): [b for b in f2.x2 if len(c1[a]) == len(c2[b])]
                  for a in f1.x2})
    slots = sorted(cands, key=lambda s: len(cands[s]))

    def consistent(slot, b, assign):
        sort, a = slot
        return all(((a, y) in f1.r if sort == 1 else (y, a) in f1.r)
                   == ((b, y2) in f2.r if sort == 1 else (y2, b) in f2.r)
                   for (s2, y), y2 in assign.items() if s2 != sort)

    out = _backtrack(slots, cands, consistent)
    if out is None:
        return None
    return ({a: b for (s, a), b in out.items() if s == 1},
            {a: b for (s, a), b in out.items() if s == 2})


def _bijection(mapping: dict, target) -> bool:
    return len(mapping) == len(target) and set(mapping.values()) == set(target)


def set_is_graph_iso(m) -> bool:
    """m is a bijection of the vertices that carries E onto E."""
    f = m.map
    return _bijection(f, m.target.vertices) and \
        {(f[a], f[b]) for a, b in m.source.edges} == m.target.edges


def set_is_frame_iso(m) -> bool:
    """map1 and map2 are bijections per sort that together carry R onto R."""
    p1, p2 = m.map1, m.map2
    return _bijection(p1, m.target.x1) and _bijection(p2, m.target.x2) and \
        {(p1[x], p2[y]) for x, y in m.source.r} == m.target.r


def set_validate_graph_morphism(m, all_witnesses: bool = False):
    g, h = m.source, m.target
    rs, cs = graph_rows_cols(g)
    rt, ct = graph_rows_cols(h)
    f = m.map

    def gen():
        for (a, b) in sorted(g.edges):
            if (f[a], f[b]) not in h.edges:
                yield Witness("i", (a, b))
        for a in g.vertices:
            for b in g.vertices:
                if rs[a] <= rs[b] and not rt[f[a]] <= rt[f[b]]:
                    yield Witness("ii", (a, b))
                if cs[a] <= cs[b] and not ct[f[a]] <= ct[f[b]]:
                    yield Witness("iii", (a, b))

    return _report(gen(), all_witnesses)


def set_validate_frame_morphism(m, all_witnesses: bool = False):
    f, g = m.source, m.target
    rs, cs = frame_rows_cols(f)
    rt, ct = frame_rows_cols(g)
    p1, p2 = m.map1, m.map2
    h_t = set(set_h_set(g))

    def gen():
        for x in f.x1:
            for y in f.x2:
                if (p1[x], p2[y]) in g.r and (x, y) not in f.r:
                    yield Witness("i", (x, y))
        for x in f.x1:
            for w in f.x1:
                if rs[x] <= rs[w] and not rt[p1[x]] <= rt[p1[w]]:
                    yield Witness("ii", (x, w))
        for y in f.x2:
            for z in f.x2:
                if cs[y] <= cs[z] and not ct[p2[y]] <= ct[p2[z]]:
                    yield Witness("iii", (y, z))
        for (x, y) in set_h_set(f):
            if (p1[x], p2[y]) not in h_t:
                yield Witness("iv", (x, y))

    return _report(gen(), all_witnesses)


def all_graphs(n: int, reflexive_only: bool = False):
    """Every relation on n vertices (every reflexive one, if asked)."""
    vs = tuple(f"v{i}" for i in range(n))
    loops = {(v, v) for v in vs} if reflexive_only else set()
    cells = [(a, b) for a in vs for b in vs if (a, b) not in loops]
    for mask in range(2 ** len(cells)):
        yield Graph(vs, frozenset(loops | {c for k, c in enumerate(cells)
                                           if mask >> k & 1}))


# -- the lattice kernel on pair sets ---------------------------------------
#
# The set-based bodies the order masks of FiniteLattice replaced: every
# order test is a tuple lookup in L.leq.


def _le(L: FiniteLattice):
    return lambda a, b: (a, b) in L.leq


def set_transitive_closure(n: int, pairs) -> set[tuple[int, int]]:
    rel = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for c in range(n):
                if (b, c) in rel and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    return rel


def set_finish_lattice(elements, rel) -> FiniteLattice:
    """The lattice of a closed index relation by the upper-bound scan; a
    relation that passes it but is not reflexive is refused last."""
    n = len(elements)

    def le(a, b):
        return (a, b) in rel

    for a in range(n):
        for b in range(n):
            if a != b and le(a, b) and le(b, a):
                raise NotAPartialOrder((elements[a], elements[b]))
    if n == 0:
        raise NoBounds("empty carrier")

    join = [[None] * n for _ in range(n)]
    meet = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            ubs = [c for c in range(n) if le(a, c) and le(b, c)]
            least = [c for c in ubs if all(le(c, d) for d in ubs)]
            if len(least) != 1:
                raise NotALattice((elements[a], elements[b]), "join")
            join[a][b] = least[0]
            lbs = [c for c in range(n) if le(c, a) and le(c, b)]
            greatest = [c for c in lbs if all(le(d, c) for d in lbs)]
            if len(greatest) != 1:
                raise NotALattice((elements[a], elements[b]), "meet")
            meet[a][b] = greatest[0]

    bots = [a for a in range(n) if all(le(a, b) for b in range(n))]
    tops = [a for a in range(n) if all(le(b, a) for b in range(n))]
    if not bots or not tops:
        raise NoBounds("missing bottom or top")
    for a in range(n):
        if not le(a, a):
            raise InvalidInput(f"leq is not reflexive at {elements[a]}")
    # set every field and view by hand: the public constructor would run
    # the kernel under test before the oracle's own scan could disagree
    L = object.__new__(FiniteLattice)
    vars(L).update(
        elements=tuple(elements),
        ups=tuple(sum(1 << b for b in range(n) if le(a, b))
                  for a in range(n)),
        downs=tuple(sum(1 << b for b in range(n) if le(b, a))
                    for a in range(n)),
        leq=frozenset(rel), join=tuple(map(tuple, join)),
        meet=tuple(map(tuple, meet)), bot=bots[0], top=tops[0])
    return L


def set_lower_covers(L: FiniteLattice, a: int) -> list[int]:
    le = _le(L)
    below = [b for b in range(L.n) if le(b, a) and b != a]
    return [b for b in below
            if not any(le(b, c) and le(c, a) and c not in (a, b)
                       for c in below)]


def set_upper_covers(L: FiniteLattice, a: int) -> list[int]:
    le = _le(L)
    above = [b for b in range(L.n) if le(a, b) and b != a]
    return [b for b in above
            if not any(le(a, c) and le(c, b) and c not in (a, b)
                       for c in above)]


def set_covers(L: FiniteLattice) -> list[tuple[int, int]]:
    return [(a, b) for b in range(L.n) for a in set_lower_covers(L, b)]


def set_irreducibles(L: FiniteLattice):
    j = frozenset(L.name(a) for a in range(L.n)
                  if len(set_lower_covers(L, a)) == 1)
    m = frozenset(L.name(a) for a in range(L.n)
                  if len(set_upper_covers(L, a)) == 1)
    return j, m


def set_maximal_pairs(L: FiniteLattice) -> list[tuple[int, int]]:
    """The generators (x, y) of the maximal pairs, in (x, y) order."""
    le = _le(L)
    return [(x, y) for x in range(L.n) for y in range(L.n)
            if not le(x, y)
            and all(le(xp, y) for xp in range(L.n) if le(xp, x) and xp != x)
            and all(le(x, yp) for yp in range(L.n) if le(y, yp) and yp != y)]


def set_galois_up(f: Frame, A) -> frozenset[str]:
    return frozenset(y for y in f.x2 if all((a, y) in f.r for a in A))


def set_galois_down(f: Frame, B) -> frozenset[str]:
    return frozenset(x for x in f.x1 if all((x, b) in f.r for b in B))


def set_closure(f: Frame, A) -> frozenset[str]:
    return set_galois_down(f, set_galois_up(f, A))


def _set_name(s) -> str:
    return "{" + ",".join(sorted(s)) + "}"


def set_closed_sets(f: Frame) -> GaloisLattice:
    """The intersection closure of the column extents on frozensets, and
    the inclusion lattice on subset tests."""
    family = {frozenset(f.x1)} | {set_galois_down(f, {y}) for y in f.x2}
    todo = list(family)
    while todo:
        a = todo.pop()
        for b in list(family):
            if a & b not in family:
                family.add(a & b)
                todo.append(a & b)
    assert all(set_closure(f, s) == s for s in family)
    sets = sorted(family, key=lambda s: (len(s), sorted(s)))
    names = [_set_name(s) for s in sets]
    leq = frozenset((i, j) for i, si in enumerate(sets)
                    for j, sj in enumerate(sets) if si <= sj)
    j = frozenset(_set_name(set_closure(f, {x})) for x in f.x1)
    m = frozenset(_set_name(set_galois_down(f, {y})) for y in f.x2)
    return GaloisLattice(f, tuple(sets), set_finish_lattice(names, leq), j, m)


def set_polarity_frame(L: FiniteLattice) -> Frame:
    """Filters F_i, ideals I_j, related when they intersect."""
    ups = [frozenset(b for b in range(L.n) if (a, b) in L.leq)
           for a in range(L.n)]
    downs = [frozenset(b for b in range(L.n) if (b, a) in L.leq)
             for a in range(L.n)]
    return Frame(tuple(f"F{i}" for i in range(L.n)),
                 tuple(f"I{j}" for j in range(L.n)),
                 frozenset((f"F{i}", f"I{j}") for i in range(L.n)
                           for j in range(L.n) if ups[i] & downs[j]))


def set_generation_failures(C: FiniteLattice) -> list[tuple[str, int]]:
    le = _le(C)
    j, m = set_irreducibles(C)
    ji = [C.index(x) for x in j]
    mi = [C.index(x) for x in m]
    out = []
    for a in range(C.n):
        if C.join_of([x for x in ji if le(x, a)]) != a:
            out.append(("join", a))
        if C.meet_of([x for x in mi if le(a, x)]) != a:
            out.append(("meet", a))
    return out


def set_frame_of_perfect(C: FiniteLattice) -> Frame:
    failures = set_generation_failures(C)
    if failures:
        raise NotPerfect(C.name(failures[0][1]))
    j, m = set_irreducibles(C)
    x1 = tuple(x for x in C.elements if x in j)
    x2 = tuple(x for x in C.elements if x in m)
    return Frame(x1, x2, frozenset(
        (a, b) for a in x1 for b in x2 if (C.index(a), C.index(b)) in C.leq))


def set_pti_pairs(C: FiniteLattice, all_witnesses: bool):
    le = _le(C)
    j, m = set_irreducibles(C)
    ji = sorted(C.index(e) for e in j)
    mi = sorted(C.index(e) for e in m)
    witnesses = []
    failures = []
    for x in ji:
        for y in mi:
            if le(x, y):
                continue
            found = None
            for w in ji:
                if found:
                    break
                if not le(w, x):
                    continue
                for z in mi:
                    if not le(y, z) or le(w, z):
                        continue
                    if not all(le(u, z) for u in ji if le(u, w) and u != w):
                        continue
                    if all(le(w, v) for v in mi if le(z, v) and v != z):
                        found = (w, z)
                        break
            if found:
                witnesses.append(PTiWitness(C.name(x), C.name(y),
                                            C.name(found[0]),
                                            C.name(found[1]), "satisfied"))
            else:
                witnesses.append(PTiWitness(C.name(x), C.name(y), None, None,
                                            "unsatisfiable-pair"))
                failures.append(Witness("PTi", (C.name(x), C.name(y))))
                if not all_witnesses:
                    return witnesses, failures
    return witnesses, failures


def set_lattice_iso(L1: FiniteLattice, L2: FiniteLattice):
    """First-found order isomorphism, pruned by up/down-set sizes, with the
    same candidate order as the library's search."""
    if L1.n != L2.n:
        return None
    n = L1.n

    def profile(L):
        le = _le(L)
        return [(sum(le(a, b) for b in range(n)),
                 sum(le(b, a) for b in range(n))) for a in range(n)]

    prof1, prof2 = profile(L1), profile(L2)
    cands = {a: [b for b in range(n) if prof2[b] == prof1[a]]
             for a in range(n)}
    order = sorted(range(n), key=lambda a: len(cands[a]))
    assign: dict[int, int] = {}
    used = set()

    def bt(k):
        if k == n:
            return True
        a = order[k]
        for b in cands[a]:
            if b in used:
                continue
            if all(((a, a2) in L1.leq) == ((b, b2) in L2.leq)
                   and ((a2, a) in L1.leq) == ((b2, b) in L2.leq)
                   for a2, b2 in assign.items()):
                assign[a] = b
                used.add(b)
                if bt(k + 1):
                    return True
                del assign[a]
                used.discard(b)
        return False

    if bt(0):
        return {L1.name(a): L2.name(b) for a, b in assign.items()}
    return None


# -- the builders on name pairs --------------------------------------------
#
# The library builds graphs and frames as masks (Graph._from_masks,
# Frame._from_masks).  These are the bodies that emitted name pairs and
# went through the public constructors, with every order test a set lookup.


def set_dual_graph(L: FiniteLattice) -> Graph:
    """Maximal pairs in (x, y) order named p0, p1, ..., an edge (f, g) iff
    the filter of f and the ideal of g are disjoint."""
    pairs = set_maximal_pairs(L)
    names = [f"p{i}" for i in range(len(pairs))]
    ones = [frozenset(b for b in range(L.n) if (x, b) in L.leq)
            for x, _ in pairs]
    zeros = [frozenset(b for b in range(L.n) if (b, y) in L.leq)
             for _, y in pairs]
    edges = frozenset((names[i], names[j]) for i in range(len(pairs))
                      for j in range(len(pairs)) if not ones[i] & zeros[j])
    meta = {names[i]: {"ones": sorted(map(L.name, ones[i])),
                       "zeros": sorted(map(L.name, zeros[i]))}
            for i in range(len(pairs))}
    return Graph(tuple(names), edges, meta)


def set_gr(f: Frame) -> Graph:
    """The H-pairs as vertices, an edge ((x, y), (w, z)) iff (x, z) is not
    in R."""
    hs = set_h_set(f)
    names = {p: f"({p[0]},{p[1]})" for p in hs}
    edges = frozenset((names[(x, y)], names[(w, z)])
                      for (x, y) in hs for (w, z) in hs if (x, z) not in f.r)
    return Graph(tuple(names[p] for p in hs), edges,
                 {names[p]: {"pair": list(p)} for p in hs})


def set_poset_graph(n: int, strict) -> Graph:
    vs = tuple(f"v{i}" for i in range(n))
    return Graph(vs, frozenset({(v, v) for v in vs}
                               | {(vs[a], vs[b]) for a, b in strict}))


def set_gen_rs_frame(spec) -> list[Frame]:
    """gen_rs_frame on cell lists: every relation in cell-mask order, or
    one coin per cell, in row order, for each random candidate."""
    x1 = tuple(f"x{i}" for i in range(spec.size))
    x2 = tuple(f"y{i}" for i in range(spec.size))
    cells = [(a, b) for a in x1 for b in x2]

    def rs(f):
        return set_check_frame(f).is_rs

    if spec.exhaustive:
        return [f for f in all_frames(spec.size, spec.size) if rs(f)]
    rng = random.Random(spec.seed)
    out = []
    while len(out) < spec.count:
        f = Frame(x1, x2, frozenset(c for c in cells if rng.random() < 0.5))
        if rs(f):
            out.append(f)
    return out


# -- generation before it worked on masks -----------------------------------
#
# Families of sets are frozensets of names, every random attempt builds its
# lattice before its size is checked, an exhaustive candidate is compared
# with every structure kept so far, and every candidate RS frame is built
# and put through check_frame.


def frozen_inclusion_lattice(family):
    """A family of sets in (size, members) order, and the lattice it forms
    under inclusion with each set named by its members.  The lattice is
    built straight from the up-masks of that order, with no scan: the
    callers pass closure systems and their duals, lattices by
    construction."""
    sets = sorted(family, key=lambda s: (len(s), sorted(s)))
    index = {x: i for i, x in enumerate(frozenset().union(*sets))}
    masks = [sum(1 << index[x] for x in s) for s in sets]
    leq = frozenset((i, j) for i, si in enumerate(masks)
                    for j, sj in enumerate(masks) if not si & ~sj)
    ups = [sum(1 << j for j in range(len(sets)) if (i, j) in leq)
           for i in range(len(sets))]
    names, first = [_set_name(s) for s in sets], {}
    for s, name in zip(sets, names):  # a "," in a point name can collide
        if first.setdefault(name, s) != s:
            raise InvalidInput(f"sets {sorted(first[name])} and {sorted(s)} "
                               f"are both named {name}")
    return sets, FiniteLattice._from_masks(names, ups)


def pairwise_closure(base, *ops, limit=None) -> frozenset:
    """Close a set under commutative binary operations: add op(a, b) for
    all members and ops until none is new or there are more than limit."""
    out = set(base)
    todo = list(out)
    while todo and (limit is None or len(out) <= limit):
        a = todo.pop()
        for b in list(out):
            for op in ops:
                c = op(a, b)
                if c not in out:
                    out.add(c)
                    todo.append(c)
    return frozenset(out)


def frozen_downset_lattice(g: Graph) -> FiniteLattice:
    """Lattice of downsets of a poset graph, ordered by inclusion."""
    downs = pairwise_closure({frozenset()} | {g.col(v) for v in g.vertices},
                             frozenset.__or__, frozenset.__and__)
    return frozen_inclusion_lattice(downs)[1]


def frozen_dm_completion(g: Graph) -> FiniteLattice:
    """Dedekind-MacNeille completion of a poset graph: the Galois-closed
    sets of the order polarity (P, P, <=), the intersection closure of the
    principal downsets and P itself."""
    cuts = pairwise_closure({frozenset(g.vertices)}
                            | {g.col(v) for v in g.vertices},
                            frozenset.__and__)
    return frozen_inclusion_lattice(cuts)[1]


def _enumerate_strict_orders(n: int):
    """All transitively closed subsets of {(i, j) : i < j}.  Every finite
    poset has a linear extension, so this hits every isomorphism class."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(2 ** len(pairs)):
        rel = {p for k, p in enumerate(pairs) if mask >> k & 1}
        if all((a, c) in rel
               for (a, b) in rel for (b2, c) in rel if b2 == b):
            yield rel


@functools.cache
def strict_order_classes(n: int) -> tuple[frozenset, ...]:
    """The first strict order of each isomorphism class in the mask order
    of _enumerate_strict_orders: an order is kept unless it is a
    relabelling of a kept one, all of whose relabellings are marked seen."""
    seen, out = set(), []
    for rel in map(frozenset, _enumerate_strict_orders(n)):
        if rel not in seen:
            out.append(rel)
            seen.update(frozenset((p[a], p[b]) for a, b in rel)
                        for p in itertools.permutations(range(n)))
    return tuple(out)


def brute_poset_classes(n: int) -> list[Graph]:
    """Exhaustive gen_poset from strict_order_classes."""
    return [set_poset_graph(n, rel) for rel in strict_order_classes(n)]


def brute_lattice_classes(kind: str, n: int) -> list[FiniteLattice]:
    """Exhaustive gen_lattice: each class of strict_order_classes(n - 2)
    moved up one place between a bottom 0 and a top n - 1, kept if it is a
    lattice (and distributive, for that kind)."""
    names = tuple(f"e{i}" for i in range(n))
    bounds = {(0, i) for i in range(n)} | {(i, n - 1) for i in range(n)}
    loops = {(i, i) for i in range(n)}
    out = []
    for rel in strict_order_classes(max(n - 2, 0)):
        try:
            lat = set_finish_lattice(names, frozenset(
                bounds | loops | {(a + 1, b + 1) for a, b in rel}))
        except NotALattice:
            continue
        if kind == "lattice" or is_distributive(lat):
            out.append(lat)
    return out


def pairwise_posets(n: int) -> list[Graph]:
    """Exhaustive gen_poset: each candidate against every kept poset."""
    out: list[Graph] = []
    for rel in _enumerate_strict_orders(n):
        g = set_poset_graph(n, rel)
        if not any(graph_iso(g, h) for h in out):
            out.append(g)
    return out


def pairwise_gen_lattice(spec) -> list[FiniteLattice]:
    """gen_lattice with exhaustive candidates compared against every kept
    lattice, and every random attempt built in full."""
    if spec.exhaustive:
        out: list[FiniteLattice] = []
        names = tuple(f"e{i}" for i in range(spec.size))
        loops = {(i, i) for i in range(spec.size)}
        for rel in _enumerate_strict_orders(spec.size):
            try:
                lat = set_finish_lattice(names, frozenset(rel | loops))
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
    while len(out) < spec.count:
        attempts += 1
        if attempts > 400 * spec.count:
            raise SizeUnreachable(
                f"no {spec.kind} of size {spec.size} after {attempts} tries")
        base = max(1, spec.size - rng.randrange(0, 3))
        g = set_poset_graph(base, set_transitive_closure(
            base, _random_pairs(base, rng)))
        lat = (frozen_downset_lattice(g)
               if spec.kind == "distributive-lattice"
               else frozen_dm_completion(g))
        if lat.n == spec.size:
            out.append(lat)
    return out


def framewise_gen_rs_frame(spec) -> list[Frame]:
    """gen_rs_frame with every candidate built as a Frame and kept when
    check_frame finds it RS."""
    n = spec.size
    x1 = tuple(f"x{i}" for i in range(n))
    x2 = tuple(f"y{i}" for i in range(n))
    if spec.exhaustive:
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


def set_random_monotone_map(p: Graph, q: Graph, rng: random.Random):
    """random_monotone_map by vertex name: every assigned vertex is tested
    through Graph.has, and p's vertices are ordered by the size of
    Graph.col."""
    order = sorted(p.vertices, key=lambda v: len(p.col(v)))
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


# -- bodies replaced by faster ones ------------------------------------------


def loop_permutes(perm, rows1, rows2) -> bool:
    """functors._permutes as one shift per edge: perm is a bijection of the
    indices of rows1 onto those of rows2 that carries each row of rows1
    onto the row of its image."""
    return len(rows1) == len(rows2) == len(set(perm)) and all(
        sum(1 << perm[b] for b in bits(row)) == rows2[perm[a]]
        for a, row in enumerate(rows1))


def json_dumps(v) -> str:
    """The layout io.dump_structure and tirs gen write, by json.dumps."""
    return json.dumps(v, indent=2, sort_keys=True)


def json_dump_structure(obj) -> str:
    return json_dumps(obj.to_json())
