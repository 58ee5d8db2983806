"""The rho/gr correspondence between graphs and frames, the canonical maps
alpha and beta, isomorphism search, morphism validation, functor action on
morphisms, and naturality-square checks.

rho quotients a graph by row/column equality and relates classes through
the complement of E; gr rebuilds a graph from the maximal non-related pairs
of a frame.  On TiRS structures the two are mutually inverse up to the
canonical isomorphisms alpha and beta, and both act on morphisms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Optional

from .errors import (HNotPreserved, InvalidInput, IsoVerificationFailed,
                     MismatchedCarrier, NotTiRS, NotWellDefined)
from .lattice import CheckReport, Witness, _memo, _walk, mask_iso
from .structures import (ConditionReport, Frame, Graph, _collect, bits,
                         check_frame, check_graph, h_set)


@dataclass(frozen=True)
class GraphMorphism:
    source: Graph
    target: Graph
    map: dict

    def __post_init__(self):
        if set(self.map) != set(self.source.vertices) or \
                not set(self.map.values()) <= set(self.target.vertices):
            raise InvalidInput("map must send each source vertex to a "
                               "target vertex")

    def apply(self, x: str) -> str:
        return self.map[x]

    def to_json(self) -> dict:
        return {"map": sorted(map(list, self.map.items()))}


@dataclass(frozen=True)
class FrameMorphism:
    source: Frame
    target: Frame
    map1: dict
    map2: dict

    def __post_init__(self):
        if set(self.map1) != set(self.source.x1) or \
                set(self.map2) != set(self.source.x2) or \
                not set(self.map1.values()) <= set(self.target.x1) or \
                not set(self.map2.values()) <= set(self.target.x2):
            raise InvalidInput("map1/map2 must send each source point to a "
                               "target point of the same sort")

    def to_json(self) -> dict:
        return {"map1": sorted(map(list, self.map1.items())),
                "map2": sorted(map(list, self.map2.items()))}


def compose_graph(m2: GraphMorphism, m1: GraphMorphism) -> GraphMorphism:
    if m1.target != m2.source:
        raise MismatchedCarrier("m1's target is not m2's source")
    return GraphMorphism(m1.source, m2.target,
                         {x: m2.map[m1.map[x]] for x in m1.map})


def compose_frame(m2: FrameMorphism, m1: FrameMorphism) -> FrameMorphism:
    if m1.target != m2.source:
        raise MismatchedCarrier("m1's target is not m2's source")
    return FrameMorphism(m1.source, m2.target,
                         {x: m2.map1[m1.map1[x]] for x in m1.map1},
                         {y: m2.map2[m1.map2[y]] for y in m1.map2})


def identity_graph_morphism(g: Graph) -> GraphMorphism:
    return GraphMorphism(g, g, {x: x for x in g.vertices})


def identity_frame_morphism(f: Frame) -> FrameMorphism:
    return FrameMorphism(f, f, {x: x for x in f.x1}, {y: y for y in f.x2})


# -- rho and gr ---------------------------------------------------------


def _classes(vertices, keys):
    """Partition vertices by their masks in keys; each class is named after
    its minimal-index representative.  Returns (the representatives'
    indices in order, member map vertex -> class name)."""
    first = {}
    for i, k in enumerate(keys):
        first.setdefault(k, i)
    return (list(first.values()),
            {v: vertices[first[k]] for v, k in zip(vertices, keys)})


@_memo
def rho(g: Graph) -> Frame:
    """The associated frame of a graph: X1 = row classes, X2 = column
    classes, related iff the underlying pair is NOT an edge, with the class
    membership tables as metadata under "class1" and "class2".  Built once
    per graph (lattice._memo): the frame is shared, not to be mutated."""
    vs, succ = g.vertices, g.succ
    reps1, cls1 = _classes(vs, succ)
    reps2, cls2 = _classes(vs, g.pred)
    # rows are equal within a row class and columns within a column class,
    # so relating the representatives relates the classes
    rows = [sum(1 << k for k, y in enumerate(reps2) if not succ[x] >> y & 1)
            for x in reps1]
    return Frame._from_masks(tuple(vs[x] for x in reps1),
                             tuple(vs[y] for y in reps2), rows,
                             {"class1": cls1, "class2": cls2})


def _pair_name(x: str, y: str) -> str:
    return f"({x},{y})"


@_memo
def gr(f: Frame) -> Graph:
    """The associated graph of a frame: vertices are the H-pairs, with an
    edge ((x, y), (w, z)) iff x is not related to z.  Built once per frame
    (lattice._memo): the graph is shared, not to be mutated."""
    hs = [(x, y) for x, h in enumerate(f.table.h) for y in bits(h)]
    at_z = [0] * len(f.x2)  # at_z[z] masks the H-pairs (w, z)
    for k, (_, z) in enumerate(hs):
        at_z[z] |= 1 << k
    full = (1 << len(f.x2)) - 1
    succ = [sum(at_z[z] for z in bits(full & ~row)) for row in f.rows]
    pairs = [(f.x1[x], f.x2[y]) for x, y in hs]
    names = tuple(_pair_name(*p) for p in pairs)
    return Graph._from_masks(names, [succ[x] for x, _ in hs],
                             {v: {"pair": list(p)}
                              for v, p in zip(names, pairs)})


# -- canonical isomorphisms ---------------------------------------------


def _require_tirs(report: ConditionReport):
    for cond, rep in (("reflexive", report.reflexive), ("S", report.condS),
                      ("R", report.condR), ("Ti", report.condTi)):
        if not rep:
            raise NotTiRS(cond, rep.witnesses)


def alpha(g: Graph) -> GraphMorphism:
    """The canonical isomorphism x |-> ([x]_1, [x]_2) from a TiRS graph onto
    gr(rho(g)), verified to be a graph isomorphism."""
    _require_tirs(check_graph(g))
    f = rho(g)
    cls1, cls2 = f.meta["class1"], f.meta["class2"]
    target = gr(f)
    mapping = {}
    for x in g.vertices:
        v = _pair_name(cls1[x], cls2[x])
        if v not in target.index:
            raise IsoVerificationFailed(f"alpha image {v} is not an H-vertex")
        mapping[x] = v
    m = GraphMorphism(g, target, mapping)
    if not _is_graph_iso(m):
        raise IsoVerificationFailed("alpha is not a graph isomorphism")
    return m


def beta(f: Frame) -> FrameMorphism:
    """The canonical isomorphism pair from a TiRS frame onto rho(gr(f)),
    sending x to the row class of any H-pair (x, y) and y to the column
    class of any H-pair (x, y); verified well defined and bijective."""
    _require_tirs(check_frame(f))
    target = rho(gr(f))
    cls1, cls2 = target.meta["class1"], target.meta["class2"]
    hs = h_set(f)
    map1, map2 = {}, {}
    for (x, y) in hs:
        v = _pair_name(x, y)
        if map1.setdefault(x, cls1[v]) != cls1[v]:
            raise IsoVerificationFailed(f"beta_1 ill defined at {x}")
        if map2.setdefault(y, cls2[v]) != cls2[v]:
            raise IsoVerificationFailed(f"beta_2 ill defined at {y}")
    if set(map1) != set(f.x1) or set(map2) != set(f.x2):
        raise IsoVerificationFailed("some point occurs in no H-pair")
    m = FrameMorphism(f, target, map1, map2)
    if not _is_frame_iso(m):
        raise IsoVerificationFailed("beta is not a frame isomorphism")
    return m


def _permutes(perm, rows1, rows2) -> bool:
    """perm is a bijection of the indices of rows1 onto those of rows2 that
    carries each row of rows1 onto the row of its image.  One itemgetter
    reorders every row's bit string.  It is not built for no rows, and for
    one row it returns a bare digit, which join passes through."""
    n, fmt = len(rows1), f"0{len(rows1)}b"
    if not n == len(rows2) == len(set(perm)):
        return False
    move = n and itemgetter(*[n - 1 - b for b in sorted(
        range(n), key=perm.__getitem__, reverse=True)])
    return all("".join(move(format(row, fmt))) == format(rows2[perm[a]], fmt)
               for a, row in enumerate(rows1))


def _is_graph_iso(m: GraphMorphism) -> bool:
    g, h = m.source, m.target
    return _permutes([h.index[m.map[v]] for v in g.vertices], g.succ, h.succ)


def _is_frame_iso(m: FrameMorphism) -> bool:
    f, g = m.source, m.target
    perm = [g.index1[m.map1[x]] for x in f.x1] + \
        [len(g.x1) + g.index2[m.map2[y]] for y in f.x2]
    return _permutes(perm, _one_sort(f)[0], _one_sort(g)[0])


# -- isomorphism search -------------------------------------------------


def graph_iso(g1: Graph, g2: Graph) -> Optional[dict]:
    """A relation-preserving-and-reflecting bijection g1 -> g2, or None.
    Deterministic first-found witness under degree-profile-pruned
    backtracking."""
    assign = mask_iso(g1.succ, g1.pred, g2.succ, g2.pred)
    return None if assign is None else \
        {g1.vertices[a]: g2.vertices[b] for a, b in assign.items()}


def _one_sort(f: Frame) -> tuple[list[int], list[int]]:
    """The row and column masks of f as one relation on X1 followed by X2:
    x1[x] has index x and a loop, x2[y] has index |X1| + y.  The loop marks
    the sort, so no search or permutation test on these masks matches
    points of different sorts."""
    n1 = len(f.x1)
    return ([1 << x | row << n1 for x, row in enumerate(f.rows)]
            + [0] * len(f.x2),
            [1 << x for x in range(n1)] + list(f.cols))


def frame_iso(f1: Frame, f2: Frame) -> Optional[tuple[dict, dict]]:
    """A pair of bijections (X1 -> Y1, X2 -> Y2) preserving and reflecting
    R, or None."""
    if len(f1.x1) != len(f2.x1) or len(f1.x2) != len(f2.x2):
        return None
    assign = mask_iso(*_one_sort(f1), *_one_sort(f2))
    if assign is None:
        return None
    n1, points1, points2 = len(f1.x1), f1.x1 + f1.x2, f2.x1 + f2.x2
    return ({points1[a]: points2[b] for a, b in assign.items() if a < n1},
            {points1[a]: points2[b] for a, b in assign.items() if a >= n1})


# -- morphism validation ------------------------------------------------


def validate_graph_morphism(m: GraphMorphism,
                            all_witnesses: bool = False) -> CheckReport:
    """Clauses: (i) edges map to edges; (ii) row inclusion is preserved;
    (iii) column inclusion is preserved."""
    g, h = m.source, m.target
    img = [h.index[m.map[v]] for v in g.vertices]
    (row_g, col_g), (row_h, col_h) = g.supersets, h.supersets

    def gen():
        vs = g.vertices
        for a, bs in _walk(g.succ, vs, vs, range(len(vs))):
            for b in bs:
                if not h.succ[img[a]] >> img[b] & 1:
                    yield Witness("i", (vs[a], vs[b]))
        for a, ia in enumerate(img):
            for b in bits(row_g[a] | col_g[a]):
                if row_g[a] >> b & 1 and not row_h[ia] >> img[b] & 1:
                    yield Witness("ii", (vs[a], vs[b]))
                if col_g[a] >> b & 1 and not col_h[ia] >> img[b] & 1:
                    yield Witness("iii", (vs[a], vs[b]))

    return _collect(gen(), all_witnesses)


def validate_frame_morphism(m: FrameMorphism,
                            all_witnesses: bool = False) -> CheckReport:
    """Clauses: (i) relation is reflected; (ii)/(iii) row/column inclusion
    preserved; (iv) H-pairs map to H-pairs."""
    f, g = m.source, m.target
    img1 = [g.index1[m.map1[x]] for x in f.x1]
    img2 = [g.index2[m.map2[y]] for y in f.x2]
    s, t = f.table, g.table

    def gen():
        for x, vx in enumerate(f.x1):
            for y, vy in enumerate(f.x2):
                if g.rows[img1[x]] >> img2[y] & 1 and not f.rows[x] >> y & 1:
                    yield Witness("i", (vx, vy))
        for label, img, up_s, up_t, pts in (("ii", img1, s.up1, t.up1, f.x1),
                                            ("iii", img2, s.up2, t.up2, f.x2)):
            for a, i in enumerate(img):
                for b in bits(up_s[a]):
                    if not up_t[i] >> img[b] & 1:
                        yield Witness(label, (pts[a], pts[b]))
        for x, y in h_set(f):
            if not t.h[g.index1[m.map1[x]]] >> g.index2[m.map2[y]] & 1:
                yield Witness("iv", (x, y))

    return _collect(gen(), all_witnesses)


# -- functor action on morphisms ----------------------------------------


def rho_mor(m: GraphMorphism) -> FrameMorphism:
    """Image of a graph morphism under rho: classes map to classes of the
    images.  Well-definedness and the frame-morphism clauses are verified
    rather than trusted."""
    src, tgt = rho(m.source), rho(m.target)
    c1s, c2s = src.meta["class1"], src.meta["class2"]
    c1t, c2t = tgt.meta["class1"], tgt.meta["class2"]
    map1, map2 = {}, {}
    for x in m.source.vertices:
        v1 = c1t[m.map[x]]
        if map1.setdefault(c1s[x], v1) != v1:
            raise NotWellDefined(f"row classes collapse inconsistently at {x}")
        v2 = c2t[m.map[x]]
        if map2.setdefault(c2s[x], v2) != v2:
            raise NotWellDefined(f"column classes collapse inconsistently at {x}")
    out = FrameMorphism(src, tgt, map1, map2)
    rep = validate_frame_morphism(out)
    if not rep:
        raise NotWellDefined(f"rho image fails clause {rep.witnesses[0]}")
    return out


def gr_mor(m: FrameMorphism) -> GraphMorphism:
    """Image of a frame morphism under gr: (x, y) |-> (psi1 x, psi2 y).
    Every H-vertex must land on an H-vertex; the graph-morphism clauses are
    verified."""
    g = m.target
    mapping = {}
    for (x, y) in h_set(m.source):
        img = (m.map1[x], m.map2[y])
        if not g.table.h[g.index1[img[0]]] >> g.index2[img[1]] & 1:
            raise HNotPreserved(f"image of H-pair ({x},{y}) is not in H")
        mapping[_pair_name(x, y)] = _pair_name(*img)
    out = GraphMorphism(gr(m.source), gr(g), mapping)
    rep = validate_graph_morphism(out)
    if not rep:
        raise HNotPreserved(f"gr image fails clause {rep.witnesses[0]}")
    return out


# -- naturality ---------------------------------------------------------


def check_naturality(m) -> CheckReport:
    """Commutativity of the canonical square for a morphism between TiRS
    structures: gr(rho(phi)) o alpha = alpha o phi for graphs, and
    rho(gr(psi)) o beta = beta o psi for frames, checked pointwise."""
    if not isinstance(m, (GraphMorphism, FrameMorphism)):
        raise TypeError(f"not a morphism: {m!r}")
    # rho and gr are kept on their carriers (lattice._memo), so the functor
    # image reuses alpha's or beta's; equal carriers share one, mapped once
    if m.target == m.source:
        m = replace(m, target=m.source)
    bad = []
    if isinstance(m, GraphMorphism):
        a_src = alpha(m.source)
        a_tgt = a_src if m.target is m.source else alpha(m.target)
        functor_image = gr_mor(rho_mor(m))
        for x in m.source.vertices:
            if functor_image.map[a_src.map[x]] != a_tgt.map[m.map[x]]:
                bad.append(Witness("naturality", (x,)))
    else:
        b_src = beta(m.source)
        b_tgt = b_src if m.target is m.source else beta(m.target)
        functor_image = rho_mor(gr_mor(m))
        for x in m.source.x1:
            if functor_image.map1[b_src.map1[x]] != b_tgt.map1[m.map1[x]]:
                bad.append(Witness("naturality-1", (x,)))
        for y in m.source.x2:
            if functor_image.map2[b_src.map2[y]] != b_tgt.map2[m.map2[y]]:
                bad.append(Witness("naturality-2", (y,)))
    return CheckReport.ok() if not bad else CheckReport.fail(bad)
