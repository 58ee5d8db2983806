"""Graph and frame carriers with witnessed condition checkers.

A graph is a set of vertices with a binary relation E; a frame is a
two-sorted structure (X1, X2, R) with R between the sorts.  Each holds its
relation as int bitmasks, and the tables derived from them as cached
properties.  The checkers evaluate reflexivity, separation (S), reducedness
(R) and maximal extension (Ti) on those masks, reporting the first witness
in scan order (all witnesses behind a flag).  Frame (Ti) is decided against
the H-set: every non-related pair must lie below an H-pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .errors import InvalidInput
from .lattice import CheckReport, Witness, bits


def _names(mask: int, names) -> frozenset[str]:
    return frozenset(names[i] for i in bits(mask))


def _relation(names1, names2, pairs, duplicate, unknown):
    """The index maps of two carriers, then the row masks (over names2) and
    column masks (over names1) of a relation between them, in one pass."""
    index1 = {v: i for i, v in enumerate(names1)}
    index2 = index1 if names2 is names1 else \
        {v: i for i, v in enumerate(names2)}
    if len(index1) != len(names1) or len(index2) != len(names2):
        raise InvalidInput(duplicate)
    rows, cols = [0] * len(names1), [0] * len(names2)
    try:
        for a, b in pairs:
            i, j = index1[a], index2[b]
            rows[i] |= 1 << j
            cols[j] |= 1 << i
    except KeyError:
        raise InvalidInput(unknown) from None
    return index1, index2, tuple(rows), tuple(cols)


@dataclass(frozen=True)
class Graph:
    """Vertices and edges E.  The relation is also held as index masks
    built at construction: succ[i] has bit j set, and pred[j] bit i, iff
    (v_i, v_j) is an edge; index maps each vertex to its position.  The
    cached supersets holds row and column inclusion."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    # optional per-vertex metadata (e.g. the maximal pair behind a dual-graph
    # vertex); not part of equality
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self):
        index, _, succ, pred = _relation(
            self.vertices, self.vertices, self.edges,
            "duplicate vertex names", "an edge references an unknown vertex")
        vars(self).update(index=index, succ=succ, pred=pred)

    @cached_property
    def supersets(self) -> tuple[list[int], list[int]]:
        """(up_row, up_col): the _supersets of the rows and the columns."""
        return _supersets(self.succ), _supersets(self.pred)

    def row(self, x: str) -> frozenset[str]:
        """xE = successors of x."""
        return _names(self.succ[self.index[x]], self.vertices)

    def col(self, x: str) -> frozenset[str]:
        """Ex = predecessors of x."""
        return _names(self.pred[self.index[x]], self.vertices)

    def has(self, a: str, b: str) -> bool:
        return (a, b) in self.edges

    def to_json(self) -> dict:
        d = {"vertices": list(self.vertices),
             "edges": sorted(map(list, self.edges))}
        if self.meta:
            d["meta"] = {k: v for k, v in sorted(self.meta.items())}
        return d


@dataclass(frozen=True)
class Frame:
    """Carriers X1, X2 and R between them, also held as index masks built at
    construction: rows[i] is the mask over X2 of the row of x1[i], cols[j]
    the mask over X1 of the column of x2[j]; index1 and index2 map each
    point to its position.  The cached table is the frame's _HTable."""

    x1: tuple[str, ...]
    x2: tuple[str, ...]
    r: frozenset[tuple[str, str]]
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self):
        index1, index2, rows, cols = _relation(
            self.x1, self.x2, self.r, "duplicate point names within x1 or x2",
            "a pair in r references an unknown point")
        vars(self).update(index1=index1, index2=index2, rows=rows, cols=cols)

    @cached_property
    def table(self) -> _HTable:
        return _HTable(self)

    def row(self, x: str) -> frozenset[str]:
        """xR."""
        return _names(self.rows[self.index1[x]], self.x2)

    def col(self, y: str) -> frozenset[str]:
        """Ry."""
        return _names(self.cols[self.index2[y]], self.x1)

    def has(self, x: str, y: str) -> bool:
        return (x, y) in self.r

    def to_json(self) -> dict:
        d = {"x1": list(self.x1), "x2": list(self.x2),
             "r": sorted(map(list, self.r))}
        if self.meta:
            d["meta"] = {k: v for k, v in sorted(self.meta.items())}
        return d


@dataclass(frozen=True)
class ConditionReport:
    reflexive: CheckReport
    condS: CheckReport
    condR: CheckReport
    condTi: CheckReport

    @property
    def is_rs(self) -> bool:
        return bool(self.condS and self.condR)

    @property
    def is_tirs(self) -> bool:
        return bool(self.reflexive and self.condS and self.condR
                    and self.condTi)

    def to_json(self) -> dict:
        return {"reflexive": self.reflexive.to_json(),
                "S": self.condS.to_json(), "R": self.condR.to_json(),
                "Ti": self.condTi.to_json()}


def _collect(gen, all_witnesses):
    out = []
    for w in gen:
        out.append(w)
        if not all_witnesses:
            break
    return CheckReport.ok() if not out else CheckReport.fail(out)


def _meet(masks, members, width: int) -> int:
    """The AND of masks[i] over the indices i in members, starting from
    the full mask of the given width."""
    out = (1 << width) - 1
    for i in members:
        out &= masks[i]
    return out


def subset(a: int, b: int) -> bool:
    """Mask a is a subset of mask b."""
    return not a & ~b


def _supersets(masks) -> list[int]:
    """For each i, the mask of the j with masks[i] a subset of masks[j]."""
    return [sum(1 << j for j, b in enumerate(masks) if subset(a, b))
            for a in masks]


def _equal_pairs(keys, names, label):
    for i, a in enumerate(keys):
        for j in range(i + 1, len(keys)):
            if a == keys[j]:
                yield Witness(label, (names[i], names[j]))


def check_graph(g: Graph, all_witnesses: bool = False) -> ConditionReport:
    """Evaluate reflexivity, (S), (R)(i)+(ii) and (Ti) on a graph.

    The graph is TiRS iff all four verdicts are true.
    """
    vs, succ, pred = g.vertices, g.succ, g.pred
    n = len(vs)

    def cond_r():
        # an edge z -> x with row(z) strictly inside row(x), and an edge
        # y -> z with col(z) strictly inside col(y)
        for z in range(n):
            for x in bits(succ[z]):
                if succ[z] != succ[x] and subset(succ[z], succ[x]):
                    yield Witness("R(i)", (vs[z], vs[x]))
        for y in range(n):
            for z in bits(succ[y]):
                if pred[z] != pred[y] and subset(pred[z], pred[y]):
                    yield Witness("R(ii)", (vs[y], vs[z]))

    def cond_ti():
        # an edge (x, y) needs a z with row(z) inside row(x) and col(z)
        # inside col(y); reach[x] collects those y over all z
        up_row, up_col = g.supersets
        reach = [0] * n
        for z in range(n):
            for x in bits(up_row[z]):
                reach[x] |= up_col[z]
        for x in range(n):
            for y in bits(succ[x] & ~reach[x]):
                yield Witness("Ti", (vs[x], vs[y]))

    return ConditionReport(
        reflexive=_collect((Witness("reflexive", (x,))
                            for i, x in enumerate(vs) if not succ[i] >> i & 1),
                           all_witnesses),
        condS=_collect(_equal_pairs(list(zip(succ, pred)), vs, "S"),
                       all_witnesses),
        condR=_collect(cond_r(), all_witnesses),
        condTi=_collect(cond_ti(), all_witnesses),
    )


class _HTable:
    """The table behind frame (R), the H-set and (Ti).  up1[x] masks the w
    whose row contains row(x); u1[x] is the AND of their rows, x's own
    left out; up2 and u2 are the same on columns.  h[x] masks the y with
    (x, y) an H-pair: y outside row(x), y in u1[x] and x in u2[y]."""

    def __init__(self, f: Frame):
        self.up1, self.up2 = _supersets(f.rows), _supersets(f.cols)
        self.u1 = [_meet(f.rows, bits(u & ~(1 << x)), len(f.x2))
                   for x, u in enumerate(self.up1)]
        self.u2 = [_meet(f.cols, bits(u & ~(1 << y)), len(f.x1))
                   for y, u in enumerate(self.up2)]
        self.h = [sum(1 << y for y in bits(~row & self.u1[x])
                      if self.u2[y] >> x & 1)
                  for x, row in enumerate(f.rows)]


def check_frame(f: Frame, all_witnesses: bool = False) -> ConditionReport:
    """Evaluate frame (S), (R) and (Ti).  RS iff (S) and (R) hold; TiRS iff
    additionally (Ti).  The reflexive slot is vacuously true (no reflexivity
    notion on two-sorted structures)."""
    t = f.table
    cond_s = itertools.chain(_equal_pairs(f.rows, f.x1, "S(i)"),
                             _equal_pairs(f.cols, f.x2, "S(ii)"))
    # x needs a y outside its row that every other w whose row contains
    # row(x) is related to; dually for y
    cond_r = itertools.chain(
        (Witness("R(i)", (f.x1[x],))
         for x, row in enumerate(f.rows) if not ~row & t.u1[x]),
        (Witness("R(ii)", (f.x2[y],))
         for y, col in enumerate(f.cols) if not ~col & t.u2[y]))
    return ConditionReport(
        reflexive=CheckReport.ok(),
        condS=_collect(cond_s, all_witnesses),
        condR=_collect(cond_r, all_witnesses),
        condTi=_collect((Witness("Ti", p) for p in ti_failures(f)),
                        all_witnesses),
    )


def h_set(f: Frame) -> list[tuple[str, str]]:
    """The H-vertex set of a frame: pairs (x, y) with x not related to y
    that are maximal in the row/column inclusion sense."""
    return [(f.x1[x], f.x2[y]) for x, h in enumerate(f.table.h)
            for y in bits(h)]


def ti_failures(f: Frame):
    """The pairs that break (Ti), in scan order: non-related (x, y) with no
    H-pair (w, z) such that row(x) is inside row(w) and col(y) inside
    col(z)."""
    t = f.table
    full = (1 << len(f.x2)) - 1
    for x, row in enumerate(f.rows):
        reach = 0  # the z of the H-pairs (w, z) with row(x) inside row(w)
        for w in bits(t.up1[x]):
            reach |= t.h[w]
        for y in bits(full & ~row):
            if not reach & t.up2[y]:
                yield f.x1[x], f.x2[y]


def is_poset_graph(g: Graph, all_witnesses: bool = False) -> CheckReport:
    """True iff E is reflexive, transitive and antisymmetric (the Birkhoff
    special case: dual graphs of distributive lattices are posets)."""
    vs, succ, index = g.vertices, g.succ, g.index
    edges = sorted(g.edges)

    def gen():
        for i, x in enumerate(vs):
            if not succ[i] >> i & 1:
                yield Witness("reflexive", (x,))
        for x, y in edges:
            if x != y and g.has(y, x):
                yield Witness("antisymmetric", (x, y))
        for x, y in edges:
            for z in sorted(_names(succ[index[y]] & ~succ[index[x]], vs)):
                yield Witness("transitive", (x, y, z))

    return _collect(gen(), all_witnesses)
