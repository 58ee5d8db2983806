"""Graph and frame carriers with witnessed condition checkers.

A graph is a set of vertices with a binary relation E; a frame is a
two-sorted structure (X1, X2, R) with R between the sorts.  Each holds its
relation as int bitmasks, and the tables derived from them as cached
properties.  The checkers evaluate reflexivity, separation (S), reducedness
(R) and maximal extension (Ti) on those masks, reporting the first witness
in scan order (all witnesses behind a flag); each carrier keeps its first
report.  (S) groups equal masks in one dict pass, a frame's tables come
from one pass over the pairs of its rows and of its columns, and frame (Ti)
asks of the H-set that every non-related pair lie below an H-pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .errors import InvalidInput
from .lattice import CheckReport, Witness, _memo, _transpose, _walk, bits


def _names(mask: int, names) -> frozenset[str]:
    out = []  # bits() inlined: this runs once per Galois map
    while mask:
        low = mask & -mask
        out.append(names[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def _index(names, duplicate: str) -> dict[str, int]:
    index = {v: i for i, v in enumerate(names)}
    if len(index) != len(names):
        raise InvalidInput(duplicate)
    return index


def _relation(index1, index2, pairs, unknown: str) -> list[int]:
    """The row masks (over index2) of a relation given as name pairs."""
    rows = [0] * len(index1)
    bit = {b: 1 << j for b, j in index2.items()}
    try:
        for a, b in pairs:
            rows[index1[a]] |= bit[b]
    except KeyError:
        raise InvalidInput(unknown) from None
    return rows


class _Relational:
    """Construction from masks, the name-pair view and the JSON form of the
    relation _json_parts gives: (name lists, key, rows, names1, names2)."""

    @classmethod
    def _from_masks(cls, *args):
        obj = object.__new__(cls)
        obj._init(*args)
        return obj

    def _name_pairs(self) -> frozenset[tuple[str, str]]:
        _, _, rows, names1, names2 = self._json_parts()
        return frozenset((names1[i], names2[j]) for i, row in enumerate(rows)
                         for j in bits(row))

    def to_json(self) -> dict:
        lists, key, rows, names1, names2 = self._json_parts()
        d = {k: list(v) for k, v in lists.items()}
        d[key] = [[names1[i], b] for i, bs in _walk(rows, names1, names2,
                                                    names2) for b in bs]
        if self.meta:
            d["meta"] = {k: v for k, v in sorted(self.meta.items())}
        return d


@dataclass(frozen=True, init=False)
class Graph(_Relational):
    """Vertices and the relation E, held as index masks: succ[i] has bit j
    set, and pred[j] bit i, iff (v_i, v_j) is an edge; index maps each
    vertex to its position.  Graph(vertices, edges, meta) reads name pairs
    and Graph._from_masks(vertices, succ, meta) takes the masks.  edges,
    the name pairs, is a view and supersets the row and column inclusion,
    both cached on first read."""

    vertices: tuple[str, ...]
    succ: tuple[int, ...]
    # optional per-vertex metadata (e.g. the maximal pair behind a dual-graph
    # vertex); not part of equality
    meta: dict = field(compare=False, hash=False)

    def __init__(self, vertices, edges, meta=None):
        self._init(vertices, None, meta, edges)

    def _init(self, vertices, succ, meta=None, edges=None):
        index = _index(vertices, "duplicate vertex names")
        succ = tuple(succ if edges is None else _relation(
            index, index, edges, "an edge references an unknown vertex"))
        vars(self).update(vertices=tuple(vertices), succ=succ,
                          meta={} if meta is None else meta, index=index,
                          pred=_transpose(succ, len(vertices)))

    edges = cached_property(_Relational._name_pairs)

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
        i, j = self.index.get(a), self.index.get(b)
        return i is not None and j is not None and self.succ[i] >> j & 1 == 1

    def _json_parts(self):
        vs = self.vertices
        return {"vertices": vs}, "edges", self.succ, vs, vs


@dataclass(frozen=True, init=False)
class Frame(_Relational):
    """Carriers X1, X2 and R between them, held as index masks: rows[i] is
    the mask over X2 of the row of x1[i], cols[j] the mask over X1 of the
    column of x2[j]; index1 and index2 map each point to its position.
    Frame(x1, x2, r, meta) reads name pairs and Frame._from_masks(x1, x2,
    rows, meta) takes the masks.  r, the name pairs, is a view and table
    the frame's _HTable, both cached on first read."""

    x1: tuple[str, ...]
    x2: tuple[str, ...]
    rows: tuple[int, ...]
    meta: dict = field(compare=False, hash=False)

    def __init__(self, x1, x2, r, meta=None):
        self._init(x1, x2, None, meta, r)

    def _init(self, x1, x2, rows, meta=None, r=None):
        duplicate = "duplicate point names within x1 or x2"
        index1, index2 = _index(x1, duplicate), _index(x2, duplicate)
        rows = tuple(rows if r is None else _relation(
            index1, index2, r, "a pair in r references an unknown point"))
        vars(self).update(x1=tuple(x1), x2=tuple(x2), rows=rows,
                          meta={} if meta is None else meta, index1=index1,
                          index2=index2, cols=_transpose(rows, len(x2)))

    r = cached_property(_Relational._name_pairs)

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
        i, j = self.index1.get(x), self.index2.get(y)
        return i is not None and j is not None and self.rows[i] >> j & 1 == 1

    def _json_parts(self):
        return {"x1": self.x1, "x2": self.x2}, "r", self.rows, self.x1, self.x2


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
    out = tuple(gen if all_witnesses else itertools.islice(gen, 1))
    return CheckReport.fail(out) if out else CheckReport.ok()


def _supersets(masks) -> list[int]:
    """For each i, the mask of the j with masks[i] a subset of masks[j].
    Equal masks are compared once: a dual graph repeats its rows."""
    held = {}  # each distinct mask -> the indices holding it
    for j, b in enumerate(masks):
        held[b] = held.get(b, 0) | 1 << j
    up = {a: sum(js for b, js in held.items() if not a & ~b) for a in held}
    return [up[a] for a in masks]


def _equal_pairs(keys, names, label):
    held = {}  # each key -> the indices holding it, ascending
    for j, k in enumerate(keys):
        held.setdefault(k, []).append(j)
    for i, k in enumerate(keys):
        for j in held[k][held[k].index(i) + 1:]:  # the j > i holding k
            yield Witness(label, (names[i], names[j]))


def _upper_meets(masks, width: int):
    """(up, u, bad): up[x] masks the i whose mask contains masks[x], u[x] is
    the AND of their masks over range(width), x's own left out, and bad
    lists the x at which (R) fails: no point outside masks[x] is in u[x]."""
    full, up, u = (1 << width) - 1, [], []
    for x, a in enumerate(masks):
        s, m = 0, full
        for i, b in enumerate(masks):
            if not a & ~b:
                s |= 1 << i
                if i != x:
                    m &= b
        up.append(s)
        u.append(m)
    return up, u, [x for x, a in enumerate(masks) if not ~a & u[x]]


def _is_rs(rows, cols) -> bool:
    """Frame (S) and (R) decided on the row and column masks alone.  (S)
    needs no test of its own: two equal masks make (R) fail at both."""
    return not (_upper_meets(rows, len(cols))[2]
                or _upper_meets(cols, len(rows))[2])


@_memo
def check_graph(g: Graph, all_witnesses: bool = False) -> ConditionReport:
    """Evaluate reflexivity, (S), (R)(i)+(ii) and (Ti) on a graph: TiRS iff
    all four verdicts are true.  The first-witness report is computed once
    per graph (lattice._memo); all_witnesses scans on every call."""
    vs, succ, pred = g.vertices, g.succ, g.pred
    n = len(vs)

    def cond_r():
        # an edge z -> x with row(z) strictly inside row(x), and an edge
        # y -> z with col(z) strictly inside col(y); down_col[y] masks the
        # z whose column lies inside col(y)
        up_row, up_col = g.supersets
        for z in range(n):
            for x in bits(succ[z] & up_row[z]):
                if succ[x] != succ[z]:
                    yield Witness("R(i)", (vs[z], vs[x]))
        down_col = _transpose(up_col, n)
        for y in range(n):
            for z in bits(succ[y] & down_col[y]):
                if pred[z] != pred[y]:
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
    """The table behind frame (R), the H-set and (Ti): up1, u1 and r1 are
    the _upper_meets of the rows, up2, u2 and r2 those of the columns.
    h[x] masks the y with (x, y) an H-pair: y outside row(x), y in u1[x]
    and x in u2[y]."""

    def __init__(self, f: Frame):
        self.up1, self.u1, self.r1 = _upper_meets(f.rows, len(f.x2))
        self.up2, self.u2, self.r2 = _upper_meets(f.cols, len(f.x1))
        self.h = [u & ~row & t for row, u, t in zip(
            f.rows, self.u1, _transpose(self.u2, len(f.x1)))]


@_memo
def check_frame(f: Frame, all_witnesses: bool = False) -> ConditionReport:
    """Evaluate frame (S), (R) and (Ti).  RS iff (S) and (R) hold; TiRS iff
    additionally (Ti).  The reflexive slot is vacuously true (no reflexivity
    notion on two-sorted structures).  The first-witness report is kept on
    f (lattice._memo); all_witnesses scans on every call."""
    t = f.table
    # two equal masks make (R) fail at both: without an (R) failure, no (S)
    cond_s = itertools.chain(_equal_pairs(f.rows, f.x1, "S(i)"),
                             _equal_pairs(f.cols, f.x2, "S(ii)")
                             ) if t.r1 or t.r2 else ()
    cond_r = itertools.chain((Witness("R(i)", (f.x1[x],)) for x in t.r1),
                             (Witness("R(ii)", (f.x2[y],)) for y in t.r2))
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
    vs, succ = g.vertices, g.succ
    edges = [(x, y) for x, ys in _walk(succ, vs, vs, range(len(vs)))
             for y in ys]

    def gen():
        for i, x in enumerate(vs):
            if not succ[i] >> i & 1:
                yield Witness("reflexive", (x,))
        for x, y in edges:
            if x != y and succ[y] >> x & 1:
                yield Witness("antisymmetric", (vs[x], vs[y]))
        for x, y in edges:
            for z in sorted(_names(succ[y] & ~succ[x], vs)):
                yield Witness("transitive", (vs[x], vs[y], z))

    return _collect(gen(), all_witnesses)
