"""Graph and frame carriers with witnessed condition checkers.

A graph is a set of vertices with a binary relation E; a frame is a
two-sorted structure (X1, X2, R) with R between the sorts.  The checkers
evaluate reflexivity and the separation (S), reducedness (R) and maximal
extension (Ti) conditions by quantifier sweep, reporting the first witness
in lexicographic scan order (all witnesses behind a flag).  Frame (Ti) is
decided against the H-set: every non-related pair must lie below an
H-pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidInput
from .lattice import CheckReport, Witness


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    # optional per-vertex metadata (e.g. the maximal pair behind a dual-graph
    # vertex); not part of equality
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise InvalidInput("duplicate vertex names")
        if not all(a in vs and b in vs for a, b in self.edges):
            raise InvalidInput("an edge references an unknown vertex")

    def row(self, x: str) -> frozenset[str]:
        """xE = successors of x."""
        return frozenset(b for a, b in self.edges if a == x)

    def col(self, x: str) -> frozenset[str]:
        """Ex = predecessors of x."""
        return frozenset(a for a, b in self.edges if b == x)

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
    x1: tuple[str, ...]
    x2: tuple[str, ...]
    r: frozenset[tuple[str, str]]
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self):
        s1, s2 = set(self.x1), set(self.x2)
        if len(s1) != len(self.x1) or len(s2) != len(self.x2):
            raise InvalidInput("duplicate point names within x1 or x2")
        if not all(a in s1 and b in s2 for a, b in self.r):
            raise InvalidInput("a pair in r references an unknown point")

    def row(self, x: str) -> frozenset[str]:
        """xR."""
        return frozenset(b for a, b in self.r if a == x)

    def col(self, y: str) -> frozenset[str]:
        """Ry."""
        return frozenset(a for a, b in self.r if b == y)

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


def check_graph(g: Graph, all_witnesses: bool = False) -> ConditionReport:
    """Evaluate reflexivity, (S), (R)(i)+(ii) and (Ti) on a graph.

    The graph is TiRS iff all four verdicts are true.
    """
    rows = {x: g.row(x) for x in g.vertices}
    cols = {x: g.col(x) for x in g.vertices}
    vs = g.vertices

    def refl():
        for x in vs:
            if not g.has(x, x):
                yield Witness("reflexive", (x,))

    def cond_s():
        for i, x in enumerate(vs):
            for y in vs[i + 1:]:
                if rows[x] == rows[y] and cols[x] == cols[y]:
                    yield Witness("S", (x, y))

    def cond_r():
        for z in vs:
            for x in vs:
                if rows[z] < rows[x] and g.has(z, x):
                    yield Witness("R(i)", (z, x))
        for y in vs:
            for z in vs:
                if cols[z] < cols[y] and g.has(y, z):
                    yield Witness("R(ii)", (y, z))

    def cond_ti():
        for x in vs:
            for y in vs:
                if not g.has(x, y):
                    continue
                if not any(rows[z] <= rows[x] and cols[z] <= cols[y]
                           for z in vs):
                    yield Witness("Ti", (x, y))

    return ConditionReport(
        reflexive=_collect(refl(), all_witnesses),
        condS=_collect(cond_s(), all_witnesses),
        condR=_collect(cond_r(), all_witnesses),
        condTi=_collect(cond_ti(), all_witnesses),
    )


def check_frame(f: Frame, all_witnesses: bool = False) -> ConditionReport:
    """Evaluate frame (S), (R) and (Ti).  RS iff (S) and (R) hold; TiRS iff
    additionally (Ti).  The reflexive slot is vacuously true (no reflexivity
    notion on two-sorted structures)."""
    rows, cols = _rows_cols(f)

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
            ok = any(not f.has(x, y)
                     and all(f.has(w, y) for w in f.x1
                             if w != x and rows[x] <= rows[w])
                     for y in f.x2)
            if not ok:
                yield Witness("R(i)", (x,))
        for y in f.x2:
            ok = any(not f.has(x, y)
                     and all(f.has(x, z) for z in f.x2
                             if z != y and cols[y] <= cols[z])
                     for x in f.x1)
            if not ok:
                yield Witness("R(ii)", (y,))

    return ConditionReport(
        reflexive=CheckReport.ok(),
        condS=_collect(cond_s(), all_witnesses),
        condR=_collect(cond_r(), all_witnesses),
        condTi=_collect((Witness("Ti", p)
                         for p in ti_failures(f, rows, cols)), all_witnesses),
    )


def h_set(f: Frame) -> list[tuple[str, str]]:
    """The H-vertex set of a frame: pairs (x, y) with x not related to y
    that are maximal in the row/column inclusion sense."""
    rows, cols = _rows_cols(f)
    return [(x, y) for x in f.x1 for y in f.x2
            if _is_h_pair(f, rows, cols, x, y)]


def _rows_cols(f: Frame):
    return {x: f.row(x) for x in f.x1}, {y: f.col(y) for y in f.x2}


def _is_h_pair(f: Frame, rows, cols, x, y) -> bool:
    """x is not related to y, y is related from every other point whose row
    contains x's row, and x is related to every other point whose column
    contains y's column."""
    return (y not in rows[x]
            and all(y in rows[u] for u in f.x1
                    if u != x and rows[x] <= rows[u])
            and all(x in cols[v] for v in f.x2
                    if v != y and cols[y] <= cols[v]))


def ti_failures(f: Frame, rows, cols):
    """The pairs that break (Ti), in scan order: non-related (x, y) with no
    H-pair (w, z) such that row(x) is inside row(w) and col(y) inside
    col(z).  rows and cols map each point of f to its row or column."""
    for x in f.x1:
        for y in f.x2:
            if y not in rows[x] and not any(
                    _is_h_pair(f, rows, cols, w, z)
                    for w in f.x1 if rows[x] <= rows[w]
                    for z in f.x2 if cols[y] <= cols[z]):
                yield x, y


def is_poset_graph(g: Graph, all_witnesses: bool = False) -> CheckReport:
    """True iff E is reflexive, transitive and antisymmetric (the Birkhoff
    special case: dual graphs of distributive lattices are posets)."""
    def gen():
        for x in g.vertices:
            if not g.has(x, x):
                yield Witness("reflexive", (x,))
        for x, y in sorted(g.edges):
            if x != y and g.has(y, x):
                yield Witness("antisymmetric", (x, y))
        for x, y in sorted(g.edges):
            for z in sorted(g.row(y)):
                if not g.has(x, z):
                    yield Witness("transitive", (x, y, z))

    return _collect(gen(), all_witnesses)
