"""Finite bounded lattices: construction from covers, tables, irreducibles,
filters/ideals, embeddings, density/compactness/distributivity checks.

Elements are referenced internally by index (input order); all public output
uses names.  Every value is immutable after construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .errors import NoBounds, NotALattice, NotAPartialOrder


class Witness(NamedTuple):
    condition: str
    elements: tuple


@dataclass(frozen=True)
class CheckReport:
    verdict: bool
    witnesses: tuple[Witness, ...] = ()

    def __post_init__(self):
        assert self.verdict == (not self.witnesses)

    def __bool__(self):
        return self.verdict

    @classmethod
    def ok(cls):
        return cls(True, ())

    @classmethod
    def fail(cls, witnesses):
        return cls(False, tuple(witnesses))

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "witnesses": [{"condition": w.condition,
                               "elements": list(w.elements)}
                              for w in self.witnesses]}


@dataclass(frozen=True)
class FiniteLattice:
    """A finite bounded lattice given by its full order relation.

    ``leq`` holds index pairs (i, j) with i <= j, reflexive-transitively
    closed.  ``join``/``meet`` are full binary tables indexed by element
    index.
    """

    elements: tuple[str, ...]
    leq: frozenset[tuple[int, int]]
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    bot: int
    top: int
    _index: dict = field(repr=False, compare=False, hash=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_index",
                           {name: i for i, name in enumerate(self.elements)})

    # -- element access -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        return self._index[name]

    def name(self, i: int) -> str:
        return self.elements[i]

    def le(self, a: int, b: int) -> bool:
        return (a, b) in self.leq

    def le_names(self, a: str, b: str) -> bool:
        return self.le(self.index(a), self.index(b))

    def up(self, a: int) -> frozenset[int]:
        """Principal filter of a (indices)."""
        return frozenset(b for b in range(self.n) if self.le(a, b))

    def down(self, a: int) -> frozenset[int]:
        """Principal ideal of a (indices)."""
        return frozenset(b for b in range(self.n) if self.le(b, a))

    def lower_covers(self, a: int) -> list[int]:
        below = [b for b in range(self.n) if self.le(b, a) and b != a]
        return [b for b in below
                if not any(self.le(b, c) and self.le(c, a) and c not in (a, b)
                           for c in below)]

    def upper_covers(self, a: int) -> list[int]:
        above = [b for b in range(self.n) if self.le(a, b) and b != a]
        return [b for b in above
                if not any(self.le(a, c) and self.le(c, b) and c not in (a, b)
                           for c in above)]

    def covers(self) -> list[tuple[int, int]]:
        """Strict cover pairs (a, b) with a covered by b."""
        return [(a, b) for b in range(self.n) for a in self.lower_covers(b)]

    def join_of(self, xs) -> int:
        r = self.bot
        for x in xs:
            r = self.join[r][x]
        return r

    def meet_of(self, xs) -> int:
        r = self.top
        for x in xs:
            r = self.meet[r][x]
        return r

    def to_json(self) -> dict:
        nm = self.name
        return {
            "elements": list(self.elements),
            "covers": [[nm(a), nm(b)] for a, b in self.covers()],
            "leq": sorted([nm(a), nm(b)] for a, b in self.leq),
        }


@dataclass(frozen=True)
class LatticeEmbedding:
    source: FiniteLattice
    target: FiniteLattice
    map: tuple[int, ...]  # source index -> target index

    def apply(self, a: int) -> int:
        return self.map[a]

    def image(self) -> frozenset[int]:
        return frozenset(self.map)

    def validate(self) -> CheckReport:
        """Injectivity plus preservation of join, meet, bot, top."""
        s, t = self.source, self.target
        bad = []
        if len(set(self.map)) != s.n:
            bad.append(Witness("injective", ()))
        if self.map[s.bot] != t.bot:
            bad.append(Witness("bot", (s.name(s.bot),)))
        if self.map[s.top] != t.top:
            bad.append(Witness("top", (s.name(s.top),)))
        for a, b in itertools.product(range(s.n), repeat=2):
            if self.map[s.join[a][b]] != t.join[self.map[a]][self.map[b]]:
                bad.append(Witness("join", (s.name(a), s.name(b))))
            if self.map[s.meet[a][b]] != t.meet[self.map[a]][self.map[b]]:
                bad.append(Witness("meet", (s.name(a), s.name(b))))
        return CheckReport.ok() if not bad else CheckReport.fail(bad)


def transitive_closure(n: int, pairs) -> set[tuple[int, int]]:
    """The transitive closure of a relation on range(n)."""
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


def _find_cycle(n, rel):
    for a in range(n):
        for b in range(n):
            if a != b and (a, b) in rel and (b, a) in rel:
                return (a, b)
    return None


def lattice_from_leq(elements, leq_pairs) -> FiniteLattice:
    """Build a FiniteLattice from names and an already-closed order relation.

    ``leq_pairs`` are name pairs; the relation must be a lattice order with
    bounds or the corresponding error is raised.
    """
    elements = tuple(elements)
    idx = {e: i for i, e in enumerate(elements)}
    rel = frozenset((idx[a], idx[b]) for a, b in leq_pairs)
    return _finish_lattice(elements, rel)


def build_lattice(elements, covers) -> FiniteLattice:
    """Build a FiniteLattice from element names and a cover relation.

    The full order is the reflexive-transitive closure of ``covers``.
    Raises NotAPartialOrder, NotALattice or NoBounds on bad input.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise ValueError("duplicate element names")
    idx = {e: i for i, e in enumerate(elements)}
    try:
        pairs = {(idx[a], idx[b]) for a, b in covers}
    except KeyError as exc:
        raise ValueError(f"cover references unknown element {exc}") from exc
    n = len(elements)
    rel = transitive_closure(n, pairs | {(i, i) for i in range(n)})
    return _finish_lattice(elements, frozenset(rel))


def _finish_lattice(elements, rel) -> FiniteLattice:
    n = len(elements)

    def le(a, b):
        return (a, b) in rel

    cyc = _find_cycle(n, rel)
    if cyc is not None:
        raise NotAPartialOrder(tuple(elements[i] for i in cyc))
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

    return FiniteLattice(
        elements=tuple(elements),
        leq=frozenset(rel),
        join=tuple(tuple(r) for r in join),
        meet=tuple(tuple(r) for r in meet),
        bot=bots[0],
        top=tops[0],
    )


def irreducibles(L: FiniteLattice) -> tuple[frozenset[str], frozenset[str]]:
    """Join-irreducibles (one lower cover) and meet-irreducibles (one upper
    cover), as name sets.  In a finite lattice these coincide with the
    completely irreducible elements."""
    j = frozenset(L.name(a) for a in range(L.n) if len(L.lower_covers(a)) == 1)
    m = frozenset(L.name(a) for a in range(L.n) if len(L.upper_covers(a)) == 1)
    return j, m


def filters_ideals(L: FiniteLattice):
    """All nonempty filters and ideals, each as a frozenset of names.

    In a finite lattice every filter/ideal is principal, so both lists have
    exactly |L| entries, sorted by generator index.
    """
    filters = [frozenset(L.name(b) for b in L.up(a)) for a in range(L.n)]
    ideals = [frozenset(L.name(b) for b in L.down(a)) for a in range(L.n)]
    return filters, ideals


def pairwise_closure(base, *ops) -> frozenset:
    """Close a set under commutative binary operations: add op(a, b) for
    every pair of members and every op until nothing new appears."""
    out = set(base)
    todo = list(out)
    while todo:
        a = todo.pop()
        for b in list(out):
            for op in ops:
                c = op(a, b)
                if c not in out:
                    out.add(c)
                    todo.append(c)
    return frozenset(out)


def check_dense(emb: LatticeEmbedding) -> CheckReport:
    """Density of a completion: every target element is a join of meets and
    a meet of joins of image elements."""
    C = emb.target

    def meets(base):  # the empty meet, top, included
        return pairwise_closure(base | {C.top}, lambda a, b: C.meet[a][b])

    def joins(base):
        return pairwise_closure(base | {C.bot}, lambda a, b: C.join[a][b])

    joins_of_meets = joins(meets(emb.image()))
    meets_of_joins = meets(joins(emb.image()))
    bad = [Witness("dense", (C.name(c),)) for c in range(C.n)
           if c not in joins_of_meets or c not in meets_of_joins]
    return CheckReport.ok() if not bad else CheckReport.fail(bad)


def check_compact(emb: LatticeEmbedding) -> CheckReport:
    """Compactness of a completion.

    For finite structures this is degenerate: any witnessing A, B are
    themselves finite, so A' = A, B' = B always works and the verdict is
    true without a search.
    """
    return CheckReport.ok()


def is_distributive(L: FiniteLattice) -> CheckReport:
    """Distributivity by exhaustive triple sweep, first witness reported."""
    for a in range(L.n):
        for b in range(L.n):
            for c in range(L.n):
                lhs = L.meet[a][L.join[b][c]]
                rhs = L.join[L.meet[a][b]][L.meet[a][c]]
                if lhs != rhs:
                    w = Witness("distributive",
                                (L.name(a), L.name(b), L.name(c)))
                    return CheckReport.fail([w])
    return CheckReport.ok()


def lattice_iso(L1: FiniteLattice, L2: FiniteLattice) -> Optional[dict]:
    """An order isomorphism L1 -> L2 as a name map, or None.

    Order isomorphisms of lattices are lattice isomorphisms, so matching the
    full leq relations suffices.  Backtracking with up/down-set size pruning.
    """
    if L1.n != L2.n:
        return None
    n = L1.n

    prof1, prof2 = ([(len(L.up(a)), len(L.down(a))) for a in range(n)]
                    for L in (L1, L2))
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
            ok = all(((a, a2) in L1.leq) == ((b, b2) in L2.leq)
                     and ((a2, a) in L1.leq) == ((b2, b) in L2.leq)
                     for a2, b2 in assign.items())
            if ok:
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
