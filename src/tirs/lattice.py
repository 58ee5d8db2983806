"""Finite bounded lattices: construction from covers, tables, irreducibles,
filters/ideals, embeddings, density/compactness/distributivity checks.

Elements are referenced internally by index (input order); all public output
uses names, and no value changes after construction.  A lattice holds its
order once, as int bitmasks over element indices, on which the covers, the
irreducibles (a is join-irreducible iff down(a) minus a is a down-set: one
lookup each), maximal pairs and the iso search run; the order pairs and the
join/meet tables are views of those masks, built on first read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, wraps
from operator import itemgetter
from typing import NamedTuple, Optional

from .errors import InvalidInput, NoBounds, NotALattice, NotAPartialOrder


class Witness(NamedTuple):
    condition: str
    elements: tuple


@dataclass(frozen=True)
class CheckReport:
    verdict: bool
    witnesses: tuple[Witness, ...] = ()

    def __post_init__(self):
        if self.verdict != (not self.witnesses):
            raise ValueError("a report fails exactly when it has witnesses")

    def __bool__(self):
        return self.verdict

    @classmethod
    def ok(cls):
        return _OK

    @classmethod
    def fail(cls, witnesses):
        return cls(False, tuple(witnesses))

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "witnesses": [{"condition": w.condition,
                               "elements": list(w.elements)}
                              for w in self.witnesses]}


_OK = CheckReport(True)  # frozen, so every passing check can share it


@dataclass(frozen=True, init=False)
class FiniteLattice:
    """A finite bounded lattice held as the masks of its order: ups[a] has
    bit b set iff a <= b, and downs, set beside it with the indices bot
    and top, is the transpose.  FiniteLattice(elements, leq, join, meet,
    bot, top) scans the index pairs of an order on distinct names and checks
    the tables and bounds against it (a reflexive leq that is not transitive
    is refused with NotAPartialOrder or NotALattice, never built);
    FiniteLattice._from_masks(elements, ups) takes the masks.  The views leq
    (the pairs (a, b) with a <= b) and the join/meet tables, _index,
    irreducible_masks and maximal_masks are cached on first read."""

    elements: tuple[str, ...]
    ups: tuple[int, ...]

    def __init__(self, elements: tuple[str, ...],
                 leq: frozenset[tuple[int, int]],
                 join: tuple[tuple[int, ...], ...],
                 meet: tuple[tuple[int, ...], ...], bot: int, top: int):
        n = len(elements)
        if len(set(elements)) < n:
            raise InvalidInput("duplicate element names")
        if not all(0 <= i < n for pair in leq for i in pair):
            raise InvalidInput("a leq pair holds an index outside range(n)")
        vars(self).update(vars(_scan(elements, order_masks(n, leq))))
        for what, given in (("join", tuple(map(tuple, join))),
                            ("meet", tuple(map(tuple, meet))),
                            ("bot", bot), ("top", top)):
            if given != getattr(self, what):
                raise InvalidInput(f"the {what} given disagrees with leq")

    # a stringised "-> None" would read 'None' in the signature
    __init__.__annotations__["return"] = None

    @classmethod
    def _from_masks(cls, elements, ups) -> FiniteLattice:
        """bot or top is None if the order lacks it: _scan then raises,
        and no other caller passes such masks."""
        L, ups, full = object.__new__(cls), tuple(ups), (1 << len(ups)) - 1
        downs = _transpose(ups, len(ups))
        vars(L).update(elements=tuple(elements), ups=ups, downs=downs,
                       bot=ups.index(full) if full in ups else None,
                       top=downs.index(full) if full in downs else None)
        return L

    leq = cached_property(lambda L: frozenset(
        (a, b) for a, up in enumerate(L.ups) for b in bits(up)))
    join = cached_property(lambda L: _table(L.ups))
    meet = cached_property(lambda L: _table(L.downs))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.elements)}

    @cached_property
    def irreducible_masks(self) -> tuple[int, int]:
        """Masks of J and M: a is in J iff downs[a] ^ 1 << a is a down-mask."""
        return tuple(sum(1 << a for a, m in enumerate(ms) if m ^ 1 << a in k)
                     for ms in (self.downs, self.ups) for k in [set(ms)])

    @cached_property
    def maximal_masks(self) -> tuple[int, ...]:
        """Bit y of row x is set iff (up x, down y) is a maximal disjoint
        filter-ideal pair: x is minimal outside down y, and y maximal
        outside up x, so x is in J and y in M, the only pairs tried."""
        ups, downs, (js, ms) = self.ups, self.downs, self.irreducible_masks
        ys = list(bits(ms))
        return tuple(js >> x & 1 and sum(
            1 << y for y in ys if downs[x] & ~downs[y] == 1 << x
            and ups[y] & ~ups[x] == 1 << y) for x in range(self.n))

    # -- element access -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        return self._index[name]

    def name(self, i: int) -> str:
        return self.elements[i]

    def le(self, a: int, b: int) -> bool:
        return self.ups[a] >> b & 1 == 1

    def le_names(self, a: str, b: str) -> bool:
        return self.le(self.index(a), self.index(b))

    def up(self, a: int) -> frozenset[int]:
        """Principal filter of a (indices)."""
        return frozenset(bits(self.ups[a]))

    def down(self, a: int) -> frozenset[int]:
        """Principal ideal of a (indices)."""
        return frozenset(bits(self.downs[a]))

    def lower_covers(self, a: int) -> list[int]:
        # c < a is covered by a iff nothing else lies in the interval [c, a]
        down_a = self.downs[a]
        return [c for c in bits(down_a & ~(1 << a))
                if self.ups[c] & down_a == 1 << a | 1 << c]

    def upper_covers(self, a: int) -> list[int]:
        up_a = self.ups[a]
        return [c for c in bits(up_a & ~(1 << a))
                if up_a & self.downs[c] == 1 << a | 1 << c]

    def covers(self) -> list[tuple[int, int]]:
        """Strict cover pairs (a, b) with a covered by b."""
        return [(a, b) for b in range(self.n) for a in self.lower_covers(b)]

    def join_of(self, xs) -> int:
        """The element whose up-mask is the AND of those of xs."""
        return self.ups.index(_meet(self.ups, xs, self.n))

    def meet_of(self, xs) -> int:
        return self.downs.index(_meet(self.downs, xs, self.n))

    def to_json(self) -> dict:
        e = self.elements
        leq = [[e[a], b] for a, bs in _walk(self.ups, e, e, e) for b in bs]
        return {"elements": list(e),
                "covers": [[e[a], e[b]] for a, b in self.covers()], "leq": leq}


@dataclass(frozen=True)
class LatticeEmbedding:
    source: FiniteLattice
    target: FiniteLattice
    map: tuple[int, ...]  # source index -> target index

    def __post_init__(self):
        if len(self.map) != self.source.n or not all(
                t in range(self.target.n) for t in self.map):
            raise InvalidInput("an embedding maps each source index to a "
                               "target index")

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


def _memo(build):
    """build(x) on x alone, read as a cached_property of x: computed once,
    kept in vars(x) under build's name, which equality, hashing, repr and
    JSON ignore.  A call with a further argument runs build afresh.  No
    result may point back at x: refcounting frees the two together."""
    prop = cached_property(build)
    prop.__set_name__(None, build.__name__)
    return wraps(build)(lambda x, *args, **kwargs: build(x, *args, **kwargs)
                        if args or kwargs else prop.__get__(x))


def bits(mask: int):
    """The indices of the set bits of mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def order_masks(n: int, pairs) -> tuple[int, ...]:
    """The row masks of a relation on range(n): rows[a] has bit b set iff
    (a, b) is related."""
    rows = [0] * n
    for a, b in pairs:
        rows[a] |= 1 << b
    return tuple(rows)


def _transpose(rows, width: int) -> tuple[int, ...]:
    """The column masks of row masks over range(width): bit i of column j
    is bit j of rows[i].  A small table is walked bit by bit; a larger one
    is written as bit strings, lowest bit first, which zip transposes."""
    if len(rows) * width <= 64:
        cols = [0] * width
        for i, row in enumerate(rows):
            while row:  # bits() inlined
                low = row & -row
                cols[low.bit_length() - 1] |= 1 << i
                row ^= low
        return tuple(cols)
    digits = [format(row, f"0{width}b")[::-1] for row in rows]
    return tuple(int("".join(col)[::-1], 2) for col in zip(*digits))


def _walk(rows, names1, names2, cols):
    """Yield (i, picked) per non-empty rows[i] in the order of names1, picked
    giving cols[j] per set bit j in the order of names2: sorted pair order."""
    rank = sorted(range(len(names2)), key=names2.__getitem__)
    # bit j is byte len - 1 - j of a row's bit string; index 0 keeps a tuple
    pick = itemgetter(*[len(rank) - 1 - j for j in rank], 0)
    cols, digits = [cols[j] for j in rank], bytes.maketrans(b"01", b"\0\1")
    for i in sorted(range(len(names1)), key=names1.__getitem__):
        if rows[i]:
            yield i, itertools.compress(cols, pick(format(
                rows[i], f"0{len(rank)}b").encode().translate(digits)))


def _meet(masks, members, width: int) -> int:
    """The AND of masks[i] over the indices i in members, starting from
    the full mask of the given width."""
    out = (1 << width) - 1
    for i in members:
        out &= masks[i]
    return out


def _table(masks) -> tuple[tuple[int, ...], ...]:
    """join (meet) [a][b] is the element whose up (down) mask is the AND
    of the masks of a and b."""
    at = {m: c for c, m in enumerate(masks)}
    return tuple(tuple([at[m & k] for k in masks]) for m in masks)


def mask_iso(rows1, cols1, rows2, cols2) -> Optional[dict[int, int]]:
    """The first bijection a -> b, found by backtracking, under which
    rows1/cols1 and rows2/cols2 agree on the indices assigned so far, or
    None.  Candidates are pruned by (row size, column size, diagonal bit)
    and the indices with the fewest candidates are assigned first."""
    if len(rows1) != len(rows2):
        return None

    def profiles(rows, cols):
        return [(r.bit_count(), c.bit_count(), r >> i & 1)
                for i, (r, c) in enumerate(zip(rows, cols))]

    prof2 = profiles(rows2, cols2)
    cands = [[b for b, q in enumerate(prof2) if q == p]
             for p in profiles(rows1, cols1)]
    order = sorted(range(len(cands)), key=lambda a: len(cands[a]))
    assign: dict[int, int] = {}
    used = set()

    def bt(k):
        if k == len(order):
            return True
        a = order[k]
        for b in cands[a]:
            if b in used:
                continue
            if all(rows1[a] >> a2 & 1 == rows2[b] >> b2 & 1
                   and cols1[a] >> a2 & 1 == cols2[b] >> b2 & 1
                   for a2, b2 in assign.items()):
                assign[a] = b
                used.add(b)
                if bt(k + 1):
                    return True
                del assign[a]
                used.discard(b)
        return False

    return assign if bt(0) else None


def _warshall(n: int, pairs) -> list[int]:
    """The row masks of the transitive closure of a relation on range(n)."""
    rows = list(order_masks(n, pairs))
    for k in range(n):
        bit, row_k = 1 << k, rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= row_k
    return rows


def lattice_from_leq(elements, leq_pairs) -> FiniteLattice:
    """Build a FiniteLattice from names and an already-closed order relation.

    ``leq_pairs`` are name pairs: a reflexive lattice order with bounds, or
    the matching error is raised.  A reflexive relation that is not
    transitive is never built: it raises NotAPartialOrder or NotALattice.
    """
    elements, rel = _index_pairs(elements, leq_pairs, "leq pair")
    return _scan(elements, order_masks(len(elements), rel))


def _index_pairs(elements, pairs, what: str):
    """The names as a tuple and the name pairs as index pairs; ValueError
    on a repeated name or a pair naming an unknown element."""
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise ValueError("duplicate element names")
    idx = {e: i for i, e in enumerate(elements)}
    try:
        return elements, {(idx[a], idx[b]) for a, b in pairs}
    except KeyError as exc:
        raise ValueError(f"{what} references unknown element {exc}") from exc


def build_lattice(elements, covers) -> FiniteLattice:
    """Build a FiniteLattice from element names and a cover relation.

    The full order is the reflexive-transitive closure of ``covers``.
    Raises NotAPartialOrder, NotALattice or NoBounds on bad input.
    """
    elements, pairs = _index_pairs(elements, covers, "cover")
    n = len(elements)
    return _scan(elements, _warshall(n, pairs | {(i, i) for i in range(n)}))


def _scan(elements, ups) -> FiniteLattice:
    """The lattice of a transitive relation given as row masks: a and b
    have a join iff ups[a] & ups[b] is an up-mask, and a meet iff
    downs[a] & downs[b] is a down-mask.  Errors name the lowest cycle pair,
    the first pair in scan order lacking a join or a meet (join first), or,
    checked last, the first element whose row lacks its own bit."""
    L = FiniteLattice._from_masks(elements, ups)
    ups, downs, n = L.ups, L.downs, L.n
    for a in range(n):
        cyc = ups[a] & downs[a] & ~(1 << a)
        if cyc:
            raise NotAPartialOrder((L.name(a), L.name(next(bits(cyc)))))
    if n == 0:
        raise NoBounds("empty carrier")

    # a pair lacking a join or meet is found with its mirror image, so the
    # first failure of the full scan lies at or above the diagonal
    up_set, down_set = set(ups), set(downs)
    for a in range(n):
        for b in range(a, n):
            if ups[a] & ups[b] not in up_set:
                raise NotALattice((L.name(a), L.name(b)), "join")
            if downs[a] & downs[b] not in down_set:
                raise NotALattice((L.name(a), L.name(b)), "meet")
    if L.bot is None or L.top is None:
        raise NoBounds("missing bottom or top")
    for a in range(n):
        if not ups[a] >> a & 1:
            raise InvalidInput(f"leq is not reflexive at {L.name(a)}")
    return L


def irreducibles(L: FiniteLattice) -> tuple[frozenset[str], frozenset[str]]:
    """Join- and meet-irreducibles as name sets.  In a finite lattice these
    coincide with the completely irreducible elements."""
    return tuple(frozenset(map(L.name, bits(m))) for m in L.irreducible_masks)


def filters_ideals(L: FiniteLattice):
    """All nonempty filters and ideals, each as a frozenset of names.

    In a finite lattice every filter/ideal is principal, so both lists have
    exactly |L| entries, sorted by generator index.
    """
    filters = [frozenset(L.name(b) for b in L.up(a)) for a in range(L.n)]
    ideals = [frozenset(L.name(b) for b in L.down(a)) for a in range(L.n)]
    return filters, ideals


def closed_under(op, base, limit=None) -> frozenset:
    """Close base under an associative, commutative, idempotent op, one
    member at a time: each joins the family with op of it and every member
    so far.  Cut short once there are more than limit members."""
    out = set()
    for g in base:
        if limit is not None and len(out) > limit:
            break
        out |= {op(s, g) for s in out}
        out.add(g)
    return frozenset(out)


def check_dense(emb: LatticeEmbedding) -> CheckReport:
    """Density of a completion: every target element is a join of meets and
    a meet of joins of image elements."""
    C = emb.target

    def meets(base):  # the empty meet, top, included
        return closed_under(lambda a, b: C.meet[a][b], base | {C.top})

    def joins(base):
        return closed_under(lambda a, b: C.join[a][b], base | {C.bot})

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
    assign = mask_iso(L1.ups, L1.downs, L2.ups, L2.downs)
    return None if assign is None else \
        {L1.name(a): L2.name(b) for a, b in assign.items()}
