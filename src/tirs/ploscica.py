"""Maximal disjoint filter-ideal pairs and the dual graph of a lattice.

A maximal pair is a maximal partial homomorphism into the two-element
lattice: a filter F and an ideal I, disjoint, neither enlargeable without
breaking disjointness.  In a finite lattice all filters and ideals are
principal, so the pairs are the (x, y) of FiniteLattice.maximal_masks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateLattice, InvalidInput, MismatchedCarrier
from .lattice import FiniteLattice, _memo, bits
from .structures import Graph, _names


@dataclass(frozen=True)
class MaximalPair:
    """Maximal disjoint pair (up x, down y), stored by principal generators."""
    lattice: FiniteLattice
    x: int  # generator of the filter part
    y: int  # generator of the ideal part

    def __post_init__(self):
        n = range(self.lattice.n)
        if not (self.x in n and self.y in n
                and self.lattice.maximal_masks[self.x] >> self.y & 1):
            raise InvalidInput(f"({self.x}, {self.y}) does not generate a "
                               f"maximal pair")

    @property
    def ones(self) -> frozenset[int]:
        return self.lattice.up(self.x)

    @property
    def zeros(self) -> frozenset[int]:
        return self.lattice.down(self.y)

    def ones_names(self) -> list[str]:
        return sorted(self.lattice.name(a) for a in self.ones)

    def zeros_names(self) -> list[str]:
        return sorted(self.lattice.name(a) for a in self.zeros)


def maximal_pairs(L: FiniteLattice) -> list[MaximalPair]:
    """All maximal disjoint filter-ideal pairs, sorted by (x, y) index: the
    set bits of L.maximal_masks."""
    if L.n < 2:
        raise DegenerateLattice("need at least two elements")
    return [MaximalPair(L, x, y) for x, y in _generators(L)]


def _generators(L: FiniteLattice) -> list[tuple[int, int]]:
    """The (x, y) of the maximal pairs (up x, down y), sorted; none on one
    element."""
    return [(x, y) for x, row in enumerate(L.maximal_masks) for y in bits(row)]


def mph_leq(f: MaximalPair, g: MaximalPair) -> bool:
    """Partial-homomorphism order: f <= g iff ones(f) is contained in
    ones(g)."""
    if f.lattice is not g.lattice and f.lattice != g.lattice:
        raise MismatchedCarrier("pairs over different lattices")
    return not f.lattice.ups[f.x] & ~g.lattice.ups[g.x]


@_memo
def dual_graph(L: FiniteLattice) -> Graph:
    """The dual graph of L: vertices are maximal pairs (named p0, p1, ... in
    sorted generator order), with an edge (f, g) iff ones(f) and zeros(g)
    are disjoint, that is up(x_f) & down(y_g) is the empty mask.

    This empty-intersection form equals the pointwise order f(a) <= g(a)
    on the shared domain.  Built once per lattice (lattice._memo): every
    call on L returns the same graph, meta included, not to be mutated.
    """
    pairs = _generators(L)
    names = tuple(f"p{i}" for i in range(len(pairs)))
    # up(x_f) meets down(y_g) iff x_f <= y_g; at_y[y] masks the g with
    # y_g = y, so f's non-successors are the at_y[y] over the y above x_f
    at_y = [0] * L.n
    for j, (_, y) in enumerate(pairs):
        at_y[y] |= 1 << j
    full = (1 << len(pairs)) - 1
    xs, ys = {x for x, _ in pairs}, {y for _, y in pairs}
    rows = {x: full & ~sum(at_y[y] for y in bits(L.ups[x])) for x in xs}
    ones, zeros = ({a: sorted(_names(masks[a], L.elements)) for a in at}
                   for masks, at in ((L.ups, xs), (L.downs, ys)))
    meta = {name: {"ones": ones[x][:], "zeros": zeros[y][:]}
            for name, (x, y) in zip(names, pairs)}
    return Graph._from_masks(names, [rows[x] for x, _ in pairs], meta)
