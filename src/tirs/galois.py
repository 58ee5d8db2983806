"""Galois connections from polarities, closed-set lattices, the frame of a
perfect lattice, and the two canonical-extension constructions.

closed sets are generated as the intersection closure of the column extents
plus the full first carrier, on the frame's column masks.  The computed
canonical extensions are verified to be onto lattice embeddings; density
follows from onto and compactness from finiteness, so neither is checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (EmbeddingNotOnto, InvalidInput, IrreducibleMismatch,
                     NotPerfect)
from .lattice import (CheckReport, FiniteLattice, LatticeEmbedding, Witness,
                      _meet, _memo, bits, closed_under, irreducibles)
from .ploscica import _generators, dual_graph
from .structures import Frame, _names, _supersets
from .functors import _permutes, rho


def _indices(index, points, sort: str) -> list[int]:
    try:
        return [index[p] for p in points]
    except KeyError as exc:
        raise InvalidInput(f"{exc.args[0]!r} is not in {sort}") from None


def galois_up(f: Frame, A) -> frozenset[str]:
    """R-up: the second-sort points related to every member of A."""
    return _names(_meet(f.rows, _indices(f.index1, A, "x1"), len(f.x2)), f.x2)


def galois_down(f: Frame, B) -> frozenset[str]:
    """R-down: the first-sort points related to every member of B."""
    return _names(_meet(f.cols, _indices(f.index2, B, "x2"), len(f.x1)), f.x1)


def _close(f: Frame, s: int) -> int:
    """The Galois closure of the X1 mask s."""
    return _meet(f.cols, bits(_meet(f.rows, bits(s), len(f.x2))), len(f.x1))


def closure(f: Frame, A) -> frozenset[str]:
    """(R-down o R-up)(A)."""
    return galois_down(f, galois_up(f, A))


def inclusion_lattice(masks, points):
    """A family of masks over points in (size, sorted members) order, their
    sets, and the lattice the sets form under inclusion with each named by
    its members.  The family is not scanned: a closure system (closed
    under intersection, with the full set) is a lattice, as is its dual."""
    rank = sorted(range(len(points)), key=points.__getitem__)
    members = {m: [points[i] for i in rank if m >> i & 1] for m in masks}
    masks = sorted(members, key=lambda m: (len(members[m]), members[m]))
    names, first = ["{" + ",".join(members[m]) + "}" for m in masks], {}
    sets = [frozenset(members[m]) for m in masks]
    for s, name in zip(sets, names):  # a "," in a point name can collide
        if first.setdefault(name, s) != s:
            raise InvalidInput(f"sets {sorted(first[name])} and {sorted(s)} "
                               f"are both named {name}")
    return masks, sets, FiniteLattice._from_masks(names, _supersets(masks))


@dataclass(frozen=True)
class GaloisLattice:
    base_frame: Frame
    closed_sets: tuple[frozenset[str], ...]
    as_lattice: FiniteLattice
    j_infty: frozenset[str]  # element names of the lattice view
    m_infty: frozenset[str]

    def to_json(self) -> dict:
        d = self.as_lattice.to_json()
        d["closed_sets"] = [sorted(s) for s in self.closed_sets]
        d["j_infty"] = sorted(self.j_infty)
        d["m_infty"] = sorted(self.m_infty)
        return d


def closed_sets(f: Frame) -> GaloisLattice:
    """The complete lattice of Galois-closed subsets of X1, ordered by
    inclusion.

    Generated as the intersection closure of the column extents together
    with the full carrier; each member is verified to be Galois-closed.
    Built on every call: its base_frame points back at f (lattice._memo).
    """
    family = closed_under(int.__and__, {(1 << len(f.x1)) - 1, *f.cols})
    for s in family:
        if _close(f, s) != s:
            raise AssertionError(f"generated set {sorted(_names(s, f.x1))} "
                                 f"is not closed")

    order, sets, lat = inclusion_lattice(family, f.x1)
    name = dict(zip(order, lat.elements))
    j = frozenset(name[_close(f, 1 << x)] for x in range(len(f.x1)))
    m = frozenset(map(name.__getitem__, f.cols))
    return GaloisLattice(f, tuple(sets), lat, j, m)


def irreducibles_of_galois(gl: GaloisLattice):
    """J/M-irreducibles by the closure/extent formulas, cross-checked
    against the irreducibles the lattice view finds from its own masks."""
    j, m = gl.j_infty, gl.m_infty
    j_ind, m_ind = irreducibles(gl.as_lattice)
    if j != j_ind or m != m_ind:
        raise IrreducibleMismatch(
            f"formula irreducibles {sorted(j)}/{sorted(m)} disagree with "
            f"lattice irreducibles {sorted(j_ind)}/{sorted(m_ind)}")
    return j, m


def _generation_failures(C: FiniteLattice):
    """("join", a) for each element a that is not the join of the
    join-irreducibles below it, and ("meet", a) dually, in index order."""
    jmask, mmask = C.irreducible_masks
    for a in range(C.n):
        if C.join_of(bits(C.downs[a] & jmask)) != a:
            yield "join", a
        if C.meet_of(bits(C.ups[a] & mmask)) != a:
            yield "meet", a


@_memo
def check_perfect(C: FiniteLattice) -> CheckReport:
    """Every element is a join of join-irreducibles and a meet of
    meet-irreducibles (automatic if finite, checked once per lattice)."""
    bad = [Witness(f"{kind}-of-irreducibles", (C.name(a),))
           for kind, a in _generation_failures(C)]
    return CheckReport.ok() if not bad else CheckReport.fail(bad)


def frame_of_perfect(C: FiniteLattice) -> Frame:
    """The frame (join-irreducibles, meet-irreducibles, order restricted)."""
    rep = check_perfect(C)
    if not rep:
        raise NotPerfect(rep.witnesses[0].elements[0])
    js, ms = (list(bits(m)) for m in C.irreducible_masks)
    return Frame._from_masks(tuple(map(C.name, js)), tuple(map(C.name, ms)),
                             [sum(1 << k for k, b in enumerate(ms)
                                  if C.ups[a] >> b & 1) for a in js])


def _extension(L: FiniteLattice, frame: Frame, images):
    """(embedding, GaloisLattice): the closed sets of frame, with each a in
    L sent to the closed set whose X1 mask is images[a], verified to be an
    onto embedding."""
    gl = closed_sets(frame)
    index = {sum(1 << frame.index1[p] for p in s): i
             for i, s in enumerate(gl.closed_sets)}
    emb_map = []
    for a, image in enumerate(images):
        if image not in index:
            raise AssertionError(f"image of {L.name(a)} is not a closed set")
        emb_map.append(index[image])
    emb = LatticeEmbedding(L, gl.as_lattice, tuple(emb_map))
    # a bijection that carries the order is a lattice isomorphism
    if _permutes(emb.map, L.ups, emb.target.ups):
        return emb, gl
    rep = emb.validate()
    if not rep:
        raise AssertionError(f"not an embedding: {rep.witnesses[0]}")
    if len(set(emb.map)) != emb.target.n:
        raise EmbeddingNotOnto(
            "a finite lattice is its own canonical extension")
    return emb, gl


def canext_tandem(L: FiniteLattice):
    """Canonical extension via the dual graph and the associated frame:
    G(rho(dual_graph(L))), with the embedding sending a to the set of row
    classes of maximal pairs whose filter part contains a.

    Returns (embedding, GaloisLattice).  The embedding is verified to be an
    onto bounded-lattice embedding; density follows from onto, and
    compactness holds in the finite case, so neither is checked.
    """
    g = dual_graph(L)
    f = rho(g)
    cls1 = f.meta["class1"]
    # g's vertices are the maximal pairs (up x, down y), in table order
    images = [0] * L.n
    for v, (x, _) in zip(g.vertices, _generators(L)):
        for a in bits(L.ups[x]):
            images[a] |= 1 << f.index1[cls1[v]]
    return _extension(L, f, images)


def canext_polarity(L: FiniteLattice):
    """Canonical extension via the filter/ideal polarity: stable sets of
    the frame (filters, ideals, nonempty intersection), represented by
    their filter-side projection.

    Returns (embedding, GaloisLattice over the polarity frame); as in
    canext_tandem, the embedding is verified onto, so it is dense.
    """
    # F_i is the filter up(i) and I_j the ideal down(j); the two meet,
    # up[i] & down[j] != 0, iff i <= j; so the closure of {F_a} is down(a)
    frame = Frame._from_masks(tuple(f"F{i}" for i in range(L.n)),
                              tuple(f"I{j}" for j in range(L.n)), L.ups)
    return _extension(L, frame, L.downs)


def cross_check_extensions(emb_t: LatticeEmbedding, emb_p: LatticeEmbedding):
    """Compare two canonical extensions of the same lattice, such as the
    tandem and polarity ones.  Returns (agree, iso): iso maps the polarity
    image of each element to its tandem image, and agree says that iso is
    a bijection on all of L that preserves and reflects the order."""
    T, P = emb_t.target, emb_p.target
    iso = {P.name(emb_p.apply(a)): T.name(emb_t.apply(a))
           for a in range(emb_t.source.n)}
    agree = len(set(iso.values())) == emb_t.source.n and all(
        P.le_names(a, b) == T.le_names(iso[a], iso[b])
        for a in iso for b in iso)
    return agree, iso


def jinfty_via_maximal_pairs(emb: LatticeEmbedding) -> CheckReport:
    """Check that meets over embedded maximal-pair filters give exactly the
    join-irreducibles of the target (dually for ideals and
    meet-irreducibles), and that irreducibles generate everything."""
    L, C = emb.source, emb.target
    j, m = irreducibles(C)
    meets, joins = set(), set()
    for x, row in enumerate(L.maximal_masks):
        for y in bits(row):
            meets.add(C.name(C.meet_of(map(emb.apply, bits(L.ups[x])))))
            joins.add(C.name(C.join_of(map(emb.apply, bits(L.downs[y])))))
    bad = []
    if meets != j:
        bad.append(Witness("jinfty", tuple(sorted(meets ^ j))))
    if joins != m:
        bad.append(Witness("minfty", tuple(sorted(joins ^ m))))
    bad += [Witness(f"{kind}-generation", (C.name(c),))
            for kind, c in _generation_failures(C)]
    return CheckReport.ok() if not bad else CheckReport.fail(bad)
