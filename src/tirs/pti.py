"""The PTi condition on finite perfect lattices, its frame-level form, and
the bridge suite tying the two together through the closed-set lattice.

PTi asks that every pair (x, y) of a join-irreducible x and a
meet-irreducible y with x not below y lies below a maximal disjoint pair
(up w, down z), bit z of maximal_masks[w]: w <= x and y <= z.  Such w and z
are irreducible (FiniteLattice.maximal_masks); as every element is a join
of join-irreducibles and a meet of meet-irreducibles, maximality over the
irreducibles is maximality over all elements.  above[y] masks the w of the
pairs with z >= y: the witness is the lowest w in down x & above[y], then
the lowest z >= y in w's row.  PTi asks every v > z, not every v > y, to
lie above w, as the frame form does via the row/column translation lemma;
asked from y, 5-element lattices would fail while their frames hold (Ti).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import NotPerfect, NotRS
from .lattice import CheckReport, FiniteLattice, Witness, bits
from .structures import Frame, _collect, check_frame, ti_failures
from .galois import check_perfect, closed_sets, frame_of_perfect
from .functors import frame_iso
from .ploscica import _generators


@dataclass(frozen=True)
class PTiWitness:
    x: str
    y: str
    w: Optional[str]
    z: Optional[str]
    status: str  # "satisfied" or "unsatisfiable-pair"


def _pti_pairs(C: FiniteLattice, all_witnesses: bool):
    # maximal[w] masks the z of the maximal pairs (up w, down z)
    ups, downs, maximal = C.ups, C.downs, C.maximal_masks
    jmask, mmask = C.irreducible_masks
    above = [0] * C.n
    for w, z in _generators(C):
        for y in bits(downs[z] & mmask):
            above[y] |= 1 << w
    witnesses, failures = [], []
    for x in bits(jmask):
        for y in bits(mmask & ~ups[x]):
            if ws := downs[x] & above[y]:  # the lowest w, then its lowest z
                w = next(bits(ws))
                z = next(bits(ups[y] & maximal[w]))
                witnesses.append(PTiWitness(C.name(x), C.name(y), C.name(w),
                                            C.name(z), "satisfied"))
            else:
                witnesses.append(PTiWitness(C.name(x), C.name(y), None, None,
                                            "unsatisfiable-pair"))
                failures.append(Witness("PTi", (C.name(x), C.name(y))))
                if not all_witnesses:
                    return witnesses, failures
    return witnesses, failures


def check_pti(C: FiniteLattice, all_witnesses: bool = False):
    """PTi check on a finite perfect lattice.

    Returns (CheckReport, list of PTiWitness); the witness list records the
    chosen (w, z) for every irreducible pair with x not below y.
    """
    perf = check_perfect(C)
    if not perf:
        raise NotPerfect(perf.witnesses[0].elements[0])
    witnesses, failures = _pti_pairs(C, all_witnesses)
    rep = CheckReport.ok() if not failures else CheckReport.fail(failures)
    return rep, witnesses


def check_pti_frame_form(f: Frame, all_witnesses: bool = False) -> CheckReport:
    """The frame-level PTi form: every non-related (x, y) lies below a
    maximal non-related pair (p, q), that is x's row lies inside p's row
    and y's column inside q's column.  This is (Ti) itself, reported under
    the label "PTi-frame".

    Maximality quantifies over points distinct from the witness with
    containing (not necessarily strictly larger) rows/columns; on RS
    frames, where rows and columns are separated, this coincides with the
    strict-inclusion phrasing and keeps non-separated frames such as F2x1
    honest about their maximal-extension failure."""
    return _collect((Witness("PTi-frame", p) for p in ti_failures(f)),
                    all_witnesses)


def pti_bridge_suite(f: Frame) -> CheckReport:
    """Instance-level bridge between the frame and lattice forms on an RS
    frame f, with lattice C = closed-set lattice of f:

      (a) if f satisfies (Ti) then C satisfies PTi;
      (b) if C satisfies PTi then the frame of C satisfies (Ti);
      (c) the frame of C is isomorphic to f.

    Implications are evaluated as material conditionals per instance.
    """
    return _bridge(f)[0]


def _bridge(f: Frame) -> tuple[CheckReport, CheckReport]:
    """pti_bridge_suite(f), and the PTi report of f's closed-set lattice."""
    rep = check_frame(f)
    if not rep.is_rs:
        failing = rep.condS if not rep.condS else rep.condR
        raise NotRS("S" if not rep.condS else "R", failing.witnesses)

    gl = closed_sets(f)
    pti_rep, _ = check_pti(gl.as_lattice)
    frame_back = frame_of_perfect(gl.as_lattice)
    bad = []
    if rep.condTi and not pti_rep:
        bad.append(Witness("Ti-implies-PTi", pti_rep.witnesses[0].elements))
    back_rep = check_frame(frame_back)
    if pti_rep and not back_rep.condTi:
        bad.append(Witness("PTi-implies-Ti",
                           back_rep.condTi.witnesses[0].elements))
    if frame_iso(frame_back, f) is None:
        bad.append(Witness("frame-roundtrip", ()))
    return CheckReport.ok() if not bad else CheckReport.fail(bad), pti_rep
