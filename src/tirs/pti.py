"""The PTi condition on finite perfect lattices, its frame-level form, and
the bridge suite tying the two together through the closed-set lattice.

PTi asks that every disjoint pair (up x, down y) generated by a
join-irreducible x and a meet-irreducible y extends to a maximal disjoint
pair (up w, down z) with w join-irreducible and z meet-irreducible.  The
maximality clauses quantify over irreducibles only:

  (i)   w <= x and y <= z
  (ii)  w is not below z
  (iii) every join-irreducible u < w lies below z
  (iv)  every meet-irreducible v > z lies above w

Clause (iv) is stated here with the witness z, matching the frame-level
form (strict column inclusion from Rz) via the row/column translation
lemma; stating it from y instead would make even 5-element lattices fail
while their frames satisfy (Ti).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import NotPerfect, NotRS
from .lattice import CheckReport, FiniteLattice, Witness, bits
from .structures import Frame, _collect, check_frame, subset, ti_failures
from .galois import check_perfect, closed_sets, frame_of_perfect
from .functors import frame_iso


@dataclass(frozen=True)
class PTiWitness:
    x: str
    y: str
    w: Optional[str]
    z: Optional[str]
    status: str  # "satisfied" or "unsatisfiable-pair"


def _pti_pairs(C: FiniteLattice, all_witnesses: bool):
    ups, downs = C.ups, C.downs
    jmask, mmask = C.irreducible_masks
    # clause (iii) asks below_w[w] inside down(z), clause (iv) above_z[z]
    # inside up(w)
    below_w = {w: downs[w] & jmask & ~(1 << w) for w in bits(jmask)}
    above_z = {z: ups[z] & mmask & ~(1 << z) for z in bits(mmask)}
    witnesses = []
    failures = []
    for x in bits(jmask):
        for y in bits(mmask & ~ups[x]):
            found = next(((w, z) for w in bits(downs[x] & jmask)
                          for z in bits(ups[y] & mmask & ~ups[w])
                          if subset(below_w[w], downs[z])
                          and subset(above_z[z], ups[w])), None)
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
    return CheckReport.ok() if not bad else CheckReport.fail(bad)
