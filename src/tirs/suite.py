"""Batch invariant battery over fixtures plus a generated corpus.

Each task returns (ok, detail).  The runner evaluates every task and
reports one line per task in fixed name order; the overall verdict is the
conjunction.  TIRS_SUITE_MAXSIZE bounds the sweep sizes (default 6).  The
lattices are the fixtures, every class of 2-5 elements (_every, built once
per process) and three seeded draws per size from 6 up: 9/17/23 at 4/6/8.
"""

from __future__ import annotations

import functools
import itertools
import os
import random

from . import fixtures
from .galois import (canext_polarity, canext_tandem, closed_sets, closure,
                     cross_check_extensions, galois_down, galois_up,
                     irreducibles_of_galois, jinfty_via_maximal_pairs)
from .generators import GenSpec, gen_poset, generate, random_monotone_map
from .functors import (GraphMorphism, alpha, beta, compose_frame,
                       compose_graph, check_naturality,
                       identity_graph_morphism, rho, rho_mor, gr_mor,
                       validate_graph_morphism)
from .lattice import (LatticeEmbedding, check_dense, filters_ideals,
                      irreducibles, is_distributive, lattice_iso)
from .ploscica import dual_graph
from .pti import _bridge, check_pti, check_pti_frame_form
from .structures import check_frame, check_graph, h_set, is_poset_graph


def _maxsize() -> int:
    return int(os.environ.get("TIRS_SUITE_MAXSIZE", "6"))


def _corpus_lattices(seed):
    return _lattices(seed, _maxsize())


def _corpus_frames(seed):
    return _frames(seed, _maxsize())


# Each corpus is built once per (seed, max size) and shared by the tasks;
# only the most recent one is kept.
@functools.lru_cache(maxsize=1)
def _lattices(seed, maxsize):
    lats = list(fixtures.all_lattices().values())
    for size in range(2, min(maxsize, 5) + 1):
        lats += _every("lattice", size)
    rng = random.Random(seed)
    for size in range(6, maxsize + 1):
        lats += generate(GenSpec("lattice", size, rng.randrange(2**32),
                                 count=3))
    return tuple(lats)


@functools.cache
def _every(kind, size):
    """Every class of a kind and size, generated once per process."""
    return tuple(generate(GenSpec(kind, size, exhaustive=True)))


@functools.lru_cache(maxsize=1)
def _frames(seed, maxsize):
    frames = [fixtures.diagonal_frame(), fixtures.ladder_truncation(3)]
    frames += [rho(dual_graph(L)) for L in _lattices(seed, maxsize)]
    frames += _every("rs-frame", 3)
    # RS without the (Ti) scan: (R) fails wherever (S) does
    return tuple(f for f in frames if not (f.table.r1 or f.table.r2))


def task_lattice_laws(seed):
    for L in _corpus_lattices(seed):
        for a in range(L.n):
            for b in range(L.n):
                coherent = (L.le(a, b) == (L.join[a][b] == b)
                            == (L.meet[a][b] == a))
                if not coherent:
                    return False, f"coherence fails at {L.name(a)},{L.name(b)}"
                if L.join[a][b] != L.join[b][a] or L.meet[a][b] != L.meet[b][a]:
                    return False, "commutativity fails"
                if L.join[a][L.meet[a][b]] != a or L.meet[a][L.join[a][b]] != a:
                    return False, "absorption fails"
                for c in range(L.n):
                    if L.join[L.join[a][b]][c] != L.join[a][L.join[b][c]]:
                        return False, "join associativity fails"
                    if L.meet[L.meet[a][b]][c] != L.meet[a][L.meet[b][c]]:
                        return False, "meet associativity fails"
            if L.join[a][a] != a or L.meet[a][a] != a:
                return False, "idempotence fails"
        fs, ideals = filters_ideals(L)
        if len(fs) != L.n or len(ideals) != L.n:
            return False, f"filter/ideal count is not |L| on {L.elements}"
        ident = LatticeEmbedding(L, L, tuple(range(L.n)))
        if not check_dense(ident):
            return False, "identity embedding not dense+compact"
    return True, "tables, filters/ideals and identity completions"


def task_dual_tirs(seed):
    for L in _corpus_lattices(seed):
        rep = check_graph(dual_graph(L))
        if not rep.is_tirs:
            return False, f"dual of {L.elements} is not TiRS"
    return True, "dual graphs pass reflexive+(S)+(R)+(Ti)"


def task_birkhoff(seed):
    for L in filter(is_distributive, _corpus_lattices(seed)):
        g = dual_graph(L)
        if not is_poset_graph(g):
            return False, "distributive dual is not a poset graph"
        j, _ = irreducibles(L)
        if len(g.vertices) != len(j):
            return False, "vertex count differs from join-irreducibles"
    return True, "distributive duals are posets sized by irreducibles"


def task_poset_graphs(seed):
    rng = random.Random(seed)
    for size in range(1, min(_maxsize(), 8) + 1):
        for g in gen_poset(GenSpec("poset", size, rng.randrange(2**32),
                                   count=4)):
            if not check_graph(g).is_tirs:
                return False, f"poset on {len(g.vertices)} points not TiRS"
    return True, "every generated poset is a TiRS graph"


def task_frame_conditions(seed):
    nt4 = check_graph(fixtures.nt4())
    if nt4.condTi or not (nt4.reflexive and nt4.condS and nt4.condR):
        return False, "NT4 should be reflexive RS but fail (Ti)"
    f2 = check_frame(fixtures.f2x1())
    if f2.condS or f2.condTi:
        return False, "F2x1 should fail (S) and (Ti)"
    lad = check_frame(fixtures.ladder_truncation(3))
    if not (lad.is_rs and lad.condTi):
        return False, "ladder truncation should pass RS and (Ti)"
    for f in _every("rs-frame", 3):
        if not check_frame(f).condTi:
            return False, "a finite 3x3 RS frame fails (Ti)"
    return True, "NT4/F2x1 negatives and finite RS-implies-Ti"


def task_roundtrips(seed):
    for L in _corpus_lattices(seed):
        alpha(dual_graph(L))  # raises unless verified isomorphism
    for f in _corpus_frames(seed):
        rep = check_frame(f)
        if rep.is_tirs:
            beta(f)
    return True, "alpha and beta verify on the corpus"


def task_h_characterization(seed):
    for L in _corpus_lattices(seed):
        g = dual_graph(L)
        f = rho(g)
        cls1, cls2 = f.meta["class1"], f.meta["class2"]
        expect = {(cls1[x], cls2[x]) for x in g.vertices}
        if set(h_set(f)) != expect:
            return False, f"H-set mismatch on dual of {L.elements}"
    return True, "H of rho(g) is exactly the class pairs of g"


def _monotone_morphisms(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        np_, nq = rng.randrange(1, 6), rng.randrange(1, 6)
        p = gen_poset(GenSpec("poset", np_, rng.randrange(2**32)))[0]
        q = gen_poset(GenSpec("poset", nq, rng.randrange(2**32)))[0]
        yield GraphMorphism(p, q, random_monotone_map(p, q, rng))


def task_functor_laws(seed):
    for m in _monotone_morphisms(seed, 20):
        if not validate_graph_morphism(m):
            return False, "monotone poset map fails morphism clauses"
        if not check_naturality(m):
            return False, "naturality square fails"
        ident = identity_graph_morphism(m.source)
        r_id = rho_mor(ident)
        if r_id.map1 != {x: x for x in r_id.source.x1} or \
                r_id.map2 != {y: y for y in r_id.source.x2}:
            return False, "rho does not preserve identities"
        g_id = gr_mor(r_id)
        if g_id.map != {v: v for v in g_id.source.vertices}:
            return False, "gr does not preserve identities"
    rng = random.Random(seed + 1)
    for _ in range(10):
        p = gen_poset(GenSpec("poset", 4, rng.randrange(2**32)))[0]
        q = gen_poset(GenSpec("poset", 3, rng.randrange(2**32)))[0]
        r = gen_poset(GenSpec("poset", 3, rng.randrange(2**32)))[0]
        g1 = GraphMorphism(p, q, random_monotone_map(p, q, rng))
        g2 = GraphMorphism(q, r, random_monotone_map(q, r, rng))
        lhs = rho_mor(compose_graph(g2, g1))
        rhs = compose_frame(rho_mor(g2), rho_mor(g1))
        if lhs.map1 != rhs.map1 or lhs.map2 != rhs.map2:
            return False, "rho does not preserve composition"
        glhs = gr_mor(lhs)
        grhs = compose_graph(gr_mor(rho_mor(g2)), gr_mor(rho_mor(g1)))
        if glhs.map != grhs.map:
            return False, "gr does not preserve composition"
    return True, "identity/composition laws and naturality"


def _subsets(xs):
    xs = list(xs)
    for k in range(len(xs) + 1):
        yield from itertools.combinations(xs, k)


def task_galois_laws(seed):
    for f in _corpus_frames(seed):
        small = len(f.x1) <= 4 and len(f.x2) <= 4
        a_pool = list(_subsets(f.x1)) if small else [(), tuple(f.x1[:1]),
                                                     tuple(f.x1)]
        b_pool = list(_subsets(f.x2)) if small else [(), tuple(f.x2[:1]),
                                                     tuple(f.x2)]
        ups = [galois_up(f, A) for A in a_pool]
        downs = [galois_down(f, B) for B in b_pool]
        for A, up in zip(a_pool, ups):
            if galois_up(f, galois_down(f, up)) != up:
                return False, "R-up closure law fails"
            for B, down in zip(b_pool, downs):
                if (frozenset(A) <= down) != (frozenset(B) <= up):
                    return False, "adjunction fails"
        for down in downs:
            if galois_down(f, galois_up(f, down)) != down:
                return False, "R-down closure law fails"
        # row/column translation law
        closures = [closure(f, {x}) for x in f.x1]
        for x, cx in zip(f.x1, closures):
            for w, cw in zip(f.x1, closures):
                if (w in cx) != (f.row(x) <= f.row(w)):
                    return False, "upset law (i) fails"
                if (cw <= cx) != (f.row(x) <= f.row(w)):
                    return False, "upset law (ii) fails"
            for y in f.x2:
                if (cx <= f.col(y)) != f.has(x, y):
                    return False, "upset law (iii) fails"
    return True, "adjunction, closure laws and the row/column law"


def task_canext_cross(seed):
    for L in _corpus_lattices(seed):
        emb_t, gl_t = canext_tandem(L)
        emb_p, _ = canext_polarity(L)
        if not cross_check_extensions(emb_t, emb_p)[0]:
            return False, f"cross-construction mismatch on {L.elements}"
        if lattice_iso(gl_t.as_lattice, L) is None:
            return False, "tandem extension not isomorphic to the lattice"
    return True, "tandem and polarity extensions agree and equal L"


def task_irreducibles(seed):
    for L in _corpus_lattices(seed):
        emb, gl = canext_tandem(L)
        irreducibles_of_galois(gl)  # raises on mismatch
        if not jinfty_via_maximal_pairs(emb):
            return False, f"maximal-pair irreducibles fail on {L.elements}"
    for f in _corpus_frames(seed):
        irreducibles_of_galois(closed_sets(f))
    return True, "irreducible formulas agree with independent computation"


def task_pti(seed):
    for L in _corpus_lattices(seed):
        rep, _ = check_pti(L)
        if not rep:
            return False, f"finite lattice {L.elements} fails PTi"
    for f in _corpus_frames(seed):
        bridge, lattice_form = _bridge(f)
        if not bridge:
            return False, "bridge suite fails"
        if bool(check_pti_frame_form(f)) != bool(lattice_form):
            return False, "frame/lattice PTi forms disagree"
    if check_pti_frame_form(fixtures.f2x1()):
        return False, "F2x1 should fail the frame PTi form"
    return True, "PTi universality, bridge implications and form agreement"


def task_serialization(seed):
    import json

    from .io import dump_structure, parse_structure

    l5 = fixtures.n5()
    for obj in (l5, dual_graph(l5), rho(dual_graph(l5))):
        back = parse_structure(json.loads(dump_structure(obj)))
        if back.to_json() != obj.to_json():
            return False, f"round trip differs for {type(obj).__name__}"
    return True, "parse/serialize identity on canonical files"


TASKS = {
    "birkhoff-specialization": task_birkhoff,
    "canonical-extension-cross-check": task_canext_cross,
    "dual-graphs-are-tirs": task_dual_tirs,
    "frame-and-graph-conditions": task_frame_conditions,
    "functor-laws": task_functor_laws,
    "galois-laws": task_galois_laws,
    "h-set-characterization": task_h_characterization,
    "irreducibles-formulas": task_irreducibles,
    "lattice-laws": task_lattice_laws,
    "poset-graphs-are-tirs": task_poset_graphs,
    "pti-condition": task_pti,
    "roundtrip-isomorphisms": task_roundtrips,
    "serialization-roundtrip": task_serialization,
}


def run_suite(seed: int = 0):
    """Run every task; returns a list of (name, ok, detail) sorted by task
    name (independent of any scheduling)."""
    results = []
    for name in sorted(TASKS):
        try:
            ok, detail = TASKS[name](seed)
        except Exception as exc:  # a crash is a failure with the message
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
