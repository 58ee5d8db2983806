"""The mask kernels of structures and functors against the set-based
checkers in oracles.py: same verdicts, same witnesses in the same order,
same frames and the same isomorphisms."""

import random

import pytest

from tirs.functors import (FrameMorphism, GraphMorphism, frame_iso,
                           graph_iso, h_set, rho, validate_frame_morphism,
                           validate_graph_morphism)
from tirs.generators import GenSpec, gen_lattice
from tirs.lattice import build_lattice
from tirs.ploscica import dual_graph
from tirs.pti import check_pti_frame_form
from tirs.structures import Frame, Graph, check_frame, check_graph, \
    is_poset_graph

from oracles import (all_frames, all_graphs, set_check_frame,
                     set_check_graph, set_frame_iso, set_graph_iso,
                     set_h_set, set_is_poset_graph, set_rho,
                     set_ti_failures, set_validate_frame_morphism,
                     set_validate_graph_morphism)


def m_n(n):
    atoms = [f"a{i}" for i in range(n)]
    return build_lattice(["0", *atoms, "1"],
                         [("0", a) for a in atoms] + [(a, "1") for a in atoms])


def small_graphs():
    """All relations on 1-3 vertices and all reflexive ones on 4."""
    for n in (1, 2, 3):
        yield from all_graphs(n)
    yield from all_graphs(4, reflexive_only=True)


def dual_graphs():
    lats = [m_n(n) for n in range(3, 7)]
    for size in range(3, 9):
        lats += gen_lattice(GenSpec("lattice", size, seed=size, count=3))
    return [dual_graph(L) for L in lats]


GRAPHS = {"small": small_graphs, "dual": dual_graphs}
SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)]


def relabelled(g: Graph, rng) -> Graph:
    """g with its vertices renamed and listed in a shuffled order."""
    names = dict(zip(g.vertices, (f"w{i}" for i in
                                  rng.sample(range(len(g.vertices)),
                                             len(g.vertices)))))
    vs = list(names.values())
    rng.shuffle(vs)
    return Graph(tuple(vs), frozenset((names[a], names[b])
                                      for a, b in g.edges))


def shuffled(f: Frame, rng) -> Frame:
    x1, x2 = list(f.x1), list(f.x2)
    rng.shuffle(x1)
    rng.shuffle(x2)
    return Frame(tuple(x1), tuple(x2), f.r)


@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_check_graph_matches_the_set_checker(family):
    for g in GRAPHS[family]():
        assert check_graph(g, True) == set_check_graph(g, True)
        assert check_graph(g) == set_check_graph(g)
        assert is_poset_graph(g, True) == set_is_poset_graph(g, True)


@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_rho_matches_the_set_rho(family):
    for g in GRAPHS[family]():
        f, want = rho(g), set_rho(g)
        assert (f.x1, f.x2, f.r) == (want.x1, want.x2, want.r)
        assert f.meta == want.meta
        assert list(f.meta["class1"]) == list(want.meta["class1"])


@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_graph_iso_matches_the_set_search(family):
    rng = random.Random(3)
    graphs = list(GRAPHS[family]())
    for g, other in zip(graphs, graphs[1:] + graphs[:1]):
        for h in (relabelled(g, rng), other):
            got, want = graph_iso(g, h), set_graph_iso(g, h)
            assert got == want
            assert list((got or {}).items()) == list((want or {}).items())


@pytest.mark.parametrize("n1,n2", SHAPES)
def test_frame_checkers_match_the_set_checkers(n1, n2):
    for f in all_frames(n1, n2):
        assert check_frame(f, True) == set_check_frame(f, True)
        assert check_frame(f) == set_check_frame(f)
        assert h_set(f) == set_h_set(f)
        assert [w.elements for w in check_pti_frame_form(f, True).witnesses] \
            == set_ti_failures(f)


@pytest.mark.parametrize("n1,n2", SHAPES)
def test_frame_iso_matches_the_set_search(n1, n2):
    rng = random.Random(n1 * 10 + n2)
    frames = list(all_frames(n1, n2))
    for f, other in zip(frames, frames[1:] + frames[:1]):
        for g in (shuffled(f, rng), other):
            got = frame_iso(f, g)
            assert got == set_frame_iso(f, g)


def test_graph_morphisms_match_the_set_validator():
    rng = random.Random(5)
    graphs = [g for n in (2, 3) for g in all_graphs(n)]
    for _ in range(600):
        g, h = rng.choice(graphs), rng.choice(graphs)
        m = GraphMorphism(g, h, {v: rng.choice(h.vertices)
                                 for v in g.vertices})
        assert validate_graph_morphism(m, True) == \
            set_validate_graph_morphism(m, True)


def test_frame_morphisms_match_the_set_validator():
    rng = random.Random(6)
    frames = [f for shape in SHAPES[:3] for f in all_frames(*shape)]
    for _ in range(600):
        f, g = rng.choice(frames), rng.choice(frames)
        m = FrameMorphism(f, g, {x: rng.choice(g.x1) for x in f.x1},
                          {y: rng.choice(g.x2) for y in f.x2})
        assert validate_frame_morphism(m, True) == \
            set_validate_frame_morphism(m, True)
