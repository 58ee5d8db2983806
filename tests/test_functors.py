import random

import pytest

from tirs import fixtures, functors
from tirs.errors import NotTiRS
from tirs.functors import (FrameMorphism, GraphMorphism, alpha, beta,
                           check_naturality, compose_frame, compose_graph,
                           frame_iso, gr, gr_mor, graph_iso, h_set,
                           identity_frame_morphism, identity_graph_morphism,
                           rho, rho_mor, validate_frame_morphism,
                           validate_graph_morphism)
from tirs.generators import GenSpec, gen_poset, random_monotone_map
from tirs.ploscica import dual_graph
from tirs.structures import Frame, Graph, check_frame, check_graph


def loop_graph():
    return Graph(("v",), frozenset({("v", "v")}))


def empty_frame_1x1():
    return Frame(("x",), ("y",), frozenset())


class TestRho:
    def test_loop_graph(self):
        f = rho(loop_graph())
        assert len(f.x1) == len(f.x2) == 1
        assert f.r == frozenset()

    def test_dual_m3_collapses_to_diagonal(self):
        f = rho(dual_graph(fixtures.m3()))
        assert len(f.x1) == len(f.x2) == 3
        iso = frame_iso(f, fixtures.diagonal_frame())
        assert iso is not None

    def test_dual_n5_is_edge_complement(self):
        g = dual_graph(fixtures.n5())
        f = rho(g)
        # all rows and columns distinct, so classes are singletons
        assert set(f.x1) == set(f.x2) == set(g.vertices)
        assert f.r == frozenset({("p0", "p1"), ("p0", "p2"),
                                 ("p1", "p0"), ("p2", "p1")})

    def test_rho_of_tirs_is_tirs(self):
        for name, L in fixtures.all_lattices().items():
            assert check_frame(rho(dual_graph(L))).is_tirs, name


class TestGr:
    def test_1x1_empty(self):
        g = gr(empty_frame_1x1())
        assert g.vertices == ("(x,y)",)
        assert g.has("(x,y)", "(x,y)")

    def test_diagonal_gives_dual_m3(self):
        g = gr(fixtures.diagonal_frame())
        assert len(g.vertices) == 6
        pairs = {tuple(g.meta[v]["pair"]) for v in g.vertices}
        assert pairs == {(x, y) for x in "abc" for y in "abc" if x != y}
        for u in g.vertices:
            for v in g.vertices:
                x = g.meta[u]["pair"][0]
                z = g.meta[v]["pair"][1]
                assert g.has(u, v) == (x != z)
        assert graph_iso(g, dual_graph(fixtures.m3())) is not None

    def test_roundtrip_n5(self):
        g = dual_graph(fixtures.n5())
        back = gr(rho(g))
        assert graph_iso(g, back) is not None


class TestAlphaBeta:
    def test_alpha_loop(self):
        m = alpha(loop_graph())
        assert m.map == {"v": "(v,v)"}

    def test_alpha_dual_n5(self):
        g = dual_graph(fixtures.n5())
        m = alpha(g)
        assert len(set(m.map.values())) == 3
        for a in g.vertices:
            for b in g.vertices:
                assert g.has(a, b) == m.target.has(m.map[a], m.map[b])

    def test_alpha_rejects_non_tirs(self):
        with pytest.raises(NotTiRS) as exc:
            alpha(fixtures.nt4())
        assert exc.value.condition == "Ti"

    def test_beta_diagonal(self):
        m = beta(fixtures.diagonal_frame())
        f, g = m.source, m.target
        assert len(g.x1) == len(f.x1) == 3
        for x in f.x1:
            for y in f.x2:
                assert f.has(x, y) == g.has(m.map1[x], m.map2[y])

    def test_beta_rejects_non_tirs(self):
        with pytest.raises(NotTiRS):
            beta(fixtures.f2x1())


class TestIsoSearch:
    def test_identity_found(self):
        g = dual_graph(fixtures.n5())
        assert graph_iso(g, g) is not None

    def test_size_mismatch(self):
        assert graph_iso(dual_graph(fixtures.n5()),
                         dual_graph(fixtures.m3())) is None

    def test_non_isomorphic_same_size(self):
        g1 = Graph(("a", "b"), frozenset({("a", "a"), ("b", "b")}))
        g2 = Graph(("a", "b"),
                   frozenset({("a", "a"), ("b", "b"), ("a", "b")}))
        assert graph_iso(g1, g2) is None

    def test_frame_iso_respects_sorts(self):
        f1 = fixtures.diagonal_frame()
        f2 = fixtures.diagonal_frame(("u", "v", "w"))
        b1, b2 = frame_iso(f1, f2)
        assert all(f1.has(x, y) == f2.has(b1[x], b2[y])
                   for x in f1.x1 for y in f1.x2)

    def test_frame_iso_none(self):
        assert frame_iso(fixtures.diagonal_frame(), fixtures.f2x1()) is None


class TestHSet:
    def test_h_of_rho_is_class_pairs(self):
        for L in fixtures.all_lattices().values():
            g = dual_graph(L)
            f = rho(g)
            cls1, cls2 = f.meta["class1"], f.meta["class2"]
            assert set(h_set(f)) == {(cls1[x], cls2[x]) for x in g.vertices}


class TestMorphismValidation:
    def test_identity_valid(self):
        g = dual_graph(fixtures.n5())
        assert validate_graph_morphism(identity_graph_morphism(g))

    def test_constant_map_to_loop_valid(self):
        g = dual_graph(fixtures.n5())
        m = GraphMorphism(g, loop_graph(), {v: "v" for v in g.vertices})
        assert validate_graph_morphism(m)

    def test_monotone_iff_valid_on_posets(self):
        rng = random.Random(5)
        for _ in range(15):
            (p,) = gen_poset(GenSpec("poset", 4, rng.randrange(2**32)))
            (q,) = gen_poset(GenSpec("poset", 4, rng.randrange(2**32)))
            mapping = {v: rng.choice(q.vertices) for v in p.vertices}
            monotone = all(q.has(mapping[a], mapping[b])
                           for a, b in p.edges)
            m = GraphMorphism(p, q, mapping)
            rep = validate_graph_morphism(m)
            assert bool(rep) == monotone
            if not monotone and not rep:
                assert rep.witnesses[0].condition == "i"

    def test_identity_frame_morphism_valid(self):
        f = fixtures.diagonal_frame()
        assert validate_frame_morphism(identity_frame_morphism(f))

    def test_beta_is_a_valid_frame_morphism(self):
        for L in fixtures.all_lattices().values():
            f = rho(dual_graph(L))
            assert validate_frame_morphism(beta(f))

    def test_collapse_violating_reflection(self):
        # source: no relation at all; target relates the collapsed images
        src = Frame(("x", "x2"), ("y",), frozenset())
        tgt = Frame(("u",), ("v",), frozenset({("u", "v")}))
        m = FrameMorphism(src, tgt, {"x": "u", "x2": "u"}, {"y": "v"})
        rep = validate_frame_morphism(m)
        assert not rep
        assert rep.witnesses[0].condition == "i"


class TestFunctorAction:
    def test_rho_mor_identity(self):
        g = dual_graph(fixtures.n5())
        m = rho_mor(identity_graph_morphism(g))
        assert m.map1 == {x: x for x in m.source.x1}
        assert m.map2 == {y: y for y in m.source.x2}

    def test_rho_mor_constant(self):
        g = dual_graph(fixtures.n5())
        m = rho_mor(GraphMorphism(g, loop_graph(),
                                  {v: "v" for v in g.vertices}))
        assert set(m.map1.values()) == {"v"}
        assert validate_frame_morphism(m)

    def test_rho_mor_poset_surjection(self):
        c3 = Graph(("0", "m", "1"),
                   frozenset({("0", "0"), ("m", "m"), ("1", "1"),
                              ("0", "m"), ("m", "1"), ("0", "1")}))
        c2 = Graph(("0", "1"),
                   frozenset({("0", "0"), ("1", "1"), ("0", "1")}))
        m = GraphMorphism(c3, c2, {"0": "0", "m": "0", "1": "1"})
        fm = rho_mor(m)
        assert validate_frame_morphism(fm)
        assert len(fm.source.x1) == 3 and len(fm.target.x1) == 2

    def test_gr_mor_identity(self):
        fm = identity_frame_morphism(fixtures.diagonal_frame())
        gm = gr_mor(fm)
        assert gm.map == {v: v for v in gm.source.vertices}
        assert len(gm.source.vertices) == 6

    def test_gr_mor_of_beta_image(self):
        f = rho(dual_graph(fixtures.n5()))
        gm = gr_mor(beta(f))
        assert validate_graph_morphism(gm)
        assert len(set(gm.map.values())) == len(gm.map)

    def test_gr_mor_collapse_to_1x1(self):
        f = fixtures.diagonal_frame()
        tgt = empty_frame_1x1()
        fm = FrameMorphism(f, tgt, {a: "x" for a in f.x1},
                           {b: "y" for b in f.x2})
        assert validate_frame_morphism(fm)
        gm = gr_mor(fm)
        assert set(gm.map.values()) == {"(x,y)"}


class TestNaturality:
    def test_identity_squares(self):
        g = dual_graph(fixtures.n5())
        assert check_naturality(identity_graph_morphism(g))
        f = rho(g)
        assert check_naturality(identity_frame_morphism(f))

    def test_constant_square(self):
        g = dual_graph(fixtures.n5())
        m = GraphMorphism(g, loop_graph(), {v: "v" for v in g.vertices})
        assert check_naturality(m)

    def test_random_monotone_squares(self):
        rng = random.Random(17)
        done = 0
        while done < 12:
            (p,) = gen_poset(GenSpec("poset", rng.randrange(1, 6),
                                     rng.randrange(2**32)))
            (q,) = gen_poset(GenSpec("poset", rng.randrange(1, 6),
                                     rng.randrange(2**32)))
            mapping = random_monotone_map(p, q, rng)
            if mapping is None:
                continue
            assert check_naturality(GraphMorphism(p, q, mapping))
            done += 1


class TestNaturalityBuildsEachImageOnce:
    """check_naturality builds one rho frame and one gr graph per distinct
    carrier: the functor image reuses what alpha or beta kept on it.  The
    builds fixture (conftest.py) counts Frame and Graph constructions."""

    def test_identity_graph_morphism(self, builds):
        g = dual_graph(fixtures.n5())
        builds.clear()
        assert check_naturality(identity_graph_morphism(g))
        assert (builds["Frame"], builds["Graph"]) == (1, 1)

    def test_identity_frame_morphism(self, builds):
        f = fixtures.ladder_truncation(3)
        builds.clear()
        assert check_naturality(identity_frame_morphism(f))
        assert (builds["Frame"], builds["Graph"]) == (1, 1)

    def test_equal_carriers_share_their_images(self, builds):
        g = dual_graph(fixtures.n5())
        copy = Graph(g.vertices, g.edges)
        builds.clear()
        assert check_naturality(GraphMorphism(g, copy, {v: v for v in
                                                        g.vertices}))
        assert (builds["Frame"], builds["Graph"]) == (1, 1)

    def test_distinct_carriers_get_one_image_each(self, builds):
        g = dual_graph(fixtures.n5())
        m = GraphMorphism(g, loop_graph(), {v: "v" for v in g.vertices})
        builds.clear()
        assert check_naturality(m)
        assert (builds["Frame"], builds["Graph"]) == (2, 2)

    def test_each_canonical_map_is_verified_once_per_carrier(
            self, monkeypatch):
        """alpha or beta runs once on an identity and between equal
        carriers, and at each end between distinct graphs or frames: one
        _permutes call per run."""
        calls = []

        def counted(perm, rows1, rows2, run=functors._permutes):
            calls.append(len(perm))
            return run(perm, rows1, rows2)

        monkeypatch.setattr(functors, "_permutes", counted)
        g = dual_graph(fixtures.n5())
        f = fixtures.ladder_truncation(3)
        copy = Graph(g.vertices, g.edges)
        constant = GraphMorphism(g, loop_graph(), {v: "v" for v in g.vertices})
        for m, want in (
                (identity_graph_morphism(g), 1),
                (identity_frame_morphism(f), 1),
                (GraphMorphism(g, copy, {v: v for v in g.vertices}), 1),
                (constant, 2),
                (rho_mor(constant), 2)):
            calls.clear()
            assert check_naturality(m)
            assert len(calls) == want


class TestCompositionLaws:
    def test_rho_and_gr_preserve_composition(self):
        rng = random.Random(23)
        done = 0
        while done < 8:
            (p,) = gen_poset(GenSpec("poset", 4, rng.randrange(2**32)))
            (q,) = gen_poset(GenSpec("poset", 3, rng.randrange(2**32)))
            (r,) = gen_poset(GenSpec("poset", 3, rng.randrange(2**32)))
            m1 = random_monotone_map(p, q, rng)
            m2 = random_monotone_map(q, r, rng)
            if m1 is None or m2 is None:
                continue
            g1, g2 = GraphMorphism(p, q, m1), GraphMorphism(q, r, m2)
            lhs = rho_mor(compose_graph(g2, g1))
            rhs = compose_frame(rho_mor(g2), rho_mor(g1))
            assert lhs.map1 == rhs.map1 and lhs.map2 == rhs.map2
            assert gr_mor(lhs).map == compose_graph(
                gr_mor(rho_mor(g2)), gr_mor(rho_mor(g1))).map
            done += 1

    def test_composites_of_valid_morphisms_validate(self):
        g = dual_graph(fixtures.n5())
        c = GraphMorphism(g, loop_graph(), {v: "v" for v in g.vertices})
        i = identity_graph_morphism(g)
        assert validate_graph_morphism(compose_graph(c, i))
