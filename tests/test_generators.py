import random

import pytest

from tirs import fixtures
from tirs.errors import InvalidInput, SizeUnreachable
from tirs.galois import inclusion_lattice
from tirs.generators import (GenSpec, gen_lattice, gen_poset, gen_rs_frame,
                             gen_tirs_graph, generate, random_monotone_map)
from tirs.lattice import is_distributive, lattice_iso
from tirs.structures import check_frame, check_graph, is_poset_graph

from oracles import set_poset_graph, transitive_reflexive_pairs


class TestDeterminism:
    def test_same_spec_same_output(self):
        s = GenSpec("poset", 5, seed=42, count=4)
        assert gen_poset(s) == gen_poset(s)
        s = GenSpec("lattice", 5, seed=42, count=3)
        a, b = gen_lattice(s), gen_lattice(s)
        assert [x.leq for x in a] == [x.leq for x in b]
        s = GenSpec("rs-frame", 3, seed=42, count=3)
        assert gen_rs_frame(s) == gen_rs_frame(s)

    def test_different_seeds_usually_differ(self):
        a = gen_poset(GenSpec("poset", 6, seed=1, count=5))
        b = gen_poset(GenSpec("poset", 6, seed=2, count=5))
        assert a != b


class TestPosets:
    def test_outputs_are_posets(self):
        for g in gen_poset(GenSpec("poset", 6, seed=9, count=10)):
            assert is_poset_graph(g)
            names = g.vertices
            strict = [(a, b) for a, b in g.edges if a != b]
            assert set(g.edges) == transitive_reflexive_pairs(names, strict)

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 16),
                                         (5, 63), (6, 318), (7, 2045)])
    def test_exhaustive_counts(self, n, count):
        # OEIS A000112
        assert len(gen_poset(GenSpec("poset", n, exhaustive=True))) == count


class TestLattices:
    def test_exact_size(self):
        for L in gen_lattice(GenSpec("lattice", 6, seed=3, count=5)):
            assert L.n == 6

    def test_distributive_kind_is_distributive(self):
        for L in gen_lattice(GenSpec("distributive-lattice", 6, seed=3,
                                     count=5)):
            assert is_distributive(L)

    def test_a_family_past_the_size_stops_closing(self):
        """A random family of more than size sets is dropped, so its closure
        stops once it is past the size: of the 256 downsets of an antichain
        of 8 points, a closure capped at 12 builds few."""
        from tirs.generators import _lattice_sets
        g = set_poset_graph(8, set())
        assert len(_lattice_sets(g.pred, True)) == 256
        assert len(_lattice_sets(g.pred, True, 256)) == 256
        assert 12 < len(_lattice_sets(g.pred, True, 12)) < 32
        assert len(_lattice_sets(g.pred, False, 12)) == 10

    def test_two_antichain_downsets_give_b2(self):
        from tirs.generators import _lattice_sets
        g = set_poset_graph(2, set())
        L = inclusion_lattice(_lattice_sets(g.pred, True), g.vertices)[2]
        assert lattice_iso(L, fixtures.b2()) is not None

    def test_bowtie_completion_is_hexagon(self):
        # crossed bowtie n1 < m2, n2 < m1: its completion has six elements
        # and is not distributive
        from tirs.generators import _lattice_sets
        from tirs.structures import Graph
        vs = ("n1", "n2", "m1", "m2")
        edges = frozenset({(v, v) for v in vs}
                          | {("n1", "m2"), ("n2", "m1")})
        L = inclusion_lattice(_lattice_sets(Graph(vs, edges).pred, False),
                              vs)[2]
        assert L.n == 6
        assert not is_distributive(L)

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 1), (4, 2),
                                         (5, 5), (6, 15), (7, 53), (8, 222),
                                         (9, 1078)])
    def test_exhaustive_counts(self, n, count):
        # OEIS A006966
        got = gen_lattice(GenSpec("lattice", n, exhaustive=True))
        assert len(got) == count

    @pytest.mark.parametrize("n,count",
                             enumerate([1, 1, 1, 2, 3, 5, 8, 15, 26], 1))
    def test_exhaustive_distributive_counts(self, n, count):
        # OEIS A006982
        got = gen_lattice(GenSpec("distributive-lattice", n, exhaustive=True))
        assert len(got) == count

    def test_exhaustive_distributive_excludes_n5_m3(self):
        got = gen_lattice(GenSpec("distributive-lattice", 5, exhaustive=True))
        assert len(got) == 3
        for L in got:
            assert lattice_iso(L, fixtures.n5()) is None
            assert lattice_iso(L, fixtures.m3()) is None

    def test_unreachable_size(self, monkeypatch):
        # antichain completions have 1, 4, 5, ... elements, never 3
        import tirs.generators as mod
        monkeypatch.setattr(mod, "_random_pairs", lambda n, rng: [])
        with pytest.raises(SizeUnreachable):
            gen_lattice(GenSpec("lattice", 3, seed=0, count=1))


class TestFrames:
    def test_sampled_frames_are_rs(self):
        for f in gen_rs_frame(GenSpec("rs-frame", 3, seed=7, count=10)):
            assert check_frame(f).is_rs

    def test_exhaustive_1x1(self):
        got = gen_rs_frame(GenSpec("rs-frame", 1, exhaustive=True))
        assert len(got) == 1
        assert got[0].r == frozenset()

    def test_exhaustive_3x3_all_satisfy_ti(self):
        got = gen_rs_frame(GenSpec("rs-frame", 3, exhaustive=True))
        assert got
        for f in got:
            assert check_frame(f).condTi


class TestTirsGraphs:
    def test_outputs_are_tirs(self):
        for g in gen_tirs_graph(GenSpec("tirs-graph", 4, seed=5, count=4)):
            assert check_graph(g).is_tirs

    def test_generate_dispatch(self):
        assert generate(GenSpec("poset", 3, seed=1)) == \
            gen_poset(GenSpec("poset", 3, seed=1))
        with pytest.raises(InvalidInput):
            GenSpec("widget", 3)


class TestMonotoneMaps:
    def test_maps_are_monotone(self):
        rng = random.Random(13)
        for _ in range(10):
            (p,) = gen_poset(GenSpec("poset", 5, seed=rng.randrange(2**32)))
            (q,) = gen_poset(GenSpec("poset", 4, seed=rng.randrange(2**32)))
            m = random_monotone_map(p, q, rng)
            assert m is not None
            assert set(m) == set(p.vertices)
            for a, b in p.edges:
                assert q.has(m[a], m[b])
