import pytest

from tirs import fixtures, ploscica
from tirs.errors import DegenerateLattice, InvalidInput, MismatchedCarrier
from tirs.functors import gr
from tirs.galois import frame_of_perfect
from tirs.generators import GenSpec, gen_lattice
from tirs.lattice import build_lattice
from tirs.ploscica import MaximalPair, dual_graph, maximal_pairs, mph_leq
from tirs.structures import check_graph, h_set

from oracles import brute_maximal_pairs, pointwise_dual_edges


def m_n(n):
    atoms = [f"a{i}" for i in range(n)]
    return build_lattice(["0", *atoms, "1"],
                         [("0", a) for a in atoms] + [(a, "1") for a in atoms])


def pair_generators(L):
    return [(L.name(p.x), L.name(p.y)) for p in maximal_pairs(L)]


class TestMaximalPairs:
    def test_c2(self):
        assert pair_generators(fixtures.c2()) == [("1", "0")]

    def test_n5(self):
        assert pair_generators(fixtures.n5()) == \
            [("a", "b"), ("b", "c"), ("c", "a")]

    def test_m3_six_pairs(self):
        got = pair_generators(fixtures.m3())
        assert sorted(got) == sorted((x, y) for x in "abc" for y in "abc"
                                     if x != y)

    @pytest.mark.parametrize("name", ["C2", "C3", "B2", "M3", "N5"])
    def test_against_subset_oracle(self, name):
        L = fixtures.all_lattices()[name]
        got = {(p.ones, p.zeros) for p in maximal_pairs(L)}
        assert got == brute_maximal_pairs(L)

    def test_a_pair_must_be_maximal(self):
        """(up a, down a) meet in a, and no pair has an index outside N5."""
        L = fixtures.n5()
        a, b = L.index("a"), L.index("b")
        assert MaximalPair(L, a, b) == maximal_pairs(L)[0]
        for x, y in ((a, a), (b, a), (a, 5), (-1, b)):
            with pytest.raises(InvalidInput):
                MaximalPair(L, x, y)

    def test_degenerate(self):
        with pytest.raises(DegenerateLattice):
            maximal_pairs(build_lattice(["x"], []))


class TestDualGraph:
    def test_one_element_has_the_empty_dual_graph(self):
        """The one-element lattice has no maximal pair, so its dual graph
        has no vertex, where maximal_pairs refuses it."""
        g = dual_graph(build_lattice(["x"], []))
        assert (g.vertices, g.succ, g.meta) == ((), (), {})
        assert check_graph(g).is_tirs

    def test_c2_single_loop(self):
        g = dual_graph(fixtures.c2())
        assert g.vertices == ("p0",)
        assert g.edges == {("p0", "p0")}

    def test_n5_edge_table(self):
        g = dual_graph(fixtures.n5())
        assert g.vertices == ("p0", "p1", "p2")
        assert g.edges == {("p0", "p0"), ("p1", "p1"), ("p2", "p2"),
                           ("p1", "p2"), ("p2", "p0")}
        # E is not transitive: p1 E p2 and p2 E p0 but not p1 E p0
        assert not g.has("p1", "p0")

    def test_b2_discrete(self):
        g = dual_graph(fixtures.b2())
        assert len(g.vertices) == 2
        assert g.edges == {(v, v) for v in g.vertices}

    def test_m3_edge_rule(self):
        g = dual_graph(fixtures.m3())
        assert len(g.vertices) == 6
        pairs = {v: tuple(g.meta[v]["ones"]) for v in g.vertices}
        for u in g.vertices:
            for v in g.vertices:
                x = min(set(pairs[u]) - {"1"})  # the filter atom
                z = min(set(g.meta[v]["zeros"]) - {"0"})  # the ideal atom
                assert g.has(u, v) == (x != z)

    @pytest.mark.parametrize("name", ["C2", "C3", "B2", "M3", "N5"])
    def test_duals_are_tirs(self, name):
        g = dual_graph(fixtures.all_lattices()[name])
        assert check_graph(g).is_tirs

    def test_edges_match_the_pointwise_form(self):
        lats = list(fixtures.all_lattices().values())
        lats += [m_n(n) for n in range(3, 7)]
        for size in range(3, 8):
            lats += gen_lattice(GenSpec("lattice", size, seed=size, count=3))
        for L in lats:
            g = dual_graph(L)
            assert g.edges == pointwise_dual_edges(g)

    def test_vertex_metadata_carries_the_pair(self):
        g = dual_graph(fixtures.n5())
        assert g.meta["p0"] == {"ones": ["1", "a", "c"], "zeros": ["0", "b"]}

    def test_names_only_the_generators_of_the_pairs(self, monkeypatch):
        """B_8 has 256 elements and 8 maximal pairs: the ones and zeros of
        the 16 generators are named, and no list is shared by vertices."""
        names = []

        def counted(mask, elements, build=ploscica._names):
            names.append(mask)
            return build(mask, elements)

        monkeypatch.setattr(ploscica, "_names", counted)
        els = [format(s, "08b") for s in range(256)]
        g = dual_graph(build_lattice(els, [
            (els[s], els[s | 1 << k]) for s in range(256) for k in range(8)
            if not s >> k & 1]))
        assert len(g.vertices) == 8 and len(names) == 16
        lists = [m[k] for m in g.meta.values() for k in ("ones", "zeros")]
        assert len({id(x) for x in lists}) == 16


class TestFrameCorrespondence:
    def test_maximal_pairs_are_the_h_pairs_of_the_frame(self):
        """The maximal pairs (up x, down y) of L are the H-pairs (x, y) of
        its frame (J(L), M(L), <=), in the same order, and the dual graph
        of L is gr of that frame, edge for edge."""
        lats = [L for size in range(2, 8) for L in
                gen_lattice(GenSpec("lattice", size, exhaustive=True))]
        lats += [m_n(n) for n in range(3, 13)]
        lats += gen_lattice(GenSpec("lattice", 9, seed=9, count=20))
        assert len(lats) == 107
        for L in lats:
            f = frame_of_perfect(L)
            assert [(p.x, p.y) for p in maximal_pairs(L)] == \
                [(L.index(x), L.index(y)) for x, y in h_set(f)]
            assert dual_graph(L).succ == gr(f).succ


class TestMphOrder:
    def test_reflexive(self):
        for p in maximal_pairs(fixtures.n5()):
            assert mph_leq(p, p)

    def test_n5_inclusions(self):
        f1, f2, f3 = maximal_pairs(fixtures.n5())
        assert mph_leq(f3, f1)  # {c,1} inside {a,c,1}
        assert not mph_leq(f1, f2)  # a not above b

    def test_mismatched_carriers(self):
        p1 = maximal_pairs(fixtures.n5())[0]
        p2 = maximal_pairs(fixtures.m3())[0]
        with pytest.raises(MismatchedCarrier):
            mph_leq(p1, p2)
