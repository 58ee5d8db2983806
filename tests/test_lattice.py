import pytest

from tirs import fixtures
from tirs.errors import InvalidInput, NoBounds, NotALattice, NotAPartialOrder
from tirs.lattice import (FiniteLattice, LatticeEmbedding, build_lattice,
                          check_compact, check_dense, filters_ideals,
                          irreducibles, is_distributive, lattice_from_leq,
                          lattice_iso)

from oracles import (brute_filters, brute_ideals, brute_irreducibles,
                     transitive_reflexive_pairs)


def identity_embedding(L):
    return LatticeEmbedding(L, L, tuple(range(L.n)))


class TestBuild:
    def test_two_chain(self):
        L = build_lattice(["0", "1"], [("0", "1")])
        assert L.join[L.index("0")][L.index("1")] == L.index("1")
        assert L.meet[L.index("0")][L.index("1")] == L.index("0")
        assert L.name(L.bot) == "0" and L.name(L.top) == "1"

    def test_n5_closure_has_13_pairs(self):
        L = fixtures.n5()
        expected = transitive_reflexive_pairs(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("0", "b"), ("a", "c"), ("c", "1"), ("b", "1")])
        got = {(L.name(a), L.name(b)) for a, b in L.leq}
        assert got == expected
        assert len(got) == 13

    def test_bowtie_is_not_a_lattice(self):
        with pytest.raises(NotALattice) as exc:
            build_lattice(["n1", "n2", "m1", "m2"],
                          [("n1", "m1"), ("n1", "m2"),
                           ("n2", "m1"), ("n2", "m2")])
        assert set(exc.value.pair) in ({"n1", "n2"}, {"m1", "m2"})

    def test_cycle_detected(self):
        with pytest.raises(NotAPartialOrder):
            build_lattice(["a", "b"], [("a", "b"), ("b", "a")])

    def test_empty_carrier(self):
        with pytest.raises(NoBounds):
            build_lattice([], [])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            build_lattice(["a", "a"], [])

    def test_unknown_cover_name_rejected(self):
        with pytest.raises(ValueError):
            build_lattice(["a"], [("a", "zz")])

    def test_lattice_from_leq_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="^duplicate element names$"):
            lattice_from_leq(["a", "a"], [("a", "a")])

    def test_the_constructor_checks_the_tables_and_bounds(self):
        """FiniteLattice(elements, leq, join, meet, bot, top) accepts the
        tables and bounds of leq, and raises InvalidInput on swapped join
        and meet tables or swapped bounds."""
        L = fixtures.n5()
        assert FiniteLattice(L.elements, L.leq, L.join, L.meet, L.bot,
                             L.top) == L
        c2 = fixtures.c2()
        with pytest.raises(InvalidInput, match="join"):
            FiniteLattice(c2.elements, c2.leq, c2.meet, c2.join, 0, 1)
        with pytest.raises(InvalidInput, match="meet"):
            FiniteLattice(L.elements, L.leq, L.join, L.join, L.bot, L.top)
        with pytest.raises(InvalidInput, match="bot"):
            FiniteLattice(L.elements, L.leq, L.join, L.meet, L.top, L.bot)
        with pytest.raises(InvalidInput, match="top"):
            FiniteLattice(L.elements, L.leq, L.join, L.meet, L.bot, L.bot)

    def test_lattice_from_leq_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown element 'zz'"):
            lattice_from_leq(["a"], [("a", "a"), ("a", "zz")])

    def test_the_constructor_rejects_repeated_names(self):
        c2 = fixtures.c2()
        with pytest.raises(InvalidInput, match="^duplicate element names$"):
            FiniteLattice(("a", "a"), c2.leq, c2.join, c2.meet, 0, 1)

    @pytest.mark.parametrize("pair",
                             [(0, 5), (-1, -1), (0, 2), (2, 0), (-1, 1)])
    def test_the_constructor_rejects_indices_outside_the_carrier(self, pair):
        """No leq index outside range(n) reaches the masks: (-1, 1) would
        pass as (1, 1) if rows[-1] were row 1."""
        c2 = fixtures.c2()
        with pytest.raises(InvalidInput, match="outside range"):
            FiniteLattice(c2.elements, {*c2.leq, pair}, c2.join, c2.meet,
                          0, 1)

    def test_a_relation_that_is_not_reflexive_is_no_lattice(self):
        """b <= b is missing, and the rest passes the scan, whose tables
        would give join(b, b) = c."""
        names = ["a", "b", "c"]
        leq = [("a", "a"), ("a", "b"), ("a", "c"), ("b", "c"), ("c", "c")]
        with pytest.raises(InvalidInput, match="^leq is not reflexive at b$"):
            lattice_from_leq(names, leq)
        index = {(names.index(x), names.index(y)) for x, y in leq}
        with pytest.raises(InvalidInput, match="not reflexive at b"):
            FiniteLattice(names, index, ((0, 1, 2),) * 3, ((0, 0, 0),) * 3,
                          0, 2)


class TestIrreducibles:
    def test_c2(self):
        assert irreducibles(fixtures.c2()) == ({"1"}, {"0"})

    def test_n5(self):
        j, m = irreducibles(fixtures.n5())
        assert j == {"a", "b", "c"} and m == {"a", "b", "c"}

    def test_b2(self):
        j, m = irreducibles(fixtures.b2())
        assert j == {"p", "q"} and m == {"p", "q"}

    @pytest.mark.parametrize("name", ["C2", "C3", "B2", "M3", "N5"])
    def test_matches_definition_oracle(self, name):
        L = fixtures.all_lattices()[name]
        assert irreducibles(L) == brute_irreducibles(L)


class TestFiltersIdeals:
    @pytest.mark.parametrize("name", ["C2", "C3", "B2", "M3", "N5"])
    def test_counts_and_brute_force(self, name):
        L = fixtures.all_lattices()[name]
        filters, ideals = filters_ideals(L)
        assert len(filters) == len(ideals) == L.n
        to_names = lambda ss: {frozenset(L.name(a) for a in s) for s in ss}
        assert set(filters) == to_names(brute_filters(L))
        assert set(ideals) == to_names(brute_ideals(L))

    def test_c2_explicitly(self):
        filters, ideals = filters_ideals(fixtures.c2())
        assert set(filters) == {frozenset({"1"}), frozenset({"0", "1"})}
        assert set(ideals) == {frozenset({"0"}), frozenset({"0", "1"})}


class TestDenseCompact:
    def test_an_embedding_maps_every_source_index_into_the_target(self):
        L = fixtures.n5()
        for bad in ((5,), (0, 1, 2, 3), (0, 1, 2, 3, 5), (0, 1, 2, 3, -1)):
            with pytest.raises(InvalidInput):
                LatticeEmbedding(L, L, bad)
        assert identity_embedding(L).validate()

    def test_identity_is_dense(self):
        for L in fixtures.all_lattices().values():
            assert check_dense(identity_embedding(L))

    def test_c2_into_c3_not_dense(self):
        c2, c3 = fixtures.c2(), fixtures.c3()
        emb = LatticeEmbedding(c2, c3, (c3.index("0"), c3.index("1")))
        rep = check_dense(emb)
        assert not rep
        assert rep.witnesses[0].elements == ("m",)

    def test_c2_into_c3_is_compact(self):
        c2, c3 = fixtures.c2(), fixtures.c3()
        emb = LatticeEmbedding(c2, c3, (c3.index("0"), c3.index("1")))
        assert check_compact(emb)

    def test_identity_is_compact(self):
        for L in fixtures.all_lattices().values():
            assert check_compact(identity_embedding(L))


class TestDistributive:
    def test_b2(self):
        assert is_distributive(fixtures.b2())

    def test_n5_with_witness(self):
        rep = is_distributive(fixtures.n5())
        assert not rep
        a, b, c = rep.witnesses[0].elements
        L = fixtures.n5()
        i = L.index
        assert L.meet[i(a)][L.join[i(b)][i(c)]] != \
            L.join[L.meet[i(a)][i(b)]][L.meet[i(a)][i(c)]]

    def test_m3_witness_is_three_atoms(self):
        rep = is_distributive(fixtures.m3())
        assert not rep
        assert set(rep.witnesses[0].elements) <= {"a", "b", "c"}


class TestCoherence:
    @pytest.mark.parametrize("name", ["C2", "C3", "B2", "M3", "N5"])
    def test_order_table_coherence(self, name):
        L = fixtures.all_lattices()[name]
        for a in range(L.n):
            for b in range(L.n):
                assert L.le(a, b) == (L.join[a][b] == b) == (L.meet[a][b] == a)


class TestLatticeIso:
    def test_self_iso(self):
        L = fixtures.n5()
        iso = lattice_iso(L, L)
        assert iso is not None
        assert all(L.le_names(a, b) == L.le_names(iso[a], iso[b])
                   for a in iso for b in iso)

    def test_n5_m3_not_iso(self):
        assert lattice_iso(fixtures.n5(), fixtures.m3()) is None

    def test_size_mismatch(self):
        assert lattice_iso(fixtures.c2(), fixtures.c3()) is None
