import pytest

from tirs import fixtures, pti
from tirs.errors import InvalidInput, NotRS
from tirs.functors import rho
from tirs.galois import closed_sets
from tirs.pti import (PTiWitness, check_pti, check_pti_frame_form,
                      pti_bridge_suite)
from tirs.ploscica import dual_graph, maximal_pairs
from tirs.structures import Frame, check_frame

from oracles import all_frames, literal_ti_failures


def rho_dual(L):
    return rho(dual_graph(L))


class TestLatticeForm:
    @pytest.mark.parametrize("name", ["C2", "C3", "B2", "M3", "N5"])
    def test_fixtures_satisfy_pti(self, name):
        rep, _ = check_pti(fixtures.all_lattices()[name])
        assert rep

    def test_n5_witness_for_b_a(self):
        _, wits = check_pti(fixtures.n5())
        by_pair = {(w.x, w.y): w for w in wits}
        assert by_pair[("b", "a")] == PTiWitness("b", "a", "b", "c",
                                                 "satisfied")
        assert all(w.status == "satisfied" for w in wits)

    def test_c2_has_one_pair(self):
        _, wits = check_pti(fixtures.c2())
        assert wits == [PTiWitness("1", "0", "1", "0", "satisfied")]

    def test_m3_all_off_diagonal_pairs(self):
        _, wits = check_pti(fixtures.m3())
        assert {(w.x, w.y) for w in wits} == \
            {(x, y) for x in "abc" for y in "abc" if x != y}

    def test_witnesses_are_the_lattice_maximal_pairs(self):
        """PTi reads the lattice's maximal-pair table: with M3's first pair
        (up a, down b) cleared from it, exactly the pair (a, b) it alone
        covers fails."""
        L = fixtures.m3()
        first = maximal_pairs(L)[0]
        assert (L.name(first.x), L.name(first.y)) == ("a", "b")
        table = list(L.maximal_masks)
        table[first.x] &= ~(1 << first.y)
        vars(L)["maximal_masks"] = tuple(table)
        rep, wits = check_pti(L, all_witnesses=True)
        assert [w.elements for w in rep.witnesses] == [("a", "b")]
        assert [(w.x, w.y) for w in wits
                if w.status == "unsatisfiable-pair"] == [("a", "b")]

    def test_closed_set_lattices_satisfy_pti(self):
        for L in fixtures.all_lattices().values():
            gl = closed_sets(rho_dual(L))
            rep, _ = check_pti(gl.as_lattice, all_witnesses=True)
            assert rep


class TestFrameForm:
    def test_diagonal_true(self):
        assert check_pti_frame_form(fixtures.diagonal_frame())

    def test_f2x1_false(self):
        rep = check_pti_frame_form(fixtures.f2x1())
        assert not rep
        assert rep.witnesses[0].condition == "PTi-frame"

    def test_rho_duals_true(self):
        for L in fixtures.all_lattices().values():
            assert check_pti_frame_form(rho_dual(L))

    def test_ladder_truncations_true(self):
        for n in (3, 4, 5):
            assert check_pti_frame_form(fixtures.ladder_truncation(n))

    def test_all_witnesses_flag(self):
        rep = check_pti_frame_form(fixtures.f2x1(), all_witnesses=True)
        assert len(rep.witnesses) >= 1


# 16 + 64 + 64 + 512 + 256 + 256 = 1,168 frames
SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)]


@pytest.mark.parametrize("n1,n2", SHAPES)
def test_ti_witnesses_match_the_literal_search(n1, n2):
    for f in all_frames(n1, n2):
        want = literal_ti_failures(f)
        ti = check_frame(f, all_witnesses=True).condTi
        assert [w.elements for w in ti.witnesses] == want
        assert {w.condition for w in ti.witnesses} <= {"Ti"}
        pti = check_pti_frame_form(f, all_witnesses=True)
        assert [w.elements for w in pti.witnesses] == want
        assert {w.condition for w in pti.witnesses} <= {"PTi-frame"}
        assert [w.elements for w in check_frame(f).condTi.witnesses] == \
            want[:1]
        assert [w.elements for w in check_pti_frame_form(f).witnesses] == \
            want[:1]


class TestBridge:
    def test_fixture_frames(self):
        assert pti_bridge_suite(fixtures.diagonal_frame())
        assert pti_bridge_suite(fixtures.ladder_truncation(3))

    def test_rho_duals(self):
        for L in fixtures.all_lattices().values():
            assert pti_bridge_suite(rho_dual(L))

    def test_a_frame_not_given_back_fails_the_roundtrip(self, monkeypatch):
        """The report is the bridge's own: with (c) failing it fails, though
        the closed-set lattice still satisfies PTi."""
        monkeypatch.setattr(pti, "frame_iso", lambda f, g: None)
        rep = pti_bridge_suite(fixtures.diagonal_frame())
        assert [w.condition for w in rep.witnesses] == ["frame-roundtrip"]

    def test_rejects_non_rs_input(self):
        with pytest.raises(NotRS):
            pti_bridge_suite(fixtures.f2x1())

    def test_closed_sets_whose_names_collide_are_refused(self):
        # {a, b} and {"a,b"} are both closed, and both would be named {a,b}
        f = Frame(("a", "b", "a,b"), ("y1", "y2", "y3"),
                  frozenset({("a", "y1"), ("b", "y1"), ("a,b", "y2"),
                             ("a", "y3")}))
        assert check_frame(f).is_rs
        clash = r"sets \['a,b'\] and \['a', 'b'\] are both named \{a,b\}"
        with pytest.raises(InvalidInput, match=clash):
            closed_sets(f)
        with pytest.raises(InvalidInput, match=clash):
            pti_bridge_suite(f)
