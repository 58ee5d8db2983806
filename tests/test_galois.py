import pytest

from tirs import fixtures
from tirs.errors import EmbeddingNotOnto, IrreducibleMismatch
from tirs.functors import rho
from tirs.galois import (GaloisLattice, _extension, canext_polarity,
                         canext_tandem, check_perfect,
                         cross_check_extensions, closed_sets, closure,
                         frame_of_perfect, galois_down, galois_up,
                         irreducibles_of_galois, jinfty_via_maximal_pairs)
from tirs.lattice import build_lattice, is_distributive, lattice_iso
from tirs.ploscica import dual_graph
from tirs.pti import check_pti
from tirs.structures import Frame

from oracles import brute_closed_sets


def rho_dual(L):
    return rho(dual_graph(L))


class TestGaloisMaps:
    def test_up_down_on_dual_n5_frame(self):
        f = rho_dual(fixtures.n5())
        assert galois_up(f, {"p0"}) == {"p1", "p2"}
        assert galois_down(f, {"p1"}) == {"p0", "p2"}
        assert galois_up(f, set()) == set(f.x2)
        assert galois_down(f, set()) == set(f.x1)

    def test_closure_is_a_closure_operator(self):
        f = rho_dual(fixtures.n5())
        assert closure(f, {"p0"}) == {"p0"}
        assert closure(f, {"p2"}) == {"p0", "p2"}
        # extensive, idempotent, monotone on all small subsets
        from oracles import subsets
        sets = list(subsets(f.x1))
        for a in sets:
            ca = closure(f, a)
            assert a <= ca
            assert closure(f, ca) == ca
        for a in sets:
            for b in sets:
                if a <= b:
                    assert closure(f, a) <= closure(f, b)

    def test_antitone_adjunction(self):
        f = rho_dual(fixtures.m3())
        from oracles import subsets
        for a in subsets(f.x1):
            for b in subsets(f.x2):
                # B inside up(A) iff A inside down(B)
                assert (b <= galois_up(f, a)) == (a <= galois_down(f, b))


class TestClosedSets:
    def test_dual_n5_gives_n5_back(self):
        gl = closed_sets(rho_dual(fixtures.n5()))
        assert set(gl.closed_sets) == {
            frozenset(), frozenset({"p0"}), frozenset({"p1"}),
            frozenset({"p0", "p2"}), frozenset({"p0", "p1", "p2"})}
        assert lattice_iso(gl.as_lattice, fixtures.n5()) is not None

    @pytest.mark.parametrize("name", ["C2", "C3", "B2", "M3", "N5"])
    def test_against_subset_oracle(self, name):
        f = rho_dual(fixtures.all_lattices()[name])
        gl = closed_sets(f)
        assert set(gl.closed_sets) == brute_closed_sets(f)

    def test_f2x1_closed_sets(self):
        # not RS, but the polarity still yields a complete lattice
        f = fixtures.f2x1()
        gl = closed_sets(f)
        assert set(gl.closed_sets) == brute_closed_sets(f)

    def test_ladder_truncation(self):
        f = fixtures.ladder_truncation(3)
        gl = closed_sets(f)
        assert set(gl.closed_sets) == brute_closed_sets(f)

    def test_json_shape(self):
        gl = closed_sets(rho_dual(fixtures.c2()))
        out = gl.to_json()
        assert set(out) >= {"closed_sets", "j_infty", "m_infty"}
        assert [[], ["p0"]] == out["closed_sets"]


class TestIrreducibles:
    def test_1x1_empty_relation(self):
        gl = closed_sets(Frame(("x",), ("y",), frozenset()))
        j, m = irreducibles_of_galois(gl)
        assert j == {"{x}"}
        assert m == {"{}"}

    @pytest.mark.parametrize("name", ["C2", "C3", "B2", "M3", "N5"])
    def test_formulas_match_cover_counts(self, name):
        gl = closed_sets(rho_dual(fixtures.all_lattices()[name]))
        j, m = irreducibles_of_galois(gl)
        assert j == gl.j_infty and m == gl.m_infty

    def test_mismatch_is_detected(self):
        gl = closed_sets(rho_dual(fixtures.n5()))
        broken = GaloisLattice(gl.base_frame, gl.closed_sets, gl.as_lattice,
                               frozenset({"{}"}), gl.m_infty)
        with pytest.raises(IrreducibleMismatch):
            irreducibles_of_galois(broken)


class TestFrameOfPerfect:
    def test_every_finite_lattice_is_perfect(self):
        for L in fixtures.all_lattices().values():
            assert check_perfect(L)

    def test_n5(self):
        f = frame_of_perfect(fixtures.n5())
        assert set(f.x1) == set(f.x2) == {"a", "b", "c"}
        assert f.r == {("a", "a"), ("a", "c"), ("b", "b"), ("c", "c")}

    def test_c2(self):
        f = frame_of_perfect(fixtures.c2())
        assert f.x1 == ("1",)
        assert f.x2 == ("0",)
        assert f.r == frozenset()

    def test_b2_identity(self):
        f = frame_of_perfect(fixtures.b2())
        assert set(f.x1) == set(f.x2) == {"p", "q"}
        assert f.r == {("p", "p"), ("q", "q")}


class TestCanonicalExtension:
    @pytest.mark.parametrize("name", ["C2", "C3", "B2", "M3", "N5"])
    def test_tandem_is_identity_up_to_iso(self, name):
        L = fixtures.all_lattices()[name]
        emb, gl = canext_tandem(L)
        assert gl.as_lattice.n == L.n
        assert lattice_iso(L, gl.as_lattice) is not None

    @pytest.mark.parametrize("name", ["C2", "C3", "B2", "M3", "N5"])
    def test_polarity_agrees_with_tandem(self, name):
        L = fixtures.all_lattices()[name]
        _, gl1 = canext_tandem(L)
        _, gl2 = canext_polarity(L)
        assert lattice_iso(gl1.as_lattice, gl2.as_lattice) is not None

    def test_embedding_preserves_structure_pointwise(self):
        L = fixtures.n5()
        emb, _ = canext_tandem(L)
        C = emb.target
        for a in range(L.n):
            for b in range(L.n):
                assert L.le(a, b) == C.le(emb.map[a], emb.map[b])

    def test_distributivity_is_preserved(self):
        for L in fixtures.all_lattices().values():
            _, gl = canext_tandem(L)
            assert bool(is_distributive(L)) == \
                bool(is_distributive(gl.as_lattice))

    @pytest.mark.parametrize("name", ["C2", "C3", "B2", "M3", "N5"])
    def test_jinfty_formulas(self, name):
        L = fixtures.all_lattices()[name]
        emb, _ = canext_tandem(L)
        assert jinfty_via_maximal_pairs(emb)
        emb2, _ = canext_polarity(L)
        assert jinfty_via_maximal_pairs(emb2)

    def test_jinfty_on_one_element(self):
        """The polarity extension of the one-element lattice has no
        irreducibles and no maximal pairs, so the check passes there, as
        check_pti does."""
        emb, gl = canext_polarity(build_lattice(["x"], []))
        assert check_pti(gl.as_lattice)[0]
        assert jinfty_via_maximal_pairs(emb)


    def test_tandem_on_one_element(self):
        """The empty dual graph of the one-element lattice has one closed
        set, so the tandem extension is the one-element lattice, as the
        polarity one is, and the two cross-check."""
        L = build_lattice(["x"], [])
        (emb, gl), (emb2, gl2) = canext_tandem(L), canext_polarity(L)
        assert gl.base_frame.x1 == gl.base_frame.x2 == ()
        assert gl.closed_sets == (frozenset(),)
        assert emb.map == emb2.map == (0,)
        assert gl.as_lattice.n == gl2.as_lattice.n == 1
        assert cross_check_extensions(emb, emb2) == (True, {"{F0}": "{}"})


class TestExtensionBody:
    """The body both constructions share refuses each planted fault with
    its own error.  The polarity frame of C3 has the closed sets {F0},
    {F0, F1} and {F0, F1, F2}, the masks 0b001, 0b011 and 0b111."""

    def polarity_frame_of_c3(self):
        return canext_polarity(fixtures.c3())[1].base_frame

    def test_an_image_that_is_not_closed(self):
        with pytest.raises(AssertionError) as err:
            _extension(fixtures.c3(), self.polarity_frame_of_c3(),
                       [0b001, 0b010, 0b111])  # {F1} closes to {F0, F1}
        assert str(err.value) == "image of m is not a closed set"

    def test_closed_images_that_are_not_an_embedding(self):
        with pytest.raises(AssertionError) as err:
            _extension(fixtures.c3(), self.polarity_frame_of_c3(),
                       [0b001, 0b001, 0b111])
        assert str(err.value) == ("not an embedding: Witness(condition="
                                  "'injective', elements=())")

    def test_closed_images_in_a_bijection_that_reverses_the_order(self):
        """A bijection onto the closed sets is not yet an embedding: the
        first failure of the full check is named."""
        with pytest.raises(AssertionError) as err:
            _extension(fixtures.c3(), self.polarity_frame_of_c3(),
                       [0b111, 0b011, 0b001])
        assert str(err.value) == ("not an embedding: Witness(condition="
                                  "'bot', elements=('0',))")

    def test_an_embedding_that_is_not_onto(self):
        with pytest.raises(EmbeddingNotOnto) as err:
            _extension(fixtures.c2(), self.polarity_frame_of_c3(),
                       [0b001, 0b111])
        assert str(err.value) == \
            "a finite lattice is its own canonical extension"

    def test_the_polarity_images_give_the_public_embedding(self):
        L = fixtures.n5()
        emb, gl = canext_polarity(L)
        assert (emb, gl) == _extension(L, gl.base_frame, L.downs)
