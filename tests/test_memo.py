"""The dual graph of a lattice, rho of a graph, gr of a frame, the
first-witness condition reports of graphs and frames and check_perfect's
report are computed once per carrier and kept on it: later calls return the
same object, no caller builds them again, and the memo changes nothing a
caller can see and holds no reference cycle.  The builds fixture is in
conftest.py."""

import gc
import weakref
from collections import Counter

from tirs import fixtures, galois, io
from tirs.functors import alpha, beta, gr, rho
from tirs.galois import canext_tandem, check_perfect, closed_sets
from tirs.lattice import FiniteLattice, Witness
from tirs.ploscica import dual_graph
from tirs.pti import check_pti, pti_bridge_suite
from tirs.structures import Frame, Graph, check_frame, check_graph


def test_each_derived_result_is_the_same_object():
    L = fixtures.n5()
    g = dual_graph(L)
    assert dual_graph(L) is g
    assert rho(g) is rho(g)
    assert check_graph(g) is check_graph(g)
    f = rho(g)
    assert gr(f) is gr(f)
    assert check_frame(f) is check_frame(f)
    assert check_perfect(L) is check_perfect(L)


def test_canext_tandem_after_dual_graph_builds_no_second_graph(builds):
    L = fixtures.m3()
    g = dual_graph(L)
    assert builds == {"Graph": 1}
    emb, gl = canext_tandem(L)
    canext_tandem(L)
    assert builds == {"Graph": 1, "Frame": 1}
    assert gl.base_frame is rho(g)


def test_alpha_after_check_graph_runs_no_second_scan(builds):
    g = dual_graph(fixtures.n5())
    assert check_graph(g).is_tirs
    assert builds["scan", "S"] == 1
    m = alpha(g)
    assert builds["scan", "S"] == 1
    assert builds["Frame"] == 1  # alpha reads the rho frame it cached
    assert sorted(m.map.values()) == sorted(m.target.vertices)


def test_all_witnesses_still_scans_every_time(builds):
    """A complete graph on three vertices fails (S) at every pair."""
    vs = ("a", "b", "c")
    g = Graph(vs, {(x, y) for x in vs for y in vs})
    first = check_graph(g)
    every = [Witness("S", p) for p in (("a", "b"), ("a", "c"), ("b", "c"))]
    assert first.condS.witnesses == tuple(every[:1])
    assert check_graph(g, True).condS.witnesses == tuple(every)
    assert check_graph(g, all_witnesses=True).condS.witnesses == tuple(every)
    assert builds["scan", "S"] == 3
    assert check_graph(g) is first


def test_all_witnesses_still_scans_every_frame_call(builds):
    """F2x1 has two empty rows: (S) fails at the pair, (R) and (Ti) at
    both points."""
    f = fixtures.f2x1()
    first = check_frame(f)
    every = check_frame(f, True)
    assert every.condR.witnesses == (Witness("R(i)", ("x",)),
                                     Witness("R(i)", ("x'",)))
    assert every.condTi.witnesses == (Witness("Ti", ("x", "y")),
                                      Witness("Ti", ("x'", "y")))
    assert first.condR.witnesses == every.condR.witnesses[:1]
    assert first.condTi.witnesses == every.condTi.witnesses[:1]
    assert check_frame(f, all_witnesses=True) == every
    assert builds["scan", "S(i)"] == 3
    assert check_frame(f) is first


def test_beta_reads_the_gr_graph_it_cached(builds):
    f = fixtures.ladder_truncation(3)
    builds.clear()
    g = gr(f)
    m = beta(f)
    assert m.target is rho(g)
    assert builds == {"Graph": 1, "Frame": 1}


def test_closed_sets_is_built_on_every_call():
    f = rho(dual_graph(fixtures.n5()))
    assert closed_sets(f) is not closed_sets(f)
    assert closed_sets(f) == closed_sets(f)


def test_the_bridge_checks_each_closed_set_lattice_once(monkeypatch):
    """check_pti and frame_of_perfect share one check_perfect report."""
    runs = Counter()
    failures = galois._generation_failures

    def counted(C):
        runs[id(C)] += 1
        return failures(C)

    monkeypatch.setattr(galois, "_generation_failures", counted)
    assert pti_bridge_suite(fixtures.ladder_truncation(3))
    assert list(runs.values()) == [1]


def test_the_memo_is_invisible():
    L = fixtures.n5()
    g = dual_graph(L)
    f = rho(g)
    seen = [(x.to_json(), repr(x), hash(x), io.dump_structure(x))
            for x in (L, g, f)]
    check_graph(g)
    check_perfect(L)
    check_pti(L)
    beta(f)
    assert {"dual_graph", "check_perfect"} <= set(vars(L))
    assert {"rho", "check_graph"} <= set(vars(g))
    assert {"gr", "check_frame"} <= set(vars(f))
    fresh = (FiniteLattice(L.elements, L.leq, L.join, L.meet, L.bot, L.top),
             Graph(g.vertices, g.edges, g.meta), Frame(f.x1, f.x2, f.r,
                                                       f.meta))
    for x, y, (js, rp, hs, dump) in zip((L, g, f), fresh, seen):
        assert x == y and hash(x) == hash(y) == hs
        assert x.to_json() == y.to_json() == js
        assert repr(x) == repr(y) == rp
        assert io.dump_structure(x) == io.dump_structure(y) == dump


def test_the_memo_holds_no_reference_cycle():
    """Reference counting alone frees a lattice with its dual graph, the
    graph's rho frame, that frame's gr graph, its rho frame and their
    reports."""
    gc.disable()
    try:
        L = fixtures.m3()
        g = dual_graph(L)
        check_graph(g)
        check_perfect(L)
        canext_tandem(L)
        f = rho(g)
        beta(f)
        assert {"gr", "check_frame"} <= set(vars(f))
        alive = [weakref.ref(x) for x in (L, g, f, gr(f), rho(gr(f)))]
        del L, g, f
        assert [ref() for ref in alive] == [None] * 5
    finally:
        gc.enable()
