from types import SimpleNamespace

import pytest

from tirs import fixtures, suite
from tirs.functors import graph_iso
from tirs.generators import GenSpec, generate
from tirs.lattice import (CheckReport, Witness, build_lattice,
                          is_distributive, lattice_iso)
from tirs.ploscica import dual_graph
from tirs.structures import Frame, check_frame, check_graph
from tirs.suite import TASKS, run_suite


@pytest.fixture(autouse=True)
def small_corpus(monkeypatch):
    monkeypatch.setenv("TIRS_SUITE_MAXSIZE", "4")


def test_all_tasks_pass():
    results = run_suite(seed=0)
    assert [name for name, _, _ in results] == sorted(TASKS)
    assert all(ok for _, ok, _ in results), \
        [(n, d) for n, ok, d in results if not ok]


def test_deterministic_for_a_seed():
    assert run_suite(seed=3) == run_suite(seed=3)


def test_task_count():
    assert len(TASKS) == 13


@pytest.mark.parametrize("name,wrong,law", [
    ("galois_up", lambda f, A: frozenset(), "adjunction fails"),
    ("galois_down", lambda f, B: frozenset(), "R-up closure law fails"),
    ("closure", lambda f, A: frozenset(A), "upset law (i) fails"),
], ids=["galois_up", "galois_down", "closure"])
def test_galois_laws_catch_a_planted_fault(monkeypatch, name, wrong, law):
    """Each map the task computes once per frame is still checked: a wrong
    one fails the first law that reads it."""
    monkeypatch.setattr(suite, name, wrong)
    assert suite.task_galois_laws(0) == (False, law)


def _fail(condition):
    return CheckReport.fail([Witness(condition, ())])


@pytest.mark.parametrize("wrong,law", [
    (lambda bridge, pti: (_fail("planted"), pti), "bridge suite fails"),
    (lambda bridge, pti: (bridge, _fail("PTi")),
     "frame/lattice PTi forms disagree"),
], ids=["bridge", "lattice-form"])
def test_pti_task_catches_a_planted_fault(monkeypatch, wrong, law):
    """The task reads both the bridge report and the lattice PTi report
    from one evaluation per frame: a wrong one fails its own check."""
    evaluate = suite._bridge
    monkeypatch.setattr(suite, "_bridge", lambda f: wrong(*evaluate(f)))
    assert suite.task_pti(0) == (False, law)


@pytest.fixture
def fresh_corpus():
    """Empty the corpus caches before and after a test that patches how a
    corpus is built, so no other test reads the patched corpus.  The caches
    are taken before the test can patch them away."""
    caches = (suite._lattices, suite._frames, suite._every)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_the_frame_corpus_drops_a_frame_failing_column_side_r(monkeypatch,
                                                               fresh_corpus):
    """The corpus keeps RS frames only.  A frame that passes (S), row-side
    (R) and (Ti) but fails (R) at its empty column r is dropped."""
    bad = Frame(("a", "b"), ("p", "q", "r"), {("a", "q"), ("b", "p")})
    rep = check_frame(bad, True)
    assert rep.condS and rep.condTi and not bad.table.r1
    assert rep.condR.witnesses == (Witness("R(ii)", ("r",)),)
    kept = suite._frames(0, 4)
    suite._frames.cache_clear()
    every = suite._every

    def every_and_bad(kind, size):
        classes = every(kind, size)
        return (*classes, bad) if kind == "rs-frame" else classes

    monkeypatch.setattr(suite, "_every", every_and_bad)
    frames = suite._frames(0, 4)
    assert all(f is not bad for f in frames)
    assert frames == kept


def _classes(kind, sizes):
    return [c for n in sizes for c in generate(GenSpec(kind, n,
                                                       exhaustive=True))]


@pytest.mark.parametrize("maxsize,total", [(4, 9), (6, 17), (8, 23)])
def test_the_corpus_holds_every_class_up_to_5_elements_once(maxsize, total):
    """The five fixtures, each lattice class of 2..min(maxsize, 5) elements
    once, the same objects for every seed, then three draws per size from 6
    up."""
    classes = _classes("lattice", range(2, min(maxsize, 5) + 1))
    fixed = [L.to_json() for L in fixtures.all_lattices().values()]
    small = None
    for seed in range(6):
        lats = suite._lattices(seed, maxsize)
        assert len(lats) == total
        assert [L.to_json() for L in lats[:5]] == fixed
        every, drawn = lats[5:5 + len(classes)], lats[5 + len(classes):]
        for c in classes:
            assert sum(lattice_iso(L, c) is not None for L in every) == 1
        small = small or every
        assert all(a is b for a, b in zip(every, small, strict=True))
        assert [L.n for L in drawn] == [n for n in range(6, maxsize + 1)
                                        for _ in range(3)]


@pytest.mark.parametrize("seed", range(6))
def test_birkhoff_visits_every_distributive_class_up_to_5(monkeypatch, seed):
    monkeypatch.setenv("TIRS_SUITE_MAXSIZE", "5")
    visited = []
    irreducibles = suite.irreducibles

    def record(L):
        visited.append(L)
        return irreducibles(L)

    monkeypatch.setattr(suite, "irreducibles", record)
    assert suite.task_birkhoff(seed)[0]
    assert all(is_distributive(L) for L in visited)
    classes = _classes("distributive-lattice", range(2, 6))
    assert len(classes) == 7
    for c in classes:
        assert any(lattice_iso(L, c) is not None for L in visited)


def test_a_fault_only_the_5_element_chain_triggers_fails_seed_0(monkeypatch):
    """Seed 0's random draws below 6 elements never held C5; the exhaustive
    part of the corpus holds it for every seed.  The file's size of 4 holds
    no 5-element lattice, so the test sets its own."""
    monkeypatch.setenv("TIRS_SUITE_MAXSIZE", "6")
    names = [str(i) for i in range(5)]
    c5_dual = dual_graph(build_lattice(names, list(zip(names, names[1:]))))
    monkeypatch.setattr(suite, "check_graph", lambda g: (
        SimpleNamespace(is_tirs=False) if graph_iso(g, c5_dual) is not None
        else check_graph(g)))
    assert not suite.task_dual_tirs(0)[0]
