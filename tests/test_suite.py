import pytest

from tirs import suite
from tirs.lattice import CheckReport, Witness
from tirs.structures import Frame, check_frame
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
    caches = (suite._lattices, suite._frames, suite._rs_frames_3x3)
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
    every_3x3 = suite._rs_frames_3x3
    monkeypatch.setattr(suite, "_rs_frames_3x3",
                        lambda: (*every_3x3(), bad))
    frames = suite._frames(0, 4)
    assert all(f is not bad for f in frames)
    assert frames == kept
