"""The tables derived from a graph, frame or lattice are cached on it: each
is built at most once per structure, and the caches change nothing a caller
can see (equality, hashing, repr, JSON and the dataclass fields)."""

import dataclasses
import functools
import sys
from collections import Counter
from pathlib import Path

import pytest

from tirs import (fixtures, functors, galois, generators, io, lattice,
                  ploscica, pti, structures, suite)
from tirs.functors import beta, rho
from tirs.generators import GenSpec, gen_lattice
from tirs.lattice import FiniteLattice, order_masks
from tirs.ploscica import dual_graph
from tirs.pti import pti_bridge_suite
from tirs.structures import Frame, Graph

from oracles import set_finish_lattice

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402
import workloads  # noqa: E402


class Builds:
    """Table builds counted per (table, structure).  Every counted
    structure is kept alive, so no id is reused while counting."""

    def __init__(self, monkeypatch):
        self.counts = Counter()
        self._alive = []
        # the H-table per frame, one inclusion table per mask tuple (two per
        # graph or frame: _supersets for a graph, _upper_meets for a frame),
        # the down-set masks per lattice (the transpose of its ups), the
        # irreducibles and the maximal pairs per lattice
        self._wrap(monkeypatch, structures._HTable, "__init__", "h-table",
                   lambda table, f: f)
        self._wrap(monkeypatch, structures, "_supersets", "supersets",
                   lambda masks: masks)
        self._wrap(monkeypatch, structures, "_upper_meets", "supersets",
                   lambda masks, width: masks)
        self._wrap(monkeypatch, lattice, "_transpose", "order",
                   lambda ups, n: ups)
        for attr, table in (("irreducible_masks", "irreducibles"),
                            ("maximal_masks", "maximal")):
            scan = vars(FiniteLattice)[attr].func
            prop = functools.cached_property(self._counted(scan, table,
                                                           lambda L: L))
            prop.__set_name__(FiniteLattice, attr)
            monkeypatch.setattr(FiniteLattice, attr, prop)

    def _counted(self, fn, table, key):
        def counted(*args):
            owner = key(*args)
            self._alive.append(owner)
            self.counts[table, id(owner)] += 1
            return fn(*args)
        return counted

    def _wrap(self, monkeypatch, owner, name, table, key):
        monkeypatch.setattr(owner, name,
                            self._counted(getattr(owner, name), table, key))

    def assert_once(self):
        assert {table for table, _ in self.counts} == {
            "h-table", "supersets", "order", "irreducibles", "maximal"}
        twice = {k: n for k, n in self.counts.items() if n > 1}
        assert not twice


@pytest.mark.parametrize("make", [fixtures.diagonal_frame,
                                  lambda: fixtures.ladder_truncation(2)],
                         ids=["diagonal", "ladder2"])
def test_beta_and_the_bridge_build_each_table_once(monkeypatch, make):
    builds = Builds(monkeypatch)
    f = make()
    assert (len(f.x1), len(f.x2)) == (3, 3)
    beta(f)
    assert pti_bridge_suite(f)
    builds.assert_once()


@pytest.mark.parametrize("name,job", [("wide", "M4"), ("tall", "C2xC3")])
def test_a_benchmark_lattice_job_builds_each_table_once(monkeypatch, name,
                                                         job):
    builds = Builds(monkeypatch)
    jobs = {j.name: j for j in workloads.WORKLOADS[name](0, tiny=True).jobs}
    workloads.run_job(layers.make_api(layers.Tracer()), jobs[job])
    builds.assert_once()


@pytest.mark.parametrize("name,job", [("wide", "M4"), ("tall", "C2xC3")])
def test_a_benchmark_lattice_job_builds_no_name_pair_view(monkeypatch, name,
                                                          job):
    """The masks are the data: a lattice job, serialisation and parsing
    included, never builds a graph's edges or a frame's r.  (The traced
    benchmark API reads len(edges) for its size count, so the job runs
    untraced, as the timed runs do.)"""
    views = Counter()
    for cls, attr in ((Graph, "edges"), (Frame, "r")):
        build = vars(cls)[attr].func

        def counted(x, build=build, attr=attr):
            views[attr] += 1
            return build(x)

        prop = functools.cached_property(counted)
        prop.__set_name__(cls, attr)
        monkeypatch.setattr(cls, attr, prop)
    jobs = {j.name: j for j in workloads.WORKLOADS[name](0, tiny=True).jobs}
    out = workloads.run_job(layers.make_api(), jobs[job])
    assert not views
    g = dual_graph(fixtures.n5())
    assert (g.edges, g.edges) and views == {"edges": 1}  # the wrap counts
    assert len(out) == 3


@pytest.mark.parametrize("kind", ["lattice", "distributive-lattice"])
def test_random_gen_lattice_builds_only_the_lattices_it_returns(monkeypatch,
                                                                kind):
    """A random attempt of the wrong size is dropped before its tables are
    built: one lattice build per lattice returned."""
    built = []

    def counted(elements, ups, build=FiniteLattice._from_masks):
        built.append(build(elements, ups))
        return built[-1]

    monkeypatch.setattr(FiniteLattice, "_from_masks", staticmethod(counted))
    out = [L for size in range(2, 9)
           for L in gen_lattice(GenSpec(kind, size, seed=size, count=3))]
    assert len(out) == 21
    assert len(built) == len(out)
    assert all(a is b for a, b in zip(built, out))


def test_exhaustive_gen_lattice_builds_once_per_bounded_poset_class(
        monkeypatch):
    """Exhaustive lattices of size 6 try one build per poset class of 4
    points, which a bottom and a top bound, and the classes come from
    canonical labellings: no strict order on 6 points is built, and no
    isomorphism search runs."""
    built, compared = [], []

    def counted(elements, ups, build=lattice._scan):
        built.append(ups)
        return build(elements, ups)

    def iso(rows1, cols1, rows2, cols2, search=lattice.mask_iso):
        compared.append(len(rows1))
        return search(rows1, cols1, rows2, cols2)

    monkeypatch.setattr(generators, "_scan", counted)
    for module in (lattice, functors):
        monkeypatch.setattr(module, "mask_iso", iso)
    assert len(gen_lattice(GenSpec("lattice", 6, exhaustive=True))) == 15
    assert len(built) == 16
    assert not compared


def test_pti_task_evaluates_each_frame_once(monkeypatch):
    """task_pti builds each corpus frame's closed-set lattice once, and runs
    check_pti once on it and once on each corpus lattice."""
    monkeypatch.setenv("TIRS_SUITE_MAXSIZE", "4")
    lats, frames = suite._corpus_lattices(0), suite._corpus_frames(0)
    closed, checked = [], []

    def count(calls, fn):
        def counted(x, *args):
            calls.append(x)
            return fn(x, *args)
        return counted

    counted_closed = count(closed, galois.closed_sets)
    counted_check = count(checked, pti.check_pti)
    for module in (pti, suite):
        monkeypatch.setattr(module, "closed_sets", counted_closed)
        monkeypatch.setattr(module, "check_pti", counted_check)
    assert suite.task_pti(0)[0]
    assert closed == list(frames)
    assert len(checked) == len(lats) + len(frames)


def test_caches_are_invisible():
    L = fixtures.n5()
    g = dual_graph(L)
    f = rho(g)
    seen = [(x.to_json(), repr(x)) for x in (g, f, L)]
    # read every cached table
    g.supersets, f.table
    L.ups, L.downs, L.index(L.elements[0]), L.irreducible_masks
    fresh = (Graph(g.vertices, g.edges, g.meta), Frame(f.x1, f.x2, f.r),
             FiniteLattice(L.elements, L.leq, L.join, L.meet, L.bot, L.top))
    for x, y, (js, rp) in zip((g, f, L), fresh, seen):
        assert x == y and hash(x) == hash(y)
        assert x.to_json() == js and repr(x) == rp
    assert L.to_json() == fresh[2].to_json()


def test_lattice_fields_are_the_defining_data():
    assert [fl.name for fl in dataclasses.fields(FiniteLattice)] == [
        "elements", "ups"]


def test_a_directly_built_lattice_derives_its_masks():
    """The public constructor, given the pairs and the tables of the
    set-based scan, derives the same masks and bounds as build_lattice."""
    L = fixtures.n5()
    scan = set_finish_lattice(L.elements, L.leq)
    direct = FiniteLattice(L.elements, scan.leq, scan.join, scan.meet,
                           scan.bot, scan.top)
    assert (direct.ups, direct.downs) == (scan.ups, scan.downs) == \
        (L.ups, L.downs)
    assert direct.ups == order_masks(direct.n, L.leq)
    assert (direct.bot, direct.top) == (L.bot, L.top)
    assert direct.irreducible_masks == L.irreducible_masks


def test_the_order_views_are_built_on_first_read():
    """Built, closed-set and generated lattices hold their order as masks
    only: leq, join and meet appear in vars() once read, and equal the
    public constructor's check of them."""
    lats = [fixtures.n5(), galois.closed_sets(fixtures.diagonal_frame())
            .as_lattice, *gen_lattice(GenSpec("lattice", 6, count=2)),
            *gen_lattice(GenSpec("distributive-lattice", 6, count=2)),
            *gen_lattice(GenSpec("lattice", 5, exhaustive=True))]
    for L in lats:
        assert set(vars(L)) == {"elements", "ups", "downs", "bot", "top"}
        assert FiniteLattice(L.elements, L.leq, L.join, L.meet, L.bot,
                             L.top) == L
        assert {"leq", "join", "meet"} <= set(vars(L))


def test_the_extensions_and_pti_build_no_order_view():
    """Both canonical extensions and check_pti decide on the masks: on a
    lattice they accept, neither it nor an extension holds a join or meet
    table or the leq pairs afterwards, and writing an extension out builds
    no leq view, though its JSON lists the leq pairs in sorted order."""
    views = {"join", "meet", "leq"}
    for L in [*fixtures.all_lattices().values(),
              *gen_lattice(GenSpec("lattice", 7, count=3))]:
        (_, gl_t), (_, gl_p) = galois.canext_tandem(L), \
            galois.canext_polarity(L)
        assert pti.check_pti(L)[0]
        for C in (gl_t.as_lattice, gl_p.as_lattice):
            assert pti.check_pti(C)[0]
            io.dump_structure(C)
        io.dump_structure(gl_t)
        for C in (L, gl_t.as_lattice, gl_p.as_lattice):
            assert not views & set(vars(C))
            assert C.to_json()["leq"] == sorted([C.name(a), C.name(b)]
                                                for a, b in C.leq)


def test_canext_tandem_finds_the_maximal_pairs_once(monkeypatch):
    """The dual graph and the embedding of canext_tandem read one table of
    maximal pairs."""
    builds = Builds(monkeypatch)
    L = fixtures.m3()
    galois.canext_tandem(L)
    assert builds.counts["maximal", id(L)] == 1


def test_the_maximal_pair_readers_build_one_table(monkeypatch):
    """maximal_pairs, dual_graph, canext_tandem, check_pti and
    jinfty_via_maximal_pairs on one lattice build its maximal-pair table
    once, and only its own."""
    builds = Builds(monkeypatch)
    L = fixtures.n5()
    ploscica.maximal_pairs(L)
    dual_graph(L)
    emb, _ = galois.canext_tandem(L)
    assert pti.check_pti(L)[0]
    assert galois.jinfty_via_maximal_pairs(emb)
    assert [(k, n) for k, n in builds.counts.items() if k[0] == "maximal"] \
        == [(("maximal", id(L)), 1)]


def test_the_maximal_pair_table_is_invisible():
    L = fixtures.n5()
    seen = (L.to_json(), repr(L), hash(L), io.dump_structure(L))
    assert L.maximal_masks == vars(L)["maximal_masks"]
    fresh = FiniteLattice(L.elements, L.leq, L.join, L.meet, L.bot, L.top)
    assert "maximal_masks" not in vars(fresh)
    assert L == fresh
    for x in (L, fresh):
        assert (x.to_json(), repr(x), hash(x), io.dump_structure(x)) == seen


def test_only_maximal_pairs_builds_pair_objects(monkeypatch):
    """The other readers of the maximal pairs read the table, not
    MaximalPair objects."""
    built = []
    init = ploscica.MaximalPair.__init__

    def counted(p, *args):
        built.append(args)
        init(p, *args)

    monkeypatch.setattr(ploscica.MaximalPair, "__init__", counted)
    L = fixtures.n5()
    dual_graph(L)
    emb, _ = galois.canext_tandem(L)
    pti.check_pti(L)
    galois.jinfty_via_maximal_pairs(emb)
    assert not built
    assert len(ploscica.maximal_pairs(L)) == len(built) == 3


def test_dual_graph_sorts_each_elements_names_once(monkeypatch):
    """The meta of a dual-graph vertex holds its pair's sorted ones and
    zeros names.  They are sorted once per element, not once per maximal
    pair, and no two vertices share a list."""
    calls = Counter()
    for attr in ("ones_names", "zeros_names"):
        method = getattr(ploscica.MaximalPair, attr)

        def counted(p, method=method, attr=attr):
            calls[attr] += 1
            return method(p)

        monkeypatch.setattr(ploscica.MaximalPair, attr, counted)
    L = fixtures.m3()  # each x and each y is in two maximal pairs
    pairs = ploscica.maximal_pairs(L)
    g = dual_graph(L)
    assert not calls
    assert g.meta == {v: {"ones": p.ones_names(), "zeros": p.zeros_names()}
                      for v, p in zip(g.vertices, pairs)}
    lists = [m[k] for m in g.meta.values() for k in ("ones", "zeros")]
    assert len({id(x) for x in lists}) == len(lists) == 2 * len(pairs)
