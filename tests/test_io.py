import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from tirs import fixtures
from tirs.errors import InvalidInput, UnsupportedKind
from tirs.functors import rho
from tirs.galois import closed_sets
from tirs.generators import GenSpec, gen_lattice
from tirs.io import (_dumps, detect_kind, dump_structure, export_dot,
                     hasse_dot, load_structure, parse_structure,
                     save_structure)
from tirs.lattice import FiniteLattice, build_lattice
from tirs.ploscica import dual_graph
from tirs.structures import Frame, Graph

from oracles import json_dump_structure, json_dumps
from test_kernel import families


class TestDetect:
    def test_kinds(self):
        assert detect_kind({"elements": [], "covers": []}) == "lattice"
        assert detect_kind({"vertices": [], "edges": []}) == "graph"
        assert detect_kind({"x1": [], "x2": [], "r": []}) == "frame"
        assert detect_kind({"map": []}) == "graph-morphism"
        assert detect_kind({"map1": [], "map2": []}) == "frame-morphism"

    def test_unknown(self):
        with pytest.raises(UnsupportedKind):
            detect_kind({"nodes": []})


class TestRoundtrip:
    def test_lattice(self, tmp_path):
        L = fixtures.n5()
        p = tmp_path / "n5.json"
        save_structure(L, p)
        back = load_structure(p)
        assert isinstance(back, FiniteLattice)
        assert back.elements == L.elements and back.leq == L.leq

    def test_graph_with_meta(self, tmp_path):
        g = dual_graph(fixtures.n5())
        p = tmp_path / "g.json"
        save_structure(g, p)
        back = load_structure(p)
        assert back == g
        assert back.meta == g.meta

    def test_frame(self, tmp_path):
        f = rho(dual_graph(fixtures.m3()))
        p = tmp_path / "f.json"
        save_structure(f, p)
        back = load_structure(p)
        assert back == f

    def test_dump_is_stable_json(self):
        s = dump_structure(fixtures.diagonal_frame())
        assert json.loads(s) == json.loads(dump_structure(
            fixtures.diagonal_frame()))

    def test_morphism_payload_stays_raw(self):
        payload = {"map": [["a", "b"]]}
        assert parse_structure(payload) is payload


class Names(list):
    pass


class Name(str):
    pass


EDGES_MSG = "edges must be a list of name pairs"
R_MSG = "r must be a list of name pairs"
# payload -> the message of the InvalidInput it raises; where a payload has
# several faults, the one that wins
PARSE_ERRORS = [
    ({"vertices": ["a"], "edges": [("a", "a")]}, EDGES_MSG),
    ({"vertices": ["a", "b"], "edges": ["ab"]}, EDGES_MSG),
    ({"vertices": ["a"], "edges": [["a", "a", "a"]]}, EDGES_MSG),
    ({"vertices": ["a"], "edges": [["a"]]}, EDGES_MSG),
    ({"vertices": ["a"], "edges": [["a", 1]]}, EDGES_MSG),
    ({"vertices": ["a"], "edges": [[["a"], "a"]]}, EDGES_MSG),
    ({"vertices": ["a"], "edges": [["a", "b"]]},
     "an edge references an unknown vertex"),
    ({"vertices": ["a", "a"], "edges": [["a", 1]]}, EDGES_MSG),
    ({"vertices": ["a", "a"], "edges": [["a", "b"]]},
     "duplicate vertex names"),
    ({"vertices": ["a"], "edges": [["a", 1]], "meta": []}, EDGES_MSG),
    ({"vertices": ["a"], "edges": [["a", "b"]], "meta": []},
     "meta must be an object"),
    ({"vertices": ["a"], "edges": [], "meta": []}, "meta must be an object"),
    ({"vertices": ["a"], "edges": [("a", "a")], "map": 1}, EDGES_MSG),
    ({"vertices": ["a"], "edges": "aa"}, EDGES_MSG),
    ({"vertices": [1], "edges": [("a", "a")]},
     "vertices must be a list of strings"),
    ({"x1": ["a"], "x2": ["b"], "r": [("a", "b")]}, R_MSG),
    ({"x1": ["a"], "x2": ["b"], "r": [["b", "a"]]},
     "a pair in r references an unknown point"),
    ({"x1": [1], "x2": ["b"], "r": [["a"]]}, "x1 must be a list of strings"),
    ({"x1": ["a", "a"], "x2": ["b"], "r": [["a", None]]}, R_MSG),
    ({"x1": ["a"], "x2": ["b"], "r": [], "meta": "m"},
     "meta must be an object"),
    ({"elements": ["0", "1"], "covers": [("0", "1")]},
     "covers must be a list of name pairs"),
    ([], "a structure must be a JSON object"),
    ({"elements": 5}, "elements must be a list of strings"),
]


class TestParseErrors:
    """Which InvalidInput parse_structure raises, and on a payload with
    several faults which one wins."""

    @pytest.mark.parametrize("payload,message", PARSE_ERRORS)
    def test_the_winning_error(self, payload, message):
        with pytest.raises(InvalidInput) as err:
            parse_structure(payload)
        assert str(err.value) == message

    def test_list_and_str_subclasses_are_read(self):
        g = parse_structure({"vertices": ["a", Name("b")],
                             "edges": [Names(["a", Name("b")]), ["b", "b"]]})
        assert g == Graph(("a", "b"), {("a", "b"), ("b", "b")})
        f = parse_structure({"x1": [Name("a")], "x2": ["b"],
                             "r": Names([Names([Name("a"), "b"])])})
        assert f == Frame(("a",), ("b",), {("a", "b")})


# names with quotes, backslashes, control, non-ASCII and astral characters
# and lone surrogates, beside any character at all
NAMES = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600/')),
    max_size=5)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    NAMES)
META = st.recursive(SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=3).map(tuple),
    st.dictionaries(NAMES, kids, max_size=4),
    st.dictionaries(st.one_of(NAMES, st.integers()), kids, max_size=3)),
    max_leaves=10)
STRUCTS = st.dictionaries(NAMES, st.one_of(
    st.lists(NAMES, max_size=5),
    st.lists(st.lists(NAMES, min_size=2, max_size=2), max_size=6),
    META), max_size=5)


def dumps_or_error(dumps, v):
    try:
        return dumps(v)
    except TypeError:
        return TypeError


class TestWriter:
    """io._dumps against json.dumps(indent=2, sort_keys=True), byte for
    byte; where json.dumps raises TypeError (str and int keys in one dict)
    the writer raises it too."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(STRUCTS, st.lists(STRUCTS, max_size=3), META))
    def test_writer_matches_json_dumps(self, v):
        want = dumps_or_error(json_dumps, v)
        assert dumps_or_error(_dumps, v) == want
        if want is not TypeError:
            assert _dumps(v, "    ") == want.replace("\n", "\n    ")

    def test_every_family_structure_dumps_alike(self):
        for L in families():
            g = dual_graph(L)
            f = rho(g)
            for obj in (L, g, f, closed_sets(f)):
                assert dump_structure(obj) == json_dump_structure(obj)

    def test_exhaustive_lattices_dump_alike(self):
        for n in range(1, 7):
            for L in gen_lattice(GenSpec("lattice", n, exhaustive=True)):
                assert dump_structure(L) == json_dump_structure(L)

    def test_structures_take_no_fallback(self, monkeypatch):
        """Graphs, frames, lattices and lists of them are joined by the
        writer: json.dumps only writes the empty closed set."""
        calls, real = [], json.dumps

        def spy(v, **kw):
            calls.append(v)
            return real(v, **kw)

        monkeypatch.setattr("tirs.io.json.dumps", spy)
        g = dual_graph(fixtures.n5())
        f = rho(g)
        objs = [fixtures.n5(), g, f, closed_sets(f)]
        for obj in objs:
            dump_structure(obj)
        _dumps([obj.to_json() for obj in objs])
        assert calls == [[], []]

    def assert_dumps_alike(self, obj, pairs):
        """dump_structure(obj) is json.dumps of its to_json, whose pairs
        are the name pairs of the relation, sorted."""
        assert dumps_or_error(dump_structure, obj) == dumps_or_error(
            json_dump_structure, obj)
        assert obj.to_json()[pairs] == sorted(
            map(list, obj.edges if pairs == "edges" else obj.r))

    def test_graphs_and_frames_dump_alike(self):
        """Empty carriers and relations, one vertex or point, names that
        need escapes or sort apart from their index, meta or none."""
        odd = ('"q', "b\\", "new\nline", "é", "v10", "v2", " ")
        full = {(a, b) for a in odd for b in odd if a <= b}
        meta = {"m": [1, {"k": "é\n"}], "a": "b"}
        graphs = [Graph((), ()), Graph(("a",), ()),
                  Graph(("a",), {("a", "a")}), Graph(("a", "b"), ()),
                  Graph(odd, full),
                  Graph(odd, full, meta),
                  Graph(("v2", "v10", "v1"), {("v2", "v10"), ("v10", "v1"),
                                              ("v1", "v1"), ("v2", "v1")})]
        frames = [Frame((), (), ()), Frame((), ("a",), ()),
                  Frame(("a",), (), ()), Frame(("a",), ("b",), ()),
                  Frame(("a",), ("b",), {("a", "b")}, meta),
                  Frame(odd, odd[::-1], full),
                  Frame(("v2", "v10"), ("y10", "y9"),
                        {("v2", "y9"), ("v10", "y10"), ("v10", "y9")})]
        for g in graphs:
            self.assert_dumps_alike(g, "edges")
        for f in frames:
            self.assert_dumps_alike(f, "r")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(NAMES, unique=True, max_size=14),
           st.lists(NAMES, unique=True, max_size=14), st.data())
    def test_random_relations_dump_alike(self, names1, names2, data):
        meta = data.draw(st.none() | st.dictionaries(NAMES, META, max_size=2))
        for rows, cols, kind in ((names1, names1, Graph),
                                 (names1, names2, Frame)):
            cells = [(a, b) for a in rows for b in cols]
            mask = data.draw(st.integers(0, 2 ** len(cells) - 1))
            rel = {c for k, c in enumerate(cells) if mask >> k & 1}
            if kind is Graph:
                self.assert_dumps_alike(Graph(rows, rel, meta), "edges")
            else:
                self.assert_dumps_alike(Frame(rows, cols, rel, meta), "r")

    def test_structures_dump_from_their_masks(self, monkeypatch):
        """dump_structure and export_dot read a graph's or a frame's masks:
        neither builds its to_json dict or its name-pair view."""
        made = [dual_graph(fixtures.n5()), rho(dual_graph(fixtures.n5()))]
        want = [json_dump_structure(x) for x in made]
        dots = [export_dot(x) for x in made]
        fresh = [dual_graph(fixtures.n5()), rho(dual_graph(fixtures.n5()))]

        def refuse(obj):
            raise AssertionError(f"{type(obj).__name__} built its pairs")

        for cls, view in ((Graph, "edges"), (Frame, "r")):
            monkeypatch.setattr(cls, "to_json", refuse)
            monkeypatch.setattr(cls, view, property(refuse))
        assert [dump_structure(x) for x in fresh] == want
        assert [export_dot(x) for x in fresh] == dots


class TestDot:
    def test_graph_loops_suppressed(self):
        g = dual_graph(fixtures.n5())
        out = export_dot(g)
        assert out.count("->") == 2
        assert '"p1" -> "p2";' in out

    def test_graph_loops_included(self):
        out = export_dot(dual_graph(fixtures.n5()), include_loops=True)
        assert out.count("->") == 5

    def test_frame(self):
        out = export_dot(fixtures.diagonal_frame())
        assert '"1:a" [shape=box];' in out
        assert '"2:a" [shape=ellipse];' in out
        assert out.count("->") == 3

    def test_lattice_rejected(self):
        with pytest.raises(UnsupportedKind):
            export_dot(fixtures.n5())

    def test_other_rejected(self):
        with pytest.raises(UnsupportedKind):
            export_dot({"not": "a structure"})

    def test_hasse_n5(self):
        out = hasse_dot(fixtures.n5())
        assert out.count("->") == 5
        assert "rankdir=BT" in out
        assert '"0" -> "a";' in out

    def test_names_with_backslashes_and_quotes(self):
        """Each line splits by the DOT quoted-string grammar into the names
        it was written from: every node once and both ends of each edge."""
        a, b, c = "a\\", 'b"\\', '\\"c'
        g = Graph((a, b, c), {(a, a), (a, b), (b, c), (c, c)})
        f = Frame((a, b), (c,), {(a, c), (b, c)})
        L = build_lattice((a, b, c), [(a, b), (b, c)])
        cases = [
            (export_dot(g, include_loops=True), [a, b, c],
             {(a, a), (a, b), (b, c), (c, c)}),
            (export_dot(f), ["1:" + a, "1:" + b, "2:" + c],
             {("1:" + a, "2:" + c), ("1:" + b, "2:" + c)}),
            (hasse_dot(L), [a, b, c], {(a, b), (b, c)}),
        ]
        quoted = re.compile(r'"((?:\\.|[^"\\])*)"')
        for out, nodes, edges in cases:
            seen_nodes, seen_edges = [], set()
            for line in out.splitlines():
                names = [re.sub(r"\\(.)", r"\1", m)
                         for m in quoted.findall(line)]
                if "->" in quoted.sub("", line):
                    seen_edges.add(tuple(names))
                elif names:
                    seen_nodes.extend(names)
            assert seen_nodes == nodes
            assert seen_edges == edges
