import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tirs
from tirs import fixtures
from tirs.cli import run
from tirs.functors import rho
from tirs.io import save_structure
from tirs.ploscica import dual_graph


@pytest.fixture
def files(tmp_path):
    paths = {}

    def save(name, obj):
        p = tmp_path / f"{name}.json"
        save_structure(obj, p)
        paths[name] = str(p)
        return paths[name]

    save("n5", fixtures.n5())
    save("m3", fixtures.m3())
    save("dual_n5", dual_graph(fixtures.n5()))
    save("nt4", fixtures.nt4())
    save("diag", fixtures.diagonal_frame())
    save("f2x1", fixtures.f2x1())
    paths["dir"] = str(tmp_path)
    return paths


def write_json(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


class TestCheck:
    def test_lattice_ok(self, files, capsys):
        assert run(["check", files["n5"]]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"kind": "lattice", "elements": 5, "verdict": True}

    def test_tirs_graph_ok(self, files):
        assert run(["check", files["dual_n5"]]) == 0

    def test_non_tirs_graph_fails(self, files, capsys):
        assert run(["check", files["nt4"]]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["Ti"]["witnesses"][0]["elements"] == ["x", "y"]

    def test_frame(self, files):
        assert run(["check", files["diag"]]) == 0
        assert run(["check", files["f2x1"]]) == 1

    def test_missing_file(self, files):
        assert run(["check", files["dir"] + "/nope.json"]) == 2

    def test_garbage_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json")
        assert run(["check", str(p)]) == 2


class TestTransforms:
    def test_dual(self, files, capsys):
        assert run(["dual", files["n5"]]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["vertices"]) == 3
        assert len(out["edges"]) == 5

    def test_dual_wants_lattice(self, files):
        assert run(["dual", files["dual_n5"]]) == 2

    def test_rho_then_gr(self, files, capsys, tmp_path):
        assert run(["rho", files["dual_n5"]]) == 0
        frame_json = capsys.readouterr().out
        p = tmp_path / "frame.json"
        p.write_text(frame_json)
        assert run(["gr", str(p)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["vertices"]) == 3

    def test_canext_both(self, files, capsys):
        assert run(["canext", files["n5"]]) == 0
        blobs = capsys.readouterr().out.split("\n}\n{")
        head = json.loads(blobs[0] + "}")
        assert head["cross_check"] is True

    def test_canext_both_on_one_element(self, tmp_path, capsys):
        p = write_json(tmp_path, "one.json", {"elements": ["x"],
                                              "covers": []})
        assert run(["canext", p]) == 0
        head, tail = capsys.readouterr().out.split("\n}\n{")
        assert json.loads(head + "}")["cross_check"] is True
        assert json.loads("{" + tail)["closed_sets"] == [[]]

    def test_canext_single_method(self, files, capsys):
        assert run(["canext", files["m3"], "--method", "tandem"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["closed_sets"]) == 5


class TestRoundtrip:
    def test_lattice(self, files, capsys):
        assert run(["roundtrip", files["m3"]]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["roundtrip"] is True

    def test_graph(self, files):
        assert run(["roundtrip", files["dual_n5"]]) == 0

    def test_frame(self, files):
        assert run(["roundtrip", files["diag"]]) == 0

    def test_non_tirs_graph_is_an_input_error(self, files):
        assert run(["roundtrip", files["nt4"]]) == 2


class TestPti:
    def test_lattice_form(self, files, capsys):
        assert run(["check-pti", files["n5"]]) == 0
        out = json.loads(capsys.readouterr().out)
        assert {"x": "b", "y": "a", "w": "b", "z": "c",
                "status": "satisfied"} in out["pairs"]

    def test_frame_form(self, files):
        assert run(["check-pti", "--frame", files["diag"]]) == 0
        assert run(["check-pti", "--frame", files["f2x1"]]) == 1


class TestMorphisms:
    def test_valid_graph_morphism(self, files, tmp_path, capsys):
        g = dual_graph(fixtures.n5())
        loop = write_json(tmp_path, "loop.json",
                          {"vertices": ["v"], "edges": [["v", "v"]]})
        mor = write_json(tmp_path, "mor.json",
                         {"map": [[v, "v"] for v in g.vertices]})
        assert run(["check-morphism", files["dual_n5"], loop, mor]) == 0
        assert run(["check-naturality", files["dual_n5"], loop, mor]) == 0

    def test_invalid_morphism(self, files, tmp_path):
        # map p1 to p0: edge (p1, p2) has no image edge (p0, p2)
        mor = write_json(tmp_path, "mor.json",
                         {"map": [["p0", "p0"], ["p1", "p0"], ["p2", "p2"]]})
        assert run(["check-morphism", files["dual_n5"], files["dual_n5"],
                    mor]) == 1

    def test_sort_mismatch(self, files, tmp_path):
        mor = write_json(tmp_path, "mor.json", {"map": [["a", "a"]]})
        assert run(["check-morphism", files["diag"], files["diag"],
                    mor]) == 2


class TestGen:
    def test_requires_seed(self):
        assert run(["gen", "--kind", "poset", "--size", "3"]) == 2

    def test_seeded(self, capsys):
        assert run(["gen", "--kind", "poset", "--size", "3", "--seed", "1",
                    "--count", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out) == 2

    def test_exhaustive(self, capsys):
        assert run(["gen", "--kind", "poset", "--size", "3",
                    "--exhaustive"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 5

    def test_exhaustive_lattices_stop_at_size_10(self, capsys):
        assert run(["gen", "--kind", "lattice", "--size", "8",
                    "--exhaustive"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 222
        assert run(["gen", "--kind", "lattice", "--size", "11",
                    "--exhaustive"]) == 2
        assert "size 10" in capsys.readouterr().err


class TestExportDot:
    def test_graph(self, files, capsys):
        assert run(["export-dot", files["dual_n5"]]) == 0
        assert capsys.readouterr().out.count("->") == 2

    def test_lattice_needs_hasse(self, files, capsys):
        assert run(["export-dot", files["n5"]]) == 2
        assert run(["export-dot", files["n5"], "--hasse"]) == 0
        assert capsys.readouterr().out.count("->") == 5


class TestSuite:
    def test_runs_green(self, capsys, monkeypatch):
        monkeypatch.setenv("TIRS_SUITE_MAXSIZE", "4")
        assert run(["suite", "--seed", "0"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 13
        assert all(l.startswith("PASS ") for l in lines)


BAD_GRAPHS = {
    "unknown-vertex": {"vertices": ["a"], "edges": [["a", "a"], ["a", "b"]]},
    "duplicate-vertex": {"vertices": ["a", "a"], "edges": [["a", "a"]]},
}


# Payloads of the wrong JSON shape: each exits 2 through InvalidInput.
BAD_SHAPES = {
    "top-level-array": [["a", "a"]],
    "vertices-string": {"vertices": "ab", "edges": []},
    "vertex-number": {"vertices": [1], "edges": []},
    "edge-one-item": {"vertices": ["a"], "edges": [["a"]]},
    "edge-three-items": {"vertices": ["a"], "edges": [["a", "a", "a"]]},
    "edge-string": {"vertices": ["a"], "edges": ["aa"]},
    "edges-object": {"vertices": ["a"], "edges": {"a": "a"}},
    "meta-list": {"vertices": ["a"], "edges": [["a", "a"]], "meta": []},
    "x1-string": {"x1": "a", "x2": ["b"], "r": []},
    "r-pair-number": {"x1": ["a"], "x2": ["b"], "r": [["a", 2]]},
    "covers-one-item": {"elements": ["0", "1"], "covers": [["0"]]},
    "elements-object": {"elements": {"0": 1}, "covers": []},
}


class TestBadInput:
    """Malformed input exits 2 with one error line, not through an
    AssertionError."""

    @pytest.mark.parametrize("name", sorted(BAD_SHAPES))
    def test_bad_payload_shape(self, tmp_path, capsys, name):
        p = write_json(tmp_path, "s.json", BAD_SHAPES[name])
        assert run(["check", p]) == 2
        assert capsys.readouterr().err.startswith("error: InvalidInput: ")

    @pytest.mark.parametrize("payload", [{"map": 5}, {"map": [["p0"]]},
                                         {"map1": [], "map2": "ab"}, [1]])
    def test_bad_morphism_shape(self, files, tmp_path, capsys, payload):
        mor = write_json(tmp_path, "mor.json", payload)
        assert run(["check-morphism", files["dual_n5"], files["dual_n5"],
                    mor]) == 2
        assert capsys.readouterr().err.startswith("error: InvalidInput: ")

    def test_missing_morphism_file(self, files, capsys):
        assert run(["check-morphism", files["dual_n5"], files["dual_n5"],
                    files["dir"] + "/missing.json"]) == 2
        assert capsys.readouterr().err.startswith("error: no such file")

    @pytest.mark.parametrize("name", sorted(BAD_GRAPHS))
    def test_bad_graph(self, tmp_path, capsys, name):
        p = write_json(tmp_path, "g.json", BAD_GRAPHS[name])
        assert run(["check", p]) == 2
        assert capsys.readouterr().err.startswith("error: InvalidInput: ")

    def test_check_pti_without_input(self, capsys):
        assert run(["check-pti"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: check-pti expects a lattice file")

    def test_check_pti_with_a_lattice_and_a_frame(self, files, capsys):
        """Only one of the two would be checked, so the pair is refused."""
        assert run(["check-pti", files["n5"], "--frame", files["diag"]]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            "error: check-pti takes a lattice file or --frame, not both\n")

    def test_export_dot_of_a_morphism_file(self, tmp_path, capsys):
        mor = write_json(tmp_path, "mor.json", {"map": [["p0", "p0"]]})
        assert run(["export-dot", mor]) == 2
        assert capsys.readouterr().err == (
            "error: export-dot expects a graph or frame file\n")

    def test_directory_for_a_file(self, files, capsys):
        assert run(["check", files["dir"]]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read ")

    def test_duplicate_frame_points(self, tmp_path):
        p = write_json(tmp_path, "f.json", {"x1": ["a", "a"], "x2": ["b"],
                                            "r": []})
        assert run(["check", p]) == 2

    @pytest.mark.parametrize("argv", [
        ["--size", "0", "--seed", "1"],
        ["--size", "2", "--count", "0", "--seed", "1"],
        ["--size", "9", "--exhaustive"],
    ])
    def test_bad_gen_request(self, argv):
        assert run(["gen", "--kind", "poset", *argv]) == 2

    @pytest.mark.parametrize("key,payload", [
        ("map", {"map": [["p0", "p1"], ["p0", "p0"], ["p1", "p1"],
                         ["p2", "p2"]]}),
        ("map1", {"map1": [["a", "a"], ["b", "b"], ["c", "c"], ["a", "b"]],
                  "map2": [["a", "a"], ["b", "b"], ["c", "c"]]}),
        ("map2", {"map1": [["a", "a"], ["b", "b"], ["c", "c"]],
                  "map2": [["a", "a"], ["a", "a"], ["b", "b"], ["c", "c"]]}),
    ])
    def test_morphism_listing_a_point_twice(self, files, tmp_path, capsys,
                                            key, payload):
        """Only one image of a repeated point would survive, so the file
        is refused and the error names the point."""
        src = files["dual_n5"] if key == "map" else files["diag"]
        point = payload[key][0][0]
        mor = write_json(tmp_path, "mor.json", payload)
        assert run(["check-morphism", src, src, mor]) == 2
        assert capsys.readouterr().err == (
            f"error: InvalidInput: {key} lists the point {point!r} twice\n")

    def test_morphism_missing_a_vertex(self, files, tmp_path):
        mor = write_json(tmp_path, "mor.json", {"map": [["p0", "p0"]]})
        assert run(["check-morphism", files["dual_n5"], files["dual_n5"],
                    mor]) == 2

    @pytest.mark.parametrize("case", ["unknown-vertex", "duplicate-vertex",
                                      "gen-size-0"])
    def test_optimized_interpreter_still_validates(self, tmp_path, case):
        if case == "gen-size-0":
            argv = ["gen", "--kind", "poset", "--size", "0", "--seed", "1"]
        else:
            argv = ["check", write_json(tmp_path, "g.json", BAD_GRAPHS[case])]
        env = dict(os.environ,
                   PYTHONPATH=str(Path(tirs.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-m", "tirs.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: InvalidInput: ")
        assert "Traceback" not in proc.stderr


class TestEncoding:
    def test_reads_utf8_under_the_c_locale(self, tmp_path):
        """A structure file is UTF-8 whatever the locale says: under the
        C locale with UTF-8 mode off, a lattice with the element \u00e9 is
        read and its dual graph written."""
        p = tmp_path / "e.json"
        p.write_bytes(json.dumps(
            {"elements": ["0", "\u00e9", "1"],
             "covers": [["0", "\u00e9"], ["\u00e9", "1"]]},
            ensure_ascii=False).encode("utf-8"))
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONIOENCODING", "LANG", "LC_CTYPE")}
        env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(tirs.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "tirs.cli", "dual",
                               str(p)], capture_output=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        meta = json.loads(proc.stdout)["meta"]
        assert "\u00e9" in {x for m in meta.values() for x in m["ones"]}


class TestUsage:
    def test_no_command(self):
        assert run([]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2
