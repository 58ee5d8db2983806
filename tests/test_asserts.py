"""No library module uses an assert statement: python -O strips them, so
every check in src/tirs raises an explicit exception instead."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tirs
from tirs import fixtures
from tirs.errors import InvalidInput, MismatchedCarrier
from tirs.functors import (compose_frame, compose_graph,
                           identity_frame_morphism, identity_graph_morphism)
from tirs.galois import galois_down, galois_up
from tirs.generators import GenSpec, gen_lattice, gen_poset, gen_rs_frame, \
    gen_tirs_graph
from tirs.lattice import CheckReport, Witness
from tirs.structures import Graph

MODULES = sorted(Path(tirs.__file__).parent.glob("*.py"))


def assert_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text()) == []


def test_the_scan_sees_an_assert():
    assert assert_lines("x = 1\nif x:\n    assert x, 'msg'\n") == [3]


def test_the_former_asserts_raise():
    f = fixtures.f2x1()
    with pytest.raises(InvalidInput):
        galois_up(f, {"nowhere"})
    with pytest.raises(InvalidInput):
        galois_down(f, {"x"})
    g1 = identity_graph_morphism(fixtures.nt4())
    g2 = identity_graph_morphism(Graph(("v",), frozenset()))
    with pytest.raises(MismatchedCarrier):
        compose_graph(g2, g1)
    f1 = identity_frame_morphism(f)
    f2 = identity_frame_morphism(fixtures.ladder_truncation(2))
    with pytest.raises(MismatchedCarrier):
        compose_frame(f2, f1)
    for gen, kind in ((gen_poset, "lattice"), (gen_lattice, "poset"),
                      (gen_rs_frame, "poset"), (gen_tirs_graph, "poset")):
        with pytest.raises(InvalidInput):
            gen(GenSpec(kind, 2, seed=1))
    with pytest.raises(ValueError):
        CheckReport(True, (Witness("x", ()),))
    with pytest.raises(ValueError):
        CheckReport(False, ())


def test_optimized_interpreter_still_checks_carriers():
    code = ("from tirs import fixtures\n"
            "from tirs.galois import galois_up\n"
            "galois_up(fixtures.f2x1(), {'nowhere'})\n")
    env = dict(os.environ, PYTHONPATH=str(Path(tirs.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 1
    assert "InvalidInput: 'nowhere' is not in x1" in proc.stderr
