"""Golden CLI outputs: stdout, stderr and exit code of the read-only
commands on the fixture corpus, of the morphism checks on identity maps, and
of three generator runs, compared byte for byte.

The expected files under tests/golden/ were written by this module's
``capture()``.  To record them again after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import argparse
import contextlib
import io
import json
from pathlib import Path

import pytest

from tirs import fixtures
from tirs.cli import build_parser, run
from tirs.functors import (identity_frame_morphism, identity_graph_morphism,
                           rho)
from tirs.io import _dumps, save_structure
from tirs.lattice import FiniteLattice, build_lattice
from tirs.ploscica import dual_graph
from tirs.structures import Graph

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"


def b3_shuffled():
    """B_3 with its elements and covers listed in a fixed shuffled order,
    not a linear extension."""
    return build_lattice(
        ["ab", "c", "1", "a", "bc", "0", "ac", "b"],
        [("c", "bc"), ("ab", "1"), ("0", "b"), ("a", "ac"), ("bc", "1"),
         ("b", "ab"), ("0", "c"), ("ac", "1"), ("a", "ab"), ("c", "ac"),
         ("0", "a"), ("b", "bc")])


def grid3_shuffled():
    """The 3x3 grid C_3 x C_3, elements ij, in a fixed shuffled order."""
    return build_lattice(
        ["12", "00", "21", "02", "11", "20", "01", "22", "10"],
        [("11", "21"), ("01", "02"), ("20", "21"), ("10", "11"),
         ("12", "22"), ("00", "10"), ("02", "12"), ("21", "22"),
         ("01", "11"), ("10", "20"), ("11", "12"), ("00", "01")])


FIXTURES = {
    "C2": fixtures.c2, "C3": fixtures.c3, "B2": fixtures.b2,
    "M3": fixtures.m3, "N5": fixtures.n5, "NT4": fixtures.nt4,
    "F2x1": fixtures.f2x1, "ladder3": lambda: fixtures.ladder_truncation(3),
    "B3s": b3_shuffled, "grid3s": grid3_shuffled,
}

COMMANDS = {
    "dual": ["dual", "{}"],
    "rho": ["rho", "{}"],
    "gr": ["gr", "{}"],
    "check": ["check", "{}", "--all-witnesses"],
    "canext-both": ["canext", "{}", "--method", "both"],
    "canext-tandem": ["canext", "{}", "--method", "tandem"],
    "canext-polarity": ["canext", "{}", "--method", "polarity"],
    "roundtrip": ["roundtrip", "{}"],
    "check-pti": ["check-pti", "{}", "--all-witnesses"],
    "check-pti-frame": ["check-pti", "--frame", "{}", "--all-witnesses"],
    "export-dot": ["export-dot", "{}"],
}

CASES = [(fx, cmd) for fx in FIXTURES for cmd in COMMANDS]

# generator runs, by the stem of their golden files
GEN = {
    "gen.lattice-4": ["gen", "--kind", "lattice", "--size", "4",
                      "--exhaustive"],
    "gen.rs-frame-2": ["gen", "--kind", "rs-frame", "--size", "2",
                       "--exhaustive"],
    "gen.poset-4": ["gen", "--kind", "poset", "--size", "4", "--seed", "1"],
}

# inputs of the morphism checks beyond the fixtures: N5's dual graph and its
# rho frame
MORPHISM_INPUTS = {
    "dualN5": lambda: dual_graph(fixtures.n5()),
    "rhoN5": lambda: rho(dual_graph(fixtures.n5())),
}
# each is checked against its identity morphism, written to <name>.id.json
IDENTITIES = ["NT4", "F2x1", "ladder3", "dualN5", "rhoN5"]
# dualN5.bad.json sends p1 to p0, so edge (p1, p2) has no image edge: clause
# (i) fails
BAD_MAP = {"map": [["p0", "p0"], ["p1", "p0"], ["p2", "p2"]]}


def _is(cls, fx):
    return isinstance(FIXTURES[fx](), cls)


# further runs by the stem of their golden files; "{i}" is the inputs
# directory
MORE = {
    **{f"{fx}.export-dot-hasse": ["export-dot", f"{{i}}/{fx}.json", "--hasse"]
       for fx in FIXTURES if _is(FiniteLattice, fx)},
    **{f"{fx}.export-dot-loops": ["export-dot", f"{{i}}/{fx}.json",
                                  "--include-loops"]
       for fx in [*(f for f in FIXTURES if _is(Graph, f)), "dualN5"]},
    **{f"{fx}.{cmd}": [cmd, f"{{i}}/{fx}.json", f"{{i}}/{fx}.json",
                       f"{{i}}/{fx}.id.json"]
       for fx in IDENTITIES for cmd in ("check-morphism", "check-naturality")},
    **{f"dualN5.{cmd}-bad": [cmd, "{i}/dualN5.json", "{i}/dualN5.json",
                             "{i}/dualN5.bad.json"]
       for cmd in ("check-morphism", "check-naturality")},
    "check-pti-no-input": ["check-pti"],
    "check-pti-lattice-and-frame": ["check-pti", "{i}/N5.json", "--frame",
                                    "{i}/ladder3.json"],
    "NT4.id.export-dot": ["export-dot", "{i}/NT4.id.json"],
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _run_case(fx, cmd):
    return _run([a.format(INPUTS / f"{fx}.json") for a in COMMANDS[cmd]])


def _expected(stem):
    return {"stdout": Path(GOLDEN / f"{stem}.out").read_text(),
            "stderr": Path(GOLDEN / f"{stem}.err").read_text(),
            "exit": json.loads((GOLDEN / "exit_codes.json").read_text())
            [stem]}


@pytest.mark.parametrize("fx,cmd", CASES, ids=[f"{f}-{c}" for f, c in CASES])
def test_cli_output_is_unchanged(fx, cmd):
    assert _run_case(fx, cmd) == _expected(f"{fx}.{cmd}")


@pytest.mark.parametrize("stem", GEN)
def test_gen_output_is_unchanged(stem):
    assert _run(GEN[stem]) == _expected(stem)


def _run_more(stem):
    return _run([a.format(i=INPUTS) for a in MORE[stem]])


@pytest.mark.parametrize("stem", MORE)
def test_more_output_is_unchanged(stem):
    assert _run_more(stem) == _expected(stem)


def test_every_subcommand_has_a_golden_case():
    """suite is left out: tests/test_cli.py runs it."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    covered = {argv[0] for argv in [*COMMANDS.values(), *GEN.values(),
                                    *MORE.values()]}
    assert set(sub.choices) - {"suite"} <= covered


def capture():
    INPUTS.mkdir(parents=True, exist_ok=True)
    for fx, make in {**FIXTURES, **MORPHISM_INPUTS}.items():
        save_structure(make(), INPUTS / f"{fx}.json")
    for fx in IDENTITIES:
        obj = {**FIXTURES, **MORPHISM_INPUTS}[fx]()
        m = (identity_graph_morphism(obj) if isinstance(obj, Graph)
             else identity_frame_morphism(obj))
        (INPUTS / f"{fx}.id.json").write_text(_dumps(m.to_json()) + "\n")
    (INPUTS / "dualN5.bad.json").write_text(_dumps(BAD_MAP) + "\n")
    runs = {f"{fx}.{cmd}": _run_case(fx, cmd) for fx, cmd in CASES}
    runs.update((stem, _run(argv)) for stem, argv in GEN.items())
    runs.update((stem, _run_more(stem)) for stem in MORE)
    codes = {}
    for stem, got in runs.items():
        Path(GOLDEN / f"{stem}.out").write_text(got["stdout"])
        Path(GOLDEN / f"{stem}.err").write_text(got["stderr"])
        codes[stem] = got["exit"]
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    capture()
