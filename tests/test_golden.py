"""Golden CLI outputs: stdout, stderr and exit code of the read-only
commands on the fixture corpus, compared byte for byte.

The expected files under tests/golden/ were written by this module's
``capture()``.  To record them again after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from tirs import fixtures
from tirs.cli import run
from tirs.io import save_structure

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

FIXTURES = {
    "C2": fixtures.c2, "C3": fixtures.c3, "B2": fixtures.b2,
    "M3": fixtures.m3, "N5": fixtures.n5, "NT4": fixtures.nt4,
    "F2x1": fixtures.f2x1, "ladder3": lambda: fixtures.ladder_truncation(3),
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
}

CASES = [(fx, cmd) for fx in FIXTURES for cmd in COMMANDS]


def _run_case(fx, cmd):
    argv = [a.format(INPUTS / f"{fx}.json") for a in COMMANDS[cmd]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _expected(fx, cmd):
    stem = GOLDEN / f"{fx}.{cmd}"
    return {"stdout": Path(f"{stem}.out").read_text(),
            "stderr": Path(f"{stem}.err").read_text(),
            "exit": json.loads((GOLDEN / "exit_codes.json").read_text())
            [f"{fx}.{cmd}"]}


@pytest.mark.parametrize("fx,cmd", CASES, ids=[f"{f}-{c}" for f, c in CASES])
def test_cli_output_is_unchanged(fx, cmd):
    assert _run_case(fx, cmd) == _expected(fx, cmd)


def capture():
    INPUTS.mkdir(parents=True, exist_ok=True)
    for fx, make in FIXTURES.items():
        save_structure(make(), INPUTS / f"{fx}.json")
    codes = {}
    for fx, cmd in CASES:
        got = _run_case(fx, cmd)
        Path(GOLDEN / f"{fx}.{cmd}.out").write_text(got["stdout"])
        Path(GOLDEN / f"{fx}.{cmd}.err").write_text(got["stderr"])
        codes[f"{fx}.{cmd}"] = got["exit"]
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    capture()
