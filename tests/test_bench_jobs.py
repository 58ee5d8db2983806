"""Every job of the benchmark's workloads, at their smallest sizes, run in
this process through the same API object the benchmark builds.  The jobs
call tirs names directly (is_poset_graph, GenSpec, the functions of
bench/layers.py), so a rename in the library fails here and not first in a
benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402
import workloads  # noqa: E402

SEED = 0
WORKLOADS = {name: make(SEED, tiny=True)
             for name, make in sorted(workloads.WORKLOADS.items())}


@pytest.mark.parametrize("name,job", [
    pytest.param(name, job, id=f"{name}-{job.name}")
    for name, w in WORKLOADS.items() for job in w.jobs])
def test_job_runs(monkeypatch, name, job):
    monkeypatch.setenv("TIRS_SUITE_MAXSIZE",
                       str(WORKLOADS[name].suite_maxsize))
    # traced, so that the size counts read at each layer's boundary run too
    assert workloads.run_job(layers.make_api(layers.Tracer()), job)
