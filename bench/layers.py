"""The benchmark's boundary into the tirs modules, and the span tracer.

Jobs call tirs only through the object `make_api` returns.  Untraced, its
attributes are the library functions themselves.  Traced, each one is
wrapped so that every call records a span and the exact size counts of the
layer it enters.  Spans are recorded only around the benchmark's own calls:
calls a tirs function makes internally are part of its caller's span.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

MODULES = ("lattice", "ploscica", "structures", "functors", "galois", "pti",
           "generators", "suite", "io")

# The public functions the jobs call, as "<module>.<function>".
FUNCTIONS = (
    "lattice.build_lattice", "lattice.lattice_iso",
    "ploscica.maximal_pairs", "ploscica.dual_graph",
    "structures.check_graph", "structures.check_frame",
    "functors.rho", "functors.h_set", "functors.gr", "functors.alpha",
    "functors.beta",
    "galois.closed_sets", "galois.canext_tandem", "galois.canext_polarity",
    "pti.check_pti",
    "generators.generate",
    "io.parse_structure", "io.dump_structure",
)

# Exact size counts taken at a function's boundary: name -> (count name,
# size of one call computed from its arguments and its result).
SIZES = {
    "lattice.build_lattice": ("lattice.elements", lambda args, r: r.n),
    "ploscica.maximal_pairs": ("ploscica.pairs", lambda args, r: len(r)),
    "structures.check_graph": ("structures.edges",
                               lambda args, r: len(args[0].edges)),
    "functors.rho": ("functors.frame_cells",
                     lambda args, r: len(r.x1) * len(r.x2)),
    "functors.h_set": ("functors.h_pairs", lambda args, r: len(r)),
    "galois.closed_sets": ("galois.closed_sets",
                           lambda args, r: len(r.closed_sets)),
    "io.dump_structure": ("io.bytes_out",
                          lambda args, r: len(r.encode("utf-8"))),
}
COUNTS = tuple(name for name, _ in SIZES.values())


def suite_tasks() -> tuple[str, ...]:
    from tirs.suite import TASKS
    return tuple(sorted(TASKS))


class Tracer:
    """Spans kept in memory as [name, start, end, parent, job]; `start` and
    `end` are CPU seconds of the process (time.process_time), `parent` is
    the index of the enclosing span, `job` the id of the job being run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []

    def begin(self, name: str) -> list:
        rec = [name, time.process_time(), None,
               self._stack[-1] if self._stack else None, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list):
        rec[2] = time.process_time()
        self._stack.pop()

    def wrap(self, name: str, fn):
        module = name.split(".", 1)[0]
        size = SIZES.get(name)

        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[module + ".errors"] += 1
                raise
            finally:
                self.end(rec)
            if size is not None:
                self.counts[size[0]] += size[1](args, result)
            return result

        return traced

    def totals(self, first: int = 0) -> dict[str, list]:
        """name -> [seconds, calls] over the spans from index `first` on."""
        out: dict[str, list] = {}
        for name, start, end, _, _ in self.spans[first:]:
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += end - start
            acc[1] += 1
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "job"],
             "spans": self.spans}))


def make_api(tracer: Tracer | None = None) -> SimpleNamespace:
    """The functions jobs may call, by bare name, plus `tasks`: the suite
    tasks by name.  Each is wrapped by `tracer` when one is given."""
    from tirs.suite import TASKS

    def bind(name, fn):
        return tracer.wrap(name, fn) if tracer is not None else fn

    api = {}
    for name in FUNCTIONS:
        module, fn = name.split(".")
        api[fn] = bind(name, getattr(
            importlib.import_module(f"tirs.{module}"), fn))
    api["tasks"] = {task: bind(f"suite.{task}", fn)
                    for task, fn in TASKS.items()}
    return SimpleNamespace(**api)
