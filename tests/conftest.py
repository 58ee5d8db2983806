import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tirs import structures  # noqa: E402
from tirs.structures import Frame, Graph  # noqa: E402


@pytest.fixture
def builds(monkeypatch):
    """Graphs and frames built per kind, and (S) scans run per label, of
    graphs and frames.  Every counted structure is kept alive, so no id is
    reused while counting."""
    counts, alive = Counter(), []
    for cls in (Graph, Frame):
        def counted(obj, *args, init=cls._init, kind=cls.__name__):
            alive.append(obj)
            counts[kind] += 1
            init(obj, *args)
        monkeypatch.setattr(cls, "_init", counted)

    def scan(keys, names, label, run=structures._equal_pairs):
        counts["scan", label] += 1
        return run(keys, names, label)

    monkeypatch.setattr(structures, "_equal_pairs", scan)
    return counts
