"""JSON interchange for all structure kinds, plus DOT export.

JSON is the single interchange format; DOT is export-only.  Kind detection
is by key shape: lattices carry "elements"/"covers", graphs
"vertices"/"edges", frames "x1"/"x2"/"r", morphisms "map" or
"map1"/"map2".
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _q
from operator import itemgetter
from pathlib import Path

from .errors import InvalidInput, UnsupportedKind
from .lattice import FiniteLattice, build_lattice
from .structures import Frame, Graph


def detect_kind(payload: dict) -> str:
    if "elements" in payload and "covers" in payload:
        return "lattice"
    if "vertices" in payload and "edges" in payload:
        return "graph"
    if "x1" in payload and "x2" in payload and "r" in payload:
        return "frame"
    if "map" in payload:
        return "graph-morphism"
    if "map1" in payload and "map2" in payload:
        return "frame-morphism"
    raise UnsupportedKind(f"cannot detect structure kind from keys "
                          f"{sorted(payload)}")


def _check_payload(payload):
    """Raise InvalidInput unless payload is an object whose name lists,
    pair lists and meta, where present, have the JSON types read."""
    if not isinstance(payload, dict):
        raise InvalidInput("a structure must be a JSON object")
    for key in ("elements", "vertices", "x1", "x2"):
        v = payload.get(key, [])
        if not isinstance(v, list) or not all(isinstance(x, str) for x in v):
            raise InvalidInput(f"{key} must be a list of strings")
    for key in ("covers", "edges", "r", "map", "map1", "map2"):
        v = payload.get(key, [])
        if not isinstance(v, list) or not all(
                isinstance(p, list) and len(p) == 2
                and isinstance(p[0], str) and isinstance(p[1], str)
                for p in v):
            raise InvalidInput(f"{key} must be a list of name pairs")
    if not isinstance(payload.get("meta", {}), dict):
        raise InvalidInput("meta must be an object")


def parse_structure(payload: dict):
    _check_payload(payload)
    kind = detect_kind(payload)
    if kind == "lattice":
        return build_lattice(payload["elements"],
                             [tuple(p) for p in payload["covers"]])
    if kind == "graph":
        return Graph(payload["vertices"], payload["edges"],
                     payload.get("meta", {}))
    if kind == "frame":
        return Frame(payload["x1"], payload["x2"], payload["r"],
                     payload.get("meta", {}))
    return payload  # morphisms stay raw; they need source/target context


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_structure(path):
    return parse_structure(load_json(path))


def _dumps(v, pad: str = "") -> str:
    """json.dumps(v, indent=2, sort_keys=True), lines after the first
    indented by pad.  Lists, str-keyed dicts and names are joined here, a
    pair list quoting each distinct name once; the rest is json.dumps
    re-indented, exact as encoded strings hold no raw newline."""
    if type(v) is str:
        return _q(v)
    inner, sep = pad + "  ", ",\n" + pad + "  "
    if type(v) is dict and v and all(type(k) is str for k in v):
        body = sep.join([f"{_q(k)}: {_dumps(v[k], inner)}" for k in sorted(v)])
        return f"{{\n{inner}{body}\n{pad}}}"
    if type(v) is list and v:
        if all(type(p) is list and len(p) == 2 and type(p[0]) is str
               is type(p[1]) for p in v):
            left = {a: f"[\n{inner}  {_q(a)},\n{inner}  "
                    for a in set(map(itemgetter(0), v))}
            right = {b: f"{_q(b)}\n{inner}]"
                     for b in set(map(itemgetter(1), v))}
            items = [left[a] + right[b] for a, b in v]
        else:
            items = [_dumps(x, inner) for x in v]
        return f"[\n{inner}{sep.join(items)}\n{pad}]"
    return json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def dump_structure(obj) -> str:
    return _dumps(obj.to_json())


def save_structure(obj, path):
    Path(path).write_text(dump_structure(obj) + "\n", encoding="utf-8")


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(obj, include_loops: bool = False) -> str:
    """DOT rendering: graphs as digraphs (loops suppressed by default),
    frames as bipartite digraphs with R edges.  Lattices are rejected; use
    hasse_dot for the cover digraph."""
    if isinstance(obj, Graph):
        lines = ["digraph G {"]
        for v in obj.vertices:
            lines.append(f"  {_quote(v)};")
        for a, b in obj.to_json()["edges"]:
            if a == b and not include_loops:
                continue
            lines.append(f"  {_quote(a)} -> {_quote(b)};")
        lines.append("}")
        return "\n".join(lines)
    if isinstance(obj, Frame):
        lines = ["digraph F {", "  rankdir=LR;"]
        for x in obj.x1:
            lines.append(f"  {_quote('1:' + x)} [shape=box];")
        for y in obj.x2:
            lines.append(f"  {_quote('2:' + y)} [shape=ellipse];")
        for a, b in obj.to_json()["r"]:
            lines.append(f"  {_quote('1:' + a)} -> {_quote('2:' + b)};")
        lines.append("}")
        return "\n".join(lines)
    if isinstance(obj, FiniteLattice):
        raise UnsupportedKind("lattices have no relational DOT form; "
                             "use the Hasse export")
    raise UnsupportedKind(f"cannot export {type(obj).__name__}")


def hasse_dot(L: FiniteLattice) -> str:
    """Cover-only digraph of a lattice (Hasse diagram, drawn upward)."""
    lines = ["digraph H {", "  rankdir=BT;"]
    for e in L.elements:
        lines.append(f"  {_quote(e)};")
    for a, b in L.covers():
        lines.append(f"  {_quote(L.name(a))} -> {_quote(L.name(b))};")
    lines.append("}")
    return "\n".join(lines)
