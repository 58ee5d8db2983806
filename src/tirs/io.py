"""JSON interchange for all structure kinds, plus DOT export.

JSON is the single interchange format; DOT is export-only.  Kind detection
is by key shape: lattices carry "elements"/"covers", graphs
"vertices"/"edges", frames "x1"/"x2"/"r", morphisms "map" or
"map1"/"map2".
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _q
from operator import itemgetter
from pathlib import Path

from .errors import InvalidInput, TirsError, UnsupportedKind
from .lattice import FiniteLattice, _walk, build_lattice
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


def _check_payload(payload, read=None):
    """Raise InvalidInput unless payload is an object whose name lists, pair
    lists and meta have the JSON types read; of read's pairs, only the type."""
    if not isinstance(payload, dict):
        raise InvalidInput("a structure must be a JSON object")
    for key in ("elements", "vertices", "x1", "x2"):
        v = payload.get(key, [])
        if not isinstance(v, list) or not all(map(isinstance, v, repeat(str))):
            raise InvalidInput(f"{key} must be a list of strings")
    for key in ("covers", "edges", "r", "map", "map1", "map2"):
        v = payload.get(key, [])
        if v != [] and not (  # an absent key makes no scan
                isinstance(v, list) and all(map(isinstance, v, repeat(list)))
                and (key == read or set(map(len, v)) <= {2} and all(map(
                    isinstance, chain.from_iterable(v), repeat(str))))):
            raise InvalidInput(f"{key} must be a list of name pairs")
    if not isinstance(payload.get("meta", {}), dict):
        raise InvalidInput("meta must be an object")


def parse_structure(payload: dict):
    try:
        kind = detect_kind(payload)
        _check_payload(payload, {"graph": "edges", "frame": "r"}.get(kind))
        if kind == "lattice":
            return build_lattice(payload["elements"],
                                 [tuple(p) for p in payload["covers"]])
        if kind == "graph":
            return Graph(payload["vertices"], payload["edges"],
                         payload.get("meta", {}))
        if kind == "frame":
            return Frame(payload["x1"], payload["x2"], payload["r"],
                         payload.get("meta", {}))
    except (TirsError, TypeError, ValueError):
        _check_payload(payload)  # with every pair checked: its error wins
        raise
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
        else:  # a name is quoted in place: a dual graph's meta has many
            items = [_q(x) if type(x) is str else _dumps(x, inner) for x in v]
        return f"[\n{inner}{sep.join(items)}\n{pad}]"
    return json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def dump_structure(obj) -> str:
    """_dumps(obj.to_json()), a relation written from its masks."""
    if not isinstance(obj, (Graph, Frame)):
        return _dumps(obj.to_json())
    lists, key, rows, names1, names2 = obj._json_parts()
    right = [f"{_q(b)}\n    ]" for b in names2]
    # each name is quoted once, and the pairs of a row are one join
    items = [(left := f"[\n      {_q(names1[i])},\n      ")
             + (",\n    " + left).join(picked)
             for i, picked in _walk(rows, names1, names2, right)]
    texts = {k: _dumps(list(v), "  ") for k, v in lists.items()}
    texts[key] = "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"
    if obj.meta:
        texts["meta"] = _dumps(obj.meta, "  ")
    body = ",\n  ".join([f"{_q(k)}: {texts[k]}" for k in sorted(texts)])
    return f"{{\n  {body}\n}}"


def save_structure(obj, path):
    Path(path).write_text(dump_structure(obj) + "\n", encoding="utf-8")


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(obj, include_loops: bool = False) -> str:
    """DOT rendering: graphs as digraphs (loops suppressed by default),
    frames as bipartite digraphs with R edges.  Lattices are rejected; use
    hasse_dot for the cover digraph."""
    if isinstance(obj, Graph):
        vs = obj.vertices
        lines = ["digraph G {", *[f"  {_quote(v)};" for v in vs]]
        lines += [f"  {_quote(vs[i])} -> {_quote(b)};"
                  for i, bs in _walk(obj.succ, vs, vs, vs) for b in bs
                  if b != vs[i] or include_loops]
        lines.append("}")
        return "\n".join(lines)
    if isinstance(obj, Frame):
        lines = ["digraph F {", "  rankdir=LR;"]
        for x in obj.x1:
            lines.append(f"  {_quote('1:' + x)} [shape=box];")
        for y in obj.x2:
            lines.append(f"  {_quote('2:' + y)} [shape=ellipse];")
        lines += [f"  {_quote('1:' + obj.x1[i])} -> {_quote('2:' + y)};"
                  for i, ys in _walk(obj.rows, obj.x1, obj.x2, obj.x2)
                  for y in ys]
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
