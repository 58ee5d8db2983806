"""Command-line surface.

Exit codes: 0 = all checks passed, 1 = a mathematical property failed
(witnesses printed as JSON), 2 = input or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InvalidInput, TirsError, UnsupportedKind
from .galois import canext_polarity, canext_tandem, cross_check_extensions
from .generators import GenSpec, generate
from .functors import (FrameMorphism, GraphMorphism, alpha, beta,
                       check_naturality, gr, rho, validate_frame_morphism,
                       validate_graph_morphism)
from .io import (_dumps, detect_kind, dump_structure, export_dot,
                 hasse_dot, load_json, parse_structure)
from .lattice import FiniteLattice, lattice_iso
from .ploscica import dual_graph
from .pti import check_pti, check_pti_frame_form
from .structures import Frame, Graph, check_frame, check_graph
from .suite import run_suite


def _load(path, kinds=object, usage=None):
    """The structure in path; UsageError(usage) unless it is one of kinds."""
    try:
        obj = parse_structure(load_json(path))
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")
    except (json.JSONDecodeError, UnsupportedKind, ValueError) as exc:
        raise UsageError(f"cannot parse {path}: {exc}")
    if not isinstance(obj, kinds):
        raise UsageError(usage)
    return obj


class UsageError(Exception):
    pass


class MathFailure(Exception):
    """A mathematical property failed; payload is printed as JSON."""

    def __init__(self, payload):
        self.payload = payload
        super().__init__(json.dumps(payload))


def _verdict(out, ok):
    """Print the report out; MathFailure(out) unless ok."""
    print(json.dumps(out, indent=2))
    if not ok:
        raise MathFailure(out)


def cmd_check(args):
    obj = _load(args.file, (FiniteLattice, Graph, Frame),
                "check expects a lattice, graph or frame file")
    if isinstance(obj, FiniteLattice):
        # construction already validates the lattice axioms
        print(json.dumps({"kind": "lattice", "elements": len(obj.elements),
                          "verdict": True}))
        return
    rep = (check_graph if isinstance(obj, Graph) else check_frame)(
        obj, args.all_witnesses)
    out = rep.to_json()
    if isinstance(obj, Frame):
        out["rs"] = rep.is_rs
    out["tirs"] = rep.is_tirs
    _verdict(out, rep.is_tirs)


# dual, rho and gr: input type, its name, the map, and the help line
_MAPS = {"dual": (FiniteLattice, "lattice", dual_graph,
                  "dual graph of a lattice"),
         "rho": (Graph, "graph", rho, "associated frame of a graph"),
         "gr": (Frame, "frame", gr, "associated graph of a frame")}


def cmd_map(args):
    kind, name, fn, _ = _MAPS[args.command]
    obj = _load(args.file, kind, f"{args.command} expects a {name} file")
    print(dump_structure(fn(obj)))


def cmd_canext(args):
    obj = _load(args.file, FiniteLattice, "canext expects a lattice file")
    tandem = canext_tandem(obj) if args.method != "polarity" else None
    polarity = canext_polarity(obj) if args.method != "tandem" else None
    if tandem and polarity:
        agree, iso = cross_check_extensions(tandem[0], polarity[0])
        print(json.dumps({"cross_check": agree,
                          "isomorphism": sorted(map(list, iso.items()))},
                         indent=2))
        if not agree:
            raise MathFailure({"cross_check": False})
    print(dump_structure((tandem or polarity)[1]))


def cmd_roundtrip(args):
    obj = _load(args.file, (FiniteLattice, Graph, Frame),
                "roundtrip expects a lattice, graph or frame file")
    if isinstance(obj, FiniteLattice):
        iso = lattice_iso(obj, canext_tandem(obj)[1].as_lattice)
        if iso is None:
            raise MathFailure({"roundtrip": False})
        out = {"isomorphism": sorted(map(list, iso.items()))}
    elif isinstance(obj, Graph):
        out = {"isomorphism": sorted(map(list, alpha(obj).map.items()))}
    else:
        out = beta(obj).to_json()
    print(json.dumps({"roundtrip": True, **out}, indent=2))


def cmd_check_pti(args):
    if args.frame and args.file:
        raise UsageError("check-pti takes a lattice file or --frame, not both")
    if args.frame:
        rep = check_pti_frame_form(
            _load(args.frame, Frame, "--frame expects a frame file"),
            args.all_witnesses)
        return _verdict(rep.to_json(), rep)
    usage = "check-pti expects a lattice file (or --frame)"
    if args.file is None:
        raise UsageError(usage)
    rep, witnesses = check_pti(_load(args.file, FiniteLattice, usage),
                               args.all_witnesses)
    out = rep.to_json()
    out["pairs"] = [{"x": w.x, "y": w.y, "w": w.w, "z": w.z,
                     "status": w.status} for w in witnesses]
    _verdict(out, rep)


def _point_map(payload, key):
    """The map listed under key; InvalidInput if a point is listed twice."""
    out = {}
    for a, b in payload[key]:
        if a in out:
            raise InvalidInput(f"{key} lists the point {a!r} twice")
        out[a] = b
    return out


def _load_morphism(args):
    """The morphism of args and the validator for its kind."""
    payload = _load(args.morphism, dict,  # morphisms come back raw
                    "morphism file must carry map or map1/map2")
    graph = detect_kind(payload) == "graph-morphism"
    kind, name = (Graph, "graph") if graph else (Frame, "frame")
    usage = f"{name} morphism needs {name} source and target"
    src, tgt = _load(args.source, kind, usage), _load(args.target, kind, usage)
    if graph:
        return (GraphMorphism(src, tgt, _point_map(payload, "map")),
                validate_graph_morphism)
    return (FrameMorphism(src, tgt, _point_map(payload, "map1"),
                          _point_map(payload, "map2")),
            validate_frame_morphism)


def cmd_check_morphism(args):
    m, validate = _load_morphism(args)
    rep = validate(m, args.all_witnesses)
    _verdict(rep.to_json(), rep)


def cmd_check_naturality(args):
    m, validate = _load_morphism(args)
    rep = validate(m)
    if not rep:
        raise MathFailure(rep.to_json())
    nat = check_naturality(m)
    _verdict(nat.to_json(), nat)


def cmd_gen(args):
    if not args.exhaustive and args.seed is None:
        raise UsageError("randomized generation requires an explicit --seed")
    spec = GenSpec(args.kind, args.size, args.seed or 0, args.count,
                   args.exhaustive)
    objs = generate(spec)
    print(_dumps([o.to_json() for o in objs]))


def cmd_export_dot(args):
    obj = _load(args.file, (FiniteLattice, Graph, Frame),
                "export-dot expects a graph or frame file")
    if not isinstance(obj, FiniteLattice):
        print(export_dot(obj, include_loops=args.include_loops))
    elif args.hasse:
        print(hasse_dot(obj))
    else:
        raise UsageError("lattices have no relational DOT form; pass --hasse "
                         "for the cover digraph")


def cmd_suite(args):
    results = run_suite(args.seed)
    bad = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        bad += 0 if ok else 1
    if bad:
        raise MathFailure({"failed_tasks": bad})


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tirs",
        description="Finite-scale toolkit for bounded-lattice duality")
    sub = p.add_subparsers(dest="command", required=True)

    def wit(sp):
        sp.add_argument("--all-witnesses", action="store_true",
                        help="enumerate every witness, not just the first")

    sp = sub.add_parser("check", help="condition checks on a structure file")
    sp.add_argument("file")
    wit(sp)
    sp.set_defaults(fn=cmd_check)

    for name, (*_, help_) in _MAPS.items():
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("file")
        sp.set_defaults(fn=cmd_map)

    sp = sub.add_parser("canext", help="canonical extension of a lattice")
    sp.add_argument("file")
    sp.add_argument("--method", choices=["tandem", "polarity", "both"],
                    default="both")
    sp.set_defaults(fn=cmd_canext)

    sp = sub.add_parser("roundtrip",
                        help="verify the round-trip isomorphism")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_roundtrip)

    sp = sub.add_parser("check-pti", help="PTi condition check")
    sp.add_argument("file", nargs="?")
    sp.add_argument("--frame", help="check the frame-level form instead")
    wit(sp)
    sp.set_defaults(fn=cmd_check_pti)

    sp = sub.add_parser("check-morphism", help="validate a morphism file")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("morphism")
    wit(sp)
    sp.set_defaults(fn=cmd_check_morphism)

    sp = sub.add_parser("check-naturality",
                        help="verify the canonical naturality square")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("morphism")
    sp.set_defaults(fn=cmd_check_naturality)

    sp = sub.add_parser("gen", help="generate structures")
    sp.add_argument("--kind", required=True,
                    choices=["poset", "lattice", "distributive-lattice",
                             "tirs-graph", "rs-frame"])
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--exhaustive", action="store_true")
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("export-dot", help="DOT rendering of a structure")
    sp.add_argument("file")
    sp.add_argument("--include-loops", action="store_true")
    sp.add_argument("--hasse", action="store_true",
                    help="cover digraph for lattice files")
    sp.set_defaults(fn=cmd_export_dot)

    sp = sub.add_parser("suite", help="run the full invariant battery")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_suite)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.fn(args)
        return 0
    except MathFailure as exc:
        print(json.dumps(exc.payload), file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TirsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
