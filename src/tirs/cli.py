"""Command-line surface.

Exit codes: 0 = all checks passed, 1 = a mathematical property failed
(witnesses printed as JSON), 2 = input or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import TirsError, UnsupportedKind
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


def _load(path):
    try:
        return parse_structure(load_json(path))
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")
    except (json.JSONDecodeError, UnsupportedKind, ValueError) as exc:
        raise UsageError(f"cannot parse {path}: {exc}")


class UsageError(Exception):
    pass


class MathFailure(Exception):
    """A mathematical property failed; payload is printed as JSON."""

    def __init__(self, payload):
        self.payload = payload
        super().__init__(json.dumps(payload))


def cmd_check(args):
    obj = _load(args.file)
    if isinstance(obj, FiniteLattice):
        # construction already validates the lattice axioms
        print(json.dumps({"kind": "lattice", "elements": len(obj.elements),
                          "verdict": True}))
        return
    if isinstance(obj, Graph):
        rep = check_graph(obj, args.all_witnesses)
        out = rep.to_json()
        out["tirs"] = rep.is_tirs
        print(json.dumps(out, indent=2))
        if not rep.is_tirs:
            raise MathFailure(out)
        return
    if isinstance(obj, Frame):
        rep = check_frame(obj, args.all_witnesses)
        out = rep.to_json()
        out["rs"] = rep.is_rs
        out["tirs"] = rep.is_tirs
        print(json.dumps(out, indent=2))
        if not rep.is_tirs:
            raise MathFailure(out)
        return
    raise UsageError("check expects a lattice, graph or frame file")


def cmd_dual(args):
    obj = _load(args.file)
    if not isinstance(obj, FiniteLattice):
        raise UsageError("dual expects a lattice file")
    print(dump_structure(dual_graph(obj)))


def cmd_rho(args):
    obj = _load(args.file)
    if not isinstance(obj, Graph):
        raise UsageError("rho expects a graph file")
    print(dump_structure(rho(obj)))


def cmd_gr(args):
    obj = _load(args.file)
    if not isinstance(obj, Frame):
        raise UsageError("gr expects a frame file")
    print(dump_structure(gr(obj)))


def cmd_canext(args):
    obj = _load(args.file)
    if not isinstance(obj, FiniteLattice):
        raise UsageError("canext expects a lattice file")
    if args.method in ("tandem", "both"):
        emb_t, gl_t = canext_tandem(obj)
    if args.method in ("polarity", "both"):
        emb_p, gl_p = canext_polarity(obj)
    if args.method == "both":
        agree, iso = cross_check_extensions(emb_t, emb_p)
        print(json.dumps({"cross_check": agree,
                          "isomorphism": sorted(map(list, iso.items()))},
                         indent=2))
        if not agree:
            raise MathFailure({"cross_check": False})
        print(dump_structure(gl_t))
    else:
        gl = gl_t if args.method == "tandem" else gl_p
        print(dump_structure(gl))


def cmd_roundtrip(args):
    obj = _load(args.file)
    if isinstance(obj, FiniteLattice):
        iso = lattice_iso(obj, canext_tandem(obj)[1].as_lattice)
        if iso is None:
            raise MathFailure({"roundtrip": False})
        out = {"isomorphism": sorted(map(list, iso.items()))}
    elif isinstance(obj, Graph):
        out = {"isomorphism": sorted(map(list, alpha(obj).map.items()))}
    elif isinstance(obj, Frame):
        out = beta(obj).to_json()
    else:
        raise UsageError("roundtrip expects a lattice, graph or frame file")
    print(json.dumps({"roundtrip": True, **out}, indent=2))


def cmd_check_pti(args):
    if args.frame:
        obj = _load(args.frame)
        if not isinstance(obj, Frame):
            raise UsageError("--frame expects a frame file")
        rep = check_pti_frame_form(obj, args.all_witnesses)
        print(json.dumps(rep.to_json(), indent=2))
        if not rep:
            raise MathFailure(rep.to_json())
        return
    obj = _load(args.file) if args.file is not None else None
    if not isinstance(obj, FiniteLattice):
        raise UsageError("check-pti expects a lattice file (or --frame)")
    rep, witnesses = check_pti(obj, args.all_witnesses)
    out = rep.to_json()
    out["pairs"] = [{"x": w.x, "y": w.y, "w": w.w, "z": w.z,
                     "status": w.status} for w in witnesses]
    print(json.dumps(out, indent=2))
    if not rep:
        raise MathFailure(out)


def _load_morphism(args):
    src = _load(args.source)
    tgt = _load(args.target)
    payload = _load(args.morphism)  # morphisms come back as raw payloads
    kind = detect_kind(payload) if isinstance(payload, dict) else None
    if kind == "graph-morphism":
        if not (isinstance(src, Graph) and isinstance(tgt, Graph)):
            raise UsageError("graph morphism needs graph source and target")
        return GraphMorphism(src, tgt, dict(map(tuple, payload["map"])))
    if kind == "frame-morphism":
        if not (isinstance(src, Frame) and isinstance(tgt, Frame)):
            raise UsageError("frame morphism needs frame source and target")
        return FrameMorphism(src, tgt, dict(map(tuple, payload["map1"])),
                             dict(map(tuple, payload["map2"])))
    raise UsageError("morphism file must carry map or map1/map2")


def cmd_check_morphism(args):
    m = _load_morphism(args)
    rep = (validate_graph_morphism(m, args.all_witnesses)
           if isinstance(m, GraphMorphism)
           else validate_frame_morphism(m, args.all_witnesses))
    print(json.dumps(rep.to_json(), indent=2))
    if not rep:
        raise MathFailure(rep.to_json())


def cmd_check_naturality(args):
    m = _load_morphism(args)
    rep = (validate_graph_morphism(m) if isinstance(m, GraphMorphism)
           else validate_frame_morphism(m))
    if not rep:
        raise MathFailure(rep.to_json())
    nat = check_naturality(m)
    print(json.dumps(nat.to_json(), indent=2))
    if not nat:
        raise MathFailure(nat.to_json())


def cmd_gen(args):
    if not args.exhaustive and args.seed is None:
        raise UsageError("randomized generation requires an explicit --seed")
    spec = GenSpec(args.kind, args.size, args.seed or 0, args.count,
                   args.exhaustive)
    objs = generate(spec)
    print(_dumps([o.to_json() for o in objs]))


def cmd_export_dot(args):
    obj = _load(args.file)
    if isinstance(obj, FiniteLattice):
        if not args.hasse:
            raise UsageError(
                "lattices have no relational DOT form; pass --hasse for the "
                "cover digraph")
        print(hasse_dot(obj))
        return
    print(export_dot(obj, include_loops=args.include_loops))


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

    sp = sub.add_parser("dual", help="dual graph of a lattice")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_dual)

    sp = sub.add_parser("rho", help="associated frame of a graph")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_rho)

    sp = sub.add_parser("gr", help="associated graph of a frame")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_gr)

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
