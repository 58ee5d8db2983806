"""The three workloads: seeded JSON payloads, and the job that turns one
payload into serialised results checked against closed-form expectations.

wide     M_n for n = 3..12: n(n-1) maximal pairs on n + 2 elements, so the
         graph side (ploscica, check_graph, rho, alpha) carries the work.
tall     chains, Boolean lattices and grids: many elements, few maximal
         pairs (|J(L)| for a distributive L), so lattice tables, closed
         sets of |L| x |L| polarity frames, lattice_iso and check_pti carry
         the work.
battery  the suite tasks for seeds drawn from the workload seed, plus
         exhaustive generation: thousands of tiny structures, so
         construction overhead and the frame-side paths carry the work.

In wide and tall the seed renames the elements and shuffles the element and
cover order; the lattices themselves do not change with the seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

# How many suite seeds one battery pass runs, and the structure size bound
# the suite sweeps (TIRS_SUITE_MAXSIZE).
BATTERY_SEEDS = 4
SUITE_MAXSIZE = 8

# Numbers of unlabelled lattices (OEIS A006966) and posets (A000112) by size.
LATTICES_BY_SIZE = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15}
POSETS_BY_SIZE = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}

CHAINS = (8, 16, 24, 32, 40)
BOOLEAN_RANKS = (2, 3, 4, 5)
GRIDS = ((2, 3), (3, 3), (2, 8), (4, 4), (3, 8), (4, 6), (5, 5), (6, 6))


@dataclass(frozen=True)
class Job:
    name: str
    kind: str      # "lattice", "suite" or "generate"
    payload: str   # JSON text, the job's only input
    expect: dict   # closed-form expectations the results must meet


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    largest: str          # name of the job reported as largest_job_s
    suite_maxsize: int    # TIRS_SUITE_MAXSIZE while the jobs run


class JobFailed(Exception):
    """A job's result broke one of its expectations."""


# -- payloads -----------------------------------------------------------


def _m_n(n):
    atoms = [f"a{i}" for i in range(n)]
    covers = [("0", a) for a in atoms] + [(a, "1") for a in atoms]
    return ["0", "1", *atoms], covers


def _chain_product(dims):
    points = list(itertools.product(*(range(d) for d in dims)))

    def name(p):
        return "x" + "_".join(map(str, p))

    covers = [(name(p), name(p[:i] + (p[i] + 1,) + p[i + 1:]))
              for p in points for i, d in enumerate(dims) if p[i] + 1 < d]
    return [name(p) for p in points], covers


def _lattice_job(rng, name, elements, covers, pairs, distributive):
    labels = [f"e{i}" for i in range(len(elements))]
    rng.shuffle(labels)
    rename = dict(zip(elements, labels))
    elems = [rename[e] for e in elements]
    rng.shuffle(elems)
    cov = [[rename[a], rename[b]] for a, b in covers]
    rng.shuffle(cov)
    payload = json.dumps({"elements": elems, "covers": cov})
    return Job(name, "lattice", payload,
               {"size": len(elements), "pairs": pairs,
                "distributive": distributive})


def wide(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    top = 4 if tiny else 12
    jobs = [_lattice_job(rng, f"M{n}", *_m_n(n), pairs=n * (n - 1),
                         distributive=False)
            for n in range(3, top + 1)]
    return Workload(tuple(jobs), f"M{top}", SUITE_MAXSIZE)


def tall(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    chains, ranks, grids = (((4,), (2,), ((2, 3),)) if tiny
                            else (CHAINS, BOOLEAN_RANKS, GRIDS))
    families = ([(f"C{n}", (n,)) for n in chains]
                + [(f"B{k}", (2,) * k) for k in ranks]
                + [(f"C{a}xC{b}", (a, b)) for a, b in grids])
    # A product of chains is distributive; its join-irreducibles, and so
    # its maximal pairs, number sum(d - 1).
    jobs = [_lattice_job(rng, name, *_chain_product(dims),
                         pairs=sum(d - 1 for d in dims), distributive=True)
            for name, dims in families]
    return Workload(tuple(jobs), f"C{max(chains)}", SUITE_MAXSIZE)


def battery(seed: int, tiny: bool = False) -> Workload:
    from tirs.suite import TASKS

    rng = random.Random(seed)
    seeds = [rng.randrange(2 ** 31) for _ in range(1 if tiny else
                                                   BATTERY_SEEDS)]
    # One job runs one task for every seed, which keeps the median job
    # from hopping between tasks whose cost depends on the seed.
    jobs = [Job(task, "suite", json.dumps({"task": task, "seeds": seeds}),
                {})
            for task in sorted(TASKS)]
    lattice_max, poset_max, frame_size = (4, 3, 2) if tiny else (6, 5, 3)
    gens = ([("lattice", n, LATTICES_BY_SIZE[n])
             for n in range(1, lattice_max + 1)]
            + [("poset", n, POSETS_BY_SIZE[n])
               for n in range(1, poset_max + 1)]
            + [("rs-frame", frame_size, None)])
    jobs += [Job(f"{kind}-{n}", "generate",
                 json.dumps({"kind": kind, "size": n, "exhaustive": True}),
                 {"count": count})
             for kind, n, count in gens]
    return Workload(tuple(jobs), f"poset-{poset_max}",
                    4 if tiny else SUITE_MAXSIZE)


WORKLOADS = {"wide": wide, "tall": tall, "battery": battery}


# -- the job --------------------------------------------------------------


def _check(ok, what):
    if not ok:
        raise JobFailed(what)


def _extensions_agree(L, emb_t, emb_p) -> bool:
    """Both embeddings are onto and induce L's order on their images, so
    the two extensions are isomorphic through them."""
    if len(set(emb_t.map)) != L.n or len(set(emb_p.map)) != L.n:
        return False
    T, P = emb_t.target, emb_p.target
    return all(L.le(a, b) == T.le(emb_t.map[a], emb_t.map[b])
               == P.le(emb_p.map[a], emb_p.map[b])
               for a in range(L.n) for b in range(L.n))


def _is_order_iso(L, K, iso) -> bool:
    if iso is None or len(set(iso.values())) != L.n or K.n != L.n:
        return False
    return all(L.le_names(a, b) == K.le_names(iso[a], iso[b])
               for a in L.elements for b in L.elements)


def _run_lattice(api, job):
    from tirs.structures import is_poset_graph

    p, e = json.loads(job.payload), job.expect
    L = api.build_lattice(p["elements"], [tuple(c) for c in p["covers"]])
    _check(L.n == e["size"], f"{L.n} elements, expected {e['size']}")
    k = len(api.maximal_pairs(L))
    _check(k == e["pairs"], f"{k} maximal pairs, expected {e['pairs']}")
    g = api.dual_graph(L)
    _check(len(g.vertices) == e["pairs"], "dual graph vertex count")
    _check(api.check_graph(g).is_tirs, "dual graph is not TiRS")
    if e["distributive"]:
        _check(is_poset_graph(g), "dual of a distributive lattice is not "
                                  "a poset")
    f = api.rho(g)
    _check(api.check_frame(f).is_tirs, "rho frame is not TiRS")
    # (S) holds on a dual graph, so H(rho(g)) has one pair per vertex.
    _check(len(api.h_set(f)) == e["pairs"], "H-set size")
    back = api.gr(f)
    _check(sorted(api.alpha(g).map.values()) == sorted(back.vertices),
           "alpha is not onto gr(rho(g))")
    beta = api.beta(f)
    _check(set(beta.map1) == set(f.x1) and set(beta.map2) == set(f.x2),
           "beta is not defined on all of rho(g)")
    _check(len(api.closed_sets(f).closed_sets) == e["size"],
           "closed sets of rho(g) do not number |L|")
    emb_t, gl_t = api.canext_tandem(L)
    emb_p, _ = api.canext_polarity(L)
    _check(_extensions_agree(L, emb_t, emb_p),
           "tandem and polarity extensions disagree")
    _check(_is_order_iso(L, gl_t.as_lattice,
                         api.lattice_iso(L, gl_t.as_lattice)),
           "L is not isomorphic to its canonical extension")
    _check(api.check_pti(L)[0].verdict, "PTi fails")
    out = [api.dump_structure(x) for x in (g, f, gl_t)]
    _check(api.parse_structure(json.loads(out[0])) == g,
           "dual graph does not survive serialisation")
    _check(api.parse_structure(json.loads(out[1])) == f,
           "rho frame does not survive serialisation")
    return out


def _run_suite(api, job):
    p = json.loads(job.payload)
    task = api.tasks[p["task"]]
    out = []
    for seed in p["seeds"]:
        ok, detail = task(seed)
        _check(ok, f"suite task fails for seed {seed}: {detail}")
        out.append(json.dumps({"task": p["task"], "seed": seed, "ok": ok,
                               "detail": detail}))
    return out


def _same_structure(a, b) -> bool:
    if hasattr(a, "leq"):
        return a.elements == b.elements and a.leq == b.leq
    return a == b


def _run_generate(api, job):
    from tirs.generators import GenSpec

    p = json.loads(job.payload)
    made = api.generate(GenSpec(p["kind"], p["size"],
                                exhaustive=p["exhaustive"]))
    want = job.expect["count"]
    _check(want is None or len(made) == want,
           f"{len(made)} structures, expected {want}")
    if p["kind"] == "rs-frame":
        # A finite RS frame is TiRS, so beta must verify on every one.
        for f in made:
            _check(api.check_frame(f).is_tirs, "finite RS frame fails (Ti)")
            api.beta(f)
    out = [api.dump_structure(x) for x in made]
    _check(all(_same_structure(api.parse_structure(json.loads(t)), x)
               for t, x in zip(out, made)),
           "a generated structure does not survive serialisation")
    return out


RUNNERS = {"lattice": _run_lattice, "suite": _run_suite,
           "generate": _run_generate}


def run_job(api, job: Job) -> list[str]:
    """Run one job and return its serialised results; raises JobFailed (or
    the library's own error) when a result breaks an expectation."""
    return RUNNERS[job.kind](api, job)
