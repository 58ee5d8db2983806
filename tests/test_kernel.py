"""The mask kernels of lattices, structures and functors against the
set-based bodies in oracles.py: same verdicts, same witnesses in the same
order, same tables, frames and isomorphisms, and the same errors."""

import functools
import itertools
import json
import random

import pytest

from tirs import fixtures, lattice, suite
from tirs.errors import (InvalidInput, NotALattice, NotAPartialOrder,
                         TirsError)
from tirs.functors import (FrameMorphism, GraphMorphism, _is_frame_iso,
                           _is_graph_iso, _permutes, frame_iso, gr,
                           graph_iso, h_set, rho, validate_frame_morphism,
                           validate_graph_morphism)
from tirs.galois import (_close, _generation_failures, canext_polarity,
                         closed_sets,
                         closure, frame_of_perfect, galois_down, galois_up)
from tirs.galois import inclusion_lattice
from tirs.generators import (GenSpec, _canonical, _lattice_sets,
                             _random_pairs, gen_lattice, gen_poset,
                             gen_rs_frame, gen_tirs_graph,
                             random_monotone_map)
from tirs.io import dump_structure
from tirs.lattice import (FiniteLattice, _warshall, bits, build_lattice,
                          irreducibles, lattice_from_leq, lattice_iso)
from tirs.ploscica import dual_graph, maximal_pairs
from tirs.pti import _pti_pairs, check_pti_frame_form
from tirs.structures import Frame, Graph, _is_rs, check_frame, \
    check_graph, is_poset_graph, ti_failures

from oracles import (_enumerate_strict_orders, all_frames, all_graphs,
                     brute_lattice_classes, brute_poset_classes,
                     framewise_gen_rs_frame, strict_order_classes,
                     frozen_dm_completion, frozen_downset_lattice,
                     frozen_inclusion_lattice, loop_permutes,
                     pairwise_closure, pairwise_gen_lattice, pairwise_posets,
                     set_check_frame,
                     set_check_graph, set_closed_sets, set_closure,
                     set_covers, set_dual_graph, set_finish_lattice,
                     set_frame_iso, set_frame_of_perfect, set_galois_down,
                     set_galois_up, set_gen_rs_frame,
                     set_generation_failures, set_gr, set_graph_iso,
                     set_h_set, set_poset_graph,
                     set_irreducibles, set_is_frame_iso, set_is_graph_iso,
                     set_is_poset_graph, set_lattice_iso,
                     set_lower_covers, set_maximal_pairs, set_polarity_frame,
                     set_pti_pairs, set_random_monotone_map, set_rho,
                     set_ti_failures,
                     set_transitive_closure, set_upper_covers,
                     set_validate_frame_morphism,
                     set_validate_graph_morphism, subsets)


def m_n(n):
    atoms = [f"a{i}" for i in range(n)]
    return build_lattice(["0", *atoms, "1"],
                         [("0", a) for a in atoms] + [(a, "1") for a in atoms])


def small_graphs():
    """All relations on 1-3 vertices and all reflexive ones on 4."""
    for n in (1, 2, 3):
        yield from all_graphs(n)
    yield from all_graphs(4, reflexive_only=True)


def dual_graphs():
    lats = [m_n(n) for n in range(3, 7)]
    for size in range(3, 9):
        lats += gen_lattice(GenSpec("lattice", size, seed=size, count=3))
    return [dual_graph(L) for L in lats]


GRAPHS = {"small": small_graphs, "dual": dual_graphs}
SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)]


def relabelled(g: Graph, rng) -> Graph:
    """g with its vertices renamed and listed in a shuffled order."""
    names = dict(zip(g.vertices, (f"w{i}" for i in
                                  rng.sample(range(len(g.vertices)),
                                             len(g.vertices)))))
    vs = list(names.values())
    rng.shuffle(vs)
    return Graph(tuple(vs), frozenset((names[a], names[b])
                                      for a, b in g.edges))


def shuffled(f: Frame, rng) -> Frame:
    x1, x2 = list(f.x1), list(f.x2)
    rng.shuffle(x1)
    rng.shuffle(x2)
    return Frame(tuple(x1), tuple(x2), f.r)


@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_check_graph_matches_the_set_checker(family):
    for g in GRAPHS[family]():
        assert check_graph(g, True) == set_check_graph(g, True)
        assert check_graph(g) == set_check_graph(g)
        assert is_poset_graph(g, True) == set_is_poset_graph(g, True)


@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_rho_matches_the_set_rho(family):
    for g in GRAPHS[family]():
        f, want = rho(g), set_rho(g)
        assert (f.x1, f.x2, f.r) == (want.x1, want.x2, want.r)
        assert f.meta == want.meta
        assert list(f.meta["class1"]) == list(want.meta["class1"])


@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_rho_frames_match_the_set_builder(family):
    for g in GRAPHS[family]():
        assert_same_carrier(rho(g), set_rho(g))


def assert_same_carrier(got, want):
    """got, built from masks, and want, built from name pairs, look the
    same to a caller: equality, hash, JSON text, the name-pair view, the
    transposed masks and the meta with its key order."""
    assert type(got) is type(want)
    assert got == want and hash(got) == hash(want)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    assert list(got.meta.items()) == list(want.meta.items())
    if isinstance(want, Graph):
        assert (got.edges, got.pred, got.index) == \
            (want.edges, want.pred, want.index)
    else:
        assert (got.r, got.cols, got.index1, got.index2) == \
            (want.r, want.cols, want.index1, want.index2)


def test_random_graphs_meet_the_set_r_check():
    """(R) with all witnesses on every relation on 1-3 vertices and on
    2,000 random relations on 4-6 vertices."""
    rng = random.Random(12)
    graphs = [g for n in (1, 2, 3) for g in all_graphs(n)]
    for _ in range(2000):
        vs = tuple(f"v{i}" for i in range(rng.randint(4, 6)))
        density = rng.random()
        graphs.append(Graph(vs, frozenset(
            (a, b) for a in vs for b in vs if rng.random() < density)))
    failing = 0
    for g in graphs:
        got = check_graph(g, all_witnesses=True)
        assert got == set_check_graph(g, all_witnesses=True)
        failing += not got.condR
    assert 0 < failing < len(graphs)


def test_the_views_and_transposes_match_the_name_pairs():
    """Random relations on shuffled names, empty carriers included: the
    edges/r views give back the pairs, rows and columns are the pairs'
    rows and columns, JSON lists them sorted, and has reads them.  The
    sizes reach past 8 x 8, where the transpose switches method."""
    rng = random.Random(13)
    for _ in range(400):
        x1, x2 = ([f"{rng.choice(letters)}{i}"
                   for i in range(rng.randint(0, 14))]
                  for letters in ("ab", "yz"))
        rng.shuffle(x1)
        x1, x2 = tuple(x1), tuple(x2)
        density = rng.random()
        r = frozenset((a, b) for a in x1 for b in x2 if rng.random() < density)
        f = Frame(x1, x2, list(r))
        assert (len(f.rows), len(f.cols)) == (len(x1), len(x2))
        assert f.r == r and f.to_json()["r"] == sorted(map(list, r))
        assert all(f.row(a) == {b for a2, b in r if a2 == a} for a in x1)
        assert all(f.col(b) == {a for a, b2 in r if b2 == b} for b in x2)
        e = frozenset((a, b) for a in x1 for b in x1 if rng.random() < density)
        g = Graph(x1, e)
        assert g.edges == e and g.to_json()["edges"] == sorted(map(list, e))
        assert all(g.col(b) == {a for a, b2 in e if b2 == b} for b in x1)
        assert all(g.has(a, b) == ((a, b) in e) for a in x1 for b in x1)
        assert all(f.has(a, b) == ((a, b) in r) for a in x1 for b in x2)
        assert not g.has("?", "?") and not f.has("?", "?")
        for v in x1:
            assert not g.has(v, "?") and not g.has("?", v)
            assert not f.has(v, "?") and not f.has("?", v)


def test_mask_constructors_refuse_repeated_names():
    with pytest.raises(InvalidInput, match="duplicate vertex names"):
        Graph._from_masks(("a", "a"), [0, 0])
    with pytest.raises(InvalidInput, match="duplicate point names"):
        Frame._from_masks(("a",), ("b", "b"), [0])


def builder_lattices():
    return [*fixtures.all_lattices().values(), *families()]


def test_dual_graph_matches_the_set_builder():
    for L in builder_lattices():
        if L.n >= 2:
            assert_same_carrier(dual_graph(L), set_dual_graph(L))


def test_gr_matches_the_set_builder():
    frames = [f for shape in SHAPES for f in all_frames(*shape)]
    frames += [rho(dual_graph(L)) for L in builder_lattices() if L.n >= 2]
    for f in frames:
        assert_same_carrier(gr(f), set_gr(f))


def test_lattice_frames_match_the_set_builders():
    for L in builder_lattices():
        assert_same_carrier(canext_polarity(L)[1].base_frame,
                            set_polarity_frame(L))
        assert_same_carrier(frame_of_perfect(L), set_frame_of_perfect(L))


def test_poset_graphs_match_the_set_builder():
    """Random gen_poset, Warshall's rows of the drawn pairs and the loops,
    against set_poset_graph of the pair-set closure of the same draws.
    Exhaustive posets are compared with brute_poset_classes."""
    for n in range(1, 12):
        for seed in range(5):
            rng = random.Random(seed)
            want = [set_poset_graph(n, set_transitive_closure(
                n, _random_pairs(n, rng))) for _ in range(3)]
            got = gen_poset(GenSpec("poset", n, seed, count=3))
            for g, w in zip(got, want, strict=True):
                assert_same_carrier(g, w)


def test_monotone_maps_match_the_name_search():
    """random_monotone_map on indices and masks against the search by name
    in oracles.py: the same dict in the same key order, and the same rng
    state after it.  On 2,240 pairs of seeded posets of 1-6 points, 240 of
    them with every poset class of 1-4 points as the target (the one-point
    poset, antichains and chains among them), and on graphs that are not
    posets: every pair of relations on two vertices, where some searches
    fail, and pairs of dual graphs, where the test on successors counts."""
    rng = random.Random(24)

    def poset(n):
        return gen_poset(GenSpec("poset", n, rng.randrange(2 ** 32)))[0]

    classes = [q for n in range(1, 5)
               for q in gen_poset(GenSpec("poset", n, exhaustive=True))]
    pairs = [(poset(rng.randrange(1, 7)), poset(rng.randrange(1, 7)))
             for _ in range(2000)]
    pairs += [(poset(rng.randrange(1, 7)), q)
              for q in classes for _ in range(10)]
    duals = [dual_graph(L) for L in gen_lattice(
        GenSpec("lattice", 6, exhaustive=True))]
    pairs += [(g, h) for g in all_graphs(2) for h in all_graphs(2)]
    pairs += [(g, h) for g in duals for h in duals[::3]]
    failed = 0
    for k, (p, q) in enumerate(pairs):
        got_rng, want_rng = random.Random(k), random.Random(k)
        got = random_monotone_map(p, q, got_rng)
        want = set_random_monotone_map(p, q, want_rng)
        assert got == want and list(got or ()) == list(want or ())
        assert got_rng.getstate() == want_rng.getstate()
        failed += got is None
    assert 0 < failed < len(pairs)



@pytest.mark.parametrize("spec", [
    GenSpec("rs-frame", 2, exhaustive=True),
    GenSpec("rs-frame", 3, exhaustive=True),
    *(GenSpec("rs-frame", n, seed, count=4)
      for n in (1, 2, 3, 4) for seed in (0, 1))], ids=repr)
def test_rs_frames_match_the_set_generator(spec):
    got, want = gen_rs_frame(spec), set_gen_rs_frame(spec)
    assert len(got) == len(want)
    for f, w in zip(got, want):
        assert_same_carrier(f, w)


def assert_same_structures(got, want):
    """The same structures in the same order: equal, lattices with equal
    elements and leq, and the same bytes from dump_structure."""
    assert got == want
    for a, b in zip(got, want):
        if isinstance(b, FiniteLattice):
            assert (a.elements, a.leq) == (b.elements, b.leq)
    assert [dump_structure(x) for x in got] == \
        [dump_structure(x) for x in want]


@pytest.mark.parametrize("n", range(1, 6))
def test_exhaustive_posets_match_the_pairwise_dedupe(n):
    assert_same_structures(gen_poset(GenSpec("poset", n, exhaustive=True)),
                           pairwise_posets(n))


@pytest.mark.parametrize("kind", ["lattice", "distributive-lattice"])
@pytest.mark.parametrize("n", range(1, 7))
def test_exhaustive_lattices_match_the_pairwise_dedupe(kind, n):
    spec = GenSpec(kind, n, exhaustive=True)
    assert_same_structures(gen_lattice(spec), pairwise_gen_lattice(spec))


def assert_same_classes(got, want):
    """The same classes in the same order: the same succ masks (up masks,
    for lattices) and the same bytes from dump_structure."""
    def masks(x):
        return x.ups if isinstance(x, FiniteLattice) else x.succ
    assert list(map(masks, got)) == list(map(masks, want))
    assert [dump_structure(x) for x in got] == \
        [dump_structure(x) for x in want]


@pytest.mark.parametrize("n", range(1, 7))
def test_one_point_extension_gives_the_brute_force_posets(n):
    assert_same_classes(gen_poset(GenSpec("poset", n, exhaustive=True)),
                        brute_poset_classes(n))


@pytest.mark.parametrize("kind", ["lattice", "distributive-lattice"])
@pytest.mark.parametrize("n", range(1, 9))
def test_one_point_extension_gives_the_brute_force_lattices(kind, n):
    assert_same_classes(gen_lattice(GenSpec(kind, n, exhaustive=True)),
                        brute_lattice_classes(kind, n))


@pytest.mark.parametrize("n", range(1, 6))
def test_one_point_extension_gives_the_brute_force_tirs_graphs(n):
    lats = brute_lattice_classes("lattice", max(2, n))
    assert_same_classes(
        gen_tirs_graph(GenSpec("tirs-graph", n, exhaustive=True)),
        brute_poset_classes(n) + [dual_graph(L) for L in lats])


@pytest.mark.parametrize("n", range(6))
def test_the_canonical_labelling_of_any_labelling_is_the_class(n):
    """Every class, its points relabelled by random permutations (natural
    or not), has its own first strict order as canonical form."""
    rng = random.Random(16)
    bit_lists = [tuple(bits(m)) for m in range(1 << n)]
    for rel in strict_order_classes(n):
        want = tuple(sum(1 << b for a, b in rel if a == k)
                     for k in reversed(range(n)))
        for _ in range(4):
            perm = rng.sample(range(n), n)
            ups = [0] * n
            for a, b in rel:
                ups[perm[a]] |= 1 << perm[b]
            assert _canonical(ups, bit_lists) == want


@pytest.mark.parametrize("kind", ["lattice", "distributive-lattice"])
def test_random_lattices_match_building_every_attempt(kind):
    for seed in range(20):
        for size in range(2, 9):
            spec = GenSpec(kind, size, seed, count=3)
            assert_same_structures(gen_lattice(spec),
                                   pairwise_gen_lattice(spec))


@pytest.mark.parametrize("spec", [
    *(GenSpec("rs-frame", n, exhaustive=True) for n in (1, 2, 3)),
    *(GenSpec("rs-frame", n, seed, count=3)
      for n in (1, 2, 3) for seed in range(5))], ids=repr)
def test_rs_frames_match_the_checked_filter(spec):
    assert_same_structures(gen_rs_frame(spec), framewise_gen_rs_frame(spec))


def mask_of(s, points) -> int:
    """The mask over points of the set s: bit i stands for points[i]."""
    return sum(1 << i for i, p in enumerate(points) if p in s)


def test_mask_families_give_the_frozenset_lattices():
    """Downset lattices and completions of every poset up to 5 points and
    of random ones up to 12, where v10 sorts before v2."""
    rng = random.Random(15)
    graphs = [set_poset_graph(n, rel) for n in range(1, 6)
              for rel in _enumerate_strict_orders(n)]
    graphs += [set_poset_graph(n, set_transitive_closure(
        n, _random_pairs(n, rng))) for n in range(9, 13) for _ in range(3)]
    for g in graphs:
        for distributive, want in ((True, frozen_downset_lattice(g)),
                                   (False, frozen_dm_completion(g))):
            masks, sets, got = inclusion_lattice(
                _lattice_sets(g.pred, distributive), g.vertices)
            assert masks == [mask_of(s, g.vertices) for s in sets]
            assert_same_structures([got], [want])
    # bit 0 is b and bit 1 is a, so index order is not name order
    family = [frozenset(s) for s in ("ac", "c", "", "abc", "a")]
    got = inclusion_lattice([0b110, 0b100, 0, 0b111, 0b010],
                            ("b", "a", "c"))
    assert got[0] == [mask_of(s, ("b", "a", "c")) for s in got[1]]
    assert got[1:] == frozen_inclusion_lattice(family)


def test_the_closure_matches_the_pairwise_worklist():
    """The one-generator-at-a-time closure of _lattice_sets gives the
    worklist's family on every poset up to 5 points and random ones up to
    12, both kinds; cut short at a limit, it makes the same
    len(family) == limit decision, and it completes where the worklist
    does."""
    rng = random.Random(16)
    graphs = [set_poset_graph(n, rel) for n in range(1, 6)
              for rel in _enumerate_strict_orders(n)]
    graphs += [set_poset_graph(n, set_transitive_closure(
        n, _random_pairs(n, rng))) for n in range(6, 13) for _ in range(3)]
    for g in graphs:
        full = (1 << len(g.vertices)) - 1
        for distributive, base, op in ((True, {0, *g.pred}, int.__or__),
                                       (False, {full, *g.pred}, int.__and__)):
            want = pairwise_closure(base, op)
            assert _lattice_sets(g.pred, distributive) == want
            for limit in {1, len(want) // 2, len(want) - 1, len(want)}:
                got = _lattice_sets(g.pred, distributive, limit)
                cut = pairwise_closure(base, op, limit=limit)
                assert (len(got) == limit) == (len(cut) == limit)
                if len(want) <= limit:
                    assert got == cut == want


@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_graph_iso_matches_the_set_search(family):
    rng = random.Random(3)
    graphs = list(GRAPHS[family]())
    for g, other in zip(graphs, graphs[1:] + graphs[:1]):
        for h in (relabelled(g, rng), other):
            got, want = graph_iso(g, h), set_graph_iso(g, h)
            assert got == want
            assert list((got or {}).items()) == list((want or {}).items())


def planted_frames(n):
    """Seeded n x n frames: random rows (some with an equal pair of rows,
    an equal pair of columns or a full row planted) and random RS frames."""
    rng = random.Random(n)
    x1 = tuple(f"x{i}" for i in range(n))
    x2 = tuple(f"y{i}" for i in range(n))
    for k in range(16):
        rows = [rng.randrange(1 << n) for _ in range(n)]
        a, b = rng.sample(range(n), 2)
        if k % 4 == 1:
            rows[b] = rows[a]
        elif k % 4 == 2:  # column b becomes a copy of column a
            rows = [r & ~(1 << b) | (r >> a & 1) << b for r in rows]
        elif k % 4 == 3:
            rows[a] = (1 << n) - 1
        yield Frame._from_masks(x1, x2, rows)
    yield from gen_rs_frame(GenSpec("rs-frame", n, seed=n, count=4))


# every relation of each small shape, planted random frames of 4x4 to 7x7,
# and the rho frames of the suite's corpus of random lattices
FRAME_INPUTS = {
    **{f"{n1}-{n2}": functools.partial(all_frames, n1, n2)
       for n1, n2 in SHAPES},
    **{f"random-{n}x{n}": functools.partial(planted_frames, n)
       for n in range(4, 8)},
    "rho-suite-0-8": lambda: [rho(dual_graph(L))
                              for L in suite._lattices(0, 8)]}


@pytest.mark.parametrize("frames", FRAME_INPUTS.values(),
                         ids=list(FRAME_INPUTS))
def test_frame_checkers_match_the_set_checkers(frames):
    for f in frames():
        assert check_frame(f, True) == set_check_frame(f, True)
        assert check_frame(f) == set_check_frame(f)
        assert _is_rs(f.rows, f.cols) == set_check_frame(f).is_rs
        assert h_set(f) == set_h_set(f)
        assert list(ti_failures(f)) == set_ti_failures(f)
        assert [w.elements for w in check_pti_frame_form(f, True).witnesses] \
            == set_ti_failures(f)


@pytest.mark.parametrize("n1,n2", SHAPES)
def test_frame_iso_matches_the_set_search(n1, n2):
    rng = random.Random(n1 * 10 + n2)
    frames = list(all_frames(n1, n2))
    for f, other in zip(frames, frames[1:] + frames[:1]):
        for g in (shuffled(f, rng), other):
            got, want = frame_iso(f, g), set_frame_iso(f, g)
            assert got == want
            assert [list(d.items()) for d in got or ()] == \
                [list(d.items()) for d in want or ()]


def random_maps(rng, source, target, found):
    """A random map source -> target, a random bijection when the sizes
    agree, and found, the map a search found, when there is one."""
    yield {a: rng.choice(target) for a in source}
    if len(source) == len(target):
        yield dict(zip(source, rng.sample(target, len(target))))
    if found is not None:
        yield found


def test_iso_verifiers_match_the_bijection_oracle():
    """The permutation test behind alpha and beta on graphs of 1-3
    vertices, on 2x2, 2x3 and 3x2 frames, and between 1x3 and 2x2 frames
    (the same number of points in another shape)."""
    rng = random.Random(8)
    verdicts = set()
    graphs = [g for n in (1, 2, 3) for g in all_graphs(n)]
    for _ in range(3000):
        g = rng.choice(graphs)
        h = relabelled(g, rng) if rng.random() < 0.5 else rng.choice(graphs)
        for mp in random_maps(rng, g.vertices, h.vertices, graph_iso(g, h)):
            m = GraphMorphism(g, h, mp)
            assert _is_graph_iso(m) == set_is_graph_iso(m)
            verdicts.add(("graph", _is_graph_iso(m)))
    frames = {s: list(all_frames(*s)) for s in [*SHAPES[:3], (1, 3)]}
    shapes = [(s, s) for s in SHAPES[:3]] + [((1, 3), (2, 2)),
                                             ((2, 2), (1, 3))]
    for _ in range(2000):
        s1, s2 = rng.choice(shapes)
        f = rng.choice(frames[s1])
        g = shuffled(f, rng) if s1 == s2 and rng.random() < 0.5 \
            else rng.choice(frames[s2])
        found = frame_iso(f, g) or (None, None)
        for map1, map2 in itertools.product(
                random_maps(rng, f.x1, g.x1, found[0]),
                random_maps(rng, f.x2, g.x2, found[1])):
            m = FrameMorphism(f, g, map1, map2)
            assert _is_frame_iso(m) == set_is_frame_iso(m)
            verdicts.add(("frame", _is_frame_iso(m)))
    assert verdicts == {(kind, v) for kind in ("graph", "frame")
                        for v in (True, False)}


def carried(perm, rows):
    """The rows carried by the bijection perm: bit perm[b] of row perm[a]
    for each bit b of rows[a]."""
    out = [0] * len(rows)
    for a, row in enumerate(rows):
        out[perm[a]] = sum(1 << perm[b] for b in range(len(rows))
                           if row >> b & 1)
    return out


def test_permutes_matches_the_loop_per_edge():
    """Every map, bijective or not, and every pair of row lists of 0-2
    rows, with row lists one longer or shorter; then random maps on up to
    40 rows, against the rows they carry, those with one bit flipped, and
    unrelated rows."""
    verdicts = set()
    for n in range(3):
        rows = list(itertools.product(range(1 << n), repeat=n))
        for perm, rows1 in itertools.product(
                itertools.product(range(n), repeat=n), rows):
            for rows2 in [*rows, rows1 + (0,), rows1[1:]]:
                got = _permutes(list(perm), rows1, rows2)
                assert got == loop_permutes(list(perm), rows1, rows2)
                verdicts.add(got)
    rng = random.Random(12)
    for _ in range(2000):
        n = rng.randint(1, 40)
        rows1 = [rng.getrandbits(n) for _ in range(n)]
        perm = rng.sample(range(n), n) if rng.random() < 0.8 else \
            [rng.randrange(n) for _ in range(n)]
        rows2 = carried(perm, rows1) if len(set(perm)) == n else \
            [rng.getrandbits(n) for _ in range(n)]
        flipped = list(rows2)
        flipped[rng.randrange(n)] ^= 1 << rng.randrange(n)
        for r2 in (rows2, flipped, rows2[:-1], rows2 + [0]):
            got = _permutes(perm, rows1, r2)
            assert got == loop_permutes(perm, rows1, r2)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_graph_morphisms_match_the_set_validator():
    rng = random.Random(5)
    graphs = [g for n in (2, 3) for g in all_graphs(n)]
    for _ in range(600):
        g, h = rng.choice(graphs), rng.choice(graphs)
        m = GraphMorphism(g, h, {v: rng.choice(h.vertices)
                                 for v in g.vertices})
        assert validate_graph_morphism(m, True) == \
            set_validate_graph_morphism(m, True)


def test_frame_morphisms_match_the_set_validator():
    rng = random.Random(6)
    frames = [f for shape in SHAPES[:3] for f in all_frames(*shape)]
    for _ in range(600):
        f, g = rng.choice(frames), rng.choice(frames)
        m = FrameMorphism(f, g, {x: rng.choice(g.x1) for x in f.x1},
                          {y: rng.choice(g.x2) for y in f.x2})
        assert validate_frame_morphism(m, True) == \
            set_validate_frame_morphism(m, True)


# -- the lattice kernel ---------------------------------------------------


def outcome(build, *args):
    """What build(*args) returns, or the type and message of the toolkit
    error it raises."""
    try:
        return build(*args)
    except TirsError as exc:
        return type(exc), str(exc)


def from_leq(names, rel):
    """lattice_from_leq of a relation given as index pairs."""
    return lattice_from_leq(names, [(names[a], names[b]) for a, b in rel])


def permuted(rel, perm):
    return {(perm[a], perm[b]) for a, b in rel}


def strict_orders():
    """(names, closed relation) for every strict order that the generators
    enumerate on 1-5 elements, with the indices as listed, reversed and
    shuffled."""
    for n in range(1, 6):
        names = [f"e{i}" for i in range(n)]
        loops = {(i, i) for i in range(n)}
        shuffle = list(range(n))
        random.Random(n).shuffle(shuffle)
        for rel in _enumerate_strict_orders(n):
            for perm in (range(n), range(n - 1, -1, -1), shuffle):
                yield names, frozenset(permuted(rel | loops, perm))


def shuffled_lattice(L, rng):
    """L with its elements renamed and listed in a shuffled order."""
    names = dict(zip(L.elements, (f"s{i}" for i in
                                  rng.sample(range(L.n), L.n))))
    elems = list(names.values())
    rng.shuffle(elems)
    return build_lattice(elems, [(names[L.name(a)], names[L.name(b)])
                                 for a, b in L.covers()])


def chain_product(*dims):
    points = list(itertools.product(*(range(d) for d in dims)))
    name = "".join
    return build_lattice(
        [name(map(str, p)) for p in points],
        [(name(map(str, p)), name(map(str, p[:i] + (p[i] + 1,) + p[i + 1:])))
         for p in points for i, d in enumerate(dims) if p[i] + 1 < d])


def families():
    rng = random.Random(11)
    lats = [chain_product(8), chain_product(2, 2, 2), chain_product(3, 3)]
    lats += [m_n(n) for n in range(3, 7)]
    lats += [L for k in range(10)
             for L in gen_lattice(GenSpec("lattice", 3 + k % 8, seed=k,
                                          count=2))]
    return lats + [shuffled_lattice(L, rng) for L in lats]


def assert_lattice_kernels(L):
    """Every mask kernel on L equals its set-based oracle."""
    # equality sees only (elements, ups): the oracle's scanned masks,
    # tables and bounds are compared one by one
    want = set_finish_lattice(L.elements, L.leq)
    assert from_leq(L.elements, L.leq) == want
    assert (L.downs, L.join, L.meet, L.bot, L.top) == \
        (want.downs, want.join, want.meet, want.bot, want.top)
    for a in range(L.n):
        assert L.up(a) == {b for b in range(L.n) if (a, b) in L.leq}
        assert L.down(a) == {b for b in range(L.n) if (b, a) in L.leq}
        assert L.lower_covers(a) == set_lower_covers(L, a)
        assert L.upper_covers(a) == set_upper_covers(L, a)
    assert L.covers() == set_covers(L)
    assert irreducibles(L) == set_irreducibles(L)
    assert list(_generation_failures(L)) == set_generation_failures(L)
    assert outcome(frame_of_perfect, L) == outcome(set_frame_of_perfect, L)
    assert _pti_pairs(L, True) == set_pti_pairs(L, True)
    assert _pti_pairs(L, False) == set_pti_pairs(L, False)
    if L.n >= 2:
        assert [(p.x, p.y) for p in maximal_pairs(L)] == set_maximal_pairs(L)
        assert_closed_sets(rho(dual_graph(L)))
    polarity = canext_polarity(L)[1]
    assert polarity.base_frame == set_polarity_frame(L)
    assert_closed_sets(polarity.base_frame)


def assert_closed_sets(f):
    got, want = closed_sets(f), set_closed_sets(f)
    assert got.closed_sets == want.closed_sets
    assert got.as_lattice == want.as_lattice
    assert (got.j_infty, got.m_infty) == (want.j_infty, want.m_infty)


def test_lattice_tables_match_the_scan_on_all_small_orders():
    seen = 0
    for names, rel in strict_orders():
        got = outcome(from_leq, names, rel)
        assert got == outcome(set_finish_lattice, names, rel)
        if isinstance(got, tuple):
            continue
        seen += 1
        assert_lattice_kernels(got)
    assert seen > 0


def test_the_lattice_oracle_runs_without_the_kernel(monkeypatch):
    """A kernel that rejects every order cannot make the oracle reject too:
    set_finish_lattice never calls the scan."""
    def reject(elements, ups):
        raise NotALattice(tuple(elements[:2]), "join")

    L = fixtures.n5()
    monkeypatch.setattr(lattice, "_scan", reject)
    want = set_finish_lattice(L.elements, L.leq)
    assert (want.ups, want.join, want.meet) == (L.ups, L.join, L.meet)
    assert outcome(from_leq, L.elements, L.leq) != \
        outcome(set_finish_lattice, L.elements, L.leq)


def test_errors_and_witnesses_match_on_all_relations():
    """build_lattice on every relation of up to 4 elements: the closure,
    then the cycle, join/meet and bounds errors with their witnesses."""
    kinds = set()
    for n in range(5):
        names = [f"e{i}" for i in range(n)]
        cells = [(a, b) for a in range(n) for b in range(n) if a != b]
        for mask in range(2 ** len(cells)):
            rel = {c for k, c in enumerate(cells) if mask >> k & 1}
            rel |= {(i, i) for i in range(n)}
            closed = set_transitive_closure(n, rel)
            assert {(a, b) for a, row in enumerate(_warshall(n, rel))
                    for b in bits(row)} == closed
            got = outcome(build_lattice, names,
                          [(names[a], names[b]) for a, b in rel])
            assert got == outcome(set_finish_lattice, names,
                                  frozenset(closed))
            kinds.add(got[0].__name__ if isinstance(got, tuple) else "ok")
    assert kinds == {"ok", "NoBounds", "NotALattice", "NotAPartialOrder"}


def test_only_reflexive_orders_come_back_as_lattices():
    """lattice_from_leq on every relation of up to 4 elements against
    set_finish_lattice.  The two give the same lattice or error on every
    reflexive, transitive relation, wherever either gives a lattice or
    finds a cycle, and wherever the oracle refuses the relation only for a
    missing loop.  The kernel checks the loops last, so every other error
    stays as it was, and it refuses for a missing loop only relations that
    are lattices once the loops are added: the 6 on 3 elements and the 108
    on 4 that its scan passed before it checked them."""
    refused = [0] * 5
    for n in range(5):
        names = [f"e{i}" for i in range(n)]
        cells = list(itertools.product(range(n), repeat=2))
        loops = frozenset((i, i) for i in range(n))
        for mask in range(2 ** len(cells)):
            rel = frozenset(c for k, c in enumerate(cells) if mask >> k & 1)
            got = outcome(from_leq, names, rel)
            want = outcome(set_finish_lattice, names, rel)
            kinds = [x[0] if isinstance(x, tuple) else FiniteLattice
                     for x in (got, want)]
            if kinds[1] is InvalidInput or \
                    {FiniteLattice, NotAPartialOrder} & set(kinds) or \
                    loops <= rel and set_transitive_closure(n, rel) == rel:
                assert got == want
            elif kinds[0] is InvalidInput:
                assert isinstance(outcome(set_finish_lattice, names,
                                          rel | loops), FiniteLattice)
            refused[n] += kinds[0] is InvalidInput
    assert refused == [0, 0, 0, 6, 108]


def test_lattice_families_match_the_set_kernels():
    for L in families():
        assert_lattice_kernels(L)


def test_irreducibles_maximal_pairs_and_pti_match_on_all_small_lattices():
    """The O(n) irreducibility test, the J x M maximal-pair table and the
    reach masks of PTi against their set-based oracles, with the same
    witnesses in the same order, on every lattice of up to 8 elements."""
    lats = [L for n in range(1, 9)
            for L in gen_lattice(GenSpec("lattice", n, exhaustive=True))]
    assert len(lats) == 300
    for L in lats:
        assert irreducibles(L) == set_irreducibles(L)
        assert [(x, y) for x, row in enumerate(L.maximal_masks)
                for y in bits(row)] == set_maximal_pairs(L)
        assert _pti_pairs(L, True) == set_pti_pairs(L, True)
        assert _pti_pairs(L, False) == set_pti_pairs(L, False)


def test_the_polarity_closure_of_a_point_is_its_down_set():
    """canext_polarity sends a to the mask down(a), which is the Galois
    closure of {F_a} in the polarity frame, on every lattice of families()
    and of strict_orders()."""
    lats = families()
    for names, rel in strict_orders():
        got = outcome(from_leq, names, rel)
        if not isinstance(got, tuple):
            lats.append(got)
    assert len(lats) > len(families())
    for L in lats:
        f = set_polarity_frame(L)
        assert [_close(f, 1 << a) for a in range(L.n)] == list(L.downs)


def test_lattice_iso_matches_the_set_search():
    rng = random.Random(4)
    lats = [L for L in families() if L.n <= 9]
    for L, other in zip(lats, lats[1:] + lats[:1]):
        for K in (shuffled_lattice(L, rng), other):
            got, want = lattice_iso(L, K), set_lattice_iso(L, K)
            assert list((got or {}).items()) == list((want or {}).items())
            assert (got is None) == (want is None)


def test_galois_maps_match_the_set_maps():
    for L in (m_n(3), chain_product(2, 3)):
        f = rho(dual_graph(L))
        for A in subsets(f.x1):
            assert galois_up(f, A) == set_galois_up(f, A)
            assert closure(f, A) == set_closure(f, A)
        for B in subsets(f.x2):
            assert galois_down(f, B) == set_galois_down(f, B)
