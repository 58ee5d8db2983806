"""The public API: the names tirs exports and the signature of each
exported callable and class.  A change that drops, adds or reshapes a
public name has to change this table too."""

import inspect
import types

import tirs

# name -> str(inspect.signature(...)), or None for a submodule
API = {
    'CheckReport':
        "(verdict: 'bool', witnesses: 'tuple[Witness, ...]' = ()) -> None",
    'ConditionReport':
        "(reflexive: 'CheckReport', condS: 'CheckReport', "
        "condR: 'CheckReport', condTi: 'CheckReport') -> None",
    'FiniteLattice':
        "(elements: 'tuple[str, ...]', leq: 'frozenset[tuple[int, int]]', "
        "join: 'tuple[tuple[int, ...], ...]', "
        "meet: 'tuple[tuple[int, ...], ...]', bot: 'int', top: 'int') -> None",
    'Frame': '(x1, x2, r, meta=None)',
    'FrameMorphism':
        "(source: 'Frame', target: 'Frame', map1: 'dict', "
        "map2: 'dict') -> None",
    'GaloisLattice':
        "(base_frame: 'Frame', closed_sets: 'tuple[frozenset[str], ...]', "
        "as_lattice: 'FiniteLattice', j_infty: 'frozenset[str]', "
        "m_infty: 'frozenset[str]') -> None",
    'GenSpec':
        "(kind: 'str', size: 'int', seed: 'int' = 0, count: 'int' = 1, "
        "exhaustive: 'bool' = False) -> None",
    'Graph': '(vertices, edges, meta=None)',
    'GraphMorphism': "(source: 'Graph', target: 'Graph', map: 'dict') -> None",
    'LatticeEmbedding':
        "(source: 'FiniteLattice', target: 'FiniteLattice', "
        "map: 'tuple[int, ...]') -> None",
    'MaximalPair': "(lattice: 'FiniteLattice', x: 'int', y: 'int') -> None",
    'PTiWitness':
        "(x: 'str', y: 'str', w: 'Optional[str]', z: 'Optional[str]', "
        "status: 'str') -> None",
    'Witness': "(condition: ForwardRef('str'), elements: ForwardRef('tuple'))",
    'alpha': "(g: 'Graph') -> 'GraphMorphism'",
    'beta': "(f: 'Frame') -> 'FrameMorphism'",
    'build_lattice': "(elements, covers) -> 'FiniteLattice'",
    'canext_polarity': "(L: 'FiniteLattice')",
    'canext_tandem': "(L: 'FiniteLattice')",
    'check_compact': "(emb: 'LatticeEmbedding') -> 'CheckReport'",
    'check_dense': "(emb: 'LatticeEmbedding') -> 'CheckReport'",
    'check_frame':
        "(f: 'Frame', all_witnesses: 'bool' = False) -> 'ConditionReport'",
    'check_graph':
        "(g: 'Graph', all_witnesses: 'bool' = False) -> 'ConditionReport'",
    'check_naturality': "(m) -> 'CheckReport'",
    'check_perfect': "(C: 'FiniteLattice') -> 'CheckReport'",
    'check_pti': "(C: 'FiniteLattice', all_witnesses: 'bool' = False)",
    'check_pti_frame_form':
        "(f: 'Frame', all_witnesses: 'bool' = False) -> 'CheckReport'",
    'closed_sets': "(f: 'Frame') -> 'GaloisLattice'",
    'closure': "(f: 'Frame', A) -> 'frozenset[str]'",
    'dual_graph': "(L: 'FiniteLattice') -> 'Graph'",
    'errors': None,
    'filters_ideals': "(L: 'FiniteLattice')",
    'frame_iso': "(f1: 'Frame', f2: 'Frame') -> 'Optional[tuple[dict, dict]]'",
    'frame_of_perfect': "(C: 'FiniteLattice') -> 'Frame'",
    'functors': None,
    'galois': None,
    'galois_down': "(f: 'Frame', B) -> 'frozenset[str]'",
    'galois_up': "(f: 'Frame', A) -> 'frozenset[str]'",
    'generate': "(spec: 'GenSpec')",
    'generators': None,
    'gr': "(f: 'Frame') -> 'Graph'",
    'gr_mor': "(m: 'FrameMorphism') -> 'GraphMorphism'",
    'graph_iso': "(g1: 'Graph', g2: 'Graph') -> 'Optional[dict]'",
    'h_set': "(f: 'Frame') -> 'list[tuple[str, str]]'",
    'irreducibles':
        "(L: 'FiniteLattice') -> 'tuple[frozenset[str], frozenset[str]]'",
    'irreducibles_of_galois': "(gl: 'GaloisLattice')",
    'is_distributive': "(L: 'FiniteLattice') -> 'CheckReport'",
    'is_poset_graph':
        "(g: 'Graph', all_witnesses: 'bool' = False) -> 'CheckReport'",
    'jinfty_via_maximal_pairs': "(emb: 'LatticeEmbedding') -> 'CheckReport'",
    'lattice': None,
    'lattice_from_leq': "(elements, leq_pairs) -> 'FiniteLattice'",
    'lattice_iso':
        "(L1: 'FiniteLattice', L2: 'FiniteLattice') -> 'Optional[dict]'",
    'maximal_pairs': "(L: 'FiniteLattice') -> 'list[MaximalPair]'",
    'mph_leq': "(f: 'MaximalPair', g: 'MaximalPair') -> 'bool'",
    'ploscica': None,
    'pti': None,
    'pti_bridge_suite': "(f: 'Frame') -> 'CheckReport'",
    'rho': "(g: 'Graph') -> 'Frame'",
    'rho_mor': "(m: 'GraphMorphism') -> 'FrameMorphism'",
    'structures': None,
    'validate_frame_morphism':
        "(m: 'FrameMorphism', all_witnesses: 'bool' = False) -> 'CheckReport'",
    'validate_graph_morphism':
        "(m: 'GraphMorphism', all_witnesses: 'bool' = False) -> 'CheckReport'",
}


def test_the_public_names_are_pinned():
    assert len(tirs.__all__) == 61
    assert sorted(tirs.__all__) == sorted(API)


def test_the_public_signatures_are_pinned():
    for name, want in API.items():
        obj = getattr(tirs, name)
        if want is None:
            assert isinstance(obj, types.ModuleType), name
        else:
            assert str(inspect.signature(obj)) == want, name
