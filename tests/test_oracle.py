import math

import pytest

from wand_gibbs.model import BoundaryLaw, ModelParams, allows
from wand_gibbs.oracle import (
    ENUMERATION_CAP,
    FiniteCayleyTree,
    SizeCapError,
    admissible_count_formula,
    cayley_tree,
    check_consistency,
    enumerate_admissible,
    finite_volume_measure,
    hamiltonian,
    root_marginal,
)


def single_edge_tree():
    """Degenerate two-vertex tree, representable directly by the dataclass."""
    return FiniteCayleyTree(k=2, depth=1, full_root=False,
                            parents=(-1, 0), children=((1,), ()),
                            generation=(0, 1))
from wand_gibbs.solver import boundary_law, find_asymmetric, solve_symmetric


# --- tree construction ---------------------------------------------------------

def test_half_tree_shapes():
    tree = cayley_tree(2, 2)
    assert tree.size == 7
    assert tree.generation_sizes() == [1, 2, 4]
    assert all(len(tree.children[v]) == 2 for v in range(3))
    tree3 = cayley_tree(3, 2)
    assert tree3.size == 13
    assert tree3.generation_sizes() == [1, 3, 9]


def test_full_tree_root_fanout():
    tree = cayley_tree(2, 2, full_root=True)
    assert len(tree.children[0]) == 3
    assert tree.generation_sizes() == [1, 3, 6]
    assert tree.size == 10


def test_tree_generation_consistency():
    tree = cayley_tree(3, 2)
    sizes = tree.generation_sizes()
    assert tree.size == sum(sizes)
    for parent, child in tree.edges():
        assert tree.generation[child] == tree.generation[parent] + 1


def test_tree_rejects_bad_args():
    with pytest.raises(ValueError):
        cayley_tree(1, 1)
    with pytest.raises(ValueError):
        cayley_tree(2, -1)


# --- hamiltonian ------------------------------------------------------------------

def test_hamiltonian_constant_config():
    tree = cayley_tree(2, 2)
    assert hamiltonian((1,) * 7, tree) == 0


def test_hamiltonian_root_and_children():
    tree = cayley_tree(2, 1)
    assert hamiltonian((0, -1, 1), tree) == 2


def test_hamiltonian_single_edge():
    assert hamiltonian((0, 1), single_edge_tree()) == 1
    assert hamiltonian((-1, -1), single_edge_tree()) == 0


def test_hamiltonian_rejects_inadmissible():
    tree = cayley_tree(2, 1)
    with pytest.raises(ValueError, match="admissible"):
        hamiltonian((0, 0, 1), tree)


# --- enumeration --------------------------------------------------------------------

def test_single_vertex_enumeration():
    assert len(enumerate_admissible(cayley_tree(2, 0))) == 3


def test_single_edge_enumeration():
    # 9 ordered pairs minus (0,0), (-1,1), (1,-1)
    configs = enumerate_admissible(single_edge_tree())
    assert len(configs) == 6
    assert (0, 0) not in configs and (-1, 1) not in configs and (1, -1) not in configs
    assert admissible_count_formula(single_edge_tree()) == 6


def test_depth_one_k2_count():
    tree = cayley_tree(2, 1)
    configs = enumerate_admissible(tree)
    assert len(configs) == 12  # 3 root spins x 2 admissible children each


@pytest.mark.parametrize("k,depth", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_count_formula_matches_enumeration(k, depth):
    tree = cayley_tree(k, depth)
    assert admissible_count_formula(tree) == len(enumerate_admissible(tree))


def test_every_enumerated_config_is_admissible():
    tree = cayley_tree(2, 2)
    for config in enumerate_admissible(tree):
        for u, v in tree.edges():
            assert allows(config[u], config[v])


def test_size_cap():
    with pytest.raises(SizeCapError):
        enumerate_admissible(cayley_tree(3, 3))  # 40 vertices
    assert cayley_tree(2, 3).size <= ENUMERATION_CAP  # 15 vertices: allowed


# --- finite-volume measure -----------------------------------------------------------

def test_uniform_measure_at_unit_point():
    tree = cayley_tree(2, 1)
    measure = finite_volume_measure(tree, 1.0, BoundaryLaw(1.0, 1.0))
    assert len(measure.probabilities) == 12
    for p in measure.probabilities.values():
        assert p == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert measure.partition == pytest.approx(12.0, rel=1e-12)


def test_probabilities_normalized_and_positive():
    tree = cayley_tree(2, 2)
    law = solve_symmetric(ModelParams(2, 0.7))
    measure = finite_volume_measure(tree, 0.7, law)
    assert abs(math.fsum(measure.probabilities.values()) - 1.0) <= 1e-12
    assert all(p > 0.0 for p in measure.probabilities.values())
    # support is exactly the admissible set
    assert set(measure.probabilities) == set(enumerate_admissible(tree))


def test_partition_matches_direct_summation():
    tree = cayley_tree(2, 2)
    theta = 0.7
    law = solve_symmetric(ModelParams(2, theta))
    measure = finite_volume_measure(tree, theta, law)
    z = {-1: law.z2, 0: 1.0, 1: law.z1}
    ring = tree.boundary()
    weights = []
    for config in enumerate_admissible(tree):
        w = theta ** hamiltonian(config, tree)
        for v in ring:
            w *= z[config[v]]
        weights.append(w)
    assert measure.partition == pytest.approx(math.fsum(weights), rel=1e-12)


def test_spin_flip_covariance():
    tree = cayley_tree(2, 2)
    law = BoundaryLaw(2.0, 0.5)
    m1 = finite_volume_measure(tree, 0.8, law)
    m2 = finite_volume_measure(tree, 0.8, law.swapped())
    for config, p in m1.probabilities.items():
        flipped = tuple(-s for s in config)
        assert m2.probabilities[flipped] == pytest.approx(p, rel=1e-12)


# --- root marginal ---------------------------------------------------------------------

def test_root_marginal_single_vertex():
    tree = cayley_tree(2, 0)
    marginal = root_marginal(tree, 1.0, BoundaryLaw(2.0, 3.0))
    assert marginal == pytest.approx((3.0 / 6.0, 1.0 / 6.0, 2.0 / 6.0), rel=1e-14)


def test_root_marginal_symmetric_under_flip():
    tree = cayley_tree(2, 1)
    marginal = root_marginal(tree, 1.0, BoundaryLaw(1.0, 1.0))
    assert marginal[0] == pytest.approx(marginal[2], rel=1e-12)
    law = solve_symmetric(ModelParams(2, 0.7))
    marginal = root_marginal(cayley_tree(2, 2), 0.7, law)
    assert marginal[0] == pytest.approx(marginal[2], rel=1e-12)


def test_root_marginal_breaks_symmetry_towards_larger_weight():
    tree = cayley_tree(2, 2)
    law = find_asymmetric(ModelParams(2, 0.5))[0]  # z1 > z2
    marginal = root_marginal(tree, 0.5, law)
    assert marginal[2] > marginal[0]


# --- consistency --------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [0.5, 0.7, 1.0, 2.0])
def test_consistency_certified_law(theta):
    small, big = cayley_tree(2, 1), cayley_tree(2, 2)
    law = solve_symmetric(ModelParams(2, theta))
    assert check_consistency(small, big, theta, law) <= 1e-10


def test_consistency_unit_law_at_unit_activity():
    small, big = cayley_tree(2, 1), cayley_tree(2, 2)
    assert check_consistency(small, big, 1.0, BoundaryLaw(1.0, 1.0)) <= 1e-12


def test_consistency_fails_for_non_solution():
    small, big = cayley_tree(2, 1), cayley_tree(2, 2)
    law = boundary_law(1.0, 1.0, ModelParams(2, 0.7))
    assert law.residual > 1e-3
    assert check_consistency(small, big, 0.7, law) > 1e-6


def test_consistency_asymmetric_law():
    small, big = cayley_tree(2, 1), cayley_tree(2, 2)
    law = find_asymmetric(ModelParams(2, 0.5))[0]
    assert check_consistency(small, big, 0.5, law) <= 1e-10


def test_consistency_asymmetric_law_k3():
    small, big = cayley_tree(3, 1), cayley_tree(3, 2)
    for law in find_asymmetric(ModelParams(3, 0.9)):
        assert check_consistency(small, big, 0.9, law) <= 1e-10


def test_full_tree_measure_smoke():
    tree = cayley_tree(2, 2, full_root=True)
    law = solve_symmetric(ModelParams(2, 0.8))
    measure = finite_volume_measure(tree, 0.8, law)
    assert abs(math.fsum(measure.probabilities.values()) - 1.0) <= 1e-12
    marginal = root_marginal(tree, 0.8, law)
    assert marginal[0] == pytest.approx(marginal[2], rel=1e-12)


def test_consistency_rejects_mismatched_trees():
    with pytest.raises(ValueError):
        check_consistency(cayley_tree(2, 1), cayley_tree(3, 2), 1.0, BoundaryLaw(1.0, 1.0))
    with pytest.raises(ValueError):
        check_consistency(cayley_tree(2, 1), cayley_tree(2, 3), 1.0, BoundaryLaw(1.0, 1.0))
