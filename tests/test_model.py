import math

import pytest

from wand_gibbs.model import (
    SPINS,
    SPIN_INDEX,
    WAND_ADJACENCY,
    BoundaryLaw,
    ModelParams,
    allows,
    tree_order,
)
from wand_gibbs.chain import ks_threshold_pair, spectrum, transition_matrix
from wand_gibbs.oracle import cayley_tree
from wand_gibbs.solver import theta_critical


def test_wand_adjacency_entries():
    assert allows(1, 1)
    assert allows(1, 0)
    assert not allows(1, -1)
    assert not allows(0, 0)
    assert allows(0, -1)
    assert allows(-1, -1)


def test_wand_is_symmetric():
    a = WAND_ADJACENCY
    assert a == tuple(tuple(a[j][i] for j in range(3)) for i in range(3))
    assert all(allows(s, t) == allows(t, s) for s in SPINS for t in SPINS)


def test_wand_has_four_undirected_edges():
    a = WAND_ADJACENCY
    assert {v for row in a for v in row} == {0, 1}
    assert sum(a[i][j] for i in range(3) for j in range(i, 3)) == 4


def test_spin_index_order():
    assert SPINS == (-1, 0, 1)
    assert [SPIN_INDEX[s] for s in SPINS] == [0, 1, 2]


@pytest.mark.parametrize("k", [1, 0, -3, 2.5])
def test_params_reject_bad_k(k):
    with pytest.raises(ValueError):
        ModelParams(k, 1.0)


@pytest.mark.parametrize("k", [1, 0, -3, 2.5, True, math.inf, -math.inf, math.nan])
def test_every_entry_point_checks_tree_order(k):
    matrix = transition_matrix(BoundaryLaw(1.0, 1.0), 1.0)
    checks = (tree_order, lambda k: ModelParams(k, 1.0), theta_critical,
              lambda k: spectrum(matrix, k), lambda k: cayley_tree(k, 1), ks_threshold_pair)
    for check in checks:
        with pytest.raises(ValueError, match=r"^tree order k must be an integer >= 2, got "):
            check(k)
    assert tree_order(3.0) == 3 and type(tree_order(3.0)) is int


@pytest.mark.parametrize("theta", [0.0, -1.0, math.inf, math.nan])
def test_params_reject_bad_theta(theta):
    with pytest.raises(ValueError):
        ModelParams(2, theta)


def test_params_accept_boundary():
    p = ModelParams(2, 1e-9)
    assert p.k == 2 and p.theta == 1e-9


@pytest.mark.parametrize("z1,z2", [(0.0, 1.0), (1.0, -2.0), (math.inf, 1.0)])
def test_law_rejects_nonpositive(z1, z2):
    with pytest.raises(ValueError):
        BoundaryLaw(z1, z2)


def test_law_defaults_and_swap():
    law = BoundaryLaw(2.0, 3.0)
    assert law.residual == math.inf
    assert not law.certified()
    assert law.swapped().z1 == 3.0 and law.swapped().z2 == 2.0
    assert BoundaryLaw(1.0, 1.0, 0.0).certified()


def test_admissible_pair_count():
    # of the 9 ordered spin pairs on a single edge, exactly 6 are admissible:
    # (0,0), (-1,1) and (1,-1) are excluded
    count = sum(allows(a, b) for a in SPINS for b in SPINS)
    assert count == 6
