import math

import pytest
from hypothesis import given, strategies as st

from wand_gibbs.model import (
    SPINS,
    SPIN_INDEX,
    WAND_ADJACENCY,
    BoundaryLaw,
    ModelParams,
    allows,
    is_admissible,
)


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


def test_admissible_two_vertex_examples():
    edges = [(0, 1)]
    assert not is_admissible({0: 0, 1: 0}, edges)
    assert is_admissible({0: 0, 1: 1}, edges)
    assert not is_admissible({0: -1, 1: 1}, edges)


def test_admissible_pair_count():
    # of the 9 ordered spin pairs on a single edge, exactly 6 are admissible:
    # (0,0), (-1,1) and (1,-1) are excluded
    count = sum(is_admissible({0: a, 1: b}, [(0, 1)]) for a in SPINS for b in SPINS)
    assert count == 6


def test_admissible_rejects_disconnected():
    with pytest.raises(ValueError, match="not connected"):
        is_admissible({0: 1, 1: 1, 2: 1}, [(0, 1)])


def test_admissible_rejects_stray_edge():
    with pytest.raises(ValueError, match="leaves"):
        is_admissible({0: 1, 1: 1}, [(0, 7)])


def _random_tree_config(draw_edges, spins):
    # path tree 0-1-2-...-n
    n = len(spins)
    return {i: spins[i] for i in range(n)}, [(i, i + 1) for i in range(n - 1)]


@given(st.lists(st.sampled_from(SPINS), min_size=2, max_size=8),
       st.integers(min_value=1, max_value=7))
def test_admissible_monotone_under_restriction(spins, cut):
    """A path configuration admissible on the whole stays admissible on a prefix."""
    config, edges = _random_tree_config(None, spins)
    cut = min(cut, len(spins) - 1)
    if is_admissible(config, edges):
        sub_config = {i: spins[i] for i in range(cut + 1)}
        sub_edges = [(i, i + 1) for i in range(cut)]
        assert is_admissible(sub_config, sub_edges)
