import ast
import math
import types
from pathlib import Path

import pytest

import wand_gibbs
from wand_gibbs import chain, extremality, model, oracle, scan, solver
from wand_gibbs.model import (
    NEIGHBOURS,
    SPINS,
    BoundaryLaw,
    ModelParams,
    activity,
    tree_order,
)
from wand_gibbs.chain import ks_threshold_pair, spectrum, transition_matrix
from wand_gibbs.oracle import FiniteCayleyTree, check_consistency, finite_volume_measure
from wand_gibbs.scan import theta_grid
from wand_gibbs.solver import theta_critical

from finite_volume_oracle import WAND_EDGES

SRC = Path(wand_gibbs.__file__).resolve().parent


def test_package_exports_each_module_all():
    public = {name for name, value in vars(wand_gibbs).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    modules = (model, solver, chain, extremality, oracle, scan)
    assert public == {name for module in modules for name in module.__all__}


def test_wand_neighbour_entries():
    assert NEIGHBOURS == {-1: (-1, 0), 0: (-1, 1), 1: (0, 1)}
    # the enumeration's lexicographic order rests on each tuple's SPINS order
    assert all(list(t) == [s for s in SPINS if s in t] for t in NEIGHBOURS.values())


def test_wand_is_symmetric():
    assert set(NEIGHBOURS) == set(SPINS)
    assert all((t in NEIGHBOURS[s]) == (s in NEIGHBOURS[t]) for s in SPINS for t in SPINS)


def test_wand_has_four_undirected_edges():
    edges = {frozenset((s, t)) for s in SPINS for t in NEIGHBOURS[s]}
    assert len(edges) == 4 and edges == WAND_EDGES


def test_spin_order():
    assert SPINS == (-1, 0, 1)


@pytest.mark.parametrize("k", [1, 0, -3, 2.5])
def test_params_reject_bad_k(k):
    with pytest.raises(ValueError):
        ModelParams(k, 1.0)


@pytest.mark.parametrize("k", [1, 0, -3, 2.5, True, math.inf, -math.inf, math.nan])
def test_every_entry_point_checks_tree_order(k):
    matrix = transition_matrix(BoundaryLaw(1.0, 1.0), 1.0)
    checks = (tree_order, lambda k: ModelParams(k, 1.0), theta_critical,
              lambda k: spectrum(matrix, k), lambda k: FiniteCayleyTree(k, 1), ks_threshold_pair)
    for check in checks:
        with pytest.raises(ValueError, match=r"^tree order k must be an integer >= 2, got "):
            check(k)
    assert tree_order(3.0) == 3 and type(tree_order(3.0)) is int


@pytest.mark.parametrize("theta", [0.0, -1.0, math.inf, math.nan])
def test_params_reject_bad_theta(theta):
    with pytest.raises(ValueError):
        ModelParams(2, theta)


@pytest.mark.parametrize("theta", [0, -1, math.nan, math.inf, -math.inf, "x"])
def test_activity_rejects_bad_theta(theta):
    with pytest.raises(ValueError):
        activity(theta)


def test_law_residual_beyond_the_doubles_is_infinite():
    assert BoundaryLaw(1.0, 1.0, 10**400).residual == math.inf
    with pytest.raises(ValueError, match="^residual must be nonnegative$"):
        BoundaryLaw(1.0, 1.0, -(10**400))


def test_activity_returns_a_float():
    assert activity(1) == 1.0 and type(activity(1)) is float


#: integers beyond the range of doubles, whose conversion to float overflows
HUGE = [pytest.param(10**400, id="1e400"), pytest.param(-(10**400), id="-1e400")]


@pytest.mark.parametrize("theta", [0.0, -1.0, math.inf, math.nan, *HUGE])
def test_every_entry_point_checks_activity(theta):
    law, tree = BoundaryLaw(1.0, 1.0), FiniteCayleyTree(2, 1)
    checks = (activity, lambda theta: ModelParams(2, theta),
              lambda theta: transition_matrix(law, theta),
              lambda theta: finite_volume_measure(tree, theta, law),
              lambda theta: check_consistency(tree, theta, law))
    for check in checks:
        with pytest.raises(ValueError, match=r"^activity theta must be positive and finite, got "):
            check(theta)


#: an int with more digits than ``repr`` converts (sys.get_int_max_str_digits(), 4300)
LONG = 10**5000


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: activity(LONG), "activity theta must be positive and finite, got "
                 "<int of 16610 bits>", id="activity"),
    pytest.param(lambda: activity(-LONG), "activity theta must be positive and finite, got "
                 "<negative int of 16610 bits>", id="activity-negative"),
    pytest.param(lambda: tree_order(-LONG), "tree order k must be an integer >= 2, got "
                 "<negative int of 16610 bits>", id="tree_order"),
    pytest.param(lambda: ModelParams(-LONG, 1.0), "tree order k must be an integer >= 2, got "
                 "<negative int of 16610 bits>", id="ModelParams"),
    pytest.param(lambda: BoundaryLaw(LONG, 1.0), "boundary law components must be positive and "
                 "finite, got (<int of 16610 bits>, 1.0)", id="BoundaryLaw"),
    pytest.param(lambda: FiniteCayleyTree(2, -LONG), "depth must be a nonnegative integer, "
                 "got <negative int of 16610 bits>", id="FiniteCayleyTree"),
    pytest.param(lambda: theta_grid(0.1, 1.0, -LONG), "need at least 2 steps, got "
                 "<negative int of 16610 bits>", id="theta_grid"),
])
def test_rejection_shows_an_int_too_long_for_repr(call, message):
    # repr raises its own ValueError for such an int, which would replace the message
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_only_activity_raises_the_activity_message():
    raisers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                raises = (n for n in ast.walk(node) if isinstance(n, ast.Raise))
                if any("theta must be positive" in ast.unparse(n) for n in raises):
                    raisers.append(f"{path.stem}.{node.name}")
    assert raisers == ["model.activity"]


def test_params_accept_boundary():
    p = ModelParams(2, 1e-9)
    assert p.k == 2 and p.theta == 1e-9


@pytest.mark.parametrize("z1,z2", [(0.0, 1.0), (1.0, -2.0), (math.inf, 1.0),
                                   pytest.param(10**400, 1.0, id="1e400-1"),
                                   pytest.param(1.0, -(10**400), id="1--1e400")])
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
    pairs = {(a, b) for a in SPINS for b in NEIGHBOURS[a]}
    assert len(pairs) == 6
    assert {(a, b) for a in SPINS for b in SPINS} - pairs == {(0, 0), (-1, 1), (1, -1)}
