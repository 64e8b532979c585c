import functools
import math
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from wand_gibbs import cli, oracle
from wand_gibbs.model import SPINS, BoundaryLaw, ModelParams
from wand_gibbs.oracle import (
    ENUMERATION_CAP,
    FiniteCayleyTree,
    SizeCapError,
    check_consistency,
    enumerate_admissible,
    finite_volume_measure,
)
from wand_gibbs.solver import find_asymmetric, solve_symmetric, theta_critical

from finite_volume_oracle import (
    WAND_EDGES, admissible_count_formula, hamiltonian, prefix_marginals, root_marginal,
)
from newton_oracle import boundary_law


#: (k, small depth, full_root) for every consistency pair that fits the cap
CONSISTENCY_CASES = (
    (2, 0, False), (2, 1, False), (2, 2, False), (3, 0, False), (3, 1, False),
    (2, 0, True), (2, 1, True), (3, 0, True),
)


def _fits(k, depth, full_root):
    try:
        FiniteCayleyTree(k, depth, full_root)
    except SizeCapError:
        return False
    return True


#: every ball under the enumeration cap, half and full root, as (k, depth, full_root);
#: depth 0 for the orders whose depth-1 ball fits
BALLS = [pytest.param(k, depth, full_root, id=f"{k}-{depth}" + "-full" * full_root)
         for k in range(2, ENUMERATION_CAP) for depth in range(ENUMERATION_CAP)
         for full_root in (False, True) if _fits(k, depth, full_root)]


def distances(tree):
    """Each vertex's distance from the root, by walking ``parents`` up to it."""
    result = []
    for v in range(tree.size):
        steps = 0
        while tree.parents[v] != -1:
            v, steps = tree.parents[v], steps + 1
        result.append(steps)
    return result


def generation_sizes(tree):
    found = distances(tree)
    return [found.count(g) for g in range(tree.depth + 1)]


# --- tree construction ---------------------------------------------------------

def test_half_tree_shapes():
    tree = FiniteCayleyTree(2, 2)
    assert tree.size == 7
    assert generation_sizes(tree) == [1, 2, 4]
    assert all(tree.parents.count(v) == 2 for v in range(3))
    tree3 = FiniteCayleyTree(3, 2)
    assert tree3.size == 13
    assert generation_sizes(tree3) == [1, 3, 9]


def test_full_tree_root_fanout():
    tree = FiniteCayleyTree(2, 2, full_root=True)
    assert tree.parents.count(0) == 3
    assert generation_sizes(tree) == [1, 3, 6]
    assert tree.size == 10


def test_tree_generation_consistency():
    # breadth-first ids: every parent before its children, generations in id order
    tree = FiniteCayleyTree(3, 2)
    found = distances(tree)
    assert tree.size == sum(generation_sizes(tree))
    assert all(tree.parents[v] < v for v in range(1, tree.size))
    assert found == sorted(found)


@pytest.mark.parametrize("k,depth,full_root", BALLS)
def test_boundary_is_the_last_generation(k, depth, full_root):
    tree = FiniteCayleyTree(k, depth, full_root)
    assert list(tree.boundary()) == [v for v, d in enumerate(distances(tree)) if d == depth]


def test_tree_rejects_bad_args():
    with pytest.raises(ValueError):
        FiniteCayleyTree(1, 1)
    with pytest.raises(ValueError):
        FiniteCayleyTree(2, -1)


@pytest.mark.parametrize("depth", [math.inf, -math.inf, math.nan])
def test_tree_rejects_non_finite_depth(depth):
    # int() would raise its own OverflowError or ValueError first
    with pytest.raises(ValueError, match=r"^depth must be a nonnegative integer, got "):
        FiniteCayleyTree(3, depth)


@pytest.mark.parametrize("depth", [True, False, 1.5])
def test_tree_rejects_non_integer_depth(depth):
    # the same check as tree_order's: a bool is not an integer depth
    with pytest.raises(ValueError, match=r"^depth must be a nonnegative integer, got "):
        FiniteCayleyTree(2, depth)


@pytest.mark.parametrize("full_root", [None, [], "yes", 2, 1, 0, math.nan])
def test_tree_rejects_a_full_root_that_is_not_a_bool(full_root):
    # 1 and True would be two trees with one parent array
    with pytest.raises(ValueError, match=r"^full_root must be a bool, got "):
        FiniteCayleyTree(2, 1, full_root)


# --- hamiltonian ------------------------------------------------------------------

def test_hamiltonian_constant_config():
    tree = FiniteCayleyTree(2, 2)
    assert hamiltonian((1,) * 7, tree) == 0


def test_hamiltonian_root_and_children():
    tree = FiniteCayleyTree(2, 1)
    assert hamiltonian((0, -1, 1), tree) == 2


def test_hamiltonian_edge_energies():
    tree = FiniteCayleyTree(2, 1)
    assert hamiltonian((0, 1, -1), tree) == 2
    assert hamiltonian((-1, -1, 0), tree) == 1
    assert hamiltonian((-1, -1, -1), tree) == 0


def test_hamiltonian_rejects_a_wrong_length():
    with pytest.raises(ValueError, match="^configuration has 2 spins for 3 vertices$"):
        hamiltonian((0, 1), FiniteCayleyTree(2, 1))


def test_hamiltonian_rejects_inadmissible():
    tree = FiniteCayleyTree(2, 1)
    with pytest.raises(ValueError, match="admissible"):
        hamiltonian((0, 0, 1), tree)


# --- enumeration --------------------------------------------------------------------

def test_single_vertex_enumeration():
    assert len(enumerate_admissible(FiniteCayleyTree(2, 0))) == 3


def test_depth_one_enumeration_edge_pairs():
    # each edge carries exactly the 9 ordered pairs minus (0,0), (-1,1), (1,-1)
    tree = FiniteCayleyTree(2, 1)
    configs = enumerate_admissible(tree)
    allowed = {(s, t) for s in SPINS for t in SPINS} - {(0, 0), (-1, 1), (1, -1)}
    for child in (1, 2):
        assert {(config[0], config[child]) for config in configs} == allowed
    assert admissible_count_formula(tree) == 12


def test_depth_one_k2_count():
    tree = FiniteCayleyTree(2, 1)
    configs = enumerate_admissible(tree)
    assert len(configs) == 12  # 3 root spins x 2 admissible children each


@pytest.mark.parametrize("k,depth,full_root", BALLS)
def test_count_formula_matches_enumeration(k, depth, full_root):
    tree = FiniteCayleyTree(k, depth, full_root)
    assert admissible_count_formula(tree) == len(enumerate_admissible(tree))


def test_every_enumerated_config_is_admissible():
    tree = FiniteCayleyTree(2, 2)
    for config in enumerate_admissible(tree):
        for v in range(1, tree.size):
            assert frozenset((config[tree.parents[v]], config[v])) in WAND_EDGES


def test_size_cap():
    with pytest.raises(SizeCapError, match="^tree has 40 vertices, above"):
        FiniteCayleyTree(3, 3)  # refused before it is built
    assert FiniteCayleyTree(2, 3).size <= ENUMERATION_CAP  # 15 vertices: allowed
    with pytest.raises(SizeCapError, match="^tree has 17 vertices, above"):
        FiniteCayleyTree(3, 2, full_root=True)  # the root's k + 1 children count
    with pytest.raises(SizeCapError, match="^tree has at least 31 vertices, above"):
        FiniteCayleyTree(2, 10 ** 9)


def test_tree_is_its_three_numbers():
    # no parent array can be passed in, so a tree cannot contradict itself
    assert FiniteCayleyTree._fields == ("k", "depth", "full_root")
    with pytest.raises(TypeError):
        FiniteCayleyTree(2, 1, False, (-1, 0))
    built = FiniteCayleyTree.parents.fget.cache_info().currsize
    with pytest.raises(SizeCapError, match="^tree has at least 31 vertices, above"):
        FiniteCayleyTree(2, 1)._replace(depth=10 ** 9)
    assert FiniteCayleyTree.parents.fget.cache_info().currsize == built


def test_parent_array_is_built_once_per_tree():
    assert FiniteCayleyTree(3, 2).parents is FiniteCayleyTree(k=3, depth=2).parents


# --- finite-volume measure -----------------------------------------------------------

def test_uniform_measure_at_unit_point():
    tree = FiniteCayleyTree(2, 1)
    measure = finite_volume_measure(tree, 1.0, BoundaryLaw(1.0, 1.0))
    assert len(measure.probabilities) == 12
    for p in measure.probabilities.values():
        assert p == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert math.exp(measure.log_partition) == pytest.approx(12.0, rel=1e-12)


def test_probabilities_normalized_and_positive():
    tree = FiniteCayleyTree(2, 2)
    law = solve_symmetric(ModelParams(2, 0.7))
    measure = finite_volume_measure(tree, 0.7, law)
    assert abs(math.fsum(measure.probabilities.values()) - 1.0) <= 1e-12
    assert all(p > 0.0 for p in measure.probabilities.values())
    # support is exactly the admissible set
    assert set(measure.probabilities) == set(enumerate_admissible(tree))


def test_partition_matches_direct_summation():
    tree = FiniteCayleyTree(2, 2)
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
    assert math.exp(measure.log_partition) == pytest.approx(math.fsum(weights), rel=1e-12)


def test_spin_flip_covariance():
    tree = FiniteCayleyTree(2, 2)
    law = BoundaryLaw(2.0, 0.5)
    m1 = finite_volume_measure(tree, 0.8, law)
    m2 = finite_volume_measure(tree, 0.8, law.swapped())
    for config, p in m1.probabilities.items():
        flipped = tuple(-s for s in config)
        assert m2.probabilities[flipped] == pytest.approx(p, rel=1e-12)


# --- root marginal ---------------------------------------------------------------------

def test_root_marginal_single_vertex():
    tree = FiniteCayleyTree(2, 0)
    marginal = root_marginal(tree, 1.0, BoundaryLaw(2.0, 3.0))
    assert marginal == pytest.approx((3.0 / 6.0, 1.0 / 6.0, 2.0 / 6.0), rel=1e-14)


def test_root_marginal_symmetric_under_flip():
    tree = FiniteCayleyTree(2, 1)
    marginal = root_marginal(tree, 1.0, BoundaryLaw(1.0, 1.0))
    assert marginal[0] == pytest.approx(marginal[2], rel=1e-12)
    law = solve_symmetric(ModelParams(2, 0.7))
    marginal = root_marginal(FiniteCayleyTree(2, 2), 0.7, law)
    assert marginal[0] == pytest.approx(marginal[2], rel=1e-12)


def test_root_marginal_breaks_symmetry_towards_larger_weight():
    tree = FiniteCayleyTree(2, 2)
    law = find_asymmetric(ModelParams(2, 0.5))[0]  # z1 > z2
    marginal = root_marginal(tree, 0.5, law)
    assert marginal[2] > marginal[0]


# --- consistency --------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [0.5, 0.7, 1.0, 2.0])
def test_consistency_certified_law(theta):
    law = solve_symmetric(ModelParams(2, theta))
    assert check_consistency(FiniteCayleyTree(2, 2), theta, law) <= 1e-10


def test_consistency_unit_law_at_unit_activity():
    assert check_consistency(FiniteCayleyTree(2, 2), 1.0, BoundaryLaw(1.0, 1.0)) <= 1e-12


def test_consistency_fails_for_non_solution():
    law = boundary_law(1.0, 1.0, ModelParams(2, 0.7))
    assert law.residual > 1e-3
    assert check_consistency(FiniteCayleyTree(2, 2), 0.7, law) > 1e-6


def test_consistency_asymmetric_law():
    law = find_asymmetric(ModelParams(2, 0.5))[0]
    assert check_consistency(FiniteCayleyTree(2, 2), 0.5, law) <= 1e-10


def test_consistency_asymmetric_law_k3():
    for law in find_asymmetric(ModelParams(3, 0.9)):
        assert check_consistency(FiniteCayleyTree(3, 2), 0.9, law) <= 1e-10


def test_full_tree_measure_smoke():
    tree = FiniteCayleyTree(2, 2, full_root=True)
    law = solve_symmetric(ModelParams(2, 0.8))
    measure = finite_volume_measure(tree, 0.8, law)
    assert abs(math.fsum(measure.probabilities.values()) - 1.0) <= 1e-12
    marginal = root_marginal(tree, 0.8, law)
    assert marginal[0] == pytest.approx(marginal[2], rel=1e-12)


def test_consistency_rejects_a_ball_without_a_smaller_one():
    law = BoundaryLaw(1.0, 1.0)
    with pytest.raises(ValueError, match="^the consistency check needs a ball of depth >= 1, "
                                         "got depth 0$"):
        check_consistency(FiniteCayleyTree(2, 0), 1.0, law)
    with pytest.raises(ValueError, match="^the full-root ball of depth 0 is not consistent "
                                         "with depth 1$"):
        check_consistency(FiniteCayleyTree(2, 1, full_root=True), 1.0, law)


def accepted_consistency_pairs() -> list:
    """Every (small, big) tree pair that ``check_consistency`` forms from a
    big ball ENUMERATION_CAP allows: half trees from depth 1, full-root ones
    from 2."""
    pairs = []
    for full_root in (False, True):
        for k in range(2, ENUMERATION_CAP):
            for depth in range(1 + int(full_root), ENUMERATION_CAP):
                try:
                    big = FiniteCayleyTree(k, depth, full_root)
                except SizeCapError:
                    break
                pairs.append((big._replace(depth=depth - 1), big))
    return pairs


def test_consistency_marginals_share_their_keys():
    # the small tree is the big one's breadth-first prefix and every
    # admissible configuration extends, so both marginals have the same keys
    pairs = accepted_consistency_pairs()
    cases = {(small.k, small.depth, small.full_root) for small, _ in pairs}
    assert len(pairs) == 18 and {(2, 2, False), (3, 1, False), (2, 1, True)} <= cases
    law = BoundaryLaw(0.7, 1.3)
    for small, big in pairs:
        assert big.parents[:small.size] == small.parents
        small_marginal = prefix_marginals(small, small.size, 0.9, law)
        big_marginal = prefix_marginals(big, small.size, 0.9, law)
        assert small_marginal.keys() == big_marginal.keys()
        union_defect = max(abs(big_marginal.get(config, 0.0) - small_marginal.get(config, 0.0))
                           for config in small_marginal.keys() | big_marginal.keys())
        assert check_consistency(big, 0.9, law).hex() == union_defect.hex()


# --- grouped evaluation against the per-configuration measure ------------------------

@functools.cache
def configuration_statistics(tree):
    """Every admissible configuration of ``tree`` with its statistic (energy,
    #(+1), #(-1) on the ring), listed once per tree."""
    ring = tree.boundary()
    return tuple((config, oracle._statistic(config, tree.parents, ring))
                 for config in enumerate_admissible(tree))


def brute_force_probabilities(tree, theta, law):
    """The per-configuration measure of ``finite_volume_measure``, weighed
    configuration by configuration from the cached list."""
    log_theta, log_z1, log_z2 = math.log(theta), math.log(law.z1), math.log(law.z2)
    listed = configuration_statistics(tree)
    logs = [e * log_theta + a * log_z1 + b * log_z2 for _, (e, a, b) in listed]
    top = max(logs)
    weights = [math.exp(lw - top) for lw in logs]
    total = math.fsum(weights)
    return {config: w / total for (config, _), w in zip(listed, weights)}


def brute_force_marginal(probabilities, prefix_size):
    """Marginal of the first ``prefix_size`` spins, summed configuration by
    configuration over a per-configuration measure."""
    marginal = {}
    for config, p in probabilities.items():
        prefix = config[:prefix_size]
        marginal[prefix] = marginal.get(prefix, 0.0) + p
    return marginal


def brute_force_defect(tree_small, tree_big, theta, law):
    """The consistency defect from two per-configuration measures."""
    small = brute_force_probabilities(tree_small, theta, law)
    marginal = brute_force_marginal(brute_force_probabilities(tree_big, theta, law),
                                    tree_small.size)
    defect = 0.0
    for config in set(marginal) | set(small):
        diff = abs(marginal.get(config, 0.0) - small.get(config, 0.0))
        if diff > defect:
            defect = diff
    return defect


def brute_force_root_marginal(tree, theta, law):
    marginal = brute_force_marginal(brute_force_probabilities(tree, theta, law), 1)
    return tuple(marginal[(s,)] for s in SPINS)


@pytest.mark.parametrize("k,depth,full_root", CONSISTENCY_CASES)
def test_brute_force_measure_is_finite_volume_measure(k, depth, full_root):
    # the cached list weighs every configuration as the library's measure does
    law = BoundaryLaw(0.7, 1.3)
    for tree in (FiniteCayleyTree(k, depth, full_root), FiniteCayleyTree(k, depth + 1, full_root)):
        expected = finite_volume_measure(tree, 0.9, law).probabilities
        assert brute_force_probabilities(tree, 0.9, law) == expected


def close(a, b, rel=1e-9, floor=sys.float_info.min):
    return abs(a - b) <= rel * max(abs(a), abs(b), floor)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.sampled_from(CONSISTENCY_CASES), st.floats(min_value=-30.0, max_value=300.0),
       st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0))
def test_grouped_oracle_matches_per_configuration_oracle(case, log10_theta, log10_z1, log10_z2):
    k, depth, full_root = case
    small = FiniteCayleyTree(k, depth, full_root)
    big = FiniteCayleyTree(k, depth + 1, full_root)
    theta = 10.0 ** log10_theta
    params = ModelParams(k, theta)
    symmetric = solve_symmetric(params)
    solved = [symmetric] + find_asymmetric(params)[:1]
    perturbed = BoundaryLaw(symmetric.z1 * 1.1, symmetric.z2 * 0.9)
    drawn = BoundaryLaw(10.0 ** log10_z1, 10.0 ** log10_z2)
    for law in solved + [perturbed, drawn]:
        if full_root and depth == 0:
            # the full tree's root has k + 1 children, so its depth-0 ball
            # carries the wrong power of the law: the pair is rejected
            with pytest.raises(ValueError):
                check_consistency(big, theta, law)
        else:
            grouped = check_consistency(big, theta, law)
            brute = brute_force_defect(small, big, theta, law)
            if law in solved:
                assert grouped <= 1e-10 and brute <= 1e-10
            else:
                # a drawn law may solve the system, so its defect may be rounding noise
                assert close(grouped, brute, floor=1e-6)
        assert all(close(g, b) for g, b in zip(root_marginal(small, theta, law),
                                                 brute_force_root_marginal(small, theta, law)))


@pytest.mark.parametrize("theta", [1e-300, 1e300])
@pytest.mark.parametrize("z1,z2", [(1e-200, 1e200), (1e200, 1e-200), (1e-300, 1e-300)])
def test_grouped_oracle_at_extreme_weights(theta, z1, z2):
    # the shift is over the statistics' log weights alone, without ln count;
    # far outside the property's range it must still normalize and agree
    small, big = FiniteCayleyTree(3, 1), FiniteCayleyTree(3, 2)
    law = BoundaryLaw(z1, z2)
    marginal = root_marginal(big, theta, law)
    assert abs(math.fsum(marginal) - 1.0) <= 1e-12
    assert all(close(g, b) for g, b in zip(marginal, brute_force_root_marginal(big, theta, law)))
    assert close(check_consistency(big, theta, law),
                 brute_force_defect(small, big, theta, law))


def test_grouped_oracle_covers_both_sides_of_theta_critical():
    # the property above draws theta log-uniformly, so most draws sit above
    # theta_cr; pin one asymmetric law per order below it
    for k, theta in ((2, 0.5), (3, 0.9)):
        assert theta < theta_critical(k)
        small, big = FiniteCayleyTree(k, 1), FiniteCayleyTree(k, 2)
        law = find_asymmetric(ModelParams(k, theta))[0]
        grouped = check_consistency(big, theta, law)
        assert grouped <= 1e-10 and brute_force_defect(small, big, theta, law) <= 1e-10
        assert all(close(g, b) for g, b in zip(root_marginal(big, theta, law),
                                                 brute_force_root_marginal(big, theta, law)))


# --- grouped counts --------------------------------------------------------------------------

def term_groups(tree, prefix_size):
    """(statistics, groups): the cached count table with each group's slice
    of the flat counts and indices cut out, as (counts, indices, prefixes)."""
    statistics, counts, indices, groups = oracle._grouped_counts(tree, prefix_size)
    return statistics, [(counts[lo:hi], indices[lo:hi], prefixes) for lo, hi, prefixes in groups]


@pytest.mark.parametrize("k,depth,full_root", CONSISTENCY_CASES)
def test_grouped_counts_sum_to_admissible_count(k, depth, full_root):
    for tree in (FiniteCayleyTree(k, depth, full_root), FiniteCayleyTree(k, depth + 1, full_root)):
        for prefix_size in (1, FiniteCayleyTree(k, depth, full_root).size):
            _, groups = term_groups(tree, prefix_size)
            # every prefix of a group carries the group's counts
            total = sum(sum(counts) * len(prefixes) for counts, _, prefixes in groups)
            assert total == admissible_count_formula(tree)


@pytest.mark.parametrize("k,depth,expected", [(3, 2, 218), (2, 3, 783)])
def test_grouped_counts_collapse(k, depth, expected):
    # one term list per distinct multiset: 564 and 4,416 terms over single prefixes
    _, groups = term_groups(FiniteCayleyTree(k, depth), FiniteCayleyTree(k, depth - 1).size)
    assert sum(len(counts) for counts, _, _ in groups) == expected


@pytest.mark.parametrize("k,depth,expected", [(3, 2, 155), (2, 3, 292), (2, 2, 39)])
def test_grouped_counts_distinct_statistics(k, depth, expected):
    # one exponential per distinct statistic for each marginal of the tree
    tree = FiniteCayleyTree(k, depth)
    statistics, groups = term_groups(tree, FiniteCayleyTree(k, depth - 1).size)
    assert len(statistics) == len(set(statistics)) == expected
    ring = tree.boundary()
    assert set(statistics) == {oracle._statistic(config, tree.parents, ring)
                               for config in enumerate_admissible(tree)}
    assert {index for _, indices, _ in groups for index in indices} == set(range(expected))


@pytest.mark.parametrize("k,depth,expected", [(3, 2, 11), (2, 3, 39), (2, 2, 8)])
def test_grouped_counts_one_group_per_small_statistic(k, depth, expected):
    # a prefix's extensions depend on it only through its own statistic on
    # the small tree, so the big tree has one group per such statistic
    small, big = FiniteCayleyTree(k, depth - 1), FiniteCayleyTree(k, depth)
    small_statistics, _ = term_groups(small, small.size)
    _, groups = term_groups(big, small.size)
    assert len(groups) == len(small_statistics) == expected
    prefixes = [prefix for _, _, group in groups for prefix in group]
    assert sorted(prefixes) == enumerate_admissible(small)
    assert len({tuple(sorted(zip(counts, indices))) for counts, indices, _ in groups}) == expected


@pytest.mark.parametrize("k,depth,full_root", CONSISTENCY_CASES)
def test_grouped_counts_are_exact_floats_in_contiguous_slices(k, depth, full_root):
    # the hot path multiplies floats only; each float must be the count itself
    small = FiniteCayleyTree(k, depth, full_root)
    for tree in (small, FiniteCayleyTree(k, depth + 1, full_root)):
        statistics, counts, indices, groups = oracle._grouped_counts(tree, small.size)
        assert all(type(x) is float and x == int(x) for x in counts + sum(statistics, ()))
        starts, ends = [lo for lo, _, _ in groups], [hi for _, hi, _ in groups]
        assert starts == [0] + ends[:-1] and ends[-1] == len(counts) == len(indices)
        assert all(lo < hi for lo, hi in zip(starts, ends))
        ungrouped = ungrouped_counts(tree, small.size)
        assert {(prefix, statistics[indices[j]]): counts[j] for lo, hi, prefixes in groups
                for prefix in prefixes for j in range(lo, hi)} == ungrouped


@functools.cache
def ungrouped_counts(tree, prefix_size):
    ring = tree.boundary()
    return Counter((config[:prefix_size], oracle._statistic(config, tree.parents, ring))
                   for config in enumerate_admissible(tree))


@pytest.mark.parametrize("k,depth,full_root", BALLS)
def test_grouped_counts_match_the_enumeration(k, depth, full_root):
    # the subtree counts against every configuration listed in full, at the
    # prefix sizes the consistency check uses
    tree = FiniteCayleyTree(k, depth, full_root)
    for prefix_size in {1, tree._replace(depth=max(depth - 1, 0)).size}:
        statistics, counts, indices, groups = oracle._grouped_counts(tree, prefix_size)
        assert {(prefix, statistics[indices[j]]): counts[j] for lo, hi, prefixes in groups
                for prefix in prefixes for j in range(lo, hi)} == ungrouped_counts(tree, prefix_size)


def per_prefix_marginals(tree, prefix_size, theta, law):
    """The reference: one fsum per prefix over the ungrouped counts."""
    counts = ungrouped_counts(tree, prefix_size)
    log_theta, log_z1, log_z2 = math.log(theta), math.log(law.z1), math.log(law.z2)
    logs = {statistic: statistic[0] * log_theta + statistic[1] * log_z1 + statistic[2] * log_z2
            for _, statistic in counts}
    top = max(logs.values())
    terms = {}
    for (prefix, statistic), count in counts.items():
        terms.setdefault(prefix, []).append(count * math.exp(logs[statistic] - top))
    masses = {prefix: math.fsum(values) for prefix, values in terms.items()}
    total = math.fsum(masses.values())
    return {prefix: mass / total for prefix, mass in masses.items()}


@pytest.mark.parametrize("theta", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("z1,z2", [(1e-200, 1e200), (1e200, 1e-200), (1e-300, 1e-300), (0.7, 1.3)])
@pytest.mark.parametrize("k,depth,full_root", [(3, 1, False), (2, 2, False), (2, 1, True)])
def test_grouped_marginals_are_per_prefix_fsums_bit_for_bit(k, depth, full_root, theta, z1, z2):
    law = BoundaryLaw(z1, z2)
    small, big = FiniteCayleyTree(k, depth, full_root), FiniteCayleyTree(k, depth + 1, full_root)
    for tree, prefix_size in ((small, small.size), (big, small.size), (big, 1)):
        grouped = prefix_marginals(tree, prefix_size, theta, law)
        expected = per_prefix_marginals(tree, prefix_size, theta, law)
        assert grouped.keys() == expected.keys()
        assert all(grouped[prefix].hex() == p.hex() for prefix, p in expected.items())


@pytest.mark.parametrize("small,big", [
    pytest.param(small, big, id=f"{big.k}-{big.depth}" + "-full" * big.full_root)
    for small, big in accepted_consistency_pairs()])
def test_defect_is_max_over_per_prefix_fsums_bit_for_bit(small, big):
    # the defect comes from group pairs; the reference takes every prefix
    for theta in (1e-300, 1.0, 1e300):
        for z1, z2 in ((1e-200, 1e200), (1e200, 1e-200), (1e-300, 1e-300), (0.7, 1.3)):
            law = BoundaryLaw(z1, z2)
            small_marginal = per_prefix_marginals(small, small.size, theta, law)
            big_marginal = per_prefix_marginals(big, small.size, theta, law)
            expected = max(abs(big_marginal[prefix] - p) for prefix, p in small_marginal.items())
            assert check_consistency(big, theta, law).hex() == expected.hex()


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.floats(min_value=math.log(0.05), max_value=math.log(5.0)))
def test_defect_of_the_laws_verify_checks_is_max_over_per_prefix_fsums_bit_for_bit(log_theta):
    # the inputs verify itself sees: the solved symmetric law and its
    # (1.1 z, 0.9 z) perturbation, on every ball pair the cap allows
    theta = math.exp(log_theta)
    for small, big in accepted_consistency_pairs():
        law = solve_symmetric(ModelParams(big.k, theta))
        for checked in (law, BoundaryLaw(law.z1 * 1.1, law.z2 * 0.9)):
            small_marginal = per_prefix_marginals(small, small.size, theta, checked)
            big_marginal = per_prefix_marginals(big, small.size, theta, checked)
            expected = max(abs(big_marginal[prefix] - p) for prefix, p in small_marginal.items())
            assert check_consistency(big, theta, checked).hex() == expected.hex()


@pytest.mark.parametrize("call", [
    pytest.param(lambda theta, law: finite_volume_measure(FiniteCayleyTree(2, 1), theta, law),
                 id="finite_volume_measure"),
    pytest.param(lambda theta, law: check_consistency(FiniteCayleyTree(2, 1), theta, law),
                 id="check_consistency"),
])
def test_oracle_checks_theta_once_per_call(monkeypatch, call):
    checked = []
    check = oracle.activity
    monkeypatch.setattr(oracle, "activity", lambda theta: checked.append(theta) or check(theta))
    call(0.7, BoundaryLaw(0.7, 1.3))
    assert checked == [0.7]


def test_verify_builds_each_count_table_once(monkeypatch, capsys):
    # the tables come from subtree counts: no configuration of either ball is
    # listed, and a second verify reuses the plan over both (tree, prefix size)
    # tables; both caches start empty, so an earlier test's plan cannot hide a build
    calls = Counter()
    enumerate_original = oracle.enumerate_admissible

    def counting(tree):
        calls[tree] += 1
        return enumerate_original(tree)

    def clear():
        oracle._plan.cache_clear()
        oracle._grouped_counts.cache_clear()

    monkeypatch.setattr(oracle, "enumerate_admissible", counting)
    clear()
    try:
        for thetas in ("0.5,0.9", "1.7"):
            assert cli.main(["verify", "--k", "3", "--depth", "2", "--thetas", thetas]) == 0
        built = oracle._grouped_counts.cache_info().misses
        planned = oracle._plan.cache_info().misses
    finally:
        clear()
    capsys.readouterr()
    assert calls == Counter() and built == 2 and planned == 1
    # a ball over the cap is refused before anything is enumerated, every time
    for _ in range(2):
        with pytest.raises(SizeCapError):
            FiniteCayleyTree(3, 3)
    assert calls == Counter()
