"""Exact finite-volume computations on small Cayley trees.

This is the independent, brute-force side of the artifact: enumerate every
admissible configuration on a finite tree, weigh it by theta^(energy) times
the boundary-law weights on the outermost generation, and check that the
resulting finite-volume measures marginalize consistently from depth n to
depth n-1.  A law that solves the fixed-point system produces a consistency
defect at rounding level; a law that does not produces a visibly positive
defect.  Everything is exact or absent -- no sampling -- and sizes are
capped at 16 vertices to keep the oracle a desk-scale tool.

A configuration's weight depends on it only through its statistic: the
energy e, and the numbers a of +1 and b of -1 spins on the outermost
generation; the weight is theta^e z1^a z2^b, with z(0) = 1 because only
the ratios z1 (for +1) and z2 (for -1) matter.  Marginals of the first few
spins therefore need only the integer counts c of configurations per
(prefix, e, a, b), and these do not depend on theta or on the law.  They
are counted once per (tree, prefix size) and cached for the life of the
process; the cache stays small because every tree is capped at
ENUMERATION_CAP vertices (k = 3 at depth 2: 12,288 configurations collapse
to 564 (prefix, statistic) terms over 155 distinct statistics, k = 2 at
depth 3: 49,152 to 4,416 terms over 292).  Each marginal is then the
polynomial sum c theta^e z1^a z2^b per prefix.  Many prefixes share the
same multiset of terms, and fsum is correctly rounded, so such prefixes
share one mass: one fsum per distinct term multiset serves them all (564
terms in 24 prefixes become 218 in 11 groups, 4,416 in 192 become 783 in
39).  The weight of each distinct statistic is formed once, in logs,
e ln theta + a ln z1 + b ln z2, and exponentiated after subtracting the
maximum, so it lies in (0, 1] and the largest is 1; each group's mass is
the fsum of c times the weights of its statistics, and the normalization
is the fsum of every prefix's mass, so it stays bit-stable even for
activities far from 1.  The integer counts stay out of the shift: each is
at most the admissible count, so c w cannot overflow.
The grouping is still a brute-force count over the enumeration, not the
tree recursion whose fixed point is under test.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

from .model import SPINS, WAND_ADJACENCY, BoundaryLaw, _value_type, allows, tree_order

__all__ = [
    "ENUMERATION_CAP",
    "SizeCapError",
    "FiniteCayleyTree",
    "FiniteVolumeMeasure",
    "cayley_tree",
    "hamiltonian",
    "enumerate_admissible",
    "admissible_count_formula",
    "finite_volume_measure",
    "root_marginal",
    "check_consistency",
]

#: largest vertex count the enumeration routines accept
ENUMERATION_CAP = 16

#: the spins each spin admits on a neighbouring vertex
_ALLOWED = {s: tuple(t for t in SPINS if allows(s, t)) for s in SPINS}


class SizeCapError(ValueError):
    """The tree exceeds the exact-enumeration cap."""


class FiniteCayleyTree(_value_type("FiniteCayleyTree", "k depth full_root parents children generation")):
    """A rooted ball of radius ``depth`` in the Cayley tree of order ``k``.

    Vertices are integers in breadth-first order with root 0, so every
    vertex's parent has a smaller id.  ``full_root`` selects the geometry:
    the default half-tree gives the root k children (matching the rooted
    successor recursion); the full tree gives it k+1 and is for display
    only.  Every non-root internal vertex has exactly k children.
    """

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.parents)

    def edges(self) -> list:
        """Parent-child pairs, one per non-root vertex."""
        return [(self.parents[v], v) for v in range(1, self.size)]

    def generation_sizes(self) -> list:
        sizes = [0] * (self.depth + 1)
        for g in self.generation:
            sizes[g] += 1
        return sizes

    def boundary(self) -> list:
        """Vertex ids of the outermost generation (the field-carrying ring)."""
        return [v for v in range(self.size) if self.generation[v] == self.depth]


def cayley_tree(k: int, depth: int, full_root: bool = False) -> FiniteCayleyTree:
    """Build the radius-``depth`` ball of the order-``k`` Cayley tree.

    Raises SizeCapError before allocating the first generation that would
    take the ball past ENUMERATION_CAP vertices."""
    k = tree_order(k)
    if depth != depth or depth in (math.inf, -math.inf) or int(depth) != depth or depth < 0:
        raise ValueError(f"depth must be a nonnegative integer, got {depth!r}")
    depth = int(depth)
    parents = [-1]
    generation = [0]
    frontier = [0]
    for g in range(1, depth + 1):
        size = len(parents) + len(frontier) * k + (full_root and g == 1)
        if size > ENUMERATION_CAP:
            # the ball through generation g: the whole tree only when g == depth
            raise _over_cap(size if g == depth else f"at least {size}")
        next_frontier = []
        for v in frontier:
            fanout = k + 1 if (v == 0 and full_root) else k
            for _ in range(fanout):
                parents.append(v)
                generation.append(g)
                next_frontier.append(len(parents) - 1)
        frontier = next_frontier
    children = [[] for _ in parents]
    for v in range(1, len(parents)):
        children[parents[v]].append(v)
    return FiniteCayleyTree(
        k=k,
        depth=depth,
        full_root=full_root,
        parents=tuple(parents),
        children=tuple(tuple(c) for c in children),
        generation=tuple(generation),
    )


def hamiltonian(config, tree: FiniteCayleyTree) -> int:
    """The J-free energy sum over edges of (spin(x) - spin(y))^2.

    ``config`` is a spin sequence indexed by vertex id.  Non-admissible
    configurations (an edge outside the constraint graph) are rejected.
    """
    if len(config) != tree.size:
        raise ValueError(f"configuration has {len(config)} spins for {tree.size} vertices")
    total = 0
    for v in range(1, tree.size):
        su, sv = config[tree.parents[v]], config[v]
        if not allows(su, sv):
            raise ValueError(f"configuration is not admissible: pair ({su}, {sv}) on edge ({tree.parents[v]}, {v})")
        total += (su - sv) ** 2
    return total


def _over_cap(vertices) -> SizeCapError:
    return SizeCapError(
        f"tree has {vertices} vertices, above the exact-enumeration cap {ENUMERATION_CAP}"
    )


def enumerate_admissible(tree: FiniteCayleyTree) -> list:
    """All admissible spin configurations on ``tree``, as vertex-indexed tuples.

    Vertex by vertex in id order, each parent before its children: every
    admissible prefix is extended by the spins its parent's spin allows, so
    the cost is proportional to the admissible count, not to 3^(vertices).
    Configurations come out in lexicographic order.
    """
    if tree.size > ENUMERATION_CAP:
        raise _over_cap(tree.size)
    configs = [(s,) for s in SPINS]
    for v in range(1, tree.size):
        parent = tree.parents[v]
        configs = [c + (s,) for c in configs for s in _ALLOWED[c[parent]]]
    return configs


def admissible_count_formula(tree: FiniteCayleyTree) -> int:
    """Admissible-configuration count via the adjacency-power recursion.

    Bottom-up over the tree: a leaf admits one completion per spin, an
    internal vertex with spin s admits the product over children of the
    adjacency-weighted sums of their counts.  Independent of enumeration.
    """
    a = WAND_ADJACENCY
    counts = [[1, 1, 1] for _ in range(tree.size)]
    for v in range(tree.size - 1, -1, -1):
        for i in range(3):
            prod = 1
            for c in tree.children[v]:
                prod *= sum(a[i][j] * counts[c][j] for j in range(3))
            counts[v][i] = prod
    return sum(counts[0])


def _statistic(config, parents, ring) -> tuple:
    """(energy, #(+1) on the ring, #(-1) on the ring): the configuration's
    weight is theta^energy z1^a z2^b."""
    energy = 0
    for v in range(1, len(parents)):
        energy += (config[parents[v]] - config[v]) ** 2
    spins = [config[v] for v in ring]
    return energy, spins.count(1), spins.count(-1)


def _weights(statistics, theta: float, law: BoundaryLaw) -> tuple:
    """(top, weights): the largest log weight e ln theta + a ln z1 + b ln z2
    of the statistics (e, a, b), and each one's exp(log weight - top) in (0, 1]."""
    theta = float(theta)
    if not (math.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be positive and finite, got {theta!r}")
    log_theta, log_z1, log_z2 = math.log(theta), math.log(law.z1), math.log(law.z2)
    logs = [e * log_theta + a * log_z1 + b * log_z2 for e, a, b in statistics]
    top = max(logs)
    return top, [math.exp(lw - top) for lw in logs]


@functools.cache
def _grouped_counts(tree: FiniteCayleyTree, prefix_size: int) -> tuple:
    """(statistics, ((counts, indices, prefixes), ...)): the admissible
    configurations of ``tree`` counted by their first ``prefix_size`` spins
    and their statistic.  Each prefix in ``prefixes`` has ``counts[j]``
    configurations of statistic ``statistics[indices[j]]``; prefixes with the
    same terms share one group, and each distinct statistic appears once in
    ``statistics``.  Independent of theta and of the law."""
    ring = tree.boundary()
    counts = Counter(
        (config[:prefix_size], _statistic(config, tree.parents, ring))
        for config in enumerate_admissible(tree)
    )
    indices = {}
    terms = {}
    for (prefix, statistic), count in counts.items():
        index = indices.setdefault(statistic, len(indices))
        terms.setdefault(prefix, []).append((count, index))
    groups = {}
    for prefix, prefix_terms in terms.items():
        groups.setdefault(tuple(sorted(prefix_terms)), []).append(prefix)
    return tuple(indices), tuple((*zip(*key), tuple(prefixes)) for key, prefixes in groups.items())


def _prefix_marginals(tree: FiniteCayleyTree, prefix_size: int, theta: float,
                      law: BoundaryLaw) -> dict:
    """Probability of each admissible prefix of ``prefix_size`` spins under
    the finite-volume measure, from the grouped counts: one exponential per
    distinct statistic and one fsum per group of prefixes."""
    statistics, groups = _grouped_counts(tree, prefix_size)
    _, weights = _weights(statistics, theta, law)
    masses = [math.fsum([count * weights[index] for count, index in zip(counts, indices)])
              for counts, indices, _ in groups]
    # each prefix's mass once: the same multiset as one fsum per prefix
    total = math.fsum([mass for mass, (_, _, prefixes) in zip(masses, groups) for _ in prefixes])
    return {prefix: mass / total for mass, (_, _, prefixes) in zip(masses, groups) for prefix in prefixes}


class FiniteVolumeMeasure(_value_type("FiniteVolumeMeasure",
                                      "tree theta boundary_law probabilities log_partition")):
    """Normalized Gibbs measure over the admissible configurations of a tree.

    ``probabilities`` maps each admissible configuration tuple to its
    probability; ``partition`` is the un-normalized weight total Z (also
    available in log form to survive extreme activities).
    """

    __slots__ = ()

    @property
    def partition(self) -> float:
        return math.exp(self.log_partition)


def finite_volume_measure(tree: FiniteCayleyTree, theta: float,
                          law: BoundaryLaw) -> FiniteVolumeMeasure:
    """The finite-volume measure with boundary fields on the last generation.

    Each admissible configuration gets weight theta^(energy) times the
    product of z(spin) over the outermost generation, with z(-1) = z2,
    z(0) = 1, z(+1) = z1; interior vertices carry no field.
    """
    configs = enumerate_admissible(tree)
    ring = tree.boundary()
    top, weights = _weights([_statistic(c, tree.parents, ring) for c in configs], theta, law)
    total = math.fsum(weights)
    probabilities = {config: w / total for config, w in zip(configs, weights)}
    return FiniteVolumeMeasure(
        tree=tree,
        theta=float(theta),
        boundary_law=law,
        probabilities=probabilities,
        log_partition=top + math.log(total),
    )


def root_marginal(tree: FiniteCayleyTree, theta: float, law: BoundaryLaw) -> tuple:
    """Marginal distribution of the root spin, in spin order (-1, 0, +1)."""
    marginal = _prefix_marginals(tree, 1, theta, law)
    return tuple(marginal[(s,)] for s in SPINS)


def check_consistency(tree_small: FiniteCayleyTree, tree_big: FiniteCayleyTree,
                      theta: float, law: BoundaryLaw) -> float:
    """Max defect between the depth-(n-1) measure and the depth-n marginal.

    The two trees must share order and root geometry and differ by one
    generation.  For a law solving the fixed-point system the defect is at
    rounding level (<= 1e-10 comfortably); for a law that does not solve it
    the defect is visibly positive, which is the empirical 'only if'.  The
    full-root pair at depths (0, 1) is rejected: the root's k + 1 children
    make its depth-0 ball carry the wrong power of the law.
    """
    if tree_small.k != tree_big.k or tree_small.full_root != tree_big.full_root:
        raise ValueError("trees must share order k and root geometry")
    if tree_big.depth != tree_small.depth + 1:
        raise ValueError("trees must differ by exactly one generation")
    if tree_small.full_root and tree_small.depth == 0:
        raise ValueError("the full-root ball of depth 0 is not consistent with depth 1")
    small = _prefix_marginals(tree_small, tree_small.size, theta, law)
    big = _prefix_marginals(tree_big, tree_small.size, theta, law)
    # both are keyed by the small tree's admissible configurations
    return max(abs(big[config] - mass) for config, mass in small.items())
