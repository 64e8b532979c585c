"""Exact finite-volume computations on small Cayley trees.

This is the independent, exact side of the artifact: weigh every admissible
configuration on a finite tree by theta^(energy) times the boundary-law
weights on the outermost generation, and check that the resulting
finite-volume measures marginalize consistently from depth n to depth
n-1.  A law that solves the fixed-point system produces a consistency
defect at rounding level; a law that does not produces a visibly positive
defect.  Everything is exact or absent -- no sampling -- and sizes are
capped at 16 vertices to keep the oracle a desk-scale tool.

A configuration's weight depends on it only through its statistic: the
energy e, and the numbers a of +1 and b of -1 spins on the outermost
generation; the weight is theta^e z1^a z2^b, with z(0) = 1 because only
the ratios z1 (for +1) and z2 (for -1) matter.  Marginals of the first few
spins therefore need only the integer counts c of configurations per
(prefix, e, a, b), which depend on neither theta nor the law and are
cached per (tree, prefix size).  Prefixes with the same multiset of terms
share one group, and so one mass, as fsum is correctly rounded.  At k = 3,
depth 2, 12,288 configurations give 564 terms in 24 prefixes, and 218
terms in 11 groups over 155 distinct statistics (k = 2, depth 3: 49,152,
4,416 in 192, 783 in 39 over 292).

The consistency check reads one cached plan per big ball.  For that ball
and the one a generation smaller, both counted by the smaller one's
spins, it holds the distinct statistics, the flat (count, statistic index)
terms, each group's (lo, hi) slice and the group of every prefix; and the
(big group, small group) pairs that share a prefix (11 at k = 3).  A check
takes ln theta, ln z1 and ln z2 once.  Per ball it forms the log weight
e ln theta + a ln z1 + b ln z2 of each statistic and their maximum top,
then each term's product c exp(log weight - top) in one pass: one
exponential per term (218 at k = 3, not 155), but no list of weights to
gather from.  One fsum per slice gives each group's mass, and one over
every prefix's mass the normalization, so the result is bit-stable even
far from theta = 1.  The counts stay out of the shift (c w cannot
overflow), and they and the statistics are stored as floats, exact far
below 2^53.  The defect is the largest difference over the pairs, which
is the largest over the prefixes, bit for bit.

Only the prefixes are enumerated; the subtrees below them are counted
exactly, never listed.  Given its parent's spin, a vertex's subtree has the
counts {(e, a, b): c} that sum, over the vertex's spins, its edge's and
ring's monomial times its children's counts, memoised per (vertex, parent
spin); a prefix's counts are its statistic times those of the subtrees cut
off below it.  No theta and no law enter, so this is not the recursion whose
fixed point is under test: its counts are integers, and the tests compare
every table the cap allows with the full enumeration.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

from .model import (
    NEIGHBOURS, SPINS, BoundaryLaw, _is_integer, _shown, _value_type, activity,
    tree_order,
)

__all__ = [
    "ENUMERATION_CAP",
    "SizeCapError",
    "FiniteCayleyTree",
    "FiniteVolumeMeasure",
    "enumerate_admissible",
    "finite_volume_measure",
    "check_consistency",
]

#: largest vertex count the enumeration routines accept
ENUMERATION_CAP = 16

class SizeCapError(ValueError):
    """The tree exceeds the exact-enumeration cap."""


class FiniteCayleyTree(_value_type("FiniteCayleyTree", "k depth full_root")):
    """A rooted ball of radius ``depth`` in the Cayley tree of order ``k``.

    Vertices are integers in breadth-first order with root 0, so every
    vertex's parent has a smaller id; ``parents[v]`` is the parent of v
    (-1 for the root), derived from the three fields and built once per
    tree.  ``full_root`` selects the geometry: the default half-tree gives
    the root k children (matching the rooted successor recursion); the full
    tree gives it k+1 and is for display only.  Every non-root internal
    vertex has exactly k children.  A ball above ENUMERATION_CAP vertices
    raises SizeCapError before anything is built.
    """

    __slots__ = ()

    def __new__(cls, k, depth, full_root=False):
        k = tree_order(k)
        if not _is_integer(depth) or depth < 0:
            raise ValueError(f"depth must be a nonnegative integer, got {_shown(depth)}")
        if not isinstance(full_root, bool):  # 1 or "yes" would be a second key for one ball
            raise ValueError(f"full_root must be a bool, got {_shown(full_root)}")
        depth = int(depth)
        size = ring = 1  # the ball through generation g, and generation g alone
        for g in range(1, depth + 1):
            ring = ring * k + (full_root and g == 1)
            size += ring
            if size > ENUMERATION_CAP:
                # the ball through generation g: the whole tree only when g == depth
                shown = size if g == depth else f"at least {size}"
                raise SizeCapError(f"tree has {shown} vertices, above the "
                                   f"exact-enumeration cap {ENUMERATION_CAP}")
        return tuple.__new__(cls, (k, depth, full_root))

    @property
    @functools.cache
    def parents(self) -> tuple:
        parents = [-1]
        frontier = range(1)  # the ids of the last generation built
        for _ in range(self.depth):
            for v in frontier:
                parents += [v] * (self.k + 1 if (v == 0 and self.full_root) else self.k)
            frontier = range(frontier.stop, len(parents))
        return tuple(parents)

    @property
    def size(self) -> int:
        return len(self.parents)

    def boundary(self) -> range:
        """Vertex ids of the outermost generation (the field-carrying ring):
        in breadth-first order, every id above the largest parent (at depth
        0, the root alone)."""
        return range(max(self.parents) + 1, self.size)


def enumerate_admissible(tree: FiniteCayleyTree) -> list:
    """All admissible spin configurations on ``tree``, as vertex-indexed tuples.

    Vertex by vertex in id order, each parent before its children: every
    admissible prefix is extended by the ``NEIGHBOURS`` of its parent's spin,
    so the cost is proportional to the admissible count, not to 3^(vertices);
    each neighbour tuple is in SPINS order, so configurations come out in
    lexicographic order.
    """
    return _admissible(tree.parents)


def _admissible(parents) -> list:
    """The admissible configurations of the vertices 0..len(parents)-1."""
    configs = [(s,) for s in SPINS]
    for parent in parents[1:]:
        configs = [c + (s,) for c in configs for s in NEIGHBOURS[c[parent]]]
    return configs


def _statistic(config, parents, ring) -> tuple:
    """(energy, #(+1) on the ring, #(-1) on the ring): the configuration's
    weight is theta^energy z1^a z2^b."""
    energy = 0
    for v in range(1, len(parents)):
        energy += (config[parents[v]] - config[v]) ** 2
    spins = [config[v] for v in ring]
    return energy, spins.count(1), spins.count(-1)


def _product(factors) -> dict:
    """The product of count polynomials {(e, a, b): count}: exponents add."""
    result = {(0, 0, 0): 1}
    for factor in factors:
        terms = Counter()
        for (e, a, b), count in result.items():
            for (f, x, y), other in factor.items():
                terms[e + f, a + x, b + y] += count * other
        result = terms
    return result


@functools.cache
def _grouped_counts(tree: FiniteCayleyTree, prefix_size: int) -> tuple:
    """(statistics, counts, indices, groups): the admissible configurations
    of ``tree`` counted by their first ``prefix_size`` spins and their
    statistic.  Group g is ``(lo, hi, prefixes)``: each of its prefixes has
    ``counts[j]`` configurations of statistic ``statistics[indices[j]]`` for
    j in range(lo, hi); prefixes with the same terms share one group, and
    each distinct statistic appears once in ``statistics``.  Counts and
    statistics are stored as floats, which hold them exactly (each is at
    most the admissible count).  Independent of theta and of the law."""
    parents, ring = tree.parents, tree.boundary()

    @functools.cache
    def below(v, parent_spin):
        # the counts of v's subtree by statistic, v's edge to its parent included
        counts = Counter()
        for s in NEIGHBOURS[parent_spin]:
            edge = {((parent_spin - s) ** 2, v in ring and s == 1, v in ring and s == -1): 1}
            children = [below(c, s) for c in range(v + 1, tree.size) if parents[c] == v]
            counts.update(_product([edge] + children))
        return counts

    cut = [c for c in range(prefix_size, tree.size) if parents[c] < prefix_size]
    head, head_ring = parents[:prefix_size], range(ring.start, prefix_size)
    indices = {}
    terms = {}
    for prefix in _admissible(head):
        own = {_statistic(prefix, head, head_ring): 1}
        product = _product([own] + [below(c, prefix[parents[c]]) for c in cut])
        terms[prefix] = [(float(count), indices.setdefault(statistic, len(indices)))
                         for statistic, count in product.items()]
    shared = {}
    for prefix, prefix_terms in terms.items():
        shared.setdefault(tuple(sorted(prefix_terms)), []).append(prefix)
    flat, groups = [], []
    for key, prefixes in shared.items():
        groups.append((len(flat), len(flat) + len(key), tuple(prefixes)))
        flat += key
    counts, flat_indices = zip(*flat)
    statistics = tuple(tuple(map(float, statistic)) for statistic in indices)
    return statistics, counts, flat_indices, tuple(groups)


def _ball(tree: FiniteCayleyTree, prefix_size: int) -> tuple:
    """(statistics, terms, slices, owners): the table of ``_grouped_counts(tree,
    prefix_size)`` as ``_probabilities`` reads it, with each term a (count,
    statistic index) pair, each group a (lo, hi) slice of the terms and the
    group index of every prefix, group by group."""
    statistics, counts, indices, groups = _grouped_counts(tree, prefix_size)
    return (statistics, tuple(zip(counts, indices)), tuple((lo, hi) for lo, hi, _ in groups),
            tuple(g for g, (_, _, prefixes) in enumerate(groups) for _ in prefixes))


@functools.cache
def _plan(tree: FiniteCayleyTree) -> tuple:
    """(big, small, pairs): the ``_ball`` of ``tree`` and of the ball one
    generation smaller, both counted by the smaller ball's spins, and each
    distinct (i, j) such that a prefix lies in group i of the first and group
    j of the second; looked up prefix by prefix, so it holds for any two
    partitions."""
    small = tree._replace(depth=tree.depth - 1)
    owner = {prefix: i for i, (_, _, prefixes) in enumerate(_grouped_counts(tree, small.size)[3])
             for prefix in prefixes}
    pairs = {(owner[prefix], j)
             for j, (_, _, prefixes) in enumerate(_grouped_counts(small, small.size)[3])
             for prefix in prefixes}
    return _ball(tree, small.size), _ball(small, small.size), tuple(sorted(pairs))


def _probabilities(ball: tuple, log_theta: float, log_z1: float, log_z2: float) -> list:
    """Probability of each prefix of group g of the ``_ball`` ``ball``, at
    index g: one log weight per statistic, one exponential and product per
    term, one fsum per group and one over every prefix's mass."""
    statistics, terms, slices, owners = ball
    logs = [e * log_theta + a * log_z1 + b * log_z2 for e, a, b in statistics]
    top = max(logs)
    products = [count * math.exp(logs[index] - top) for count, index in terms]
    masses = [math.fsum(products[lo:hi]) for lo, hi in slices]
    # each prefix's mass once: the same multiset as one fsum per prefix
    total = math.fsum([masses[g] for g in owners])
    return [mass / total for mass in masses]


class FiniteVolumeMeasure(_value_type("FiniteVolumeMeasure", "probabilities log_partition")):
    """Normalized Gibbs measure over the admissible configurations of a tree.

    ``probabilities`` maps each admissible configuration tuple to its
    probability; ``log_partition`` is the log of the un-normalized weight
    total Z, which survives extreme activities.
    """

    __slots__ = ()


def finite_volume_measure(tree: FiniteCayleyTree, theta: float,
                          law: BoundaryLaw) -> FiniteVolumeMeasure:
    """The finite-volume measure with boundary fields on the last generation.

    Each admissible configuration gets weight theta^(energy) times the
    product of z(spin) over the outermost generation, with z(-1) = z2,
    z(0) = 1, z(+1) = z1; interior vertices carry no field.
    """
    log_theta, log_z1, log_z2 = math.log(activity(theta)), math.log(law.z1), math.log(law.z2)
    configs = enumerate_admissible(tree)
    parents, ring = tree.parents, tree.boundary()
    logs = [e * log_theta + a * log_z1 + b * log_z2
            for e, a, b in (_statistic(c, parents, ring) for c in configs)]
    top = max(logs)
    weights = [math.exp(lw - top) for lw in logs]
    total = math.fsum(weights)
    probabilities = {config: w / total for config, w in zip(configs, weights)}
    return FiniteVolumeMeasure(probabilities, top + math.log(total))


def check_consistency(tree: FiniteCayleyTree, theta: float, law: BoundaryLaw) -> float:
    """Max defect between the depth-(n-1) measure and the depth-n marginal,
    for the depth-n ball ``tree`` and the ball one generation smaller.

    For a law solving the fixed-point system the defect is at rounding level
    (<= 1e-10 comfortably); for a law that does not solve it the defect is
    visibly positive, which is the empirical 'only if'.  A depth-0 ball has
    no smaller ball; the full-root ball of depth 1 is rejected too: the
    root's k + 1 children make its depth-0 ball carry the wrong power of the
    law.
    """
    if tree.depth == 0:
        raise ValueError("the consistency check needs a ball of depth >= 1, got depth 0")
    if tree.full_root and tree.depth == 1:
        raise ValueError("the full-root ball of depth 0 is not consistent with depth 1")
    logs = math.log(activity(theta)), math.log(law.z1), math.log(law.z2)
    big, small, pairs = _plan(tree)
    p, q = _probabilities(big, *logs), _probabilities(small, *logs)
    return max([abs(p[i] - q[j]) for i, j in pairs])
