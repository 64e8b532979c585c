"""Test-side oracles for the finite-volume side of ``wand_gibbs.oracle``.

The library keeps only what ``verify`` runs: enumeration, the grouped count
tables and the consistency defect.  This module holds the checks on them:

- ``WAND_EDGES``: the wand graph as the paper states it, so that neither
  check below reads the library's ``NEIGHBOURS``;
- ``hamiltonian``: the energy of one configuration, from its own edge loop
  and admissibility check, so that a weight built from it is independent
  of the library's statistic;
- ``admissible_count_formula``: the admissible count by the adjacency-power
  recursion, independent of enumeration;
- ``prefix_marginals`` and ``root_marginal``: the grouped marginals keyed
  by prefix, built on the library's cached count tables and the kernel
  ``verify`` runs on them, so that the grouped path stays under test.
"""

from __future__ import annotations

import math

from wand_gibbs import oracle
from wand_gibbs.model import SPINS, BoundaryLaw, activity
from wand_gibbs.oracle import FiniteCayleyTree

#: the edges of the wand constraint graph: {0,-1}, {0,1}, {-1,-1} and {1,1}
WAND_EDGES = frozenset(frozenset(edge) for edge in ((0, -1), (0, 1), (-1, -1), (1, 1)))


def hamiltonian(config, tree: FiniteCayleyTree) -> int:
    """The J-free energy sum over edges of (spin(x) - spin(y))^2.

    ``config`` is a spin sequence indexed by vertex id.  Non-admissible
    configurations (an edge outside the constraint graph) are rejected.
    """
    parents = tree.parents
    if len(config) != len(parents):
        raise ValueError(f"configuration has {len(config)} spins for {len(parents)} vertices")
    energy = 0
    for v in range(1, len(parents)):
        su, sv = config[parents[v]], config[v]
        if frozenset((su, sv)) not in WAND_EDGES:
            raise ValueError(f"configuration is not admissible: pair ({su}, {sv}) on edge ({parents[v]}, {v})")
        energy += (su - sv) ** 2
    return energy


def admissible_count_formula(tree: FiniteCayleyTree) -> int:
    """Admissible-configuration count via the adjacency-power recursion.

    Bottom-up, in decreasing id order so that every vertex's children come
    first: a vertex's completions per spin (one for a leaf) multiply into
    its parent's, adjacency-weighted.  Independent of enumeration.
    """
    a = [[frozenset((s, t)) in WAND_EDGES for t in SPINS] for s in SPINS]
    counts = [[1, 1, 1] for _ in range(tree.size)]
    for v in range(tree.size - 1, 0, -1):
        parent, child = counts[tree.parents[v]], counts[v]
        for i in range(3):
            parent[i] *= sum(a[i][j] * child[j] for j in range(3))
    return sum(counts[0])


def prefix_marginals(tree: FiniteCayleyTree, prefix_size: int, theta: float,
                     law: BoundaryLaw) -> dict:
    """Probability of each admissible prefix of ``prefix_size`` spins under
    the finite-volume measure: the group probabilities of the library's
    kernel over the table of (tree, prefix_size), folded for a law with
    z1 == z2 as the consistency check folds it, keyed by prefix."""
    symmetric = law.z1 == law.z2
    groups = oracle._grouped_counts(tree, prefix_size, symmetric)[3]
    logs = math.log(theta), math.log(law.z1), math.log(law.z2)
    probabilities = oracle._probabilities(oracle._ball(tree, prefix_size, symmetric), *logs)
    return {prefix: p for p, (_, _, prefixes) in zip(probabilities, groups) for prefix in prefixes}


def root_marginal(tree: FiniteCayleyTree, theta: float, law: BoundaryLaw) -> tuple:
    """Marginal distribution of the root spin, in spin order (-1, 0, +1)."""
    marginal = prefix_marginals(tree, 1, activity(theta), law)
    return tuple(marginal[(s,)] for s in SPINS)
