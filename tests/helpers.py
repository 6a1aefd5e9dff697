"""Shared test utilities: seeded random instances and partial assignments."""

from __future__ import annotations

import numpy as np

from preopt import Instance
from preopt import oracle
from preopt.relations import PartialAssignment, Relation, close


def random_instance(rng: np.random.Generator, n: int, kind: str = "grid") -> Instance:
    """Random instance with exactly representable values.

    kind "grid" draws multiples of 1/1024 (sums of up to a few dozen of
    these are exact in float64, so oracle ties are exact); kind "pm1" draws
    pure +-1 values.
    """
    if kind == "pm1":
        c = rng.choice([-1.0, 1.0], size=(n, n))
    else:
        c = rng.integers(-1024, 1025, size=(n, n)).astype(np.float64) / 1024.0
    np.fill_diagonal(c, 0.0)
    return Instance(c)


def random_transitive_relation(rng: np.random.Generator, n: int) -> Relation:
    stack = oracle.relation_stack(n)
    return Relation(stack[int(rng.integers(0, stack.shape[0]))])


def random_consistent_pa(
    rng: np.random.Generator, n: int, density: float = 0.3
) -> PartialAssignment:
    """Consistent partial assignment: reveal random pairs of a random preorder."""
    x = random_transitive_relation(rng, n)
    reveal = rng.random((n, n)) < density
    np.fill_diagonal(reveal, False)
    return PartialAssignment(x.matrix & reveal, ~x.matrix & reveal)


def random_closed_pa(
    rng: np.random.Generator, n: int, density: float = 0.3
) -> PartialAssignment:
    return close(random_consistent_pa(rng, n, density))


def arc_matrix(n: int, arcs) -> np.ndarray:
    """Dense n x n capacity matrix of an arc list (u, v, cap), summing
    parallel arcs."""
    cap = np.zeros((n, n))
    for u, v, c in arcs:
        cap[u, v] += c
    return cap


def completions(pa: PartialAssignment) -> np.ndarray:
    """All transitive completions of pa, as a boolean stack (oracle-backed)."""
    stack = oracle.relation_stack(pa.n)
    return stack[oracle.completion_mask(stack, pa)]
