"""Exhaustive ground truth for small instances.

Enumerates every transitive relation on up to six elements, solves small
preordering instances exactly, and certifies that a set of fixations keeps
at least one optimal solution reachable; ``preopt oracle-check`` runs on
these. Everything here exists to validate the polynomial-time machinery;
nothing scales past n = 6 by design.

Enumeration extends element by element: a transitive relation on n+1
elements is a transitive relation R on n elements plus a predecessor set D
(closed under predecessors of R) and a successor set A (closed under
successors) with D x A fully covered by R. Each relation is produced exactly
once. The per-n results are cached process-wide.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .instance import Instance
from .relations import InconsistentAssignmentError, PartialAssignment

MAX_ORACLE_N = 6

_stack_cache: dict[int, np.ndarray] = {}


def _extend_masks(masks: list[int], m: int) -> list[int]:
    """All transitive relations on m+1 elements from those on m elements."""
    new_n = m + 1
    out: list[int] = []
    subsets = range(1 << m)
    for rel in masks:
        rows = [(rel >> (p * m)) & ((1 << m) - 1) for p in range(m)]
        cols = [0] * m
        for p in range(m):
            r = rows[p]
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << p
                r ^= low
        cols_aug = [cols[q] | (1 << q) for q in range(m)]
        downs = [S for S in subsets if all(cols[q] & ~S == 0 for q in range(m) if S >> q & 1)]
        ups = [S for S in subsets if all(rows[p] & ~S == 0 for p in range(m) if S >> p & 1)]
        base = 0
        for p in range(m):
            base |= rows[p] << (p * new_n)
        for down in downs:
            allowed = 0
            for q in range(m):
                if down & ~cols_aug[q] == 0:
                    allowed |= 1 << q
            down_bits = 0
            for p in range(m):
                if down >> p & 1:
                    down_bits |= 1 << (p * new_n + m)
            for up in ups:
                if up & ~allowed:
                    continue
                out.append(base | down_bits | (up << (m * new_n)))
    return out


def _masks_to_stack(masks: list[int], n: int) -> np.ndarray:
    arr = np.array(masks, dtype=np.uint64)
    shifts = np.arange(n * n, dtype=np.uint64)
    bits = (arr[:, None] >> shifts[None, :]) & np.uint64(1)
    return bits.astype(bool).reshape(len(masks), n, n)


def relation_stack(n: int) -> np.ndarray:
    """All transitive relations on n elements, as a (count, n, n) bool array."""
    if not 1 <= n <= MAX_ORACLE_N:
        raise ValueError(f"oracle enumeration supports 1 <= n <= {MAX_ORACLE_N}")
    if n not in _stack_cache:
        masks = [0]
        for m in range(1, n):
            masks = _extend_masks(masks, m)
        _stack_cache[n] = _masks_to_stack(masks, n)
    return _stack_cache[n]


def completion_mask(stack: np.ndarray, pa: PartialAssignment) -> np.ndarray:
    """Mask of stack rows that agree with every decided pair."""
    count = stack.shape[0]
    mask = np.ones(count, dtype=bool)
    if pa.ones.any():
        mask &= stack[:, pa.ones].all(axis=1)
    if pa.zeros.any():
        mask &= ~stack[:, pa.zeros].any(axis=1)
    return mask


@dataclass
class OptimumSet:
    """Optimal value and all maximizers of a (constrained) instance."""

    value: float
    matrices: np.ndarray  # (count, n, n) boolean stack of all optima


def solve_exact(instance: Instance, pa: PartialAssignment | None = None) -> OptimumSet:
    """Exact optimum set over all completions of pa (all preorders if None)."""
    n = instance.n
    if n > MAX_ORACLE_N:
        raise ValueError(f"exact solving supports n <= {MAX_ORACLE_N}")
    stack = relation_stack(n)
    scores = stack.reshape(stack.shape[0], -1).astype(np.float64) @ instance.values.ravel()
    if pa is not None:
        if pa.n != n:
            raise ValueError("assignment size does not match instance")
        mask = completion_mask(stack, pa)
        if not mask.any():
            raise InconsistentAssignmentError("assignment has no transitive completion")
    else:
        mask = np.ones(stack.shape[0], dtype=bool)
    best = scores[mask].max()
    sel = mask & (scores == best)
    return OptimumSet(value=float(best), matrices=stack[sel].copy())


def certify(instance: Instance, pa: PartialAssignment) -> bool:
    """Whether some unconstrained optimum agrees with every decided pair.

    This is the ground-truth soundness check for a pipeline's fixations.
    """
    optima = solve_exact(instance)
    return bool(completion_mask(optima.matrices, pa).any())

