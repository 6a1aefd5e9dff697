"""Change sets and trueness of the gamma and tau maps.

The maps transform any feasible relation into another and are the proof
engine behind the partial-optimality conditions: a condition holds when the
associated map provably does not decrease the objective and fixes a pair.
The pipeline never applies a map. It only needs to know which pairs a map
may flip and whether the map is true to a partial assignment, so this
module describes each map by a ``MapSpec`` and derives both in closed form.

The composed map gamma cuts U and U' loose and then joins i in U to j in U'.
The tau maps plant a fixed relation y inside U and reconnect the boundary in
one of three ways.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .relations import PartialAssignment, Relation, _bool_matmul

GAMMA = "gamma"
TAU_OUT = "tau_out"  # cuts all arcs leaving U
TAU_IN = "tau_in"  # cuts all arcs entering U
TAU_BOTH = "tau_both"  # cuts the whole boundary of U

_TAU_KINDS = (TAU_OUT, TAU_IN, TAU_BOTH)


@dataclass(frozen=True, eq=False)
class MapSpec:
    """Description of one gamma or tau map."""

    kind: str
    subset: frozenset[int] | None = None
    subset_prime: frozenset[int] | None = None
    i: int | None = None
    j: int | None = None
    inner: Relation | None = None

    @classmethod
    def gamma(cls, subset, subset_prime, i: int, j: int) -> "MapSpec":
        u = frozenset(subset)
        u_prime = frozenset(subset_prime)
        if u & u_prime:
            raise ValueError("gamma subsets must be disjoint")
        if i not in u or j not in u_prime:
            raise ValueError("gamma requires i in U and j in U'")
        return cls(kind=GAMMA, subset=u, subset_prime=u_prime, i=i, j=j)

    @classmethod
    def tau(cls, kind: str, subset, y: Relation) -> "MapSpec":
        if kind not in _TAU_KINDS:
            raise ValueError(f"unknown tau variant {kind!r}")
        u = frozenset(subset)
        outside = [p for p in range(y.n) if p not in u]
        if y.matrix[outside, :].any() or y.matrix[:, outside].any():
            raise ValueError("tau inner relation must be supported on U")
        if not y.is_transitive():
            raise ValueError("tau inner relation must be transitive")
        return cls(kind=kind, subset=u, inner=y)


def _subset_mask(n: int, subset: frozenset[int]) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    for p in subset:
        if not 0 <= p < n:
            raise IndexError(f"element {p} out of range for n={n}")
        mask[p] = True
    return mask


def tau_loose_sets(
    kind: str, subset: frozenset[int], pa: PartialAssignment
) -> tuple[np.ndarray, np.ndarray]:
    """The y-free flip supersets (P01, P10) of a tau variant.

    Usable before the planted relation is known; every sharp set is contained
    in its loose counterpart.
    """
    n = pa.n
    u = _subset_mask(n, subset)
    out_boundary = np.outer(u, ~u)
    in_boundary = np.outer(~u, u)
    if kind == TAU_BOTH:
        return np.zeros((n, n), dtype=bool), (out_boundary | in_boundary) & ~pa.zeros
    if kind == TAU_OUT:
        return in_boundary & ~pa.ones, out_boundary & ~pa.zeros
    if kind == TAU_IN:
        return out_boundary & ~pa.ones, in_boundary & ~pa.zeros
    raise ValueError(f"unknown tau variant {kind!r}")


def tau_trueness_loose(kind: str, subset: frozenset[int], pa: PartialAssignment) -> bool:
    """Trueness check for a tau variant using only the y-free supersets."""
    p01, p10 = tau_loose_sets(kind, subset, pa)
    return not (p10 & pa.ones).any() and not (p01 & pa.zeros).any()


def gamma_raise_set(pa: PartialAssignment, i: int, j: int) -> np.ndarray:
    """The pairs pq gamma may turn 0->1 for every U containing p and U'
    containing q: pi and jq not assigned zero (the diagonal counts as
    assigned one), pq not assigned one, and p != q.
    """
    not_zero = ~pa.zeros
    raise_set = np.outer(not_zero[:, i], not_zero[j, :]) & ~pa.ones
    np.fill_diagonal(raise_set, False)
    return raise_set


def change_sets(spec: MapSpec, pa: PartialAssignment) -> tuple[np.ndarray, np.ndarray]:
    """The pairs the map may turn 0->1 and 1->0, as supersets (P01, P10).

    Both kinds have closed forms relative to a partial assignment. For tau
    they use the planted relation, so they are contained in
    ``tau_loose_sets``.
    """
    n = pa.n
    if spec.kind == GAMMA:
        u = _subset_mask(n, spec.subset)
        u_prime = _subset_mask(n, spec.subset_prime)
        u_rest = ~(u | u_prime)
        p01 = gamma_raise_set(pa, spec.i, spec.j) & np.outer(u, u_prime)
        # each block pairs two disjoint label sets, so none touches the diagonal
        p10 = (
            np.outer(u_rest, u) | np.outer(u_prime, u) | np.outer(u_prime, u_rest)
        ) & ~pa.zeros
        return p01, p10

    if spec.kind in _TAU_KINDS:
        p01_loose, p10 = tau_loose_sets(spec.kind, spec.subset, pa)
        if spec.kind == TAU_BOTH:
            return p01_loose, p10
        u = _subset_mask(n, spec.subset)
        y_aug = spec.inner.matrix.copy()
        y_aug[u, u] = True
        not_zero = ~pa.zeros
        p01 = np.zeros((n, n), dtype=bool)
        if spec.kind == TAU_OUT:
            p01[np.ix_(~u, u)] = _bool_matmul(
                not_zero[np.ix_(~u, u)], y_aug[np.ix_(u, u)]
            )
        else:  # TAU_IN
            p01[np.ix_(u, ~u)] = _bool_matmul(
                y_aug[np.ix_(u, u)], not_zero[np.ix_(u, ~u)]
            )
        p01 &= p01_loose
        return p01, p10

    raise ValueError(f"change sets are not defined for map kind {spec.kind!r}")


def is_true_to(spec: MapSpec, pa: PartialAssignment) -> bool:
    """Sufficient check that the map preserves the constrained feasible set:
    no pair that may flip to zero is assigned one and no pair that may flip
    to one is assigned zero.
    """
    p01, p10 = change_sets(spec, pa)
    return not (p10 & pa.ones).any() and not (p01 & pa.zeros).any()
