"""Self-maps on the set of transitive relations.

These maps transform any feasible relation into another and are the proof
engine behind the partial-optimality conditions: a condition holds when the
associated map provably does not decrease the objective and fixes a pair.

The elementary dicut map zeroes all arcs leaving a subset U. The elementary
join map inserts an arc ij together with all arcs implied by transitivity.
The composed map gamma cuts U and U' loose and then joins i in U to j in U'.
The tau maps plant a fixed relation y inside U and reconnect the boundary in
one of three ways. All maps support the conditional wrapper that applies the
map only when the relation disagrees with a target pair value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .relations import Pair, PartialAssignment, Relation, _bool_matmul, insert_arc_closed

DICUT = "dicut"
JOIN = "join"
GAMMA = "gamma"
TAU_OUT = "tau_out"  # cuts all arcs leaving U
TAU_IN = "tau_in"  # cuts all arcs entering U
TAU_BOTH = "tau_both"  # cuts the whole boundary of U

_TAU_KINDS = (TAU_OUT, TAU_IN, TAU_BOTH)


@dataclass(frozen=True, eq=False)
class MapSpec:
    """Description of one self-map, plus an optional conditional wrapper.

    ``condition = ((i, j), b)`` makes apply_map the identity whenever
    x_ij == b and apply the underlying map otherwise.
    """

    kind: str
    subset: frozenset[int] | None = None
    subset_prime: frozenset[int] | None = None
    i: int | None = None
    j: int | None = None
    inner: Relation | None = None
    condition: tuple[Pair, int] | None = None

    @classmethod
    def dicut(cls, subset, condition=None) -> "MapSpec":
        return cls(kind=DICUT, subset=frozenset(subset), condition=condition)

    @classmethod
    def join(cls, i: int, j: int, condition=None) -> "MapSpec":
        if i == j:
            raise ValueError("join needs two distinct elements")
        return cls(kind=JOIN, i=i, j=j, condition=condition)

    @classmethod
    def gamma(cls, subset, subset_prime, i: int, j: int, *, conditional: bool = True) -> "MapSpec":
        u = frozenset(subset)
        u_prime = frozenset(subset_prime)
        if u & u_prime:
            raise ValueError("gamma subsets must be disjoint")
        if i not in u or j not in u_prime:
            raise ValueError("gamma requires i in U and j in U'")
        condition = (((i, j), 1) if conditional else None)
        return cls(kind=GAMMA, subset=u, subset_prime=u_prime, i=i, j=j, condition=condition)

    @classmethod
    def tau(cls, kind: str, subset, y: Relation, condition=None) -> "MapSpec":
        if kind not in _TAU_KINDS:
            raise ValueError(f"unknown tau variant {kind!r}")
        u = frozenset(subset)
        outside = [p for p in range(y.n) if p not in u]
        if y.matrix[outside, :].any() or y.matrix[:, outside].any():
            raise ValueError("tau inner relation must be supported on U")
        if not y.is_transitive():
            raise ValueError("tau inner relation must be transitive")
        return cls(kind=kind, subset=u, inner=y, condition=condition)


def _subset_mask(n: int, subset: frozenset[int]) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    for p in subset:
        if not 0 <= p < n:
            raise IndexError(f"element {p} out of range for n={n}")
        mask[p] = True
    return mask


def apply_dicut(x: Relation, subset) -> Relation:
    """Zero every arc from the subset to its complement; keeps transitivity."""
    u = _subset_mask(x.n, frozenset(subset))
    out = x.matrix.copy()
    out[np.ix_(u, ~u)] = False
    return Relation(out, copy=False)


def apply_join(x: Relation, i: int, j: int) -> Relation:
    """Insert arc ij and everything transitivity then implies.

    Sets pq wherever p reaches i and j reaches q, where every element reaches
    itself (the implicit diagonal). The output dominates x pointwise.
    """
    if i == j:
        raise ValueError("join needs two distinct elements")
    return Relation(insert_arc_closed(x.matrix, i, j), copy=False)


def _apply_tau(spec: MapSpec, x: Relation) -> Relation:
    n = x.n
    u = _subset_mask(n, spec.subset)
    y = spec.inner.matrix
    out = np.zeros((n, n), dtype=bool)
    out[np.ix_(~u, ~u)] = x.matrix[np.ix_(~u, ~u)]
    out[np.ix_(u, u)] = y[np.ix_(u, u)]
    if spec.kind == TAU_BOTH:
        return Relation(out, copy=False)
    x_aug = x.matrix.copy()
    np.fill_diagonal(x_aug, True)
    y_aug = y.copy()
    y_aug[u, u] = True
    if spec.kind == TAU_OUT:
        # arcs into U survive when they reconnect through y
        out[np.ix_(~u, u)] = _bool_matmul(x_aug[np.ix_(~u, u)], y_aug[np.ix_(u, u)])
    else:  # TAU_IN: arcs out of U survive when y reconnects through x
        out[np.ix_(u, ~u)] = _bool_matmul(y_aug[np.ix_(u, u)], x_aug[np.ix_(u, ~u)])
    np.fill_diagonal(out, False)
    return Relation(out, copy=False)


def _apply_unconditional(spec: MapSpec, x: Relation) -> Relation:
    if spec.kind == DICUT:
        return apply_dicut(x, spec.subset)
    if spec.kind == JOIN:
        return apply_join(x, spec.i, spec.j)
    if spec.kind == GAMMA:
        n = x.n
        u = spec.subset
        u_prime = spec.subset_prime
        step = apply_dicut(x, u_prime)  # cut arcs leaving U'
        step = apply_dicut(step, frozenset(range(n)) - u)  # cut arcs entering U
        return apply_join(step, spec.i, spec.j)
    if spec.kind in _TAU_KINDS:
        return _apply_tau(spec, x)
    raise ValueError(f"unknown map kind {spec.kind!r}")


def apply_map(spec: MapSpec, x: Relation) -> Relation:
    """Apply the described map, honoring the conditional wrapper if present."""
    if spec.condition is not None:
        (i, j), b = spec.condition
        if bool(x.matrix[i, j]) == bool(b):
            return x.copy()
    return _apply_unconditional(spec, x)


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


def change_sets(spec: MapSpec, pa: PartialAssignment) -> tuple[np.ndarray, np.ndarray]:
    """The pairs the map may turn 0->1 and 1->0, as supersets (P01, P10).

    Supported for gamma and the tau variants, whose change sets have closed
    forms relative to a partial assignment. For tau they use the planted
    relation, so they are contained in ``tau_loose_sets``.
    """
    n = pa.n
    if spec.kind == GAMMA:
        u = _subset_mask(n, spec.subset)
        u_prime = _subset_mask(n, spec.subset_prime)
        u_rest = ~(u | u_prime)
        not_zero = ~pa.zeros  # diagonal counts as assigned one
        p01 = np.zeros((n, n), dtype=bool)
        block = np.outer(not_zero[:, spec.i], not_zero[spec.j, :])
        p01[np.ix_(u, u_prime)] = (block & ~pa.ones)[np.ix_(u, u_prime)]
        p10 = (
            np.outer(u_rest, u) | np.outer(u_prime, u) | np.outer(u_prime, u_rest)
        ) & ~pa.zeros
        np.fill_diagonal(p01, False)
        np.fill_diagonal(p10, False)
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
    """Sufficient check that the map preserves the constrained feasible set.

    Dicut: no arc assigned one may cross the cut. Gamma/tau: no pair that may
    flip to zero is assigned one and no pair that may flip to one is assigned
    zero.
    """
    if spec.kind == DICUT:
        u = _subset_mask(pa.n, spec.subset)
        return not pa.ones[np.ix_(u, ~u)].any()
    if spec.kind == GAMMA or spec.kind in _TAU_KINDS:
        p01, p10 = change_sets(spec, pa)
        return not (p10 & pa.ones).any() and not (p01 & pa.zeros).any()
    raise ValueError(f"trueness is not defined for map kind {spec.kind!r}")
