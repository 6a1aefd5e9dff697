"""Shared test utilities: seeded random instances and partial assignments."""

from __future__ import annotations

import numpy as np

from preopt import Instance
from preopt import oracle
from preopt.bounds import (
    BoundReport,
    TriplePackingBound,
    arc_max_values,
    boundary_bound,
    exact_bounds_tractable,
    induced_value,
    local_search_lower_bound,
)
from preopt.conditions import SUBSET_FIX, Fixation
from preopt.flow import FlowNetwork, cut_capacities, min_st_cut
from preopt.maps import MapSpec, is_true_to, tau_trueness_loose
from preopt.relations import (
    InconsistentAssignmentError,
    PartialAssignment,
    Relation,
    close,
    transitive_closure_matrix,
)


def random_instance(rng: np.random.Generator, n: int, kind: str = "grid") -> Instance:
    """Random instance with exactly representable values.

    kind "grid" draws multiples of 1/1024 (sums of up to a few dozen of
    these are exact in float64, so oracle ties are exact); kind "pm1" draws
    pure +-1 values; kind "raw" draws unrounded floats in [-1, 1).
    """
    if kind == "pm1":
        c = rng.choice([-1.0, 1.0], size=(n, n))
    elif kind == "raw":
        c = rng.uniform(-1.0, 1.0, size=(n, n))
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


def random_closed_pa_any(
    rng: np.random.Generator, n: int, density: float = 0.3
) -> PartialAssignment:
    """Closed consistent assignment on any n: reveal pairs of a random preorder."""
    x = transitive_closure_matrix(rng.random((n, n)) < 0.15)
    reveal = rng.random((n, n)) < density
    np.fill_diagonal(reveal, False)
    return close(PartialAssignment(x & reveal, ~x & reveal))


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


def scalar_induced_value(
    instance: Instance, pa: PartialAssignment, i: int, j: int, b: int
) -> float:
    """Reference for ``bounds.induced_value`` at one undecided pair: the
    induced value of x_ij = b, one incident term at a time."""
    if pa.value(i, j) is not None:
        raise ValueError("pair ij must be undecided")
    c = instance.values

    def dmax(p: int, q: int) -> float:
        v = pa.value(p, q)
        if v is None:
            return max(float(c[p, q]), 0.0)
        return float(c[p, q]) if v == 1 else 0.0

    def pair_max(e1, e2, allowed) -> float:
        v1, v2 = pa.value(*e1), pa.value(*e2)
        best = None
        for a1 in (0, 1):
            if v1 is not None and a1 != v1:
                continue
            for a2 in (0, 1):
                if v2 is not None and a2 != v2:
                    continue
                if not allowed(a1, a2):
                    continue
                val = float(c[e1]) * a1 + float(c[e2]) * a2
                if best is None or val > best:
                    best = val
        if best is None:
            raise InconsistentAssignmentError(
                f"no joint assignment for arcs {e1}, {e2} under x_{i}{j}={b}"
            )
        return best

    total = dmax(j, i)
    if b == 0:
        for w in range(instance.n):
            if w in (i, j):
                continue
            # x_iw + x_wj <= 1 once x_ij = 0
            total += pair_max((i, w), (w, j), lambda a1, a2: a1 + a2 <= 1)
            total += dmax(w, i) + dmax(j, w)
    else:
        total += float(c[i, j])
        for w in range(instance.n):
            if w in (i, j):
                continue
            # x_ij = 1 forces x_jw <= x_iw and x_wi <= x_wj
            total += pair_max((j, w), (i, w), lambda a1, a2: a1 <= a2)
            total += pair_max((w, i), (w, j), lambda a1, a2: a1 <= a2)
    return total


# the seven 0/1 assignments of a triple's arcs (pq, qr, pr) that satisfy
# x_pq + x_qr - x_pr <= 1
TRIPLE_COMBOS = np.array(
    [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (1, 0, 0),
        (1, 0, 1),
        (1, 1, 1),
    ],
    dtype=np.float64,
)


def dense_triple_table(
    instance: Instance, pa: PartialAssignment
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference for ``bounds._triple_table``: all ordered triples of
    distinct elements, improving or not, with their termwise sums and their
    true maxima over the seven feasible assignments that the pins allow."""
    if instance.n < 3:
        return np.empty((0, 3), dtype=np.int64), np.empty(0), np.empty(0)
    arr = np.arange(instance.n, dtype=np.int64)
    p, q, r = np.meshgrid(arr, arr, arr, indexing="ij")
    mask = (p != q) & (q != r) & (p != r)
    triples = np.stack([p[mask], q[mask], r[mask]], axis=1)

    arcs = np.stack(
        [triples[:, [0, 1]], triples[:, [1, 2]], triples[:, [0, 2]]], axis=1
    )  # (m, 3, 2)
    c = instance.values
    vals = c[arcs[:, :, 0], arcs[:, :, 1]]  # (m, 3)
    state = np.full(vals.shape, -1, dtype=np.int8)
    state[pa.ones[arcs[:, :, 0], arcs[:, :, 1]]] = 1
    state[pa.zeros[arcs[:, :, 0], arcs[:, :, 1]]] = 0

    feasible = (
        (state[:, None, :] == -1) | (state[:, None, :] == TRIPLE_COMBOS[None, :, :])
    ).all(axis=2)  # (m, 7)
    scores = vals @ TRIPLE_COMBOS.T  # (m, 7)
    scores = np.where(feasible, scores, -np.inf)
    tri_max = scores.max(axis=1)

    m_vals = arc_max_values(instance, pa)
    tri_sum = m_vals[arcs[:, :, 0], arcs[:, :, 1]].sum(axis=1)
    return triples, tri_sum, tri_max


def scalar_exclusion_bound(
    instance: Instance, pa: PartialAssignment, packing: TriplePackingBound, i: int, j: int
) -> float:
    """Reference for ``TriplePackingBound.excluding[i, j]``: the packing's
    bound on the elements other than i and j, one touching triple at a time."""
    m_vals = arc_max_values(instance, pa)
    uncovered = ~packing.covered
    np.fill_diagonal(uncovered, False)
    incident = m_vals * uncovered
    part = float(m_vals[uncovered].sum())
    part -= float(incident[i].sum() + incident[:, i].sum())
    part -= float(incident[j].sum() + incident[:, j].sum())
    # arcs between i and j were subtracted twice
    part += float(incident[i, j] + incident[j, i])

    tri_part = float(sum(packing.tri_max))
    for k, (p, q, r) in enumerate(packing.triples):
        if not {i, j} & {p, q, r}:
            continue
        tri_part -= packing.tri_max[k]
        for a, b in ((p, q), (q, r), (p, r)):
            if a not in (i, j) and b not in (i, j):
                tri_part += float(m_vals[a, b])
    return part + tri_part


def per_pair_edge_cut(instance: Instance, pa: PartialAssignment) -> set[tuple[int, int]]:
    """Reference for the pairs ``edge_cut_condition`` fixes: one full
    ``min_st_cut`` per undecided pair with c_pq below minus the tolerance,
    fixed iff -c_pq minus the cut value is at least the tolerance."""
    c = instance.values
    tol = instance.tolerance
    net = FlowNetwork(cut_capacities(instance, pa))
    fixed = set()
    for p in range(instance.n):
        for q in range(instance.n):
            if p == q or pa.value(p, q) is not None or not c[p, q] < -tol:
                continue
            value, _ = min_st_cut(net, p, q)
            if float(-c[p, q]) - value >= tol:
                fixed.add((p, q))
    return fixed


def reference_subset_fixation(
    instance: Instance, pa: PartialAssignment, pair, b: int, subset, variant: str,
    *, exact: bool = True, greedy: bool = True,
):
    """Reference for ``conditions.subset_fixation_condition``: lb, ub, the
    boundary bound and trueness, always all four, then the fixation test."""
    i, j = pair
    elements = sorted(set(int(p) for p in subset))
    sub_instance = instance.restrict(elements)
    sub_pa = pa.restrict(elements)
    si, sj = elements.index(i), elements.index(j)

    tractable = None
    if exact and b == 1 and instance.values[i, j] >= 0.0:
        tractable = exact_bounds_tractable(sub_instance, sub_pa)
    if tractable is not None:
        lb, ub = tractable.optima(si, sj)
        y_full = np.zeros((instance.n, instance.n), dtype=bool)
        y_full[np.ix_(elements, elements)] = tractable.y.matrix
        y = Relation(y_full, copy=False)
        ub_prime = boundary_bound(instance, pa, elements, variant, y)
        true = is_true_to(MapSpec.tau(variant, elements, y), pa)
    else:
        lb, _ = local_search_lower_bound(sub_instance, sub_pa, ((si, sj), b), greedy=greedy)
        excluding = TriplePackingBound(sub_instance, sub_pa).excluding
        ub = float(induced_value(sub_instance, sub_pa, 1 - b)[si, sj] + excluding[si, sj])
        ub_prime = boundary_bound(instance, pa, elements, variant)
        true = tau_trueness_loose(variant, frozenset(elements), pa)

    report = BoundReport(lb=lb, ub=ub, ub_prime=ub_prime)
    margin = lb - ub - ub_prime
    if true and margin >= instance.tolerance:
        return Fixation(pair, b, SUBSET_FIX, margin), report
    return None, report
