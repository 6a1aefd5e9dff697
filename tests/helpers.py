"""Shared test utilities: seeded random instances and partial assignments,
CSV rows read from a closed file, plus the reference definitions the
library's closed forms are checked against (the self-maps applied to
whole relations, brute-force enumeration, local search and contraction
classes with the join and zero rules written out by hand, contraction
pair by pair and class by class, the bbk conditions pair by pair behind
their strong and value flags, the min cut search queue by queue over
neighbor lists, the join energy's floor and swap sweeps one model at a
time, subset-u's neighbor subsets one pair at a time and its boundary
bound from flip sets, and the pin costs as case tables), plus stand-in
deciders whose batches contradict themselves or the assignment."""

from __future__ import annotations

import csv
import math
from collections import deque
from itertools import compress

import numpy as np

from preopt import Instance
from preopt import oracle
from preopt.bounds import (
    BoundReport,
    TriplePackingBound,
    arc_max_values,
    exact_bounds_tractable,
    induced_value,
    local_search_lower_bound,
)
from preopt.conditions import (
    BBK_STRONG_ONE,
    BBK_STRONG_ZERO,
    BBK_WEAK,
    DIRECTED_CUT,
    EDGE_CUT,
    SUBSET_FIX,
    Fixation,
)
from preopt.energy import MAX_SWEEPS, SWAPS, EnergyModel, optimal_swap
from preopt.flow import FlowNetwork, cut_capacities, min_st_cut
from preopt.maps import (
    GAMMA,
    TAU_BOTH,
    TAU_OUT,
    MapSpec,
    _subset_mask,
    change_sets,
    is_true_to,
    tau_loose_sets,
    tau_trueness_loose,
)
from preopt.relations import (
    InconsistentAssignmentError,
    PartialAssignment,
    Relation,
    _bool_matmul,
    close,
    insert_arc_closed,
    reach_or_equal,
    transitive_closure_matrix,
)


def read_csv_rows(path) -> list[dict[str, str]]:
    """The rows of a CSV file with a header, the file closed again."""
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


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


def agrees_with(pa: PartialAssignment, x: Relation) -> bool:
    """Whether x matches every decided pair of pa."""
    return bool(oracle.completion_mask(x.matrix[None], pa)[0])


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


def bruteforce_relation_stack(n: int) -> np.ndarray:
    """Independent enumeration: filter all 2^(n(n-1)) assignments directly.

    Cross-checks the recursive enumerator; practical up to n = 5.
    """
    if not 1 <= n <= 5:
        raise ValueError("direct filtering supported only for n <= 5")
    pairs = [(p, q) for p in range(n) for q in range(n) if p != q]
    k = len(pairs)
    codes = np.arange(1 << k, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(k, dtype=np.uint32)) & 1).astype(bool)
    ok = np.ones(len(codes), dtype=bool)
    index = {e: idx for idx, e in enumerate(pairs)}
    for p, q, r in ((p, q, r) for p in range(n) for q in range(n) for r in range(n)):
        if p == q or q == r or p == r:
            continue
        ok &= ~(bits[:, index[(p, q)]] & bits[:, index[(q, r)]] & ~bits[:, index[(p, r)]])
    stack = np.zeros((int(ok.sum()), n, n), dtype=bool)
    sel = bits[ok]
    for idx, (p, q) in enumerate(pairs):
        stack[:, p, q] = sel[:, idx]
    return stack


def decided_pairs_bruteforce(pa: PartialAssignment) -> PartialAssignment:
    """Ground-truth decided pairs by exhaustive enumeration of completions.

    Only for validating close() on small instances; guards n <= 6.
    """
    if pa.n > oracle.MAX_ORACLE_N:
        raise ValueError("brute-force decided pairs only supported for n <= 6")
    stack = oracle.relation_stack(pa.n)
    mask = oracle.completion_mask(stack, pa)
    completions = stack[mask]
    if completions.shape[0] == 0:
        raise InconsistentAssignmentError("assignment has no transitive completion")
    all_one = completions.all(axis=0)
    all_zero = ~completions.any(axis=0)
    np.fill_diagonal(all_zero, False)
    return PartialAssignment(all_one, all_zero, copy=False)


def apply_dicut(x: Relation, subset) -> Relation:
    """The elementary dicut map: zero every arc from the subset to its
    complement; keeps transitivity."""
    u = _subset_mask(x.n, frozenset(subset))
    out = x.matrix.copy()
    out[np.ix_(u, ~u)] = False
    return Relation(out, copy=False)


def dicut_is_true(subset, pa: PartialAssignment) -> bool:
    """Trueness of the dicut map: no arc assigned one crosses the cut."""
    u = _subset_mask(pa.n, frozenset(subset))
    return not pa.ones[np.ix_(u, ~u)].any()


def apply_join(x: Relation, i: int, j: int) -> Relation:
    """The elementary join map: insert arc ij and everything transitivity
    then implies.

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


def apply_map(spec: MapSpec, x: Relation, condition=None) -> Relation:
    """Apply the described gamma or tau map to a whole relation.

    ``condition = ((i, j), b)`` is the conditional wrapper: the map is the
    identity whenever x_ij == b. The gamma map behind edge-join is
    conditional on ``((i, j), 1)``.
    """
    if condition is not None:
        (i, j), b = condition
        if bool(x.matrix[i, j]) == bool(b):
            return x.copy()
    if spec.kind == GAMMA:
        step = apply_dicut(x, spec.subset_prime)  # cut arcs leaving U'
        step = apply_dicut(step, frozenset(range(x.n)) - spec.subset)  # cut arcs entering U
        return apply_join(step, spec.i, spec.j)
    return _apply_tau(spec, x)


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


def packing_total(instance: Instance, pa: PartialAssignment, packing: TriplePackingBound) -> float:
    """The packing's upper bound on the optimum over all elements: each
    packed triple's true maximum plus the pinned arc maximum of every arc
    no triple covers."""
    uncovered = ~packing.covered
    np.fill_diagonal(uncovered, False)
    return float(arc_max_values(instance, pa)[uncovered].sum()) + float(sum(packing.tri_max))


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


def reference_min_st_cut(
    net: FlowNetwork, source: int, sink: int, limit: float = math.inf
) -> tuple[float, set[int] | None]:
    """Reference for ``flow.min_st_cut``: the same Edmonds-Karp contract,
    with a first-in first-out queue over per-node neighbor lists (the nodes
    joined by a positive arc in either direction) and a parent array, so
    a path may differ from the library's in which of several shortest
    paths it takes."""
    n, s, t = net.n, source, sink
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"source/sink ({s}, {t}) out of range for {n} nodes")
    if s == t:
        raise ValueError("source and sink must differ")
    positive = net.capacities > 0.0
    positive.flat[:: n + 1] = False
    nodes = range(n)
    neighbors = [list(compress(nodes, row)) for row in (positive | positive.T).tolist()]
    residual = [row.copy() for row in net._residual]
    value = 0.0
    while True:
        if value > limit:
            return value, None
        # parent[v]: the node v was reached from; -1 while unreached
        parent = [-1] * n
        parent[s] = s
        queue = deque([s])
        while queue and parent[t] < 0:
            v = queue.popleft()
            row = residual[v]
            for w in neighbors[v]:
                if parent[w] < 0 and row[w] > 0.0:
                    parent[w] = v
                    queue.append(w)
        if parent[t] < 0:
            break
        path = []
        w = t
        while w != s:
            v = parent[w]
            path.append((v, w))
            w = v
        d = min([residual[v][w] for v, w in path])
        for v, w in path:
            residual[v][w] -= d
            residual[w][v] += d
        value += d
    reachable = {v for v in range(n) if parent[v] >= 0}
    if value > net._finite_total + 0.5:
        return math.inf, reachable
    return value, reachable


def reference_join_floor(model: EnergyModel) -> float:
    """Reference for one entry of ``energy.join_floors``: the floor of one
    model, from its own cost matrices.

    All costs are nonnegative, so dropping the terms between two elements
    other than i and j leaves the ij terms plus, per other element p, the
    cheapest of its costs against i and j as a member of U, U' or REST.
    """
    i, j = model.i, model.j
    join, cut = model.join_cost, model.cut_cost
    # p in U, in U' or in REST, each read off the energy's planes
    per_label = np.minimum(
        np.minimum(join[:, j] + cut[j, :], cut[:, i] + join[i, :]), cut[:, i] + cut[j, :]
    )
    per_label[[i, j]] = 0.0
    return float(join[i, j] + cut[j, i] + per_label.sum())


def reference_swap_minimize(model: EnergyModel) -> tuple[np.ndarray, float]:
    """Reference for ``energy.alpha_beta_swap_minimize`` with a NaN gain:
    whole sweeps, each solving every label pair's optimal swap and keeping
    it when it lowers the energy by more than the tolerance, until a sweep
    keeps none, at most MAX_SWEEPS sweeps. The model's gain is ignored."""
    lab = model.initial_labeling()
    energy = model.energy(lab)
    for _ in range(MAX_SWEEPS):
        improved = False
        for alpha, beta in SWAPS:
            candidate = optimal_swap(model, lab, alpha, beta)
            cand_energy = model.energy(candidate)
            if cand_energy < energy - model.tolerance:
                lab = candidate
                energy = cand_energy
                improved = True
        if not improved:
            break
    return lab, energy


def reference_neighbor_subset(instance: Instance, i: int, j: int, k: int) -> list[int]:
    """Reference for ``conditions._neighbor_subsets``: the pair plus the k
    elements with the largest value mass to or from it, by a stable sort."""
    c = np.abs(instance.values)
    mass = c[i] + c[:, i] + c[j] + c[:, j]
    order = np.argsort(-mass, kind="stable")  # ties in element order
    order = order[(order != i) & (order != j)]
    return sorted([i, j] + order[:k].tolist())


def reference_boundary_bound(
    instance: Instance, pa: PartialAssignment, subset, variant: str, y: Relation | None = None
) -> float:
    """Reference for ``bounds.boundary_bound``: c- over the map's flip set
    P01 plus c+ over its P10, without y from the y-free loose sets, given
    the planted relation y from that relation's sharp sets. Bounds the
    boundary loss of every completion, true map or not."""
    if y is not None:
        p01, p10 = change_sets(MapSpec.tau(variant, subset, y), pa)
    else:
        p01, p10 = tau_loose_sets(variant, frozenset(subset), pa)
    c = instance.values
    return float(np.maximum(-c, 0.0)[p01].sum() + np.maximum(c, 0.0)[p10].sum())


def reference_pin_costs(
    instance: Instance, pa: PartialAssignment
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Relation]:
    """Reference for ``flow.pin_costs``, ``bounds.arc_max_values`` and
    ``bounds.sign_greedy_relation``, each written as its own case table:
    the cut plane (inf on an assigned one, 0 on an assigned zero, c+
    elsewhere), the join plane (0, inf, c-), the arc maxima (c, 0, c+) and
    the sign-greedy relation (the ones, plus each undecided pair with
    c >= 0); every diagonal 0, or False."""
    c = instance.values
    c_plus, c_minus = np.maximum(c, 0.0), np.maximum(-c, 0.0)
    cut = np.where(pa.ones, math.inf, np.where(pa.zeros, 0.0, c_plus))
    join = np.where(pa.ones, 0.0, np.where(pa.zeros, math.inf, c_minus))
    arc_max = np.where(pa.ones, c, np.where(pa.zeros, 0.0, c_plus))
    for plane in (cut, join, arc_max):
        np.fill_diagonal(plane, 0.0)
    offdiag = ~np.eye(instance.n, dtype=bool)
    undecided = ~pa.decided & offdiag
    return cut, join, arc_max, Relation(pa.ones | (undecided & (c >= 0)))


def reference_subset_fixation(
    instance: Instance, pa: PartialAssignment, pair, subset, variant: str,
    *, exact: bool = True,
):
    """Reference for ``conditions.subset_fixation_condition``: lb, ub, the
    boundary bound and trueness, always all four, then the fixation test."""
    i, j = pair
    elements = sorted(set(int(p) for p in subset))
    sub_instance = instance.restrict(elements)
    sub_pa = pa.restrict(elements)
    si, sj = elements.index(i), elements.index(j)

    tractable = None
    if exact and instance.values[i, j] >= 0.0:
        tractable = exact_bounds_tractable(sub_instance, sub_pa)
    if tractable is not None:
        lb, ub = tractable.optima(si, sj)
        y_full = np.zeros((instance.n, instance.n), dtype=bool)
        y_full[np.ix_(elements, elements)] = tractable.y.matrix
        y = Relation(y_full, copy=False)
        ub_prime = reference_boundary_bound(instance, pa, elements, variant, y)
        true = is_true_to(MapSpec.tau(variant, elements, y), pa)
    else:
        lb, _ = local_search_lower_bound(sub_instance, sub_pa, ((si, sj), 1))
        excluding = TriplePackingBound(sub_instance, sub_pa).excluding
        ub = float(induced_value(sub_instance, sub_pa, 0)[si, sj] + excluding[si, sj])
        ub_prime = reference_boundary_bound(instance, pa, elements, variant)
        true = tau_trueness_loose(variant, frozenset(elements), pa)

    report = BoundReport(lb=lb, ub=ub, ub_prime=ub_prime)
    margin = lb - ub - ub_prime
    if true and margin >= instance.tolerance:
        return Fixation(pair, 1, SUBSET_FIX, margin), report
    return None, report


def _reference_pair_bounds(
    instance: Instance,
    pa: PartialAssignment,
    upper: np.ndarray,
    tractable,
    i: int,
    j: int,
    b: int,
    lb: float | None = None,
) -> tuple[float, float]:
    """Lower bound on the optimum with x_ij = b, upper bound with x_ij = 1 - b.

    ``upper`` holds every pair's upper bound with x_ij = 1 - b. ``lb``, when
    given, replaces a constrained local search. For b = 1 and c_ij >= 0,
    the exact optima of ``tractable`` replace both bounds.
    """
    if b == 1 and tractable is not None and instance.values[i, j] >= 0.0:
        opt_one, opt_zero = tractable.optima(i, j)
        return (opt_one if lb is None else max(lb, opt_one)), opt_zero
    if lb is None:
        lb, _ = local_search_lower_bound(instance, pa, ((i, j), b))
    return lb, float(upper[i, j])


def reference_boecker_conditions(
    instance: Instance,
    pa: PartialAssignment,
    strong: bool = True,
    bs: tuple[int, ...] = (0, 1),
) -> list[Fixation]:
    """Reference for ``conditions.boecker_conditions`` (strong, one value in
    ``bs``) and ``conditions.boecker_weak_condition`` (weak, both values):
    every undecided pair in row-major order through ``_reference_pair_bounds``.
    Strong judges every pair against pa with one unconstrained lower bound;
    weak applies each fixation to the evolving assignment and derives the
    upper bounds, and the tractable case when pa's was tractable, again.
    """
    tol = instance.tolerance
    excluding = TriplePackingBound(instance, pa).excluding

    def upper_bounds(assignment: PartialAssignment) -> dict[int, np.ndarray]:
        return {b: induced_value(instance, assignment, 1 - b) + excluding for b in bs}

    upper = upper_bounds(pa)
    tractable = exact_bounds_tractable(instance, pa) if 1 in bs else None
    rederive = not strong and tractable is not None
    lb = local_search_lower_bound(instance, pa)[0] if strong else None
    working = pa
    fixations: list[Fixation] = []
    for i in range(instance.n):
        for j in range(instance.n):
            if i == j or working.value(i, j) is not None:
                continue
            for b in bs:
                pair_lb, ub = _reference_pair_bounds(
                    instance, working, upper[b], tractable, i, j, b, lb
                )
                margin = pair_lb - ub
                if not margin >= tol:
                    continue
                if strong:
                    condition = (BBK_STRONG_ZERO, BBK_STRONG_ONE)[b]
                else:
                    condition = BBK_WEAK
                    working = close(working.with_assignments([(i, j, b)]))
                    upper = upper_bounds(working)
                    if rederive:
                        tractable = exact_bounds_tractable(instance, working)
                fixations.append(Fixation((i, j), b, condition, margin))
                break
    return fixations


def reference_greedy_insertion(instance: Instance, base: PartialAssignment) -> np.ndarray:
    """Reference for ``bounds._greedy_insertion``: the zero rule as a float
    triple product over its own copy of the zeros."""
    c = instance.values
    tol = instance.tolerance
    n = instance.n
    offdiag = ~np.eye(n, dtype=bool)
    ones = base.ones.copy()
    zeros = base.zeros
    zeros_f = zeros.astype(np.float64)
    while True:
        aug = ones.copy()
        np.fill_diagonal(aug, True)
        aug_f = aug.astype(np.float64)
        gain_new = c * (~ones & offdiag)
        gains = aug_f.T @ gain_new @ aug_f.T
        violations = (aug_f.T @ zeros_f @ aug_f.T) > 0.5
        allowed = ~ones & ~zeros & offdiag & ~violations
        gains = np.where(allowed, gains, -np.inf)
        best = int(np.argmax(gains))
        a, b = divmod(best, n)
        if gains[a, b] <= tol:
            break
        ones = insert_arc_closed(ones, a, b)
    return ones


def reference_greedy_fixation(instance: Instance, base: PartialAssignment) -> np.ndarray:
    """Reference for ``bounds._greedy_fixation``: a second reach matrix kept
    beside the ones, both rules as outer products, arcs in Python's sort."""
    c = instance.values
    n = instance.n
    offdiag = ~np.eye(n, dtype=bool)
    ones = base.ones.copy()
    zeros = base.zeros.copy()
    reach = reach_or_equal(ones)
    decided = ones | zeros
    order = sorted(
        ((p, q) for p in range(n) for q in range(n) if p != q),
        key=lambda e: (-abs(c[e]), e),
    )
    for p, q in order:
        if decided[p, q]:
            continue
        prefer_one = c[p, q] >= 0
        gained_ones = np.outer(reach[:, p], reach[q]) & offdiag
        if prefer_one and not (gained_ones & zeros).any():
            ones |= gained_ones
            reach |= np.outer(reach[:, p], reach[q])
            decided |= gained_ones
        else:
            gained_zeros = np.outer(reach[p], reach[:, q]) & offdiag
            zeros |= gained_zeros
            decided |= gained_zeros
    return ones


def reference_mutual_one_classes(pa: PartialAssignment) -> list[list[int]]:
    """Reference for ``relations.mutual_one_classes``: each candidate class
    checked for a full block of ones, which also handles unclosed input."""
    mutual = pa.ones & pa.ones.T
    n = pa.n
    seen = np.zeros(n, dtype=bool)
    classes = []
    for p in range(n):
        if seen[p]:
            continue
        members = np.flatnonzero(mutual[p])
        if members.size == 0:
            continue
        cls = sorted({p, *(int(q) for q in members)})
        sub = np.ix_(cls, cls)
        block = pa.ones[sub]
        np.fill_diagonal(block, True)
        if not block.all():
            continue
        for q in cls:
            seen[q] = True
        classes.append(cls)
    return classes


def reference_merge_classes(
    instance: Instance, pa: PartialAssignment, elements
) -> tuple[Instance, PartialAssignment, float, np.ndarray]:
    """Reference for ``relations.merge_classes`` on closed input: each
    contracted pair decided only when all its constituents agree, then the
    result closed again. On unclosed input this drops pins."""
    cls = sorted(set(int(e) for e in elements))
    n = pa.n
    if len(cls) < 2:
        raise ValueError("merge requires at least two elements")
    if any(e < 0 or e >= n for e in cls):
        raise IndexError("class element out of range")
    sub = np.ix_(cls, cls)
    block = pa.ones[sub]
    np.fill_diagonal(block, True)
    if not block.all():
        raise ValueError("all internal pairs of the class must be assigned one")

    keep = [p for p in range(n) if p not in set(cls)]
    m = len(keep)
    new_n = m + 1
    c = instance.values
    offset = float(c[sub].sum())

    new_c = np.zeros((new_n, new_n), dtype=np.float64)
    new_c[:m, :m] = c[np.ix_(keep, keep)]
    new_c[:m, m] = c[np.ix_(keep, cls)].sum(axis=1)
    new_c[m, :m] = c[np.ix_(cls, keep)].sum(axis=0)

    def contract_side(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        kept = mat[np.ix_(keep, keep)]
        to_class = mat[np.ix_(keep, cls)]
        from_class = mat[np.ix_(cls, keep)]
        return kept, to_class, from_class

    ones_k, ones_to, ones_from = contract_side(pa.ones)
    zeros_k, zeros_to, zeros_from = contract_side(pa.zeros)
    new_ones = np.zeros((new_n, new_n), dtype=bool)
    new_zeros = np.zeros((new_n, new_n), dtype=bool)
    new_ones[:m, :m] = ones_k
    new_zeros[:m, :m] = zeros_k
    # a contracted pair is decided only when all constituents agree
    new_ones[:m, m] = ones_to.all(axis=1)
    new_zeros[:m, m] = zeros_to.all(axis=1)
    new_ones[m, :m] = ones_from.all(axis=0)
    new_zeros[m, :m] = zeros_from.all(axis=0)

    old_to_new = np.empty(n, dtype=np.int64)
    for new_idx, p in enumerate(keep):
        old_to_new[p] = new_idx
    for p in cls:
        old_to_new[p] = m

    contracted = close(PartialAssignment(new_ones, new_zeros, copy=False))
    return Instance(new_c, copy=False), contracted, offset, old_to_new


def reference_merge_fold(
    instance: Instance, pa: PartialAssignment
) -> tuple[Instance, PartialAssignment, np.ndarray]:
    """Reference for ``relations.contract_classes`` over all mutual-one
    classes of a closed assignment: ``reference_merge_classes`` once per
    class, in class order, each class moved to the indices after the merges
    before it, with the old-to-new maps composed."""
    to_new = np.arange(pa.n)
    for cls in reference_mutual_one_classes(pa):
        instance, pa, _, old_to_new = reference_merge_classes(instance, pa, to_new[cls])
        to_new = old_to_new[to_new]
    return instance, pa, to_new


def pins_both_ways(instance: Instance, pa: PartialAssignment) -> list[Fixation]:
    """An unsound directed-cut batch: pair (0, 1) pinned to one and to zero."""
    return [Fixation((0, 1), 1, DIRECTED_CUT, 1.0), Fixation((0, 1), 0, DIRECTED_CUT, 1.0)]


def pins_one_once(instance: Instance, pa: PartialAssignment) -> list[Fixation]:
    """A directed-cut stand-in that pins pair (0, 1) to one while it is undecided."""
    return [Fixation((0, 1), 1, DIRECTED_CUT, 1.0)] if pa.value(0, 1) is None else []


def pins_zero(instance: Instance, pa: PartialAssignment) -> list[Fixation]:
    """An edge-cut stand-in that pins pair (0, 1) to zero, whatever it holds:
    after ``pins_one_once`` a batch against the assignment."""
    return [Fixation((0, 1), 0, EDGE_CUT, 1.0)]


#: (the ``conditions`` deciders to replace, the condition whose batch
#: contradicts) for a batch that pins a pair both ways and one that pins a
#: pair against the assignment
CONTRADICTORY_BATCHES = {
    "pinned-both-ways": ({"directed_cut_condition": pins_both_ways}, DIRECTED_CUT),
    "against-the-assignment": (
        {"directed_cut_condition": pins_one_once, "edge_cut_condition": pins_zero},
        EDGE_CUT,
    ),
}
