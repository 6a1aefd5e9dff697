"""Lower and upper bounds on constrained preordering optima.

Lower bounds come from local search (greedy arc insertion and greedy arc
fixation) and always carry a feasible witness. Upper bounds combine the
induced values of exclusion/inclusion for arcs incident to a pair with an
edge-disjoint triple-packing bound for the rest, or are exact in the
tractable special case where the sign-greedy relation is itself feasible,
derived once per assignment and then one minimum cut per pair. Induced
values and the packing's triple table both read each arc's pinned values
(its value when set to one and when set to zero) and are built in slabs:
the induced values in O(n^2) working memory, the triple table, one p-slab
at a time, in O(n^2 + improving triples).
Boundary bounds cap how much value the boundary of a subset can lose when a
true tau map replants the subset's interior, one array over subsets and tau
variants.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .flow import FlowNetwork, cut_capacities, min_st_cut
from .instance import Instance, evaluate
from .maps import TAU_BOTH, TAU_IN, TAU_OUT
from .relations import (
    InconsistentAssignmentError,
    PartialAssignment,
    Relation,
    close,
    implied_zeros,
    insert_arc_closed,
    insert_zero_closed,
)

Pair = tuple[int, int]

#: entries of one slab of per-row work, such as a (rows, n, n) block of
#: induced-value terms or triples; slabs of rows keep the working memory of
#: ``induced_value`` O(n^2) and that of the triple table O(n^2 + improving
#: triples)
SLAB_ENTRIES = 1 << 17

#: the tau variants subset-u tries for each pair, in order: the columns of
#: ``boundary_bound``
SUBSET_VARIANTS = (TAU_BOTH, TAU_OUT, TAU_IN)


def slabs(count: int, width: int) -> Iterator[slice]:
    """Consecutive slices of the rows 0..count-1 whose blocks of ``width``
    entries per row hold at most ``SLAB_ENTRIES`` entries each, one row at
    the least. ``SLAB_ENTRIES`` is read when the slabs are first asked for."""
    rows = max(1, SLAB_ENTRIES // max(1, width))
    for start in range(0, count, rows):
        yield slice(start, min(start + rows, count))


def row_slabs(n: int) -> Iterator[slice]:
    """``slabs`` of the rows 0..n-1 of (rows, n, n) blocks."""
    return slabs(n, n * n)


@dataclass
class BoundReport:
    """Bounds produced while deciding one fixation, with their provenance.

    A subset-u call that its map side rules out computes no sub-problem
    bounds: it reports the trivial bounds lb = -inf and ub = +inf, still
    valid, with provenance "map-side". Its ``ub_prime`` is still
    ``boundary_bound``'s value, which bounds the boundary loss only of a
    true map: for a map that is not true it is infinite when the cut
    boundary holds an assigned one, and otherwise bounds nothing.
    """

    lb: float
    ub: float
    ub_prime: float | None = None
    provenance: str = ""


def _pinned_values(instance: Instance, pa: PartialAssignment) -> tuple[np.ndarray, np.ndarray]:
    """Each arc's value when set to one (``hi``) and when set to zero
    (``lo``), -inf where its pin forbids that value."""
    hi = np.where(pa.zeros, -np.inf, instance.values)
    lo = np.where(pa.ones, -np.inf, 0.0)
    return hi, lo


def arc_max_values(instance: Instance, pa: PartialAssignment) -> np.ndarray:
    """Per-arc maximum contribution over all completions: c+ where undecided,
    the pinned contribution where decided."""
    m = np.maximum(*_pinned_values(instance, pa))
    np.fill_diagonal(m, 0.0)
    return m


def _triple_table(
    instance: Instance, pa: PartialAssignment
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ordered triples of distinct elements whose termwise sum exceeds
    their true maximum under the single triangle constraint plus the pinned
    pairs, in lexicographic order, with both values.

    x_pq + x_qr - x_pr <= 1 excludes only (1, 1, 0), so the true maximum is
    the best of x_pq = 0, of x_pq = 1 with x_qr = 0, and of all three arcs
    set to one. The triples are built for one ``row_slabs`` slab of first
    elements p at a time. A triple that repeats an element never improves:
    its diagonal arc is zero and unpinned, so one of the three cases takes
    every arc at its best.
    """
    n = instance.n
    hi, lo = _pinned_values(instance, pa)
    m = arc_max_values(instance, pa)
    found = []
    for slab in row_slabs(n):
        # [p - slab.start, q, r]: the arcs pq, qr and pr
        tri_sum = m[slab, :, None] + m[None] + m[slab, None]
        tri_max = np.maximum(
            lo[slab, :, None] + m[None] + m[slab, None],
            hi[slab, :, None] + lo[None] + m[slab, None],
        )
        np.maximum(tri_max, hi[slab, :, None] + hi[None] + hi[slab, None], out=tri_max)
        p, q, r = np.nonzero(tri_sum - tri_max > 0.0)
        triples = np.stack([p + slab.start, q, r], axis=1)
        found.append((triples, tri_sum[p, q, r], tri_max[p, q, r]))
    return tuple(np.concatenate(parts) for parts in zip(*found))


def _greedy_select(triples: np.ndarray, improvement: np.ndarray) -> np.ndarray:
    """Greedy edge-disjoint selection by descending improvement; ties keep
    the lexicographic order of the triples."""
    order = np.argsort(-improvement, kind="stable")
    used: set[Pair] = set()
    chosen: list[int] = []
    for k, (p, q, r) in zip(order.tolist(), triples[order].tolist()):
        arcs = ((p, q), (q, r), (p, r))
        if any(e in used for e in arcs):
            continue
        used.update(arcs)
        chosen.append(k)
    return np.array(chosen, dtype=np.int64)


class TriplePackingBound:
    """Triple packing over all elements with every pair's exclusion bound.

    Builds one packing over all elements from the improving triples (the
    triple table, built in p-slabs from the shared pinned arc values, in
    O(n^2 + improving triples) working memory); ``excluding[i, j]`` then bounds
    the optimum of the sub-problem without i and j without recomputing the
    packing (a packing restricted to fewer elements is still edge-disjoint,
    so the bound stays valid). The diagonal of ``excluding`` is NaN.
    """

    def __init__(self, instance: Instance, pa: PartialAssignment):
        n = instance.n
        m_vals = arc_max_values(instance, pa)

        triples, tri_sum, tri_max = _triple_table(instance, pa)
        chosen = _greedy_select(triples, tri_sum - tri_max)
        p, q, r = triples[chosen].T
        tm = tri_max[chosen]
        self.triples = list(zip(p.tolist(), q.tolist(), r.tolist()))
        self.tri_max = tm.tolist()

        covered = np.zeros((n, n), dtype=bool)
        covered[p, q] = covered[q, r] = covered[p, r] = True
        self.covered = covered

        uncovered = ~covered
        np.fill_diagonal(uncovered, False)
        uncovered_total = float(m_vals[uncovered].sum())
        tri_max_total = float(sum(self.tri_max))

        # uncovered arcs: drop those incident to i or j; the arcs between i
        # and j are dropped twice, so they come back once
        incident = m_vals * uncovered
        degree = incident.sum(axis=1) + incident.sum(axis=0)
        part = uncovered_total - degree[:, None] - degree[None, :] + (incident + incident.T)

        # packed triples: each one touching i or j gives up its tri_max and
        # gets back its arcs that avoid both. per_element[p] sums, over the
        # triples holding p, tri_max less the arc opposite p. A triple
        # holding both i and j is summed twice but gives up one tri_max and
        # gets back no arc; ``both`` holds that surplus.
        per_element = np.zeros(n)
        np.add.at(per_element, p, tm - m_vals[q, r])
        np.add.at(per_element, q, tm - m_vals[p, r])
        np.add.at(per_element, r, tm - m_vals[p, q])
        both = np.zeros((n, n))
        for a, b, arcs_of_rest in (
            (p, q, m_vals[q, r] + m_vals[p, r]),
            (q, r, m_vals[p, r] + m_vals[p, q]),
            (p, r, m_vals[q, r] + m_vals[p, q]),
        ):
            np.add.at(both, (a, b), tm - arcs_of_rest)
            np.add.at(both, (b, a), tm - arcs_of_rest)
        tri_part = tri_max_total - (per_element[:, None] + per_element[None, :] - both)

        self.excluding = part + tri_part
        np.fill_diagonal(self.excluding, np.nan)


def induced_value(instance: Instance, pa: PartialAssignment, b: int) -> np.ndarray:
    """Upper bounds on the total value of arcs incident to {i, j} over all
    completions with x_ij = b, at [i, j] for every undecided pair.

    b = 0 is the induced value of exclusion, b = 1 the induced value of
    inclusion. Each term maximizes one or two incident arcs subject to the
    pinned pairs and the triangle coupling that x_ij = b imposes on them.
    Decided pairs and the diagonal are NaN. The terms of the other elements
    w are built for one ``row_slabs`` slab of rows i at a time.
    """
    n = instance.n
    m = arc_max_values(instance, pa)
    hi, lo = _pinned_values(instance, pa)
    m_t, hi_t, lo_t = (np.ascontiguousarray(a.T) for a in (m, hi, lo))
    out = np.empty((n, n))
    every = np.arange(n)
    for slab in row_slabs(n):
        # terms[i - slab.start, j, w] for the other elements w
        if b == 0:
            # x_iw + x_wj <= 1 once x_ij = 0: (0, any) or (1, 0)
            terms = np.maximum(lo[slab, None] + m_t[None], hi[slab, None] + lo_t[None])
            terms += m_t[slab, None] + m[None]  # the arcs wi and jw
        else:
            # x_ij = 1 forces x_jw <= x_iw and x_wi <= x_wj: (0, any) or (1, 1)
            terms = np.maximum(lo[None] + m[slab, None], hi[None] + hi[slab, None])
            terms += np.maximum(lo_t[slab, None] + m_t[None], hi_t[slab, None] + hi_t[None])
        own = every[slab]
        terms[own - slab.start, :, own] = 0.0  # w = i
        terms[:, every, every] = 0.0  # w = j
        out[slab] = terms.sum(axis=2)
    out += m.T  # the arc ji
    if b == 1:
        out += instance.values
    undecided = ~pa.decided
    np.fill_diagonal(undecided, False)
    infeasible = undecided & np.isneginf(out)
    if infeasible.any():
        i, j = np.argwhere(infeasible)[0]
        raise InconsistentAssignmentError(
            f"no joint assignment for the arcs incident to ({i}, {j}) under x_{i}{j}={b}"
        )
    out[~undecided] = np.nan
    return out


def _greedy_insertion(instance: Instance, base: PartialAssignment) -> np.ndarray:
    """Greedy arc insertion from the closed base; returns a ones matrix.

    Repeatedly inserts the arc whose join (arc plus transitive consequences)
    gains the most value, while never touching an assigned-zero pair; stops
    when no insertion gains more than the tolerance. The arcs whose join
    would set a zero are those the zero rule excludes.
    """
    c = instance.values
    tol = instance.tolerance
    n = instance.n
    offdiag = ~np.eye(n, dtype=bool)
    ones = base.ones
    zeros = base.zeros
    while True:
        reach = ones | ~offdiag
        reach_f = reach.astype(np.float64)
        gains = reach_f.T @ (c * (~ones & offdiag)) @ reach_f.T
        allowed = ~ones & ~zeros & offdiag & ~implied_zeros(reach, zeros)
        gains = np.where(allowed, gains, -np.inf)
        best = int(np.argmax(gains))
        a, b = divmod(best, n)
        if gains[a, b] <= tol:
            break
        ones = insert_arc_closed(ones, a, b)
    return ones


def _greedy_fixation(instance: Instance, base: PartialAssignment) -> np.ndarray:
    """Greedy arc fixation: decide arcs in descending |c|, ties in row-major
    order, toward their sign, falling back to zero when a one would join an
    assigned zero. Setting pq to zero is always consistent here: a p->q path
    would have decided the pair already, as the ones stay closed."""
    c = instance.values
    n = instance.n
    ones = base.ones
    zeros = base.zeros
    order = np.argsort(-np.abs(c), axis=None, kind="stable")
    for p, q in zip(*(a.tolist() for a in np.unravel_index(order, (n, n)))):
        if p == q or ones[p, q] or zeros[p, q]:
            continue
        if c[p, q] >= 0:
            joined = insert_arc_closed(ones, p, q)
            if not (joined & zeros).any():
                ones = joined
                continue
        zeros = insert_zero_closed(ones, zeros, p, q)
    return ones


def local_search_lower_bound(
    instance: Instance, pa: PartialAssignment, constraint: tuple[Pair, int] | None = None
) -> tuple[float, Relation]:
    """Feasible witness and its value; a lower bound on the constrained optimum.

    The witness completes pa and satisfies the optional (pair, value)
    constraint: the better of greedy arc insertion and greedy arc fixation,
    insertion on a tie. The closure's own one-arcs need no candidate of
    their own: insertion starts from them and adds only joins that gain
    more than the tolerance, so it returns them unchanged or beats them.
    """
    if constraint is not None:
        (p, q), v = constraint
        pinned = pa.value(p, q)
        if pinned is not None and pinned != v:
            raise InconsistentAssignmentError("constraint contradicts the assignment")
        base = close(pa.with_assignments([(p, q, v)]))
    else:
        base = close(pa)
    inserted = Relation(_greedy_insertion(instance, base))
    fixed = Relation(_greedy_fixation(instance, base))
    # max keeps the first of equal values: insertion on a tie
    return max(((evaluate(instance, x), x) for x in (inserted, fixed)), key=lambda s: s[0])


class TractableBounds:
    """Exact constrained optima of one assignment in the tractable case.

    The sign-greedy relation ``y`` is transitive, so it maximizes the problem
    and every x_ij = 1 branch with c_ij >= 0; ``opt`` is its value. The
    x_ij = 0 branch is one minimum i-j cut over positive parts, assigned-one
    arcs uncuttable, on a network built at the first cut and shared by all
    pairs.
    """

    def __init__(self, instance: Instance, pa: PartialAssignment, y: Relation):
        self.y = y
        self.opt = float(instance.values[y.matrix].sum())
        self.eligible = y.matrix & ~pa.ones  # undecided, off the diagonal, c >= 0
        self._instance, self._pa = instance, pa

    @cached_property
    def net(self) -> FlowNetwork:
        return FlowNetwork(cut_capacities(self._instance, self._pa))

    def optima(self, i: int, j: int) -> tuple[float, float]:
        """(optimum with x_ij = 1, optimum with x_ij = 0) for an ``eligible``
        pair: undecided, off the diagonal, with c_ij >= 0. The latter is -inf
        (an infinite cut) when no completion has x_ij = 0."""
        if not self.eligible[i, j]:
            raise ValueError("tractable bounds need pair ij off the diagonal, undecided, c_ij >= 0")
        value, _ = min_st_cut(self.net, i, j)
        return self.opt, self.opt - value


def exact_bounds_tractable(instance: Instance, pa: PartialAssignment) -> TractableBounds | None:
    """The assignment's tractable case, or None when the sign-greedy
    completion (ones where undecided and c >= 0) is not transitive."""
    y = sign_greedy_relation(instance, pa)
    if not y.is_transitive():
        return None
    return TractableBounds(instance, pa, y)


def sign_greedy_relation(instance: Instance, pa: PartialAssignment) -> Relation:
    """The candidate maximizer: one where undecided with c >= 0, pins elsewhere."""
    offdiag = ~np.eye(instance.n, dtype=bool)
    undecided = ~pa.decided & offdiag
    return Relation(pa.ones | (undecided & (instance.values >= 0)), copy=False)


def boundary_bound(instance: Instance, pa: PartialAssignment, subsets: np.ndarray) -> np.ndarray:
    """Upper bounds on the boundary value a true tau map can lose: row r,
    column v for the subset ``subsets[r]`` (rows of distinct elements, all
    of one width) and the variant ``SUBSET_VARIANTS[v]``.

    A tau map that is true to the assignment may turn 1 -> 0 only undecided
    pairs of its cut boundary (the whole boundary for tau_both, the
    out-boundary for tau_out, the in-boundary for tau_in), and 0 -> 1 only
    undecided pairs of the opposite boundary (none for tau_both). So for
    every completion x the boundary terms satisfy
    sum_{pq in boundary} c_pq (x_pq - tau(x)_pq) <= c+ over the undecided
    cut boundary plus c- over the undecided opposite boundary. This is the
    bound of the map's sharp flip sets and of its loose ones alike: both
    hold every undecided pair of the opposite boundary, because the planted
    relation keeps U's diagonal.
    A cut boundary holding an assigned one makes the map untrue and the
    bound infinite; for any other untrue map the value bounds nothing. Each
    boundary sum is the subset's row (or column) sums minus its inner
    block, built for one ``slabs`` slab of subsets at a time.
    """
    pos = np.where(pa.decided, 0.0, instance.c_plus)
    neg = np.where(pa.decided, 0.0, instance.c_minus)
    sums = [(m, m.sum(axis=1), m.sum(axis=0)) for m in (pos, neg, pa.ones.astype(np.intp))]
    out = np.empty((len(subsets), len(SUBSET_VARIANTS)))
    width = subsets.shape[1]
    for slab in slabs(len(subsets), width * width):
        u = subsets[slab]
        (pos_out, pos_in), (neg_out, neg_in), (ones_out, ones_in) = (
            _boundary_sums(u, *m) for m in sums
        )
        pos_out[ones_out > 0] = math.inf
        pos_in[ones_in > 0] = math.inf
        out[slab] = np.stack([pos_out + pos_in, pos_out + neg_in, pos_in + neg_out], axis=1)
    return out


def _boundary_sums(
    u: np.ndarray, matrix: np.ndarray, row_sums: np.ndarray, col_sums: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The sums of ``matrix`` over the out- and the in-boundary of each row
    of subsets ``u``: the subset's row (column) sums minus its inner block."""
    inner = matrix[u[:, :, None], u[:, None, :]].sum(axis=(1, 2))
    return row_sums[u].sum(axis=1) - inner, col_sums[u].sum(axis=1) - inner
