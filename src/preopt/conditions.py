"""Partial-optimality deciders and the joint fixpoint pipeline.

Every decider consumes an instance and a closed consistent partial
assignment and emits fixations that provably keep at least one optimal
solution reachable. Cut-type batches are justified against one snapshot
(adding zeros never invalidates a pending cut fixation); join- and
fixation-type deciders re-verify and apply each fixation against the
evolving assignment, because single-variable persistency statements do not
compose from a common snapshot.

Condition inequalities only fire when they hold by more than the instance
tolerance, so float noise can never turn a tie into an unsound fixation.

Four deciders first make a cheap test that settles some pairs and skip the
expensive call for them, so the fixation set is the same as without the
tests. Three test a necessary condition and skip the call when it fails:

- edge-join: every energy cost is nonnegative, so the costs of the terms
  touching i and j, each minimized over the other element's label, bound
  the minimum energy from below. ``energy.join_floors`` builds this floor
  for every pair as one (n, n) array, at the first candidate pair and
  again at the first candidate after each fixation; when c_ij minus the
  pair's floor is below the tolerance, no labeling the swap moves can
  reach fixes the pair, and its energy model is never built;
- subset-u, which only ever fixes pairs to one: zeroing all arcs leaving i
  (or all arcs entering j) inside the subset keeps any relation transitive,
  so the sub-problem's lb - ub is at most the positive value of those arcs,
  the gain cap. The gate reads the boundary bound itself, with no slack:
  ``bounds.boundary_bound`` is one array over subsets and tau variants,
  the bound of every true map, sharp or loose, and infinite where an
  assigned one on the cut boundary makes the map untrue. The subsets of
  all candidate pairs are one array, and their gain caps
  (``_subset_gain_caps``) and boundary bounds are built at the first
  candidate and again after each fixation; when the cap minus a variant's
  bound is below the tolerance, the variant cannot fire and is not
  called. This pass is the only gate: each call tests trueness first and
  bounds the sub-problem only for a true map;
- edge-cut: one (n, n) cut floor bounds every minimum cut from below. It
  starts at the two-hop flows: the paths i->k->j through distinct k are
  arc-disjoint, so the sum of their bottleneck capacities plus the direct
  arc is a feasible flow. Every p-q cut separates p from i, i from j or j
  from q, so minimum cut values obey min(cut(p,i), cut(i,j), cut(j,q)) <=
  cut(p,q) (Gomory & Hu, 1961); the floor is therefore closed over widest
  paths, and raised after every max-flow by the value it returned, which
  bounds that pair's cuts from below whether the flow stopped or ran to
  the end. When a pair's floor exceeds -c_ij minus the tolerance, its
  max-flow is one the solver would have stopped at the fixing limit below,
  with no cut and no fixation, and no reused cut can fix the pair either.

bbk-strong-1 tests a sufficient condition in the tractable case, from the
arrays it holds. There the lower bound is the exact optimum opt, and an
eligible pair's margin is opt - (opt - cut), with cut its minimum i-j cut.
Every i-j cut holds the arc ij; when c_ij > 0 the max-flow's first
augmenting path is that arc alone, carrying exactly c_ij, and every later
path adds a nonnegative amount, so the float cut value is at least c_ij
(for c_ij = 0, trivially). Float subtraction is monotone, so
settled = opt - (opt - c_ij) is at most the margin. A pair whose settled
value reaches the tolerance is fixed with it as its margin and no
max-flow; every other eligible pair, one whose settled value is NaN
among them, takes its cut. bbk-weak keeps one cut per eligible pair.

Edge-cut also stops each max-flow as soon as its flow value exceeds -c_ij
minus the tolerance (``_fixing_limit``): the flow so far bounds every i-j
cut from below, so the finished cut could not have fixed the pair, and a
cut reused from another pair never costs less than the pair's own. Only
cuts solved to the end are reused. The fixed set is therefore the set of
targets whose own minimum cut fixes them, as before; only edge-cut's
margins and the order of its fixations can differ. A max-flow the cut
floor skips is one that would have stopped with no cut, so the floor
leaves the flows solved to the end, their cuts and their order as they
were, and with them every fixation and margin.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import compress

import numpy as np

from .bounds import (
    SUBSET_VARIANTS,
    BoundReport,
    TractableBounds,
    TriplePackingBound,
    boundary_bound,
    exact_bounds_tractable,
    induced_value,
    local_search_lower_bound,
    row_slabs,
    slabs,
)
from .energy import IN_U, IN_U_PRIME, alpha_beta_swap_minimize, build_join_energy, join_floors
from .flow import FlowNetwork, cut_capacities, min_st_cut, reachability_sets
from .instance import Instance
from .maps import TAU_BOTH, MapSpec, is_true_to, tau_trueness_loose
from .relations import (
    InconsistentAssignmentError,
    PartialAssignment,
    Relation,
    close,
    merge_classes,
    mutual_one_classes,
)

Pair = tuple[int, int]

DIRECTED_CUT = "directed-cut"
EDGE_CUT = "edge-cut"
BBK_STRONG_ZERO = "bbk-strong-0"
BBK_STRONG_ONE = "bbk-strong-1"
BBK_WEAK = "bbk-weak"
EDGE_JOIN = "edge-join"
SUBSET_FIX = "subset-u"

#: cut conditions first (cheapest and most effective), join conditions on the
#: partial optimality the cuts established, then the subset fixation condition
DEFAULT_CONDITIONS = (
    DIRECTED_CUT,
    EDGE_CUT,
    BBK_STRONG_ZERO,
    EDGE_JOIN,
    BBK_STRONG_ONE,
    SUBSET_FIX,
)

ALL_CONDITIONS = DEFAULT_CONDITIONS + (BBK_WEAK,)

#: the expensive conditions; in fixpoint mode every other (tier-0) condition
#: is settled before each of them runs
TIER_ONE = (EDGE_JOIN, SUBSET_FIX)

#: elements added to a pair to form subset-u's candidate subset
SUBSET_NEIGHBORS = 4


class SoundnessError(RuntimeError):
    """A condition produced fixations with no common transitive completion.

    This cannot happen if every decider is sound; it aborts the run instead
    of being silently repaired.
    """


@dataclass(frozen=True)
class Fixation:
    """One fixed variable: the pair, its value, and the deciding condition."""

    pair: Pair
    value: int
    condition: str
    margin: float


@dataclass(frozen=True)
class PipelineConfig:
    """Which conditions run, in which order, and how many rounds.

    In fixpoint mode one round runs the tier-0 conditions (all but
    ``TIER_ONE``) to a fixpoint, then each tier-1 condition in the given
    order, settling tier 0 again after any tier-1 condition that fixes a
    pair. ``max_rounds`` caps these rounds. ``single_pass`` runs the
    conditions once each in the given order.
    """

    conditions: tuple[str, ...] = DEFAULT_CONDITIONS
    max_rounds: int | None = None  # None: iterate until no condition fixes a pair
    single_pass: bool = False

    def __post_init__(self):
        if not self.conditions:
            raise ValueError("conditions must name at least one condition id")
        for cond in self.conditions:
            if cond not in ALL_CONDITIONS:
                raise ValueError(
                    f"unknown condition id {cond!r}; choose from {', '.join(ALL_CONDITIONS)}"
                )
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")


def _undecided_pairs(pa: PartialAssignment) -> list[Pair]:
    mask = ~pa.decided
    np.fill_diagonal(mask, False)
    return [(int(p), int(q)) for p, q in np.argwhere(mask)]


def directed_cut_condition(instance: Instance, pa: PartialAssignment) -> list[Fixation]:
    """Fix to zero every arc leaving a reachable set of the auxiliary digraph.

    The digraph is the dicut network's positive arcs: positive and
    assigned-one arcs, minus assigned zeros. Arcs leaving any node's
    reachable set are nonpositive and free of assigned ones, so cutting all
    of them is improving. Reachability is reflexive and transitive, so pq
    leaves some reachable set exactly when q is not reachable from p. Like
    all cut conditions, only pairs below minus the tolerance are fixed (ties
    at zero are sound but useless and float-fragile).
    """
    c = instance.values
    reach = reachability_sets(cut_capacities(instance, pa) > 0.0)
    candidate = ~reach & ~pa.zeros & (c < -instance.tolerance)
    if (candidate & pa.ones).any():
        raise SoundnessError("directed cut crossed an assigned-one arc")
    return [
        Fixation((int(p), int(q)), 0, DIRECTED_CUT, float(-c[p, q]))
        for p, q in np.argwhere(candidate)
    ]


def _two_hop_flows(cap: np.ndarray) -> np.ndarray:
    """Value of a feasible i-j flow at [i, j]: the arc ij plus every path
    i->k->j at its bottleneck, inf on the diagonal.

    The paths are arc-disjoint, so every i-j cut costs at least this much;
    the zero diagonal of ``cap`` drops k = i and k = j from the sum. The
    paths are built for one ``row_slabs`` slab of rows i at a time.
    """
    n = cap.shape[0]
    cap_t = np.ascontiguousarray(cap.T)
    flows = np.empty((n, n))
    for slab in row_slabs(n):
        # [i - slab.start, j, k]: the bottleneck of i->k->j
        flows[slab] = np.minimum(cap[slab, None, :], cap_t[None]).sum(axis=2)
    flows += cap
    np.fill_diagonal(flows, math.inf)
    return flows


def _raise_floor(floor: np.ndarray, i: int, j: int, value: float) -> None:
    """Raise the cut floor, in place, with ``value``, a lower bound on every
    i-j cut.

    Every p-q cut separates p from i, i from j or j from q, so the minimum
    p-q cut is at least min(floor[p, i], value, floor[j, q]) (Gomory & Hu,
    1961); the inf diagonal covers p = i and q = j. On a floor closed over
    widest paths this one update keeps it closed, and with i = j = k and an
    inf value it is step k of that closure.
    """
    np.maximum(floor, np.minimum.outer(np.minimum(floor[:, i], value), floor[j]), out=floor)


def _fixing_limit(gain: float, tol: float) -> float:
    """The largest flow value v with gain - v >= tol.

    Float subtraction is monotone in v, so a cut of value v fixes the pair
    exactly when v is at most this limit, and a flow beyond it rules the
    pair out."""
    v = gain - tol
    while gain - v < tol:
        v = math.nextafter(v, -math.inf)
    while gain - math.nextafter(v, math.inf) >= tol:
        v = math.nextafter(v, math.inf)
    return v


def edge_cut_condition(instance: Instance, pa: PartialAssignment) -> list[Fixation]:
    """Fix x_ij = 0 whenever the cheapest dicut through ij costs at most c_ij-.

    One minimum i-j cut per candidate pair that the cut floor does not rule
    out, all on one network built at the first cut. The floor bounds every
    minimum cut from below: it starts at the two-hop flows, is closed over
    widest paths because minimum cuts obey the triangle inequality
    min(cut(p,i), cut(i,j), cut(j,q)) <= cut(p,q), and is raised by the
    value of every max-flow. A pair whose floor exceeds -c_ij minus the
    tolerance would have its max-flow stopped at the fixing limit with no
    cut, so it takes none; when the two-hop flows already rule out every
    target, nothing else is built. Each max-flow stops once its flow shows
    the pair cannot be fixed; each cut solved to the end is tested against
    every target it separates, which saves most of the remaining max-flow
    calls without changing the fixation set.
    """
    n = instance.n
    c = instance.values
    tol = instance.tolerance
    cap = cut_capacities(instance, pa)
    floor = _two_hop_flows(cap)
    target = ~pa.decided & (c < -tol) & (floor <= -c - tol)
    if not target.any():
        return []
    for k in range(n):  # widest paths, one intermediate node at a time
        _raise_floor(floor, k, k, math.inf)
    net = None
    fixed = np.zeros((n, n), dtype=bool)
    fixations: list[Fixation] = []
    for i, j in np.argwhere(target).tolist():
        if fixed[i, j] or floor[i, j] > -c[i, j] - tol:
            continue
        if net is None:
            net = FlowNetwork(cap)
        value, side = min_st_cut(net, i, j, _fixing_limit(float(-c[i, j]), tol))
        _raise_floor(floor, i, j, value)
        if side is None or math.isinf(value):
            continue
        inside = np.zeros(n, dtype=bool)
        inside[list(side)] = True
        margin = -c - value
        new = target & ~fixed & inside[:, None] & ~inside[None, :] & (margin >= tol)
        fixed |= new
        fixations.extend(
            Fixation((p, q), 0, EDGE_CUT, float(margin[p, q])) for p, q in np.argwhere(new).tolist()
        )
    return fixations


def edge_join_condition(instance: Instance, pa: PartialAssignment) -> list[Fixation]:
    """Fix x_ij = 1 when some subset pair makes the join map improving.

    For each undecided pair with positive value, the cheapest right-hand side
    over subset pairs (U, U') is minimized heuristically by alpha-beta swaps
    on the three-label energy model, unless the pair's energy floor already
    leaves no margin. The swaps stop once c_ij minus the energy reaches the
    tolerance; the energy never rises, so the pair is fixed exactly when
    full minimization would fix it, and the margin is a lower bound on that
    run's. The fixation is emitted only after an explicit trueness re-check
    of the composed map. Fixations apply immediately, so later pairs are
    judged against the updated assignment.
    """
    c = instance.values
    tol = instance.tolerance
    working = pa
    floors = None  # join_floors(instance, working), built when first read
    fixations: list[Fixation] = []
    for i, j in _undecided_pairs(pa):
        if c[i, j] <= tol or working.value(i, j) is not None:
            continue
        if floors is None:
            floors = join_floors(instance, working)
        if c[i, j] - floors[i, j] < tol:
            continue
        # the swaps stop once the margin reaches the tolerance
        model = replace(build_join_energy(instance, working, i, j), gain=float(c[i, j]))
        labeling, energy = alpha_beta_swap_minimize(model)
        margin = model.gain - energy
        if not margin >= tol:  # a NaN margin never fixes
            continue
        subset = frozenset(int(p) for p in np.flatnonzero(labeling == IN_U))
        subset_prime = frozenset(int(p) for p in np.flatnonzero(labeling == IN_U_PRIME))
        spec = MapSpec.gamma(subset, subset_prime, i, j)
        # a safety check: the finite energy a margin needs already implies trueness
        if not is_true_to(spec, working):
            continue
        working = close(working.with_assignments([(i, j, 1)]))
        floors = None
        fixations.append(Fixation((i, j), 1, EDGE_JOIN, margin))
    return fixations


class BoundState:
    """The bounds the bbk deciders read that depend on the (instance,
    assignment) alone, each computed at most once, at its first read.

    ``run_joint`` makes one per assignment version, so bbk-strong-0,
    bbk-strong-1 and bbk-weak share the unconstrained lower bound, the
    packing and the tractable case. In the tractable case the lower bound
    is the exact optimum, and no local search runs. The bounds come from
    this module's globals, so whatever wraps those names sees every call.
    """

    def __init__(self, instance: Instance, pa: PartialAssignment):
        self.instance = instance
        self.pa = pa

    @cached_property
    def lower(self) -> float:
        """The tractable optimum, else the local-search lower bound."""
        if self.tractable is not None:
            return self.tractable.opt
        return local_search_lower_bound(self.instance, self.pa)[0]

    @cached_property
    def excluding(self) -> np.ndarray:
        """``TriplePackingBound.excluding``: every pair's packing bound."""
        return TriplePackingBound(self.instance, self.pa).excluding

    @cached_property
    def tractable(self) -> TractableBounds | None:
        """The tractable case, or None when pa has none."""
        return exact_bounds_tractable(self.instance, self.pa)


def boecker_conditions(
    instance: Instance, pa: PartialAssignment, b: int, state: BoundState | None = None
) -> list[Fixation]:
    """Strong bound-comparison condition bbk-strong-b: one unconstrained lower
    bound (``BoundState.lower``) against every pair's upper bound with
    x_ij = 1 - b (induced value plus packing bound), as one margin array.
    For b = 1 in the tractable case, each eligible pair takes the exact
    optima, one minimum cut each, unless c_ij already settles it (module
    docstring); a settled pair's margin is then a lower bound on the exact
    one. NaN margins, on the diagonal and decided pairs among them, never
    fix. ``state`` holds pa's bounds; without it they are computed here.
    """
    if state is None:
        state = BoundState(instance, pa)
    lb = state.lower
    margin = lb - (induced_value(instance, pa, 1 - b) + state.excluding)
    tractable = state.tractable if b == 1 else None
    if tractable is not None:  # lb is tractable.opt
        settled = lb - (lb - instance.values)
        margin[tractable.eligible] = settled[tractable.eligible]
        for i, j in np.argwhere(tractable.eligible & ~(settled >= instance.tolerance)).tolist():
            opt_one, opt_zero = tractable.optima(i, j)
            margin[i, j] = opt_one - opt_zero
    return [
        Fixation((p, q), b, (BBK_STRONG_ZERO, BBK_STRONG_ONE)[b], float(margin[p, q]))
        for p, q in np.argwhere(margin >= instance.tolerance).tolist()
    ]


def boecker_weak_condition(
    instance: Instance, pa: PartialAssignment, state: BoundState | None = None
) -> list[Fixation]:
    """Weak bound-comparison condition: per pair and value b, a lower bound
    constrained to x_ij = b (the exact optima for an eligible b = 1 pair of
    the tractable case) against the upper bound with x_ij = 1 - b, applied
    one fixation at a time. The upper bounds, and the tractable case when
    pa's was tractable, are derived again after each fixation; the packing
    stays pa's, whose completions include every later assignment's.
    ``state`` holds pa's packing and tractable case, as for the strong
    conditions.
    """
    if state is None:
        state = BoundState(instance, pa)
    tol = instance.tolerance
    excluding = state.excluding

    def upper_bounds(assignment: PartialAssignment) -> list[np.ndarray]:
        return [induced_value(instance, assignment, 1 - b) + excluding for b in (0, 1)]

    upper = upper_bounds(pa)
    tractable = state.tractable
    rederive = tractable is not None
    working = pa
    fixations: list[Fixation] = []
    for i, j in _undecided_pairs(pa):
        if working.value(i, j) is not None:
            continue
        for b in (0, 1):
            if b == 1 and tractable is not None and tractable.eligible[i, j]:
                lb, ub = tractable.optima(i, j)
            else:
                lb = local_search_lower_bound(instance, working, ((i, j), b))[0]
                ub = float(upper[b][i, j])
            margin = lb - ub
            if not margin >= tol:  # a NaN margin never fixes
                continue
            working = close(working.with_assignments([(i, j, b)]))
            upper = upper_bounds(working)
            if rederive:
                tractable = exact_bounds_tractable(instance, working)
            fixations.append(Fixation((i, j), b, BBK_WEAK, margin))
            break
    return fixations


def subset_fixation_condition(
    instance: Instance,
    pa: PartialAssignment,
    pair: Pair,
    subset,
    variant: str = TAU_BOTH,
) -> tuple[Fixation | None, BoundReport]:
    """Decide one pair with the subset-maximizer condition.

    Fixes x_ij = 1 when the tau map is true to the assignment and lb - ub,
    the sub-problem's bounds on its optima with x_ij = 1 and x_ij = 0, beats
    ``boundary_bound``, the bound on the map's boundary loss. In the
    tractable case (c_ij >= 0) the planted relation is the exact optimum
    and trueness uses its sharp flip sets; otherwise lb comes from local
    search, ub from induced-value plus packing bounds, and trueness from
    the y-free loose sets.

    Trueness comes first: when the map is not true, lb and ub are not
    computed, and the report holds the trivial bounds -inf and +inf, with
    provenance "map-side". ``subset_fixation_pass`` calls only the
    variants its gain caps leave a margin.
    """
    i, j = pair
    elements = sorted(set(int(p) for p in subset))
    if i not in elements or j not in elements:
        raise ValueError("pair must lie inside the subset")
    if pa.value(i, j) is not None:
        raise InconsistentAssignmentError("pair already decided")
    sub_instance = instance.restrict(elements)
    sub_pa = pa.restrict(elements)
    si, sj = elements.index(i), elements.index(j)

    tractable = None
    if instance.values[i, j] >= 0.0:
        tractable = exact_bounds_tractable(sub_instance, sub_pa)
    if tractable is not None:
        y_full = np.zeros((instance.n, instance.n), dtype=bool)
        y_full[np.ix_(elements, elements)] = tractable.y.matrix
        true = is_true_to(MapSpec.tau(variant, elements, Relation(y_full, copy=False)), pa)
    else:
        true = tau_trueness_loose(variant, frozenset(elements), pa)
    ub_prime = float(
        boundary_bound(instance, pa, np.array([elements]))[0, SUBSET_VARIANTS.index(variant)]
    )
    if not true:
        return None, BoundReport(-math.inf, math.inf, ub_prime, provenance="map-side")

    if tractable is not None:
        lb, ub = tractable.optima(si, sj)
    else:
        lb, _ = local_search_lower_bound(sub_instance, sub_pa, ((si, sj), 1))
        excluding = TriplePackingBound(sub_instance, sub_pa).excluding
        ub = float(induced_value(sub_instance, sub_pa, 0)[si, sj] + excluding[si, sj])

    report = BoundReport(
        lb=lb, ub=ub, ub_prime=ub_prime,
        provenance="tractable-exact" if tractable is not None else "local-search+packing",
    )
    margin = lb - ub - ub_prime
    if margin >= instance.tolerance:
        return Fixation(pair, 1, SUBSET_FIX, margin), report
    return None, report


def _neighbor_subsets(instance: Instance, pairs: np.ndarray, k: int) -> np.ndarray:
    """Row r: the pair ``pairs[r]`` plus the k other elements with the
    largest value mass to or from it, ties to the lower element, ascending.

    Each pair's mass is summed in the order of a single pair's sum, so raw
    float ties break the same way for every pair. The masses are built for
    one ``bounds.slabs`` slab of pairs at a time, n entries per pair.
    """
    n = instance.n
    a = np.abs(instance.values)
    a_t = np.ascontiguousarray(a.T)
    k = min(k, n - 2)
    if k <= 0:
        return np.sort(pairs, axis=1)
    subsets = np.empty((len(pairs), k + 2), dtype=np.intp)
    for slab in slabs(len(pairs), n):
        i, j = pairs[slab, 0], pairs[slab, 1]
        rows = np.arange(len(i))
        mass = a[i] + a_t[i]
        mass += a[j]
        mass += a_t[j]
        mass[rows, i] = mass[rows, j] = -math.inf  # below every other element
        # a stable sort keeps equal masses in element order: ties to the lower
        subsets[slab, :k] = np.argsort(-mass, axis=1, kind="stable")[:, :k]
        subsets[slab, k:] = pairs[slab]
    subsets.sort(axis=1)
    return subsets


def _subset_gain_caps(
    instance: Instance, pa: PartialAssignment, pairs: np.ndarray, subsets: np.ndarray
) -> np.ndarray:
    """Row r: an upper bound on OPT1 - OPT0 of the sub-problem of the pair
    ``pairs[r]`` on the subset ``subsets[r]``.

    Cutting every arc leaving i (or entering j) inside the subset turns an
    optimum with x_ij = 1 into a completion with x_ij = 0 and loses at most
    these arcs' dicut capacities; an assigned one among them makes the cap
    infinite.
    """
    cap = cut_capacities(instance, pa)
    i, j = pairs[:, 0, None], pairs[:, 1, None]
    return np.minimum(cap[i, subsets].sum(axis=1), cap[subsets, j].sum(axis=1))


def subset_fixation_pass(instance: Instance, pa: PartialAssignment) -> list[Fixation]:
    """Run the subset condition over all undecided positive pairs.

    Candidate subsets are the pair plus its strongest neighbors; the tau
    variants are tried in ``SUBSET_VARIANTS`` order, except those whose
    boundary bound eats the largest gain the cap allows or is infinite,
    which shows the map is not true. Caps and bounds are built at the first
    candidate and again after each fixation, which applies immediately.
    """
    tol = instance.tolerance
    pairs = np.argwhere(~pa.decided & (instance.values > tol))
    if not len(pairs):
        return []
    subsets = _neighbor_subsets(instance, pairs, SUBSET_NEIGHBORS)
    working = pa
    fixations: list[Fixation] = []
    rows = np.arange(len(pairs))  # the candidates left, in order
    while rows.size:
        gain_cap = _subset_gain_caps(instance, working, pairs[rows], subsets[rows])
        bound = boundary_bound(instance, working, subsets[rows])
        # inf - inf is NaN, which skips: the infinite bound alone rules the map out
        with np.errstate(invalid="ignore"):
            tried = gain_cap[:, None] - bound >= tol
        live = tried.any(axis=1)
        outcomes = (  # lazily, in order, up to the first fixation
            (r, subset_fixation_condition(
                instance, working, tuple(pairs[r].tolist()), subsets[r].tolist(), variant
            )[0])
            for r, tries in zip(rows[live].tolist(), tried[live].tolist())
            for variant in compress(SUBSET_VARIANTS, tries)
        )
        r, fix = next(((r, fix) for r, fix in outcomes if fix is not None), (None, None))
        if fix is None:
            break
        working = close(working.with_assignments([(*fix.pair, 1)]))
        fixations.append(fix)
        rows = rows[rows > r]
        rows = rows[~working.decided[pairs[rows, 0], pairs[rows, 1]]]
    return fixations


@dataclass
class ConditionStats:
    fixed_zero: int = 0
    fixed_one: int = 0
    time_ns: int = 0
    skipped: int = 0  # runs left out because the assignment had not changed


@dataclass
class RunStats:
    """Aggregate outcome of a joint pipeline run."""

    n: int
    pair_count: int
    rounds: int = 0
    merged_classes: int = 0
    fixed_zero: int = 0
    fixed_one: int = 0
    percent_fixed: float = 0.0
    total_ns: int = 0
    per_condition: dict[str, ConditionStats] = field(default_factory=dict)


def _dispatch(cond: str, state: BoundState) -> list[Fixation]:
    instance, pa = state.instance, state.pa
    if cond == DIRECTED_CUT:
        return directed_cut_condition(instance, pa)
    if cond == EDGE_CUT:
        return edge_cut_condition(instance, pa)
    if cond == BBK_STRONG_ZERO:
        return boecker_conditions(instance, pa, 0, state)
    if cond == BBK_STRONG_ONE:
        return boecker_conditions(instance, pa, 1, state)
    if cond == BBK_WEAK:
        return boecker_weak_condition(instance, pa, state)
    if cond == EDGE_JOIN:
        return edge_join_condition(instance, pa)
    if cond == SUBSET_FIX:
        return subset_fixation_pass(instance, pa)
    raise ValueError(f"unknown condition id {cond!r}")


def run_joint(
    instance: Instance, cfg: PipelineConfig | None = None
) -> tuple[PartialAssignment, list[Fixation], RunStats]:
    """Iterate the configured conditions to a fixpoint and lift the result.

    Cheap conditions run first: see ``PipelineConfig`` for one round. Every
    decider is deterministic in (instance, assignment), so a condition is
    skipped when the assignment has not changed since it last ran; the run
    ends once every condition has seen the current assignment. Fixed
    mutual-one classes are contracted as soon as they appear; the
    returned assignment is expressed on the original elements, with every
    fixation expanded to the original pairs it pins. Aborts with
    SoundnessError if a batch of fixations has no common completion.
    """
    if cfg is None:
        cfg = PipelineConfig()
    start = time.perf_counter_ns()
    orig_n = instance.n
    pair_count = instance.pair_count()
    stats = RunStats(n=orig_n, pair_count=pair_count)
    stats.per_condition = {cond: ConditionStats() for cond in cfg.conditions}

    group = np.arange(orig_n)  # original element -> its contracted index
    all_fixations: list[Fixation] = []
    # this version's contracted instance and assignment, with their bbk bounds
    state = BoundState(instance, PartialAssignment.empty(orig_n))
    version = 0  # goes up with every applied batch of fixations
    seen: dict[str, int] = {}  # condition -> the version it last ran on

    def step(cond: str) -> bool:
        """Run one condition unless it already saw this assignment; True
        when its fixations moved the version."""
        nonlocal group, version, state
        if state.instance.n <= 1:
            return False
        record = stats.per_condition[cond]
        if seen.get(cond) == version:
            record.skipped += 1
            return False
        seen[cond] = version
        tick = time.perf_counter_ns()
        fixations = _dispatch(cond, state)
        if fixations:
            current = state.instance
            try:
                pa = close(state.pa.with_assignments([(*f.pair, f.value) for f in fixations]))
            except InconsistentAssignmentError as exc:
                raise SoundnessError(
                    f"condition {cond!r} emitted fixations with no common completion"
                ) from exc
            version += 1
            # the original elements of each contracted one, in ascending order
            members: list[list[int]] = [[] for _ in range(current.n)]
            for original, index in enumerate(group.tolist()):
                members[index].append(original)
            expanded = [
                Fixation((op, oq), f.value, f.condition, f.margin)
                for f in fixations for op in members[f.pair[0]] for oq in members[f.pair[1]]
            ]
            all_fixations.extend(expanded)
            record.fixed_zero += sum(f.value == 0 for f in expanded)
            record.fixed_one += sum(f.value == 1 for f in expanded)
            # merging one class leaves the others mutual-one classes, in order
            to_new = np.arange(current.n)  # index before the merges -> index now
            for cls in mutual_one_classes(pa):
                current, pa, _, old_to_new = merge_classes(current, pa, to_new[cls])
                to_new = old_to_new[to_new]
                stats.merged_classes += 1
            group = to_new[group]
            state = BoundState(current, pa)
        record.time_ns += time.perf_counter_ns() - tick
        return bool(fixations)

    def settle(tier: list[str]) -> None:
        """Pass over the tier in order until a pass fixes nothing."""
        while any([step(cond) for cond in tier]):
            pass

    if cfg.single_pass:
        stats.rounds = 1
        for cond in cfg.conditions:
            step(cond)
    else:
        tier_zero = [cond for cond in cfg.conditions if cond not in TIER_ONE]
        limit = cfg.max_rounds if cfg.max_rounds is not None else max(1, pair_count)
        for _ in range(limit):
            stats.rounds += 1
            settle(tier_zero)
            for cond in cfg.conditions:
                if cond in TIER_ONE and step(cond):
                    settle(tier_zero)
            if state.instance.n <= 1 or all(seen.get(cond) == version for cond in cfg.conditions):
                break

    # back on the original elements; the members of a merged group are mutual ones
    lifted = PartialAssignment(
        state.pa.ones[np.ix_(group, group)] | (group[:, None] == group),
        state.pa.zeros[np.ix_(group, group)],
        copy=False,
    )
    stats.fixed_zero = int(lifted.zeros.sum())
    stats.fixed_one = int(lifted.ones.sum())
    stats.percent_fixed = (
        100.0 * lifted.num_decided() / pair_count if pair_count else 100.0
    )
    stats.total_ns = time.perf_counter_ns() - start
    return lifted, all_fixations, stats
