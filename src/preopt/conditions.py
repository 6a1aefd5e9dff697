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

Three deciders first test a necessary condition in O(n) and skip the
expensive call when it fails, so the fixation set is the same as without
the tests:

- edge-join: every energy cost is nonnegative, so the costs of the terms
  touching i and j, each minimized over the other element's label, bound
  the minimum energy from below; when c_ij minus that floor is below the
  tolerance, no labeling the swap moves can reach fixes the pair;
- subset-u: zeroing all arcs leaving i (or all arcs entering j) inside the
  subset keeps any relation transitive, so the sub-problem's lb - ub is at
  most the positive value of those arcs, and the boundary bound is at least
  the positive value of the flip set P10 that sharp and loose sets share;
  when the first minus the second is below the tolerance, the variant
  cannot fire. Inside each call the map side comes first: trueness and the
  boundary bound are computed before the sub-problem's bounds, which are
  skipped when the map is not true or the gain cap minus the boundary
  bound itself is below the tolerance;
- edge-cut: the paths i->k->j through distinct k are arc-disjoint, so the
  sum of their bottleneck capacities plus the direct arc is a feasible flow
  and bounds every i-j cut from below; when it exceeds -c_ij minus the
  tolerance, neither the pair's own cut nor a reused one can fix it.

Edge-cut also stops each max-flow as soon as its flow value exceeds -c_ij
minus the tolerance (``_fixing_limit``): the flow so far bounds every i-j
cut from below, so the finished cut could not have fixed the pair, and a
cut reused from another pair never costs less than the pair's own. Only
cuts solved to the end are reused. The fixed set is therefore the set of
targets whose own minimum cut fixes them, as before; only edge-cut's
margins and the order of its fixations can differ.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import (
    BoundReport,
    TractableBounds,
    TriplePackingBound,
    boundary_bound,
    exact_bounds_tractable,
    induced_value,
    local_search_lower_bound,
)
from .energy import (
    IN_U,
    IN_U_PRIME,
    EnergyModel,
    alpha_beta_swap_minimize,
    build_join_energy,
)
from .flow import FlowNetwork, cut_capacities, min_st_cut, reachability_sets
from .instance import Instance
from .maps import (
    TAU_BOTH,
    TAU_IN,
    TAU_OUT,
    MapSpec,
    is_true_to,
    tau_loose_sets,
    tau_trueness_loose,
)
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

    The digraph keeps positive arcs and assigned-one arcs (minus assigned
    zeros); arcs leaving any node's reachable set are nonpositive and free of
    assigned ones, so cutting all of them is improving. Reachability is
    reflexive and transitive, so pq leaves some reachable set exactly when q
    is not reachable from p. Like all cut conditions, only pairs below minus
    the tolerance are fixed (ties at zero are sound but useless and
    float-fragile).
    """
    c = instance.values
    adjacency = ((c > 0.0) | pa.ones) & ~pa.zeros
    np.fill_diagonal(adjacency, False)
    candidate = ~reachability_sets(adjacency) & ~pa.zeros & (c < -instance.tolerance)
    np.fill_diagonal(candidate, False)
    if (candidate & pa.ones).any():
        raise SoundnessError("directed cut crossed an assigned-one arc")
    return [
        Fixation((int(p), int(q)), 0, DIRECTED_CUT, float(-c[p, q]))
        for p, q in np.argwhere(candidate)
    ]


def _two_hop_flow(cap: np.ndarray, i: int, j: int) -> float:
    """Value of a feasible i-j flow: the arc ij plus every path i->k->j at its
    bottleneck. The paths are arc-disjoint, so every i-j cut costs at least
    this much; the zero diagonal drops k = i and k = j from the sum."""
    return float(cap[i, j] + np.minimum(cap[i], cap[:, j]).sum())


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

    One minimum i-j cut per candidate pair whose two-hop flow does not
    already exceed c_ij-, all on one network built at the first cut. Each
    max-flow stops once its flow shows the pair cannot be fixed; each cut
    solved to the end is tested against every target it separates, which
    saves most of the remaining max-flow calls without changing the
    fixation set.
    """
    n = instance.n
    c = instance.values
    tol = instance.tolerance
    cap = cut_capacities(instance, pa)
    net = None
    target = ~pa.decided & (c < -tol)
    np.fill_diagonal(target, False)
    fixed = np.zeros((n, n), dtype=bool)
    fixations: list[Fixation] = []
    for i, j in np.argwhere(target).tolist():
        if fixed[i, j] or _two_hop_flow(cap, i, j) > -c[i, j] - tol:
            continue
        if net is None:
            net = FlowNetwork(cap)
        value, side = min_st_cut(net, i, j, _fixing_limit(float(-c[i, j]), tol))
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


def _join_energy_floor(model: EnergyModel) -> float:
    """Lower bound on the energy of every labeling with i in U and j in U'.

    All costs are nonnegative, so dropping the terms between two elements
    other than i and j leaves the ij terms plus, per other element p, the
    cheapest of its costs against i and j as a member of U, U' or REST.
    """
    i, j = model.i, model.j
    join, cut = model.join_cost, model.cut_cost
    per_label = np.minimum(
        np.minimum(join[:, j] + cut[j, :], cut[:, i] + join[i, :]), cut[:, i] + cut[j, :]
    )
    per_label[[i, j]] = 0.0
    return float(join[i, j] + cut[j, i] + per_label.sum())


def edge_join_condition(instance: Instance, pa: PartialAssignment) -> list[Fixation]:
    """Fix x_ij = 1 when some subset pair makes the join map improving.

    For each undecided pair with positive value, the cheapest right-hand side
    over subset pairs (U, U') is minimized heuristically by alpha-beta swaps
    on the three-label energy model, unless the model's energy floor already
    leaves no margin; the fixation is emitted only after an explicit trueness
    re-check of the composed map. Fixations apply immediately, so later
    pairs are judged against the updated assignment.
    """
    c = instance.values
    tol = instance.tolerance
    working = pa
    fixations: list[Fixation] = []
    for i, j in _undecided_pairs(pa):
        if c[i, j] <= tol or working.value(i, j) is not None:
            continue
        model = build_join_energy(instance, working, i, j)
        if c[i, j] - _join_energy_floor(model) < tol:
            continue
        labeling, energy = alpha_beta_swap_minimize(model)
        margin = float(c[i, j]) - energy
        if not margin >= tol:  # a NaN margin never fixes
            continue
        subset = frozenset(int(p) for p in np.flatnonzero(labeling == IN_U))
        subset_prime = frozenset(int(p) for p in np.flatnonzero(labeling == IN_U_PRIME))
        spec = MapSpec.gamma(subset, subset_prime, i, j)
        if not is_true_to(spec, working):
            continue
        working = close(working.with_assignments([(i, j, 1)]))
        fixations.append(Fixation((i, j), 1, EDGE_JOIN, margin))
    return fixations


def _pair_bounds(
    instance: Instance,
    pa: PartialAssignment,
    upper: np.ndarray,
    tractable: TractableBounds | None,
    i: int,
    j: int,
    b: int,
    lb: float | None = None,
) -> tuple[float, float]:
    """Lower bound on the optimum with x_ij = b, upper bound with x_ij = 1 - b.

    ``upper`` holds every pair's upper bound with x_ij = 1 - b: the induced
    value of the incident arcs plus the packing bound on the rest. ``lb``,
    when given, is an unconstrained lower bound used in place of a
    constrained local search. For b = 1 and c_ij >= 0, the exact optima of
    ``tractable`` replace both bounds.
    """
    if b == 1 and tractable is not None and instance.values[i, j] >= 0.0:
        opt_one, opt_zero = tractable.optima(i, j)
        return (opt_one if lb is None else max(lb, opt_one)), opt_zero
    if lb is None:
        lb, _ = local_search_lower_bound(instance, pa, ((i, j), b))
    return lb, float(upper[i, j])


def boecker_conditions(
    instance: Instance,
    pa: PartialAssignment,
    strong: bool = True,
    bs: tuple[int, ...] = (0, 1),
) -> list[Fixation]:
    """Bound-comparison conditions fixing pairs to either value.

    Strong: one unconstrained lower bound against per-pair constrained upper
    bounds, every pair judged against pa. Weak: per-pair constrained lower
    bounds, applied sequentially against the evolving assignment. Both
    compare with the tolerance; ``_pair_bounds`` gives the bounds. The upper
    bounds of all pairs and the tractable case are derived for pa, and in
    the weak branch again after each fixation; the packing stays the one
    of pa, whose completions include those of every later assignment.
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
    for i, j in _undecided_pairs(pa):
        if working.value(i, j) is not None:
            continue
        for b in bs:
            pair_lb, ub = _pair_bounds(instance, working, upper[b], tractable, i, j, b, lb)
            margin = pair_lb - ub
            if not margin >= tol:  # a NaN margin never fixes
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


def subset_fixation_condition(
    instance: Instance,
    pa: PartialAssignment,
    pair: Pair,
    b: int,
    subset,
    variant: str = TAU_BOTH,
    *,
    exact: bool = True,
    greedy: bool = True,
) -> tuple[Fixation | None, BoundReport]:
    """Decide one pair with the subset-maximizer condition.

    Fixes x_ij = b when the tau map is true to the assignment and lb - ub,
    the sub-problem's bounds on its constrained optima, beats the bound on
    the map's boundary loss. In the tractable case the planted relation is
    the exact optimum and the map side uses its sharp flip sets; otherwise
    lb comes from local search, ub from induced-value plus packing bounds,
    and the map side from the y-free loose sets.

    The map side comes first: when the map is not true, or (for b = 1)
    ``_subset_gain_cap`` minus the boundary bound is below the tolerance,
    the pair cannot be fixed and lb and ub are not computed. The report
    then holds the trivial bounds -inf and +inf, with provenance
    "map-side".
    """
    i, j = pair
    elements = sorted(set(int(p) for p in subset))
    if i not in elements or j not in elements:
        raise ValueError("pair must lie inside the subset")
    if pa.value(i, j) is not None:
        raise InconsistentAssignmentError("pair already decided")
    tol = instance.tolerance
    sub_instance = instance.restrict(elements)
    sub_pa = pa.restrict(elements)
    si, sj = elements.index(i), elements.index(j)

    tractable = None
    if exact and b == 1 and instance.values[i, j] >= 0.0:
        tractable = exact_bounds_tractable(sub_instance, sub_pa)
    if tractable is not None:
        y_full = np.zeros((instance.n, instance.n), dtype=bool)
        y_full[np.ix_(elements, elements)] = tractable.y.matrix
        y = Relation(y_full, copy=False)
        ub_prime = boundary_bound(instance, pa, elements, variant, y)
        true = is_true_to(MapSpec.tau(variant, elements, y), pa)
    else:
        ub_prime = boundary_bound(instance, pa, elements, variant)
        true = tau_trueness_loose(variant, frozenset(elements), pa)

    skip = not true
    if true and b == 1:
        # lb - ub <= the gain cap and float subtraction is monotone, so a cap
        # the boundary bound eats leaves no margin for any lb and ub either
        sub_cap = cut_capacities(sub_instance, sub_pa)
        skip = _subset_gain_cap(sub_cap, si, sj, list(range(len(elements)))) - ub_prime < tol
    if skip:
        return None, BoundReport(-math.inf, math.inf, ub_prime, provenance="map-side")

    if tractable is not None:
        lb, ub = tractable.optima(si, sj)
    else:
        lb, _ = local_search_lower_bound(sub_instance, sub_pa, ((si, sj), b), greedy=greedy)
        excluding = TriplePackingBound(sub_instance, sub_pa).excluding
        ub = float(induced_value(sub_instance, sub_pa, 1 - b)[si, sj] + excluding[si, sj])

    report = BoundReport(
        lb=lb, ub=ub, ub_prime=ub_prime,
        provenance="tractable-exact" if tractable is not None else "local-search+packing",
    )
    margin = lb - ub - ub_prime
    if true and margin >= tol:
        return Fixation(pair, b, SUBSET_FIX, margin), report
    return None, report


def _neighbor_subset(instance: Instance, i: int, j: int, k: int) -> list[int]:
    """The pair plus the k elements with the largest value mass to or from it."""
    c = np.abs(instance.values)
    mass = c[i] + c[:, i] + c[j] + c[:, j]
    mass[i] = mass[j] = -1.0
    order = sorted(range(instance.n), key=lambda p: (-mass[p], p))
    return sorted([i, j] + order[:k])


def _subset_gain_cap(cap: np.ndarray, i: int, j: int, subset: list[int]) -> float:
    """Upper bound on OPT1 - OPT0 of the sub-problem on the subset.

    ``cap`` is the assignment's dicut capacity matrix. Cutting every arc
    leaving i (or entering j) inside the subset turns an optimum with
    x_ij = 1 into a completion with x_ij = 0 and loses at most these arcs'
    capacities; an assigned one among them makes the bound infinite.
    """
    return float(min(cap[i, subset].sum(), cap[subset, j].sum()))


def subset_fixation_pass(instance: Instance, pa: PartialAssignment) -> list[Fixation]:
    """Run the subset condition over all undecided positive pairs.

    Candidate subsets are the pair plus its strongest neighbors; all three
    tau variants are tried, except those whose boundary bound is known to
    eat the largest gain ``_subset_gain_cap`` allows. Fixations apply
    immediately.
    """
    tol = instance.tolerance
    working = pa
    cap = cut_capacities(instance, working)
    fixations: list[Fixation] = []
    for i, j in _undecided_pairs(pa):
        if instance.values[i, j] <= tol or working.value(i, j) is not None:
            continue
        subset = _neighbor_subset(instance, i, j, SUBSET_NEIGHBORS)
        gain_cap = _subset_gain_cap(cap, i, j, subset)
        for variant in (TAU_BOTH, TAU_OUT, TAU_IN):
            # sharp and loose flip sets share P10, so every boundary bound
            # subset_fixation_condition can compute is at least its value
            _, p10 = tau_loose_sets(variant, frozenset(subset), working)
            if gain_cap - float(instance.c_plus[p10].sum()) < tol:
                continue
            fix, _ = subset_fixation_condition(instance, working, (i, j), 1, subset, variant)
            if fix is not None:
                working = close(working.with_assignments([(i, j, 1)]))
                cap = cut_capacities(instance, working)
                fixations.append(fix)
                break
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


def _dispatch(cond: str, instance: Instance, pa: PartialAssignment) -> list[Fixation]:
    if cond == DIRECTED_CUT:
        return directed_cut_condition(instance, pa)
    if cond == EDGE_CUT:
        return edge_cut_condition(instance, pa)
    if cond == BBK_STRONG_ZERO:
        return boecker_conditions(instance, pa, strong=True, bs=(0,))
    if cond == BBK_STRONG_ONE:
        return boecker_conditions(instance, pa, strong=True, bs=(1,))
    if cond == BBK_WEAK:
        return boecker_conditions(instance, pa, strong=False)
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
    pair_count = orig_n * (orig_n - 1)
    stats = RunStats(n=orig_n, pair_count=pair_count)
    stats.per_condition = {cond: ConditionStats() for cond in cfg.conditions}

    group = np.arange(orig_n)  # original element -> its contracted index
    current = instance
    pa = PartialAssignment.empty(orig_n)
    all_fixations: list[Fixation] = []
    version = 0  # goes up with every applied batch of fixations
    seen: dict[str, int] = {}  # condition -> the version it last ran on

    def step(cond: str) -> bool:
        """Run one condition unless it already saw this assignment; True
        when its fixations moved the version."""
        nonlocal current, pa, group, version
        if current.n <= 1:
            return False
        record = stats.per_condition[cond]
        if seen.get(cond) == version:
            record.skipped += 1
            return False
        seen[cond] = version
        tick = time.perf_counter_ns()
        fixations = _dispatch(cond, current, pa)
        if fixations:
            try:
                pa = close(
                    pa.with_assignments([(f.pair[0], f.pair[1], f.value) for f in fixations])
                )
            except InconsistentAssignmentError as exc:
                raise SoundnessError(
                    f"condition {cond!r} emitted fixations with no common completion"
                ) from exc
            version += 1
            for f in fixations:
                p, q = f.pair
                members_p, members_q = np.flatnonzero(group == p), np.flatnonzero(group == q)
                weight = len(members_p) * len(members_q)
                if f.value == 0:
                    record.fixed_zero += weight
                else:
                    record.fixed_one += weight
                for op in members_p.tolist():
                    for oq in members_q.tolist():
                        all_fixations.append(replace(f, pair=(op, oq)))
            classes = mutual_one_classes(pa)
            while classes:
                current, pa, _, old_to_new = merge_classes(current, pa, classes[0])
                stats.merged_classes += 1
                group = old_to_new[group]
                classes = mutual_one_classes(pa)
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
            if current.n <= 1 or all(seen.get(cond) == version for cond in cfg.conditions):
                break

    # back on the original elements; the members of a merged group are mutual ones
    lifted = PartialAssignment(
        pa.ones[np.ix_(group, group)] | (group[:, None] == group),
        pa.zeros[np.ix_(group, group)],
        copy=False,
    )
    stats.fixed_zero = int(lifted.zeros.sum())
    stats.fixed_one = int(lifted.ones.sum())
    stats.percent_fixed = (
        100.0 * lifted.num_decided() / pair_count if pair_count else 100.0
    )
    stats.total_ns = time.perf_counter_ns() - start
    return lifted, all_fixations, stats
