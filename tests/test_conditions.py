import collections
import hashlib
import itertools
import math
import operator
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    agrees_with,
    CONTRADICTORY_BATCHES,
    per_pair_edge_cut,
    random_closed_pa_any,
    random_instance,
    reference_boecker_conditions,
    reference_boundary_bound,
    reference_neighbor_subset,
    reference_subset_fixation,
)
from preopt import (
    Instance,
    PipelineConfig,
    SoundnessError,
    bounds,
    conditions,
    ingest_ego_network,
    oracle,
    run_joint,
)
from preopt.conditions import (
    BBK_STRONG_ONE,
    BBK_STRONG_ZERO,
    BBK_WEAK,
    DEFAULT_CONDITIONS,
    DIRECTED_CUT,
    EDGE_CUT,
    EDGE_JOIN,
    TIER_ONE,
    boecker_conditions,
    boecker_weak_condition,
    directed_cut_condition,
    edge_cut_condition,
    edge_join_condition,
    subset_fixation_condition,
    subset_fixation_pass,
)
from preopt.energy import IN_U, IN_U_PRIME, LABELS, build_join_energy, join_floors
from preopt.flow import FlowNetwork, cut_capacities, min_st_cut
from preopt.instance import GeneratorConfig, generate_synthetic
from preopt.bounds import boundary_bound, exact_bounds_tractable, induced_value
from preopt.maps import (
    TAU_BOTH,
    TAU_IN,
    TAU_OUT,
    MapSpec,
    is_true_to,
    tau_loose_sets,
    tau_trueness_loose,
)
from preopt.relations import (
    InconsistentAssignmentError,
    PartialAssignment,
    Relation,
    close,
    transitive_closure_matrix,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

FIG1 = Instance(
    np.array(
        [
            [0, 2, -1, -1, -1],
            [2, 0, -1, 2, -1],
            [-4, -4, 0, 3, 2],
            [1, 1, -1, 0, -1],
            [-1, -1, 1, -2, 0],
        ],
        dtype=float,
    )
)

FIG3 = Instance(
    np.array(
        [
            [0, 5, 1, 1],
            [0, 0, 1, 1],
            [0, 0, 0, 2],
            [0, 0, 0, 0],
        ],
        dtype=float,
    )
)


def two_element_instance(c_ab, c_ba):
    c = np.zeros((2, 2))
    c[0, 1] = c_ab
    c[1, 0] = c_ba
    return Instance(c)


def apply_fixations(pa, fixations):
    return close(pa.with_assignments([(f.pair[0], f.pair[1], f.value) for f in fixations]))


def fixations_sound(instance, fixations):
    pa = apply_fixations(PartialAssignment.empty(instance.n), fixations)
    return oracle.certify(instance, pa)


class TestEdgeCut:
    def test_negative_pair_fixed(self):
        fixations = edge_cut_condition(two_element_instance(-3.0, 1.0), PartialAssignment.empty(2))
        assert len(fixations) == 1
        fix = fixations[0]
        assert fix.pair == (0, 1) and fix.value == 0
        assert fix.margin == pytest.approx(3.0)

    def test_positive_pair_not_fixed(self):
        inst = two_element_instance(1.0, 0.0)
        assert edge_cut_condition(inst, PartialAssignment.empty(2)) == []
        # fixing would be unsound here: the unique optimum sets the arc
        assert oracle.solve_exact(inst).matrices[0][0, 1]

    def test_fig1_fixations_sound(self):
        fixations = edge_cut_condition(FIG1, PartialAssignment.empty(5))
        assert fixations
        assert fixations_sound(FIG1, fixations)

    def test_reuse_matches_per_pair_solving(self):
        rng = np.random.default_rng(0)
        for trial in range(90):
            n = int(rng.integers(3, 10))
            inst = random_instance(rng, n, ("grid", "pm1", "raw")[trial % 3])
            pa = PartialAssignment.empty(n) if trial % 2 else random_closed_pa_any(rng, n, 0.2)
            fixations = edge_cut_condition(inst, pa)
            assert all(f.value == 0 and f.margin >= inst.tolerance for f in fixations)
            assert len({f.pair for f in fixations}) == len(fixations)
            assert {f.pair for f in fixations} == per_pair_edge_cut(inst, pa)

    def test_fixing_limit_is_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            gain = float(10.0 ** rng.uniform(-3, 3))
            tol = float(gain * 10.0 ** rng.uniform(-17, -1))
            limit = conditions._fixing_limit(gain, tol)
            assert gain - limit >= tol
            assert not gain - math.nextafter(limit, math.inf) >= tol

    def test_respects_assigned_ones(self):
        inst = two_element_instance(-3.0, 1.0)
        pa = close(PartialAssignment.from_pairs(2, one_pairs=[(0, 1)]))
        assert edge_cut_condition(inst, pa) == []


class TestDirectedCut:
    def test_single_positive_arc(self):
        c = np.full((3, 3), -1.0)
        np.fill_diagonal(c, 0.0)
        c[0, 1] = 1.0
        inst = Instance(c)
        fixations = directed_cut_condition(inst, PartialAssignment.empty(3))
        fixed = {(f.pair, f.value) for f in fixations}
        assert ((0, 2), 0) in fixed and ((1, 2), 0) in fixed
        assert fixations_sound(inst, fixations)

    def test_all_positive_no_fixation(self):
        rng = np.random.default_rng(1)
        c = rng.random((4, 4)) + 0.1
        np.fill_diagonal(c, 0.0)
        assert directed_cut_condition(Instance(c), PartialAssignment.empty(4)) == []

    def test_strongly_connected_no_fixation(self):
        c = np.full((3, 3), -1.0)
        np.fill_diagonal(c, 0.0)
        for p, q in ((0, 1), (1, 2), (2, 0)):
            c[p, q] = 2.0
        assert directed_cut_condition(Instance(c), PartialAssignment.empty(3)) == []

    def test_sound_on_ensemble(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(3, 7))
            inst = random_instance(rng, n)
            fixations = directed_cut_condition(inst, PartialAssignment.empty(n))
            assert fixations_sound(inst, fixations)

    def test_matches_cut_of_every_reachable_set(self):
        # the definition: fix every negative pair leaving some node's
        # reachable set, with each set grown by its own search
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            c = np.round(rng.normal(size=(n, n)) * 8) / 8
            np.fill_diagonal(c, 0.0)
            inst = Instance(c)
            pa = random_closed_pa_any(rng, n)
            adjacency = ((c > 0.0) | pa.ones) & ~pa.zeros
            expected = np.zeros((n, n), dtype=bool)
            for u in range(n):
                reach, frontier = {u}, [u]
                while frontier:
                    v = frontier.pop()
                    for w in np.flatnonzero(adjacency[v]):
                        if int(w) not in reach:
                            reach.add(int(w))
                            frontier.append(int(w))
                inside = np.isin(np.arange(n), sorted(reach))
                expected |= np.outer(inside, ~inside)
            expected &= ~pa.zeros & (c < -inst.tolerance)
            fixations = directed_cut_condition(inst, pa)
            assert [f.pair for f in fixations] == [(int(p), int(q)) for p, q in np.argwhere(expected)]


class TestEdgeJoin:
    def test_two_element_join(self):
        fixations = edge_join_condition(two_element_instance(5.0, -1.0), PartialAssignment.empty(2))
        assert [(f.pair, f.value) for f in fixations] == [((0, 1), 1)]
        assert fixations[0].margin == pytest.approx(5.0)

    def test_nonpositive_pairs_skipped(self):
        inst = two_element_instance(-2.0, 0.0)
        assert edge_join_condition(inst, PartialAssignment.empty(2)) == []

    def test_fig1_fixations_sound(self):
        fixations = edge_join_condition(FIG1, PartialAssignment.empty(5))
        assert fixations_sound(FIG1, fixations)

    def test_sound_on_ensemble(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(3, 6))
            inst = random_instance(rng, n)
            fixations = edge_join_condition(inst, PartialAssignment.empty(n))
            assert fixations_sound(inst, fixations)


class TestTiePolicy:
    """A cut or join of margin exactly 0 is sound but fixes nothing: every
    cut and join condition leaves such a pair undecided."""

    def test_directed_cut_leaves_a_value_within_tolerance(self):
        # c_01 leaves 0's reachable set, but its -5e-10 is within tol = 1e-9
        inst = Instance(np.array([[0.0, -5e-10], [0.0, 0.0]]))
        assert inst.tolerance == 1e-9
        assert directed_cut_condition(inst, PartialAssignment.empty(2)) == []

    def test_edge_cut_leaves_a_pair_whose_own_cut_ties(self):
        # the one 0-1 path 0 -> 2 -> 1 makes every 0-1 cut cost 1 = -c_01
        c = np.zeros((3, 3))
        c[0, 1], c[0, 2], c[2, 1] = -1.0, 1.0, 1.0
        inst, pa = Instance(c), PartialAssignment.empty(3)
        assert min_st_cut(FlowNetwork(cut_capacities(inst, pa)), 0, 1)[0] == 1.0
        assert edge_cut_condition(inst, pa) == []

    def test_edge_cut_leaves_a_pair_that_an_earlier_cut_ties(self):
        # the 0-1 cut {0} costs 2 and fixes (0, 1) with margin 1; it also
        # separates (0, 2) at exactly -c_02 = 2, its minimum cut (two
        # disjoint paths of capacity 1), which the cut floor (1, one path)
        # does not rule out
        c = np.zeros((6, 6))
        c[0, 1], c[0, 2] = -3.0, -2.0
        for p, q in ((0, 3), (3, 2), (0, 4), (4, 5), (5, 2)):
            c[p, q] = 1.0
        c[2, 1] = 3.0
        inst, pa = Instance(c), PartialAssignment.empty(6)
        net = FlowNetwork(cut_capacities(inst, pa))
        assert [min_st_cut(net, 0, j) for j in (1, 2)] == [(2.0, {0}), (2.0, {0})]
        fixations = edge_cut_condition(inst, pa)
        assert [(f.pair, f.value, f.margin) for f in fixations] == [((0, 1), 0, 1.0)]

    def test_edge_join_leaves_a_pair_whose_floor_ties(self):
        # joining 0 -> 1 lowers 1 -> 0: energy c+_10 = 1 = c_01 on the
        # only labeling, and the floor reads it exactly
        inst, pa = two_element_instance(1.0, 1.0), PartialAssignment.empty(2)
        assert join_floors(inst, pa)[0, 1] == 1.0
        assert edge_join_condition(inst, pa) == []

    def test_edge_join_leaves_a_pair_whose_swaps_tie(self):
        # 2 is free in U and 3 in U' (c_20 and c_13 price them elsewhere),
        # so the floor is 0; together they pay c-_23 = 1, and every other
        # labeling pays at least 1 too: the join of 0 -> 1 ties at c_01 = 1
        c = np.zeros((4, 4))
        c[0, 1], c[2, 0], c[1, 3], c[2, 3] = 1.0, 1.0, 1.0, -1.0
        inst, pa = Instance(c), PartialAssignment.empty(4)
        assert join_floors(inst, pa)[0, 1] == 0.0
        model = build_join_energy(inst, pa, 0, 1)
        energies = [
            model.energy(np.array([IN_U, IN_U_PRIME, *rest]))
            for rest in itertools.product(LABELS, repeat=2)
        ]
        assert min(energies) == 1.0
        assert (0, 1) not in {f.pair for f in edge_join_condition(inst, pa)}


def _strong_both(inst: Instance, pa: PartialAssignment) -> list:
    """bbk-strong-0's fixations, then bbk-strong-1's, both judged against pa."""
    return boecker_conditions(inst, pa, 0) + boecker_conditions(inst, pa, 1)


class TestBoecker:
    def test_weak_two_element(self):
        inst = two_element_instance(5.0, -1.0)
        fixations = boecker_weak_condition(inst, PartialAssignment.empty(2))
        assert (((0, 1), 1)) in {(f.pair, f.value) for f in fixations}

    def test_strong_requires_strict_inequality(self):
        inst = Instance(np.zeros((3, 3)))
        assert _strong_both(inst, PartialAssignment.empty(3)) == []

    def test_strong_two_element(self):
        inst = two_element_instance(5.0, -1.0)
        fixations = _strong_both(inst, PartialAssignment.empty(2))
        fixed = {(f.pair, f.value) for f in fixations}
        assert ((0, 1), 1) in fixed and ((1, 0), 0) in fixed

    @pytest.mark.parametrize("strong", [True, False])
    def test_sound_on_ensemble(self, strong):
        rng = np.random.default_rng(4 if strong else 5)
        for _ in range(25):
            n = int(rng.integers(3, 6))
            inst = random_instance(rng, n)
            pa = PartialAssignment.empty(n)
            fixations = _strong_both(inst, pa) if strong else boecker_weak_condition(inst, pa)
            assert fixations_sound(inst, fixations)


def _bbk_case(rng: np.random.Generator, kind: str) -> tuple[Instance, PartialAssignment]:
    """A random instance and closed assignment; half of them tractable, with
    values nonnegative exactly on a preorder whose pairs the assignment
    reveals, a fifth of them zero (eligible for the exact optima all the same)."""
    n = int(rng.integers(2, 13))
    inst = random_instance(rng, n, kind)
    density = float(rng.uniform(0.0, 0.5))
    if rng.random() < 0.5:
        return inst, random_closed_pa_any(rng, n, density)
    x = transitive_closure_matrix(rng.random((n, n)) < 0.15)
    c = np.where(x, np.abs(inst.values), -np.abs(inst.values))
    c[x & (rng.random((n, n)) < 0.2)] = 0.0
    reveal = rng.random((n, n)) < density
    np.fill_diagonal(reveal, False)
    return Instance(c), close(PartialAssignment(x & reveal, ~x & reveal))


def _settled_margins(inst: Instance, pa: PartialAssignment) -> dict:
    """bbk-strong-1's settled value max(lb, opt) - (opt - c_ij), pair by
    pair, for every eligible pair of the tractable case."""
    tractable = bounds.exact_bounds_tractable(inst, pa)
    if tractable is None:
        return {}
    lb = bounds.local_search_lower_bound(inst, pa)[0]
    return {
        (i, j): max(lb, tractable.opt) - (tractable.opt - float(inst.values[i, j]))
        for i, j in np.argwhere(tractable.eligible).tolist()
    }


class TestBoeckerMatchesReference:
    """The split deciders emit the reference's fixation lists: pairs, values,
    conditions and order. Margins equal the reference's wherever a flow ran;
    a bbk-strong-1 pair that c_ij settles records the settled formula, a
    lower bound on the reference's margin that still reaches the tolerance."""

    @pytest.mark.parametrize("kind", ["grid", "pm1", "raw"])
    def test_fixation_lists(self, kind):
        rng = np.random.default_rng(25)
        tractable = fired = settled = flowed = 0
        for _ in range(40):
            inst, pa = _bbk_case(rng, kind)
            tol = inst.tolerance
            tractable += bounds.exact_bounds_tractable(inst, pa) is not None
            formulas = _settled_margins(inst, pa)
            for b in (0, 1):
                got = boecker_conditions(inst, pa, b)
                expected = reference_boecker_conditions(inst, pa, strong=True, bs=(b,))
                assert [(f.pair, f.value, f.condition) for f in got] == [
                    (f.pair, f.value, f.condition) for f in expected
                ]
                for f, ref in zip(got, expected):
                    formula = formulas.get(f.pair, math.nan) if b == 1 else math.nan
                    if formula >= tol:
                        assert f.margin == formula and tol <= f.margin <= ref.margin
                        settled += 1
                    else:
                        assert f.margin == ref.margin
                        flowed += not math.isnan(formula)
                fired += bool(got)
            got = boecker_weak_condition(inst, pa)
            assert got == reference_boecker_conditions(inst, pa, strong=False)
            fired += bool(got)
        assert 5 <= tractable <= 35 and fired >= 20 and settled >= 5 and flowed >= 5


def _counting(monkeypatch, counts: dict) -> None:
    """Count the calls of each name in ``counts`` wherever bounds or
    conditions binds it."""

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    for module in (bounds, conditions):
        for name in counts:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))


class TestTractableOncePerRun:
    """bbk-strong-1 derives the tractable case once per run; a pair whose
    c_ij settles it costs no minimum cut, and every other eligible pair one
    cut on a network built at the first of them."""

    def _case(self, zero_pair=None):
        rng = np.random.default_rng(61)
        rank = np.array([0, 0, 1, 2, 2, 3, 4, 5])
        n = len(rank)
        # positive exactly on the preorder rank[p] <= rank[q]: the sign-greedy
        # relation is that preorder, so the instance is tractable
        magnitude = rng.integers(1, 9, size=(n, n)).astype(float)
        c = np.where(rank[:, None] <= rank[None, :], magnitude, -magnitude)
        np.fill_diagonal(c, 0.0)
        if zero_pair is not None:
            c[zero_pair] = 0.0  # still eligible, but c_ij settles nothing
        inst = Instance(c)
        pa = close(PartialAssignment.from_pairs(n, one_pairs=[(3, 4)], zero_pairs=[(6, 2)]))
        lb = bounds.local_search_lower_bound(inst, pa)[0]
        opt = float(c[bounds.sign_greedy_relation(inst, pa).matrix].sum())
        return inst, pa, lb, opt

    def test_one_derivation_and_direct_margins(self, monkeypatch):
        inst, pa, lb, opt = self._case()
        c = inst.values
        counts = {"sign_greedy_relation": 0, "FlowNetwork": 0}
        _counting(monkeypatch, counts)
        fixations = boecker_conditions(inst, pa, 1)
        assert counts == {"sign_greedy_relation": 1, "FlowNetwork": 0}
        assert len(fixations) >= 5
        for f in fixations:
            i, j = f.pair
            assert f.value == 1 and c[i, j] >= inst.tolerance and pa.value(i, j) is None
            assert f.margin == max(lb, opt) - (opt - c[i, j])

    def test_zero_valued_pair_takes_one_network(self, monkeypatch):
        inst, pa, lb, opt = self._case(zero_pair=(0, 5))
        net = FlowNetwork(cut_capacities(inst, pa))
        counts = {"sign_greedy_relation": 0, "FlowNetwork": 0}
        _counting(monkeypatch, counts)
        fixations = boecker_conditions(inst, pa, 1)
        assert counts == {"sign_greedy_relation": 1, "FlowNetwork": 1}
        margins = {f.pair: f.margin for f in fixations}
        assert margins[(0, 5)] == max(lb, opt) - (opt - min_st_cut(net, 0, 5)[0])
        assert margins[(0, 5)] >= inst.tolerance


def _unconstrained_calls(func, keys: list):
    """func, recording the state of every call it gets without a constraint."""

    def wrapper(instance, pa, *constraint, **kwargs):
        if not constraint:
            keys.append(_state(instance, pa))
        return func(instance, pa, *constraint, **kwargs)

    return wrapper


class TestBoundStatePerVersion:
    """run_joint builds the packing and the unconstrained lower bound at most
    once per assignment version, and the bbk deciders share them."""

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_one_build_per_version(self, monkeypatch, alpha):
        builds = {"TriplePackingBound": [], "local_search_lower_bound": []}
        for name, keys in builds.items():
            monkeypatch.setattr(conditions, name, _unconstrained_calls(getattr(conditions, name), keys))
        cfg = PipelineConfig(conditions=DEFAULT_CONDITIONS[:-1] + (BBK_WEAK,))
        bbk = (BBK_STRONG_ZERO, BBK_STRONG_ONE, BBK_WEAK)
        for seed in range(2):
            for keys in builds.values():
                keys.clear()
            calls, _ = _recorded_run(monkeypatch, _n12(alpha, seed), cfg)
            bbk_inputs = [_state(instance, pa) for cond, instance, pa in calls if cond in bbk]
            versions = set(bbk_inputs)
            assert len(versions) < len(bbk_inputs)  # some version served two deciders
            for keys in builds.values():
                assert len(keys) == len(set(keys)) and set(keys) <= versions
            # every bbk decider reads the packing
            assert set(builds["TriplePackingBound"]) == versions


class TestTractableLowerBound:
    """In the tractable case the bbk lower bound is the exact optimum, which
    no local-search witness beats, and no local search runs."""

    @pytest.mark.parametrize("kind", ["grid", "pm1", "raw"])
    def test_lower_is_tractable_optimum(self, kind, monkeypatch):
        searches = []  # the unconstrained searches BoundState runs
        search_lower = bounds.local_search_lower_bound
        monkeypatch.setattr(
            conditions, "local_search_lower_bound", _unconstrained_calls(search_lower, searches)
        )
        rng = np.random.default_rng(34)
        tractable = 0
        for trial in range(60):
            n = 3 + trial % 8  # 3..10
            inst = random_instance(rng, n, kind)
            pa = random_closed_pa_any(rng, n, 0.2)
            if trial % 2:  # positive on a random preorder x, pins from x: tractable
                x = transitive_closure_matrix(rng.random((n, n)) < 0.2)
                inst = Instance(np.where(x, np.abs(inst.values), -np.abs(inst.values)))
                reveal = rng.random((n, n)) < 0.2
                np.fill_diagonal(reveal, False)
                pa = close(PartialAssignment(x & reveal, ~x & reveal))
            state = conditions.BoundState(inst, pa)
            search = search_lower(inst, pa)[0]
            searches.clear()
            if state.tractable is None:
                assert state.lower == search and len(searches) == 1
                continue
            tractable += 1
            assert state.lower == state.tractable.opt and searches == []
            # 2^-10 and +-1 values sum exactly; raw floats to rounding
            assert search <= state.tractable.opt + (1e-9 if kind == "raw" else 0.0)
        assert tractable >= 30


class TestSubsetFixation:
    def test_worked_example_small_subset(self):
        fix, report = subset_fixation_condition(
            FIG3, PartialAssignment.empty(4), (0, 1), [0, 1], TAU_BOTH
        )
        assert report.lb == pytest.approx(5.0)
        assert report.ub == pytest.approx(0.0)
        assert report.ub_prime == pytest.approx(4.0)
        assert fix is not None and fix.value == 1

    def test_whole_set_recovers_weak_comparison(self):
        # U = V has no boundary, so lb and ub are the active branch's own
        # bounds on the whole problem: the weak comparison's
        pa = PartialAssignment.empty(4)
        fix, report = subset_fixation_condition(FIG3, pa, (0, 1), range(4), TAU_BOTH)
        assert report.ub_prime == 0.0 and report.provenance == "tractable-exact"
        exact = exact_bounds_tractable(FIG3, pa).optima(0, 1)
        assert (report.lb, report.ub) == exact == (11.0, 6.0)
        assert fix is not None and fix.margin == 5.0
        c = FIG3.values.copy()
        c[1, 0] = -1.0  # c_10 < 0: local search and packing
        inst = Instance(c)
        fix, report = subset_fixation_condition(inst, pa, (1, 0), range(4), TAU_BOTH)
        assert report.ub_prime == 0.0 and report.provenance == "local-search+packing"
        lb = bounds.local_search_lower_bound(inst, pa, ((1, 0), 1))[0]
        ub = induced_value(inst, pa, 0)[1, 0] + bounds.TriplePackingBound(inst, pa).excluding[1, 0]
        assert (report.lb, report.ub) == (lb, ub)
        assert fix is None

    def test_pass_is_sound(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(3, 7))
            inst = random_instance(rng, n)
            fixations = subset_fixation_pass(inst, PartialAssignment.empty(n))
            assert fixations_sound(inst, fixations)

    def test_pair_must_be_inside_subset(self):
        with pytest.raises(ValueError):
            subset_fixation_condition(FIG3, PartialAssignment.empty(4), (0, 3), [0, 1])

    @pytest.mark.parametrize("kind", ["grid", "pm1", "raw"])
    def test_neighbor_subset_order(self, kind):
        # the k heaviest other elements, ties in element order, each once
        rng = np.random.default_rng(27)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            inst = random_instance(rng, n, kind)
            i, j = (int(e) for e in rng.choice(n, size=2, replace=False))
            a = np.abs(inst.values)
            mass = a[i] + a[:, i] + a[j] + a[:, j]
            others = sorted((p for p in range(n) if p not in (i, j)), key=lambda p: (-mass[p], p))
            expected = sorted([i, j] + others[:4])
            subset = conditions._neighbor_subsets(inst, np.array([[i, j]]), 4)[0].tolist()
            assert subset == expected and all(type(p) is int for p in subset)
            assert len(set(subset)) == len(subset)

    @pytest.mark.parametrize("kind", ["grid", "pm1", "raw", "ties"])
    def test_neighbor_subsets_match_reference(self, kind):
        rng = np.random.default_rng(28)
        for trial in range(40):
            n = 2 + trial % 11  # 2..12
            if kind == "ties":  # few distinct masses: values in {-1, 0, 1}, or all 1
                values = rng.integers(-1, 2, (n, n)) * (trial % 2) + (1 - trial % 2)
                np.fill_diagonal(values, 0)
                inst = Instance(values.astype(float))
            else:
                inst = random_instance(rng, n, kind)
            pairs = np.argwhere(~np.eye(n, dtype=bool))
            subsets = conditions._neighbor_subsets(inst, pairs, conditions.SUBSET_NEIGHBORS)
            for (i, j), subset in zip(pairs.tolist(), subsets.tolist()):
                assert subset == reference_neighbor_subset(inst, i, j, conditions.SUBSET_NEIGHBORS)

    def test_pass_slabs_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(29)
        cases = []
        for trial in range(36):
            n = 3 + trial % 7  # 3..9
            inst = random_instance(rng, n, ("grid", "pm1", "raw")[trial % 3])
            cases.append((inst, random_closed_pa_any(rng, n, 0.2)))
        whole = [subset_fixation_pass(inst, pa) for inst, pa in cases]
        assert sum(map(len, whole)) >= 20
        monkeypatch.setattr(bounds, "SLAB_ENTRIES", 1)  # one pair per slab
        assert [subset_fixation_pass(inst, pa) for inst, pa in cases] == whole


class TestSubsetMapSideFirst:
    """subset_fixation_condition decides the map side before it bounds the
    sub-problem, and fixes exactly what the unconditional body fixes."""

    def test_matches_unconditional_reference(self):
        # a call past the map side has a true map, whose boundary bound is
        # the reference's: the same float on grid and +-1 data, the same to
        # rounding on raw data, and so are the margins
        rng = np.random.default_rng(25)
        fixed = 0
        provenances = collections.Counter()
        for trial in range(192):
            n = 3 + trial % 6  # 3..8
            kind = ("grid", "pm1", "raw")[trial % 3]
            inst = random_instance(rng, n, kind)
            same = (lambda a, b: a == pytest.approx(b)) if kind == "raw" else operator.eq
            pa = random_closed_pa_any(rng, n, 0.2)
            pairs = conditions._undecided_pairs(pa)
            if not pairs:
                continue
            i, j = pairs[int(rng.integers(len(pairs)))]
            extra = [p for p in range(n) if p not in (i, j) and rng.random() < 0.5]
            subset = sorted([i, j, *extra])
            for variant in (TAU_BOTH, TAU_OUT, TAU_IN):
                args = (inst, pa, (i, j), subset, variant)
                fix, report = subset_fixation_condition(*args)
                ref, ref_report = reference_subset_fixation(*args)
                assert (fix is None) == (ref is None)
                if fix is not None:
                    assert (fix.pair, fix.value, fix.condition) == (ref.pair, ref.value, ref.condition)
                    assert same(fix.margin, ref.margin)
                if report.provenance == "map-side":  # the map is not true
                    assert (report.lb, report.ub) == (-math.inf, math.inf)
                else:
                    assert (report.lb, report.ub) == (ref_report.lb, ref_report.ub)
                    assert same(report.ub_prime, ref_report.ub_prime)
                provenances[report.provenance] += 1
                fixed += fix is not None
        assert fixed >= 20 and provenances["map-side"] >= 250
        assert provenances["tractable-exact"] and provenances["local-search+packing"]

    def test_gain_cap_skip_at_the_tolerance(self):
        # sub-problem {0, 1}: lb - ub = 5 = the gain cap; the boundary arc
        # 0 -> 2 is the boundary bound, so the margin is 5 - c_02, which the
        # dyadic steps keep exact for the reference's sums and the library's;
        # the pass's gate holds exactly when the reference fixes
        outcomes = set()
        pa, pairs, subsets = PartialAssignment.empty(3), np.array([[0, 1]]), np.array([[0, 1]])
        v = conditions.SUBSET_VARIANTS.index(TAU_BOTH)
        for steps in (9, 10, 11, 12, 20):
            c = np.zeros((3, 3))
            # the tolerance, about 1e-8, lies between 10 and 11 steps of 2^-30
            c[0, 1], c[0, 2] = 5.0, 5.0 - steps * 2.0**-30
            inst = Instance(c)
            gate = conditions._subset_gain_caps(inst, pa, pairs, subsets) - boundary_bound(
                inst, pa, subsets
            )[:, v]
            args = (inst, pa, (0, 1), [0, 1], TAU_BOTH)
            for exact in (True, False):
                ref = reference_subset_fixation(*args, exact=exact)[0]
                assert (gate[0] >= inst.tolerance) == (ref is not None)
            fix, _ = subset_fixation_condition(*args)
            assert fix == reference_subset_fixation(*args)[0]
            outcomes.add(fix is None)
        assert outcomes == {True, False}

    def test_untrue_map_skips_sub_problem_bounds(self, monkeypatch):
        # the assigned one 0 -> 2 crosses the boundary of {0, 1}
        pa = close(PartialAssignment.from_pairs(4, one_pairs=[(0, 2)]))
        counts = {"local_search_lower_bound": 0, "TriplePackingBound": 0, "optima": 0}

        def counted(name, func):
            def wrapper(*a, **kw):
                counts[name] += 1
                return func(*a, **kw)

            return wrapper

        for owner, name in ((conditions, "local_search_lower_bound"),
                            (conditions, "TriplePackingBound"),
                            (bounds.TractableBounds, "optima")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        c = FIG3.values.copy()
        c[0, 1] = -5.0  # c_01 < 0: trueness from the loose sets
        for inst in (FIG3, Instance(c)):
            fix, report = subset_fixation_condition(inst, pa, (0, 1), [0, 1], TAU_BOTH)
            assert fix is None and report.provenance == "map-side"
            assert report.ub_prime == math.inf  # the cut boundary holds an assigned one
        assert counts == {"local_search_lower_bound": 0, "TriplePackingBound": 0, "optima": 0}


class TestRunJoint:
    def test_easy_synthetic_fully_fixed(self):
        inst, _ = generate_synthetic(GeneratorConfig(n=10, p_edges=0.5, alpha=0.0, seed=5))
        pa, _, stats = run_joint(inst)
        assert stats.percent_fixed == pytest.approx(100.0)
        assert pa.num_decided() == 90

    def test_easy_regime_has_unique_optimum_and_pipeline_finds_it(self):
        for seed in range(3):
            inst, truth = generate_synthetic(
                GeneratorConfig(n=6, p_edges=0.5, alpha=0.0, seed=seed)
            )
            opt = oracle.solve_exact(inst)
            assert opt.matrices.shape[0] == 1  # alpha=0 is a unique-optimum regime
            pa, _, stats = run_joint(inst)
            assert stats.percent_fixed == pytest.approx(100.0)
            assert np.array_equal(pa.ones, opt.matrices[0])
            assert (opt.matrices == truth.matrix).all(axis=(1, 2)).any()

    def test_zero_instance_terminates_immediately(self):
        inst = Instance(np.zeros((4, 4)))
        pa, fixations, stats = run_joint(inst)
        assert fixations == []
        assert stats.rounds == 1
        assert stats.percent_fixed == 0.0

    def test_fig1_final_assignment_admits_optimum(self):
        pa, _, stats = run_joint(FIG1)
        depicted = Relation.from_pairs(5, [(0, 1), (1, 0), (0, 3), (1, 3), (2, 3), (2, 4)])
        assert agrees_with(pa, depicted)
        assert oracle.certify(FIG1, pa)
        assert 0.0 <= stats.percent_fixed <= 100.0

    def test_monotone_and_bounded_rounds(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            inst = random_instance(rng, 5)
            _, _, stats = run_joint(inst)
            assert stats.rounds <= inst.pair_count()

    def test_single_pass_mode(self):
        inst, _ = generate_synthetic(GeneratorConfig(n=8, p_edges=0.5, alpha=0.3, seed=9))
        _, _, stats = run_joint(inst, PipelineConfig(single_pass=True))
        assert stats.rounds == 1

    def test_stats_fields(self):
        pa, fixations, stats = run_joint(FIG1)
        assert stats.n == 5 and stats.pair_count == 20
        assert stats.fixed_zero + stats.fixed_one == pa.num_decided()
        assert set(stats.per_condition) == set(DEFAULT_CONDITIONS)
        assert stats.total_ns > 0
        emitted = sum(
            rec.fixed_zero + rec.fixed_one for rec in stats.per_condition.values()
        )
        assert emitted <= pa.num_decided()

    def test_conditions_configurable(self):
        cfg = PipelineConfig(conditions=("directed-cut",))
        _, fixations, stats = run_joint(FIG1, cfg)
        assert set(stats.per_condition) == {"directed-cut"}
        assert all(f.condition == "directed-cut" for f in fixations)

    def test_unknown_condition_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(conditions=("nonsense",))

    def test_empty_condition_list_rejected(self):
        with pytest.raises(ValueError, match="at least one condition"):
            PipelineConfig(conditions=())

    def test_weak_boecker_available(self):
        cfg = PipelineConfig(conditions=(BBK_WEAK,))
        inst = two_element_instance(5.0, -1.0)
        pa, fixations, _ = run_joint(inst, cfg)
        assert pa.num_decided() == 2
        assert fixations_sound(inst, fixations)

    def test_merging_collapses_mutual_class(self):
        # strong mutual pair (0, 1) plus a clearly separated rest
        c = np.array(
            [
                [0, 9, -5, -5],
                [9, 0, -5, -5],
                [-5, -5, 0, -5],
                [-5, -5, -5, 0],
            ],
            dtype=float,
        )
        inst = Instance(c)
        pa, _, stats = run_joint(inst)
        assert stats.merged_classes >= 1
        assert pa.value(0, 1) == 1 and pa.value(1, 0) == 1
        assert oracle.certify(inst, pa)

    @pytest.mark.parametrize("case", CONTRADICTORY_BATCHES)
    def test_contradictory_batch_is_unsound(self, monkeypatch, case):
        deciders, condition = CONTRADICTORY_BATCHES[case]
        for name, decider in deciders.items():
            monkeypatch.setattr(conditions, name, decider)
        with pytest.raises(SoundnessError, match=(
            f"^condition '{condition}' emitted fixations with no common completion$"
        )):
            run_joint(FIG1)

    def test_single_element_instance(self):
        pa, fixations, stats = run_joint(Instance(np.zeros((1, 1))))
        assert stats.percent_fixed == 100.0
        assert fixations == []


def _recorded_run(monkeypatch, inst, cfg=None):
    """run_joint with every dispatched condition recorded with its input."""
    calls = []
    dispatch = conditions._dispatch

    def recording(cond, state):
        calls.append((cond, state.instance, state.pa))
        return dispatch(cond, state)

    monkeypatch.setattr(conditions, "_dispatch", recording)
    _, _, stats = run_joint(inst, cfg)
    monkeypatch.setattr(conditions, "_dispatch", dispatch)
    return calls, stats


def _state(inst, pa):
    return inst.values.tobytes(), pa.ones.tobytes(), pa.zeros.tobytes()


def _n12(alpha, seed=0):
    inst, _ = generate_synthetic(GeneratorConfig(n=12, p_edges=0.5, alpha=alpha, seed=seed))
    return inst


class TestSchedule:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_no_condition_reruns_on_same_input(self, monkeypatch, alpha):
        for seed in range(3):
            calls, _ = _recorded_run(monkeypatch, _n12(alpha, seed))
            keys = [(cond, *_state(inst, pa)) for cond, inst, pa in calls]
            assert len(set(keys)) == len(keys)

    def test_single_pass_runs_given_order_once(self, monkeypatch):
        order = tuple(reversed(DEFAULT_CONDITIONS))
        calls, stats = _recorded_run(
            monkeypatch, _n12(0.5), PipelineConfig(conditions=order, single_pass=True)
        )
        assert tuple(cond for cond, _, _ in calls) == order
        assert stats.rounds == 1
        assert all(rec.skipped == 0 for rec in stats.per_condition.values())

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_tier_zero_settled_before_tier_one(self, monkeypatch, alpha):
        calls, _ = _recorded_run(monkeypatch, _n12(alpha))
        tier_zero = [cond for cond in DEFAULT_CONDITIONS if cond not in TIER_ONE]
        tier_one_calls = [(inst, pa) for cond, inst, pa in calls if cond in TIER_ONE]
        assert tier_one_calls
        for inst, pa in tier_one_calls:
            for cond in tier_zero:
                assert conditions._dispatch(cond, conditions.BoundState(inst, pa)) == []

    def test_tier_one_fixation_resettles_tier_zero(self, monkeypatch):
        calls, stats = _recorded_run(monkeypatch, _n12(0.8, 5))
        assert stats.per_condition[EDGE_JOIN].fixed_one > 0
        for (cond, _, _), (after, _, _) in zip(calls, calls[1:]):
            if cond in TIER_ONE and after not in TIER_ONE:
                assert after == DIRECTED_CUT
        # a fixpoint: every condition's last run saw the final assignment
        final = _state(*calls[-1][1:])
        for cond in DEFAULT_CONDITIONS:
            _, inst, pa = [call for call in calls if call[0] == cond][-1]
            assert _state(inst, pa) == final

    def test_skips_counted_in_fixpoint_mode(self):
        _, _, stats = run_joint(_n12(0.8, 5))
        assert sum(rec.skipped for rec in stats.per_condition.values()) > 0


class TestNanMargin:
    """A NaN margin compares False both ways, so it must never fix."""

    def test_boecker_nan_bound_fixes_nothing(self, monkeypatch):
        inst = _n12(0.1)  # tractable, so bbk-strong-1 and bbk-weak also cut
        pa = PartialAssignment.empty(12)
        runs = (
            lambda: boecker_conditions(inst, pa, 0),
            lambda: boecker_conditions(inst, pa, 1),
            lambda: boecker_weak_condition(inst, pa),
        )
        assert all(run() for run in runs)
        # a NaN tractable optimum, which the lower bound, the settle and the
        # optima all read, and NaN constrained searches for bbk-weak's b = 0
        search, tractable = conditions.local_search_lower_bound, conditions.exact_bounds_tractable

        def nan_opt(instance, assignment):
            state = tractable(instance, assignment)
            if state is not None:
                state.opt = math.nan
            return state

        monkeypatch.setattr(conditions, "exact_bounds_tractable", nan_opt)
        monkeypatch.setattr(
            conditions, "local_search_lower_bound",
            lambda *args, **kwargs: (math.nan, search(*args, **kwargs)[1]),
        )
        cut = []  # the pairs bbk-strong-1 takes a cut for
        optima = bounds.TractableBounds.optima
        monkeypatch.setattr(
            bounds.TractableBounds, "optima",
            lambda self, i, j: cut.append([i, j]) or optima(self, i, j),
        )
        for run in runs:
            assert run() == []
        # a NaN settles nothing: bbk-strong-1 cut every eligible pair
        cut.clear()
        boecker_conditions(inst, pa, 1)
        assert cut == np.argwhere(tractable(inst, pa).eligible).tolist()

    def test_edge_join_nan_energy_fixes_nothing(self, monkeypatch):
        pa = PartialAssignment.empty(FIG1.n)
        assert edge_join_condition(FIG1, pa)
        minimize = conditions.alpha_beta_swap_minimize
        monkeypatch.setattr(conditions, "join_floors", _zero_join_floors)
        monkeypatch.setattr(
            conditions, "alpha_beta_swap_minimize", lambda model: (minimize(model)[0], math.nan)
        )
        assert edge_join_condition(FIG1, pa) == []


def _lifted_assignments(instances):
    out = []
    for inst in instances:
        pa, _, _ = run_joint(inst)
        out.append((pa.ones.tobytes(), pa.zeros.tobytes()))
    return out


def _closed_floor(cap):
    """Edge-cut's cut floor before its first max-flow."""
    floor = conditions._two_hop_flows(cap)
    for k in range(len(cap)):
        conditions._raise_floor(floor, k, k, math.inf)
    return floor


def _zero_join_floors(instance, pa):
    """A join floor that never skips: every energy is nonnegative."""
    return np.zeros((instance.n, instance.n))


def _open_gain_caps(instance, pa, pairs, subsets):
    """Gain caps that never skip a variant whose map may be true."""
    return np.full(len(pairs), math.inf)


def _gates_off(monkeypatch):
    """Replace each gate's bound by a trivially valid one that never skips;
    subset-u's boundary bound stays real, and infinite only on untrue maps."""
    monkeypatch.setattr(conditions, "join_floors", _zero_join_floors)
    monkeypatch.setattr(conditions, "_subset_gain_caps", _open_gain_caps)
    monkeypatch.setattr(conditions, "_two_hop_flows", np.zeros_like)


class TestSoundGates:
    def test_join_energy_floor_below_every_labeling(self):
        rng = np.random.default_rng(20)
        checked = 0
        for trial in range(36):
            n = 3 + trial % 5  # 3..7
            inst = random_instance(rng, n, "pm1" if trial % 3 == 0 else "grid")
            pa = random_closed_pa_any(rng, n)
            pairs = conditions._undecided_pairs(pa)
            floors = join_floors(inst, pa)
            for k in rng.permutation(len(pairs))[:3]:
                i, j = pairs[k]
                model = build_join_energy(inst, pa, i, j)
                floor = floors[i, j]
                others = [p for p in range(n) if p not in (i, j)]
                best = math.inf
                for labels in itertools.product(LABELS, repeat=len(others)):
                    lab = model.initial_labeling()
                    lab[others] = labels
                    best = min(best, model.energy(lab))
                # grid and +-1 values sum exactly, so no slack is needed
                assert best >= floor
                checked += 1
        assert checked > 50

    def test_subset_gain_cap_bounds_exact_gain(self):
        rng = np.random.default_rng(21)
        for trial in range(60):
            n = int(rng.integers(3, 7))
            inst = random_instance(rng, n, "pm1" if trial % 4 == 0 else "grid")
            pa = random_closed_pa_any(rng, n)
            pairs = conditions._undecided_pairs(pa)
            if not pairs:
                continue
            i, j = pairs[int(rng.integers(len(pairs)))]
            extra = [p for p in range(n) if p not in (i, j) and rng.random() < 0.6]
            subset = sorted([i, j, *extra])
            cap = conditions._subset_gain_caps(inst, pa, np.array([[i, j]]), np.array([subset]))[0]
            sub, sub_pa = inst.restrict(subset), pa.restrict(subset)
            si, sj = subset.index(i), subset.index(j)
            opt_one = oracle.solve_exact(sub, sub_pa.with_assignments([(si, sj, 1)])).value
            try:
                opt_zero = oracle.solve_exact(sub, sub_pa.with_assignments([(si, sj, 0)])).value
            except InconsistentAssignmentError:
                assert math.isinf(cap)
                continue
            assert opt_one - opt_zero <= cap
            # the gate's two inequalities hold for the bounds the condition computes
            for variant in (TAU_BOTH, TAU_OUT, TAU_IN):
                _, report = subset_fixation_condition(inst, pa, (i, j), subset, variant)
                _, p10 = tau_loose_sets(variant, frozenset(subset), pa)
                assert report.lb - report.ub <= cap
                assert report.ub_prime >= np.maximum(inst.values, 0.0)[p10].sum()

    @pytest.mark.parametrize("kind", ["grid", "pm1", "raw"])
    def test_boundary_bound_equals_reference(self, kind):
        # on every true map the bound is the reference bound of its flip
        # sets, the loose ones and the sharp ones of any planted y (the
        # tractable optimum and random preorders on U): the same float on
        # grid and +-1 data, the same to rounding on raw data. It is
        # infinite exactly where the cut boundary holds an assigned one.
        rng = np.random.default_rng(30)
        loose = sharp = 0
        for trial in range(120):
            n = 3 + trial % 6  # 3..8
            inst = random_instance(rng, n, kind)
            pa = random_closed_pa_any(rng, n)
            width = int(rng.integers(2, n))  # leaves a boundary
            subsets = np.sort([rng.choice(n, size=width, replace=False) for _ in range(5)])
            rounding = 1e-6 * inst.tolerance if kind == "raw" else 0.0
            for u, row in zip(subsets.tolist(), boundary_bound(inst, pa, subsets)):
                planted = [transitive_closure_matrix(rng.random((width, width)) < 0.3)]
                tractable = exact_bounds_tractable(inst.restrict(u), pa.restrict(u))
                if tractable is not None:
                    planted.append(tractable.y.matrix)
                for variant, bound in zip(conditions.SUBSET_VARIANTS, row):
                    _, p10 = tau_loose_sets(variant, frozenset(u), pa)
                    assert math.isinf(bound) == (p10 & pa.ones).any()
                    bounds_and_trueness = [(
                        reference_boundary_bound(inst, pa, u, variant),
                        tau_trueness_loose(variant, frozenset(u), pa),
                    )]
                    for y in planted:
                        y_full = np.zeros((n, n), dtype=bool)
                        y_full[np.ix_(u, u)] = y
                        y_rel = Relation(y_full, copy=False)
                        bounds_and_trueness.append((
                            reference_boundary_bound(inst, pa, u, variant, y_rel),
                            is_true_to(MapSpec.tau(variant, u, y_rel), pa),
                        ))
                    for k, (want, true) in enumerate(bounds_and_trueness):
                        if true:
                            assert abs(bound - want) <= rounding
                            loose += k == 0
                            sharp += k > 0
        assert loose >= 400 and sharp >= 1000

    def test_boundary_bound_rows_match_one_block(self, monkeypatch):
        # the pass reads all rows at once, a call its own row alone
        rng = np.random.default_rng(33)
        for trial in range(30):
            n = 3 + trial % 10  # 3..12
            inst = random_instance(rng, n, ("grid", "pm1", "raw")[trial % 3])
            pa = random_closed_pa_any(rng, n, 0.3)
            pairs = np.argwhere(~np.eye(n, dtype=bool))
            subsets = conditions._neighbor_subsets(inst, pairs, conditions.SUBSET_NEIGHBORS)
            whole = boundary_bound(inst, pa, subsets)
            rows = [boundary_bound(inst, pa, u[None]) for u in subsets]
            assert np.concatenate(rows).tobytes() == whole.tobytes()
            monkeypatch.setattr(bounds, "SLAB_ENTRIES", 1)  # one subset per slab
            assert boundary_bound(inst, pa, subsets).tobytes() == whole.tobytes()
            monkeypatch.undo()

    @pytest.mark.parametrize("kind", ["grid", "pm1", "raw"])
    def test_subset_gain_caps_match_scalar(self, kind):
        rng = np.random.default_rng(31)
        for trial in range(40):
            n = 2 + trial % 11  # 2..12
            inst = random_instance(rng, n, kind)
            pa = random_closed_pa_any(rng, n, 0.3)
            pairs = np.argwhere(~np.eye(n, dtype=bool))
            subsets = conditions._neighbor_subsets(inst, pairs, conditions.SUBSET_NEIGHBORS)
            caps = conditions._subset_gain_caps(inst, pa, pairs, subsets)
            cap = cut_capacities(inst, pa)
            for (i, j), subset, got in zip(pairs.tolist(), subsets.tolist(), caps.tolist()):
                assert got == min(cap[i, subset].sum(), cap[subset, j].sum())
                one = conditions._subset_gain_caps(inst, pa, np.array([[i, j]]), np.array([subset]))
                assert one.tolist() == [got]

    def test_subset_gates_keep_fixation_lists(self, monkeypatch):
        rng = np.random.default_rng(32)
        cases = []
        for trial in range(45):
            n = 3 + trial % 7  # 3..9
            inst = random_instance(rng, n, ("grid", "pm1", "raw")[trial % 3])
            cases.append((inst, random_closed_pa_any(rng, n, 0.2)))
        calls = []
        condition = conditions.subset_fixation_condition

        def counted(*args, **kwargs):
            calls.append(args[2:5])
            return condition(*args, **kwargs)

        monkeypatch.setattr(conditions, "subset_fixation_condition", counted)
        gated = [subset_fixation_pass(inst, pa) for inst, pa in cases]
        gated_calls = len(calls)
        assert sum(map(len, gated)) >= 20
        _gates_off(monkeypatch)
        calls.clear()
        assert [subset_fixation_pass(inst, pa) for inst, pa in cases] == gated
        assert gated_calls < len(calls)

    def test_cut_floor_below_min_cut(self):
        # raw floats need slack; 2^-10-grid and +-1 capacities sum exactly
        rng = np.random.default_rng(22)
        for trial in range(120):
            kind = ("raw", "raw", "grid", "pm1")[trial % 4]
            n = int(rng.integers(2, 9))
            arcs = rng.random((n, n)) < 0.6
            if kind == "raw":
                cap = np.where(arcs, 10.0 ** rng.uniform(-3, 3, (n, n)), 0.0)
            elif kind == "grid":
                cap = np.where(arcs, rng.integers(1, 4096, (n, n)) / 1024, 0.0)
            else:
                cap = arcs.astype(float)
            cap[rng.random((n, n)) < 0.08] = math.inf
            np.fill_diagonal(cap, 0.0)
            net = FlowNetwork(cap)
            scale = max(1.0, float(cap[np.isfinite(cap)].sum()))
            floor = _closed_floor(cap)
            pairs = list(itertools.permutations(range(n), 2))
            for k in rng.permutation(len(pairs)):
                s, t = pairs[k]
                limit = scale * 10.0 ** rng.uniform(-4, 0)
                conditions._raise_floor(floor, s, t, min_st_cut(net, s, t, limit)[0])
            slack = 1e-9 * scale if kind == "raw" else 0.0
            for s, t in pairs:
                assert floor[s, t] <= min_st_cut(net, s, t)[0] + slack

    @pytest.mark.parametrize("rows", [1, 4])
    def test_cut_floor_slabs_match_one_block(self, monkeypatch, rows):
        rng = np.random.default_rng(25)
        n = 13
        cases = []
        for kind in ("raw", "grid", "pm1"):
            inst = random_instance(rng, n, kind)
            cases.append(cut_capacities(inst, random_closed_pa_any(rng, n, 0.2)))
        whole = [_closed_floor(cap) for cap in cases]
        monkeypatch.setattr(bounds, "SLAB_ENTRIES", rows * n * n)
        for cap, want in zip(cases, whole):
            assert _closed_floor(cap).tobytes() == want.tobytes()

    def test_ego_networks_run_no_edge_cut_flow(self, monkeypatch):
        # widest paths give every pair with a path a floor of at least 1, above
        # every target's -c_ij - tol = 1 - tol; directed-cut fixes the rest
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from ego import ego_edges

        instances = [ingest_ego_network(ego_edges(1000 + k, 5), range(16)) for k in range(16)]
        calls = []

        def counted(net, source, sink, limit=math.inf):
            calls.append((source, sink))
            return min_st_cut(net, source, sink, limit)

        monkeypatch.setattr(conditions, "min_st_cut", counted)
        gated = _lifted_assignments(instances)
        assert calls == []
        _gates_off(monkeypatch)
        assert _lifted_assignments(instances) == gated
        assert calls

    def test_edge_cut_gate_keeps_fixed_set(self, monkeypatch):
        rng = np.random.default_rng(23)
        cases = []
        for trial in range(45):
            n = int(rng.integers(3, 10))
            inst = random_instance(rng, n, ("pm1", "grid", "raw")[trial % 3])
            cases.append((inst, random_closed_pa_any(rng, n, 0.2)))
        reference = [per_pair_edge_cut(inst, pa) for inst, pa in cases]

        def fixed_sets():
            return [{f.pair for f in edge_cut_condition(inst, pa)} for inst, pa in cases]

        assert fixed_sets() == reference
        _gates_off(monkeypatch)
        assert fixed_sets() == reference

    @pytest.mark.parametrize("ensemble", ["raw", "grid", "pm1"])
    def test_gates_keep_lifted_assignment(self, monkeypatch, ensemble):
        if ensemble == "pm1":
            rng = np.random.default_rng(24)
            instances = [random_instance(rng, 8, "pm1") for _ in range(8)]
        else:
            instances = []
            for alpha in (0.1, 0.5, 0.9):
                for seed in range(4):
                    inst, _ = generate_synthetic(
                        GeneratorConfig(n=9, p_edges=0.5, alpha=alpha, seed=seed)
                    )
                    if ensemble == "grid":
                        inst = Instance(np.round(inst.values * 1024) / 1024)
                    instances.append(inst)
        gated = _lifted_assignments(instances)
        _gates_off(monkeypatch)
        assert _lifted_assignments(instances) == gated


def _ensemble_digest(n, conditions, seeds):
    """SHA-256 over the lifted (ones, zeros) of run_joint on seeded raw-float
    instances, alpha-major."""
    cfg = PipelineConfig(conditions=conditions)
    digest = hashlib.sha256()
    for alpha in (0.1, 0.5, 0.9):
        for seed in range(seeds):
            inst, _ = generate_synthetic(GeneratorConfig(n=n, p_edges=0.5, alpha=alpha, seed=seed))
            pa, _, _ = run_joint(inst, cfg)
            digest.update(pa.ones.tobytes() + pa.zeros.tobytes())
    return digest.hexdigest()


class TestPinnedFixations:
    """Exact outputs past the oracle's reach. A change meant to alter
    fixations updates these pins and states both values."""

    def test_default_pipeline_n12(self):
        assert _ensemble_digest(12, DEFAULT_CONDITIONS, 24) == (
            "25a6f9ba46fbc2e9923c12984ffade04a79a58881d96804a9d000b69e8deade3"
        )

    def test_weak_boecker_n10(self):
        assert _ensemble_digest(10, (BBK_WEAK,), 8) == (
            "ce8193b8ff16f4eaedb5dc8de5179c93ce6958c3aae05410c01ae442d47d5603"
        )

    def test_cut_conditions_n30(self):
        assert _ensemble_digest(30, (DIRECTED_CUT, EDGE_CUT), 4) == (
            "fe797b38b499cc9234f32716b8646b9aa6a90493937ef999437f423b2ddb8333"
        )
