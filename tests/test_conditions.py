import hashlib
import itertools
import math

import numpy as np
import pytest

from helpers import (
    per_pair_edge_cut,
    random_closed_pa_any,
    random_instance,
    reference_subset_fixation,
)
from preopt import Instance, PipelineConfig, bounds, conditions, oracle, run_joint
from preopt.conditions import (
    BBK_WEAK,
    DEFAULT_CONDITIONS,
    DIRECTED_CUT,
    EDGE_CUT,
    EDGE_JOIN,
    TIER_ONE,
    boecker_conditions,
    directed_cut_condition,
    edge_cut_condition,
    edge_join_condition,
    subset_fixation_condition,
    subset_fixation_pass,
)
from preopt.energy import LABELS, build_join_energy
from preopt.flow import FlowNetwork, cut_capacities, min_st_cut
from preopt.instance import GeneratorConfig, generate_synthetic
from preopt.maps import TAU_BOTH, TAU_IN, TAU_OUT, tau_loose_sets
from preopt.relations import (
    InconsistentAssignmentError,
    PartialAssignment,
    Relation,
    close,
)

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


class TestBoecker:
    def test_weak_two_element(self):
        inst = two_element_instance(5.0, -1.0)
        fixations = boecker_conditions(inst, PartialAssignment.empty(2), strong=False)
        assert (((0, 1), 1)) in {(f.pair, f.value) for f in fixations}

    def test_strong_requires_strict_inequality(self):
        inst = Instance(np.zeros((3, 3)))
        assert boecker_conditions(inst, PartialAssignment.empty(3), strong=True) == []

    def test_strong_two_element(self):
        inst = two_element_instance(5.0, -1.0)
        fixations = boecker_conditions(inst, PartialAssignment.empty(2), strong=True)
        fixed = {(f.pair, f.value) for f in fixations}
        assert ((0, 1), 1) in fixed and ((1, 0), 0) in fixed

    @pytest.mark.parametrize("strong", [True, False])
    def test_sound_on_ensemble(self, strong):
        rng = np.random.default_rng(4 if strong else 5)
        for _ in range(25):
            n = int(rng.integers(3, 6))
            inst = random_instance(rng, n)
            fixations = boecker_conditions(inst, PartialAssignment.empty(n), strong=strong)
            assert fixations_sound(inst, fixations)


class TestTractableOncePerRun:
    """bbk-strong-1 derives the tractable case once per run, and each pair
    then costs one minimum cut on that case's network."""

    def test_one_derivation_and_direct_margins(self, monkeypatch):
        rng = np.random.default_rng(61)
        rank = np.array([0, 0, 1, 2, 2, 3, 4, 5])
        n = len(rank)
        # positive exactly on the preorder rank[p] <= rank[q]: the sign-greedy
        # relation is that preorder, so the instance is tractable
        magnitude = rng.integers(1, 9, size=(n, n)).astype(float)
        c = np.where(rank[:, None] <= rank[None, :], magnitude, -magnitude)
        np.fill_diagonal(c, 0.0)
        inst = Instance(c)
        pa = close(PartialAssignment.from_pairs(n, one_pairs=[(3, 4)], zero_pairs=[(6, 2)]))
        lb = bounds.local_search_lower_bound(inst, pa)[0]
        opt = float(c[bounds.sign_greedy_relation(inst, pa).matrix].sum())
        net = FlowNetwork(cut_capacities(inst, pa))

        counts = {"sign_greedy_relation": 0, "FlowNetwork": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)

            return wrapper

        for module in (bounds, conditions):
            for name in counts:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        fixations = boecker_conditions(inst, pa, strong=True, bs=(1,))
        assert counts == {"sign_greedy_relation": 1, "FlowNetwork": 1}
        assert len(fixations) >= 5
        for f in fixations:
            i, j = f.pair
            assert f.value == 1 and c[i, j] >= 0.0 and pa.value(i, j) is None
            assert f.margin == max(lb, opt) - (opt - min_st_cut(net, i, j)[0])


class TestSubsetFixation:
    def test_worked_example_small_subset(self):
        fix, report = subset_fixation_condition(
            FIG3, PartialAssignment.empty(4), (0, 1), 1, [0, 1], TAU_BOTH
        )
        assert report.lb == pytest.approx(5.0)
        assert report.ub == pytest.approx(0.0)
        assert report.ub_prime == pytest.approx(4.0)
        assert fix is not None and fix.value == 1

    def test_whole_set_recovers_weak_comparison(self):
        fix, report = subset_fixation_condition(
            FIG3, PartialAssignment.empty(4), (0, 1), 1, range(4), TAU_BOTH,
            exact=False, greedy=False,
        )
        assert report.ub_prime == 0.0
        assert report.lb == pytest.approx(5.0)
        assert report.ub == pytest.approx(6.0)
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
            subset_fixation_condition(FIG3, PartialAssignment.empty(4), (0, 3), 1, [0, 1])


class TestSubsetMapSideFirst:
    """subset_fixation_condition decides the map side before it bounds the
    sub-problem, and fixes exactly what the unconditional body fixes."""

    def test_matches_unconditional_reference(self):
        rng = np.random.default_rng(25)
        fixed = skipped = 0
        for trial in range(48):
            n = 3 + trial % 6  # 3..8
            inst = random_instance(rng, n, ("grid", "pm1", "raw")[trial % 3])
            pa = random_closed_pa_any(rng, n, 0.2)
            pairs = conditions._undecided_pairs(pa)
            if not pairs:
                continue
            i, j = pairs[int(rng.integers(len(pairs)))]
            extra = [p for p in range(n) if p not in (i, j) and rng.random() < 0.5]
            subset = sorted([i, j, *extra])
            for variant, b, exact, greedy in itertools.product(
                (TAU_BOTH, TAU_OUT, TAU_IN), (0, 1), (True, False), (True, False)
            ):
                args = (inst, pa, (i, j), b, subset, variant)
                fix, report = subset_fixation_condition(*args, exact=exact, greedy=greedy)
                ref, ref_report = reference_subset_fixation(*args, exact=exact, greedy=greedy)
                assert fix == ref
                assert report.ub_prime == ref_report.ub_prime
                if report.provenance == "map-side":
                    assert ref is None
                    assert (report.lb, report.ub) == (-math.inf, math.inf)
                    skipped += 1
                else:
                    assert (report.lb, report.ub) == (ref_report.lb, ref_report.ub)
                fixed += fix is not None
        assert fixed >= 20 and skipped >= 500

    def test_gain_cap_skip_at_the_tolerance(self):
        # sub-problem {0, 1}: lb - ub = 5 = the gain cap; the boundary arc
        # 0 -> 2 is the boundary bound, so the margin is 5 - c_02
        outcomes = set()
        for steps in (0.99, 1.0, 1.01, 1.1, 2.0):
            c = np.zeros((3, 3))
            c[0, 1], c[0, 2] = 5.0, 5.0 - steps * 1e-8  # the tolerance is about 1e-8
            inst = Instance(c)
            for exact in (True, False):
                args = (inst, PartialAssignment.empty(3), (0, 1), 1, [0, 1], TAU_BOTH)
                fix, report = subset_fixation_condition(*args, exact=exact)
                assert fix == reference_subset_fixation(*args, exact=exact)[0]
                assert (report.provenance == "map-side") == (fix is None)
                outcomes.add(fix is None)
        assert outcomes == {True, False}

    def test_untrue_map_skips_sub_problem_bounds(self, monkeypatch):
        # the assigned one 0 -> 2 crosses the boundary of {0, 1}
        pa = close(PartialAssignment.from_pairs(4, one_pairs=[(0, 2)]))
        counts = {"local_search_lower_bound": 0, "TriplePackingBound": 0}

        def counted(name, func):
            def wrapper(*a, **kw):
                counts[name] += 1
                return func(*a, **kw)

            return wrapper

        for name in counts:
            monkeypatch.setattr(conditions, name, counted(name, getattr(conditions, name)))
        for b in (0, 1):
            args = (FIG3, pa, (0, 1), b, [0, 1], TAU_BOTH)
            fix, report = subset_fixation_condition(*args, exact=False)
            assert fix is None and report.provenance == "map-side"
            assert report.ub_prime == reference_subset_fixation(*args, exact=False)[1].ub_prime
        assert counts == {"local_search_lower_bound": 0, "TriplePackingBound": 0}


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
            assert opt.count() == 1  # alpha=0 is a unique-optimum regime
            pa, _, stats = run_joint(inst)
            assert stats.percent_fixed == pytest.approx(100.0)
            assert np.array_equal(pa.ones, opt.matrices[0])
            assert opt.contains(truth)

    def test_zero_instance_terminates_immediately(self):
        inst = Instance(np.zeros((4, 4)))
        pa, fixations, stats = run_joint(inst)
        assert fixations == []
        assert stats.rounds == 1
        assert stats.percent_fixed == 0.0

    def test_fig1_final_assignment_admits_optimum(self):
        pa, _, stats = run_joint(FIG1)
        depicted = Relation.from_pairs(5, [(0, 1), (1, 0), (0, 3), (1, 3), (2, 3), (2, 4)])
        assert pa.agrees_with(depicted)
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

    def test_single_element_instance(self):
        pa, fixations, stats = run_joint(Instance(np.zeros((1, 1))))
        assert stats.percent_fixed == 100.0
        assert fixations == []


def _recorded_run(monkeypatch, inst, cfg=None):
    """run_joint with every dispatched condition recorded with its input."""
    calls = []
    dispatch = conditions._dispatch

    def recording(cond, instance, pa):
        calls.append((cond, instance, pa))
        return dispatch(cond, instance, pa)

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
                assert conditions._dispatch(cond, inst, pa) == []

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
        inst = _n12(0.1)
        assert boecker_conditions(inst, PartialAssignment.empty(12), bs=(0,))
        monkeypatch.setattr(conditions, "_pair_bounds", lambda *args: (math.nan, 0.0))
        for strong in (True, False):
            assert boecker_conditions(inst, PartialAssignment.empty(12), strong=strong) == []

    def test_edge_join_nan_energy_fixes_nothing(self, monkeypatch):
        pa = PartialAssignment.empty(FIG1.n)
        assert edge_join_condition(FIG1, pa)
        minimize = conditions.alpha_beta_swap_minimize
        monkeypatch.setattr(conditions, "_join_energy_floor", lambda model: 0.0)
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


def _gates_off(monkeypatch):
    """Replace each gate's bound by a trivially valid one that never skips."""
    monkeypatch.setattr(conditions, "_join_energy_floor", lambda model: 0.0)
    monkeypatch.setattr(conditions, "_subset_gain_cap", lambda cap, i, j, subset: math.inf)
    monkeypatch.setattr(conditions, "_two_hop_flow", lambda cap, i, j: 0.0)


class TestSoundGates:
    def test_join_energy_floor_below_every_labeling(self):
        rng = np.random.default_rng(20)
        checked = 0
        for trial in range(36):
            n = 3 + trial % 5  # 3..7
            inst = random_instance(rng, n, "pm1" if trial % 3 == 0 else "grid")
            pa = random_closed_pa_any(rng, n)
            pairs = conditions._undecided_pairs(pa)
            for k in rng.permutation(len(pairs))[:3]:
                i, j = pairs[k]
                model = build_join_energy(inst, pa, i, j)
                floor = conditions._join_energy_floor(model)
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
            cap = conditions._subset_gain_cap(cut_capacities(inst, pa), i, j, subset)
            sub, sub_pa = inst.restrict(subset), pa.restrict(subset)
            si, sj = subset.index(i), subset.index(j)
            opt_one = oracle.constrained_optimum(sub, sub_pa, (si, sj), 1).value
            try:
                opt_zero = oracle.constrained_optimum(sub, sub_pa, (si, sj), 0).value
            except InconsistentAssignmentError:
                assert math.isinf(cap)
                continue
            assert opt_one - opt_zero <= cap
            # the gate's two inequalities hold for the bounds the condition computes
            for variant in (TAU_BOTH, TAU_OUT, TAU_IN):
                _, report = subset_fixation_condition(inst, pa, (i, j), 1, subset, variant)
                _, p10 = tau_loose_sets(variant, frozenset(subset), pa)
                assert report.lb - report.ub <= cap
                assert report.ub_prime >= inst.c_plus[p10].sum()

    def test_two_hop_flow_below_min_cut(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            cap = np.where(rng.random((n, n)) < 0.6, 10.0 ** rng.uniform(-3, 3, (n, n)), 0.0)
            cap[rng.random((n, n)) < 0.08] = math.inf
            np.fill_diagonal(cap, 0.0)
            net = FlowNetwork(cap)
            scale = max(1.0, float(cap[np.isfinite(cap)].sum()))
            for s, t in itertools.permutations(range(n), 2):
                value, _ = min_st_cut(net, s, t)
                assert conditions._two_hop_flow(cap, s, t) <= value + 1e-9 * scale

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
