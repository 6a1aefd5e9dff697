import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    agrees_with,
    apply_map,
    completions,
    dense_triple_table,
    packing_total,
    random_closed_pa,
    random_closed_pa_any,
    random_instance,
    reference_boundary_bound,
    reference_greedy_fixation,
    reference_greedy_insertion,
    scalar_exclusion_bound,
    scalar_induced_value,
)
from preopt import Instance, bounds, evaluate, ingest_ego_network, oracle
from preopt.bounds import (
    SUBSET_VARIANTS,
    TriplePackingBound,
    arc_max_values,
    boundary_bound,
    exact_bounds_tractable,
    induced_value,
    local_search_lower_bound,
    sign_greedy_relation,
)
from preopt.maps import TAU_BOTH, TAU_IN, TAU_OUT, MapSpec, is_true_to
from preopt.relations import InconsistentAssignmentError, PartialAssignment, Relation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def constrained_max(inst, pa, pair, value):
    stack = completions(pa.with_assignments([(pair[0], pair[1], value)]))
    scores = stack.reshape(stack.shape[0], -1).astype(float) @ inst.values.ravel()
    return scores.max() if len(scores) else -math.inf


class TestLocalSearch:
    def test_all_negative_yields_empty_witness(self):
        c = -np.ones((4, 4))
        np.fill_diagonal(c, 0.0)
        inst = Instance(c)
        value, witness = local_search_lower_bound(inst, PartialAssignment.empty(4))
        assert value == 0.0 and witness.count() == 0

    def test_bounded_by_optimum(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            inst = random_instance(rng, n)
            pa = random_closed_pa(rng, n)
            value, witness = local_search_lower_bound(inst, pa)
            assert witness.is_transitive()
            assert agrees_with(pa, witness)
            assert evaluate(inst, witness) == pytest.approx(value)
            assert value <= oracle.solve_exact(inst, pa).value + 1e-12

    def test_forced_arc_constraint(self):
        c = np.zeros((2, 2))
        c[0, 1] = -3.0
        c[1, 0] = 2.0
        inst = Instance(c)
        value, witness = local_search_lower_bound(
            inst, PartialAssignment.empty(2), ((0, 1), 1)
        )
        assert witness.matrix[0, 1]
        assert value == pytest.approx(-3.0 + 2.0)

    def test_constraint_respected(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(3, 6))
            inst = random_instance(rng, n)
            pa = random_closed_pa(rng, n)
            undecided = [
                (p, q) for p in range(n) for q in range(n)
                if p != q and pa.value(p, q) is None
            ]
            if not undecided:
                continue
            pair = undecided[int(rng.integers(0, len(undecided)))]
            b = int(rng.integers(0, 2))
            value, witness = local_search_lower_bound(inst, pa, (pair, b))
            assert witness.matrix[pair] == bool(b)
            assert value <= constrained_max(inst, pa, pair, b) + 1e-12

    def test_inconsistent_constraint_rejected(self):
        pa = PartialAssignment.from_pairs(3, zero_pairs=[(0, 1)])
        inst = Instance(np.zeros((3, 3)))
        with pytest.raises(InconsistentAssignmentError):
            local_search_lower_bound(inst, pa, ((0, 1), 1))

    def test_invalid_constraint_pair_rejected(self):
        # (-1, 0) would wrap around to (2, 0), (-1, 2) to the diagonal; with
        # (2, 0) assigned zero, a wrapped (-1, 0) would read as contradicted
        inst = Instance(np.zeros((3, 3)))
        empty = PartialAssignment.empty(3)
        zero_20 = PartialAssignment.from_pairs(3, zero_pairs=[(2, 0)])
        for pa in (empty, zero_20):
            for pair in ((-1, 0), (0, -1), (-1, 2), (0, 3), (3, 0), (3, 3), (-1, -1)):
                with pytest.raises(ValueError, match="invalid pair"):
                    local_search_lower_bound(inst, pa, (pair, 1))

    @pytest.mark.parametrize("kind", ["grid", "pm1", "raw"])
    def test_greedy_matches_reference(self, kind):
        rng = np.random.default_rng(26)
        for n in range(2, 13):
            for density in (0.0, 0.2, 0.5):
                inst = random_instance(rng, n, kind)
                base = random_closed_pa_any(rng, n, density)
                inserted = bounds._greedy_insertion(inst, base)
                fixed = bounds._greedy_fixation(inst, base)
                ref_inserted = reference_greedy_insertion(inst, base)
                ref_fixed = reference_greedy_fixation(inst, base)
                assert inserted.dtype == fixed.dtype == np.bool_
                assert inserted.tobytes() == ref_inserted.tobytes()
                assert fixed.tobytes() == ref_fixed.tobytes()
                # the witness and bound local search picks from them
                candidates = [Relation(m) for m in (base.ones, ref_inserted, ref_fixed)]
                values = [evaluate(inst, x) for x in candidates]
                best = int(np.argmax(values))
                value, witness = local_search_lower_bound(inst, base)
                assert value == values[best] and witness == candidates[best]


class TestInducedValue:
    def test_two_elements_exclusion(self):
        c = np.zeros((2, 2))
        c[0, 1] = 3.0
        c[1, 0] = 2.0
        inst = Instance(c)
        pa = PartialAssignment.empty(2)
        assert induced_value(inst, pa, 0)[0, 1] == pytest.approx(2.0)  # only c_ba+

    def test_two_elements_inclusion(self):
        c = np.zeros((2, 2))
        c[0, 1] = 3.0
        c[1, 0] = -2.0
        inst = Instance(c)
        pa = PartialAssignment.empty(2)
        assert induced_value(inst, pa, 1)[0, 1] == pytest.approx(3.0)  # c_ab + c_ba+

    def test_decided_pair_rejected(self):
        # a decided pair, and the diagonal, get no bound: NaN
        inst = Instance(np.zeros((2, 2)))
        pa = PartialAssignment.from_pairs(2, one_pairs=[(0, 1)])
        for b in (0, 1):
            values = induced_value(inst, pa, b)
            assert np.isnan(values[0, 1]) and np.isnan(np.diagonal(values)).all()
            assert values[1, 0] == 0.0

    @pytest.mark.parametrize(
        "ones, zeros, b",
        [([(0, 1), (1, 2)], [], 0), ([(1, 2)], [(0, 2)], 1)],
    )
    def test_infeasible_term_raises(self, ones, zeros, b):
        # unclosed assignments: x_01 = x_12 = 1 admit no x_02 = 0, and
        # x_12 = 1 with x_02 = 0 admits no x_01 = 1
        pa = PartialAssignment.from_pairs(3, one_pairs=ones, zero_pairs=zeros)
        with pytest.raises(InconsistentAssignmentError):
            induced_value(Instance(np.zeros((3, 3))), pa, b)

    @pytest.mark.parametrize("kind", ["grid", "pm1"])
    def test_matches_scalar_reference(self, kind):
        rng = np.random.default_rng(37)
        for _ in range(60):
            n = int(rng.integers(3, 9))
            inst = random_instance(rng, n, kind=kind)
            pa = random_closed_pa_any(rng, n)
            undecided = ~pa.decided
            np.fill_diagonal(undecided, False)
            for b in (0, 1):
                values = induced_value(inst, pa, b)
                assert np.isnan(values[~undecided]).all()
                for i, j in np.argwhere(undecided):
                    assert values[i, j] == scalar_induced_value(inst, pa, i, j, b)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_slabs_match_one_block(self, monkeypatch, rows):
        rng = np.random.default_rng(47)
        n = 7
        inst = random_instance(rng, n)
        pa = random_closed_pa_any(rng, n)
        whole = [induced_value(inst, pa, b) for b in (0, 1)]
        monkeypatch.setattr(bounds, "SLAB_ENTRIES", rows * n * n)
        for b in (0, 1):
            assert np.array_equal(induced_value(inst, pa, b), whole[b], equal_nan=True)

    def test_memory_stays_quadratic(self):
        # one dense (n, n, n) float64 array at n = 150 takes 27 MB
        n = 150
        inst = random_instance(np.random.default_rng(41), n, kind="pm1")
        pa = PartialAssignment.empty(n)
        for b in (0, 1):
            tracemalloc.start()
            try:
                induced_value(inst, pa, b)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < n**3 * 8

    def test_dominates_incident_maxima(self):
        rng = np.random.default_rng(7)
        for _ in range(80):
            n = 5
            inst = random_instance(rng, n)
            pa = random_closed_pa(rng, n, density=0.25)
            undecided = [
                (p, q) for p in range(n) for q in range(n)
                if p != q and pa.value(p, q) is None
            ]
            if not undecided:
                continue
            i, j = undecided[int(rng.integers(0, len(undecided)))]
            for b in (0, 1):
                stack = completions(pa.with_assignments([(i, j, b)]))
                incident = np.zeros((n, n), dtype=bool)
                incident[i, :] = incident[:, i] = incident[j, :] = incident[:, j] = True
                np.fill_diagonal(incident, False)
                best = max(
                    float(inst.values[m & incident].sum()) for m in stack
                )
                assert induced_value(inst, pa, b)[i, j] >= best - 1e-12


class TestTriplePackingBound:
    def test_empty_packing_reduces_to_termwise(self):
        c = np.zeros((2, 2))
        c[0, 1] = 2.0
        c[1, 0] = -1.0
        inst = Instance(c)
        pa = PartialAssignment.from_pairs(2, one_pairs=[(1, 0)])
        # no triples on 2 elements; bound = c_01+ + c_10 * 1
        assert packing_total(inst, pa, TriplePackingBound(inst, pa)) == pytest.approx(2.0 - 1.0)

    def test_single_triangle_max(self):
        c = np.zeros((3, 3))
        c[0, 1] = 1.0
        c[1, 2] = 1.0
        c[0, 2] = -1.0
        inst = Instance(c)
        pa = PartialAssignment.empty(3)
        # termwise gives 2; the triangle constraint caps pq+qr at 1 with pr
        # free, and the packed triple tightens the bound to 1
        assert packing_total(inst, pa, TriplePackingBound(inst, pa)) == pytest.approx(1.0)

    def test_dominates_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(3, 6))
            inst = random_instance(rng, n)
            pa = random_closed_pa(rng, n, density=0.2)
            bound = packing_total(inst, pa, TriplePackingBound(inst, pa))
            assert bound >= oracle.solve_exact(inst, pa).value - 1e-12

    def test_excluding_matches_restricted(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = 5
            inst = random_instance(rng, n)
            pa = random_closed_pa(rng, n, density=0.2)
            helper = TriplePackingBound(inst, pa)
            i, j = 1, 3
            fast = helper.excluding[i, j]
            elements = [p for p in range(n) if p not in (i, j)]
            stack = completions(pa)
            region = np.zeros((n, n), dtype=bool)
            region[np.ix_(elements, elements)] = True
            np.fill_diagonal(region, False)
            best = max(float(inst.values[m & region].sum()) for m in stack)
            assert fast >= best - 1e-12

    @pytest.mark.parametrize("kind", ["grid", "pm1"])
    def test_excluding_matches_scalar_reference(self, kind):
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(3, 9))
            inst = random_instance(rng, n, kind=kind)
            pa = random_closed_pa_any(rng, n, density=0.2)
            packing = TriplePackingBound(inst, pa)
            assert np.isnan(np.diagonal(packing.excluding)).all()
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert packing.excluding[i, j] == scalar_exclusion_bound(
                            inst, pa, packing, i, j
                        )

    @staticmethod
    def _table_cases():
        rng = np.random.default_rng(53)
        for n in range(1, 13):
            for kind in ("grid", "pm1", "raw"):
                yield random_instance(rng, n, kind=kind), random_closed_pa_any(rng, n)
        # unclosed: the pins force (1, 1, 0) on the triple (0, 1, 2), which
        # then has no feasible value
        pa = PartialAssignment.from_pairs(4, one_pairs=[(0, 1), (1, 2)], zero_pairs=[(0, 2)])
        yield random_instance(rng, 4), pa

    # the infeasible triple's -inf reaches the exclusion bounds as -inf - -inf
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("rows", [None, 1, 3])
    def test_table_matches_dense_reference(self, monkeypatch, rows):
        def improving_reference(inst, pa):
            triples, tri_sum, tri_max = dense_triple_table(inst, pa)
            keep = tri_sum - tri_max > 0.0
            return triples[keep], tri_sum[keep], tri_max[keep]

        infeasible = 0
        for inst, pa in self._table_cases():
            n = inst.n
            expected = improving_reference(inst, pa)
            with monkeypatch.context() as patch:
                patch.setattr(bounds, "_triple_table", improving_reference)
                reference = TriplePackingBound(inst, pa)
            with monkeypatch.context() as patch:
                if rows is not None:
                    patch.setattr(bounds, "SLAB_ENTRIES", rows * n * n)
                table = bounds._triple_table(inst, pa)
                packing = TriplePackingBound(inst, pa)
            for got, want in zip(table, expected):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            infeasible += int(np.isneginf(table[2]).sum())
            assert packing.triples == reference.triples
            assert np.array(packing.tri_max).tobytes() == np.array(reference.tri_max).tobytes()
            assert np.isnan(np.diagonal(packing.excluding)).all()
            assert packing.excluding.tobytes() == reference.excluding.tobytes()
        assert infeasible == 1

    def test_table_memory_stays_quadratic(self, monkeypatch):
        # one dense (n, n, n) float64 array at n = 151 takes 27.5 MB; an ego
        # network improves few triples, so the table stays far below that
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from ego import ego_edges

        n = 151
        inst = ingest_ego_network(ego_edges(12, 50), range(n))
        tracemalloc.start()
        try:
            TriplePackingBound(inst, PartialAssignment.empty(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n**3 * 8

    def test_arc_max_values(self):
        c = np.zeros((2, 2))
        c[0, 1] = 3.0
        c[1, 0] = -2.0
        inst = Instance(c)
        pa = PartialAssignment.from_pairs(2, one_pairs=[(1, 0)])
        m = arc_max_values(inst, pa)
        assert m[0, 1] == 3.0 and m[1, 0] == -2.0


class TestTractableBounds:
    def test_two_element_example(self):
        c = np.zeros((2, 2))
        c[0, 1] = 2.0
        c[1, 0] = 3.0
        inst = Instance(c)
        pa = PartialAssignment.empty(2)
        tractable = exact_bounds_tractable(inst, pa)
        assert tractable is not None
        opt, opt_cut = tractable.optima(0, 1)
        assert opt == pytest.approx(5.0)
        assert opt_cut == pytest.approx(3.0)

    def test_all_nonnegative_always_applicable(self):
        rng = np.random.default_rng(17)
        c = rng.random((5, 5))
        np.fill_diagonal(c, 0.0)
        inst = Instance(c)
        tractable = exact_bounds_tractable(inst, PartialAssignment.empty(5))
        assert tractable is not None
        assert tractable.optima(0, 1)[0] == pytest.approx(c.sum())

    def test_matches_oracle_when_applicable(self):
        rng = np.random.default_rng(19)
        found = 0
        while found < 60:
            n = int(rng.integers(2, 6))
            inst = random_instance(rng, n)
            pa = random_closed_pa(rng, n, density=0.2)
            pairs = [
                (p, q) for p in range(n) for q in range(n)
                if p != q and pa.value(p, q) is None and inst.values[p, q] >= 0
            ]
            if not pairs:
                continue
            pair = pairs[int(rng.integers(0, len(pairs)))]
            tractable = exact_bounds_tractable(inst, pa)
            if tractable is None:
                continue
            found += 1
            opt_one, opt_zero = tractable.optima(*pair)
            assert opt_one == pytest.approx(constrained_max(inst, pa, pair, 1), abs=1e-9)
            assert opt_zero == pytest.approx(constrained_max(inst, pa, pair, 0), abs=1e-9)

    def test_precondition_errors(self):
        c = np.zeros((2, 2))
        c[0, 1] = -1.0
        inst = Instance(c)
        with pytest.raises(ValueError):
            exact_bounds_tractable(inst, PartialAssignment.empty(2)).optima(0, 1)
        pa = PartialAssignment.from_pairs(2, one_pairs=[(1, 0)])
        with pytest.raises(ValueError):
            exact_bounds_tractable(Instance(np.zeros((2, 2))), pa).optima(1, 0)

    def test_diagonal_pair_not_eligible(self):
        tractable = exact_bounds_tractable(Instance(np.zeros((3, 3))), PartialAssignment.empty(3))
        assert tractable.eligible.tolist() == (~np.eye(3, dtype=bool)).tolist()
        for p in range(3):
            with pytest.raises(ValueError, match="tractable bounds need"):
                tractable.optima(p, p)


class TestBoundaryBound:
    def test_whole_set_has_zero_boundary(self):
        rng = np.random.default_rng(23)
        inst = random_instance(rng, 4)
        pa = PartialAssignment.empty(4)
        assert boundary_bound(inst, pa, np.array([range(4)])).tolist() == [[0.0, 0.0, 0.0]]
        assert reference_boundary_bound(inst, pa, range(4), TAU_BOTH) == 0.0

    def test_worked_example_value(self):
        c = np.zeros((4, 4))
        c[0, 1] = 5.0
        c[0, 2] = c[0, 3] = c[1, 2] = c[1, 3] = 1.0
        c[2, 3] = 2.0
        inst = Instance(c)
        pa = PartialAssignment.empty(4)
        row = boundary_bound(inst, pa, np.array([[0, 1]]))[0]
        assert row[SUBSET_VARIANTS.index(TAU_BOTH)] == pytest.approx(4.0)
        assert reference_boundary_bound(inst, pa, [0, 1], TAU_BOTH) == pytest.approx(4.0)

    @pytest.mark.parametrize("variant", [TAU_OUT, TAU_IN, TAU_BOTH])
    def test_dominates_actual_regret(self, variant):
        # the reference bounds every map; the library's bounds the true ones
        rng = np.random.default_rng(29)
        n = 5
        trials = true_maps = 0
        while trials < 40:
            inst = random_instance(rng, n)
            pa = random_closed_pa(rng, n, density=0.2)
            subset = sorted(
                int(p) for p in np.flatnonzero(rng.random(n) < 0.5)
            )
            if not 0 < len(subset) < n:
                continue
            sub_pa = pa.restrict(subset)
            sub_inst = inst.restrict(subset)
            sub_opt = oracle.solve_exact(sub_inst, sub_pa)
            y_full = np.zeros((n, n), dtype=bool)
            y_full[np.ix_(subset, subset)] = sub_opt.matrices[0]
            y = Relation(y_full)
            trials += 1
            inside = np.zeros(n, dtype=bool)
            inside[subset] = True
            delta = np.outer(inside, ~inside) | np.outer(~inside, inside)
            spec = MapSpec.tau(variant, subset, y)
            loose = reference_boundary_bound(inst, pa, subset, variant)
            sharp = reference_boundary_bound(inst, pa, subset, variant, y)
            assert sharp <= loose + 1e-12
            bound = boundary_bound(inst, pa, np.array([subset]))[0, SUBSET_VARIANTS.index(variant)]
            true = is_true_to(spec, pa)
            true_maps += true
            for m in completions(pa):
                out = apply_map(spec, Relation(m)).matrix
                regret = float(
                    (inst.values * (m.astype(float) - out.astype(float)))[delta].sum()
                )
                assert regret <= loose + 1e-9
                assert regret <= sharp + 1e-9
                if true:
                    assert regret <= bound + 1e-9
        assert true_maps >= 10


class TestSignGreedy:
    def test_respects_assignment(self):
        rng = np.random.default_rng(31)
        inst = random_instance(rng, 5)
        pa = random_closed_pa(rng, 5)
        x = sign_greedy_relation(inst, pa)
        assert agrees_with(pa, x)
