import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    completions,
    decided_pairs_bruteforce,
    random_closed_pa_any,
    random_consistent_pa,
    random_instance,
    reference_merge_classes,
    reference_mutual_one_classes,
)
from preopt import Instance
from preopt import oracle
from preopt.relations import (
    InconsistentAssignmentError,
    PartialAssignment,
    Relation,
    _bool_matmul,
    close,
    implied_zeros,
    insert_arc_closed,
    insert_zero_closed,
    is_consistent,
    merge_classes,
    mutual_one_classes,
    transitive_closure,
    transitive_closure_matrix,
)


class TestTransitiveClosure:
    def test_two_chain(self):
        assert transitive_closure({(0, 1), (1, 2)}, 3) == {(0, 1), (1, 2), (0, 2)}

    def test_empty(self):
        assert transitive_closure(set(), 3) == set()

    def test_two_cycle_is_closed(self):
        assert transitive_closure({(0, 1), (1, 0)}, 2) == {(0, 1), (1, 0)}

    def test_superset_and_idempotent(self):
        arcs = {(0, 1), (1, 2), (3, 0)}
        closed = transitive_closure(arcs, 4)
        assert arcs <= closed
        assert transitive_closure(closed, 4) == closed

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            transitive_closure({(0, 5)}, 3)


class TestRelation:
    def test_diagonal_never_stored(self):
        m = np.ones((3, 3), dtype=bool)
        assert not np.diagonal(Relation(m).matrix).any()

    def test_is_transitive(self):
        assert Relation.from_pairs(3, [(0, 1), (1, 2), (0, 2)]).is_transitive()
        assert not Relation.from_pairs(3, [(0, 1), (1, 2)]).is_transitive()

    def test_from_pairs_rejects_diagonal(self):
        with pytest.raises(ValueError):
            Relation.from_pairs(3, [(1, 1)])

    @pytest.mark.parametrize(
        "pair", [(-1, 0), (0, -1), (3, 0), (0, 3), (1, 1)], ids=str
    )
    def test_partial_from_pairs_rejects_invalid_pairs(self, pair):
        # a negative index would wrap around, a diagonal pair would be dropped
        for pairs in ({"one_pairs": [pair]}, {"zero_pairs": [pair]}):
            with pytest.raises(ValueError, match=r"invalid pair \(-?\d, -?\d\) for n=3"):
                PartialAssignment.from_pairs(3, **pairs)

    def test_equality_and_hash(self):
        a = Relation.from_pairs(3, [(0, 1)])
        b = Relation.from_pairs(3, [(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Relation.from_pairs(3, [(1, 0)])

    def test_insert_arc_closed_matches_closure(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            stack = oracle.relation_stack(n)
            m = stack[int(rng.integers(0, stack.shape[0]))].copy()
            free = np.argwhere(~m & ~np.eye(n, dtype=bool))
            if len(free) == 0:
                continue
            p, q = free[int(rng.integers(0, len(free)))]
            out = insert_arc_closed(m, int(p), int(q))
            expected = transitive_closure({(int(a), int(b)) for a, b in np.argwhere(m)} | {(int(p), int(q))}, n)
            assert {(int(a), int(b)) for a, b in np.argwhere(out)} == expected

    def test_bool_matmul_matches_int32_product(self):
        rng = np.random.default_rng(23)
        for n, k, m in [(1, 1, 1), (3, 5, 2), (12, 12, 12), (30, 30, 30), (151, 151, 151)]:
            for density in (0.02, 0.3, 0.9, 1.0):
                a = rng.random((n, k)) < density
                b = rng.random((k, m)) < density
                expected = (a.astype(np.int32) @ b.astype(np.int32)) > 0
                out = _bool_matmul(a, b)
                assert out.dtype == np.bool_ and np.array_equal(out, expected)

    def test_insert_zero_closed_matches_zero_rule(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            pa = random_closed_pa_any(rng, n, float(rng.choice([0.1, 0.3, 0.6])))
            free = np.argwhere(~pa.decided & ~np.eye(n, dtype=bool))
            if len(free) == 0:
                continue
            p, q = (int(e) for e in free[int(rng.integers(0, len(free)))])
            one_zero = np.zeros((n, n), dtype=bool)
            one_zero[p, q] = True
            reach = pa.ones | np.eye(n, dtype=bool)
            expected = pa.zeros | implied_zeros(reach, one_zero)
            assert np.array_equal(insert_zero_closed(pa.ones, pa.zeros, p, q), expected)
            assert np.array_equal(
                expected, close(pa.with_assignments([(p, q, 0)])).zeros
            )


class TestConsistency:
    def test_transitivity_violation(self):
        pa = PartialAssignment.from_pairs(3, one_pairs=[(0, 1), (1, 2)], zero_pairs=[(0, 2)])
        assert not is_consistent(pa)

    def test_empty_domain(self):
        assert is_consistent(PartialAssignment.empty(4))

    def test_reverse_pair_not_implied(self):
        pa = PartialAssignment.from_pairs(3, one_pairs=[(0, 1), (1, 2)], zero_pairs=[(2, 0)])
        assert is_consistent(pa)
        assert completions(pa).shape[0] > 0

    def test_agrees_with_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            reveal = rng.random((n, n)) < 0.4
            values = rng.random((n, n)) < 0.5
            np.fill_diagonal(reveal, False)
            pa = PartialAssignment(reveal & values, reveal & ~values)
            assert is_consistent(pa) == (completions(pa).shape[0] > 0)


class TestClose:
    def test_chain_configuration(self):
        # two 2-chains plus one cross zero: closure adds the chain shortcuts
        # as ones and three more cross pairs as zeros
        pa = PartialAssignment.from_pairs(
            6,
            one_pairs=[(0, 1), (1, 2), (3, 4), (4, 5)],
            zero_pairs=[(4, 1)],
        )
        closed = close(pa)
        assert closed.value(0, 2) == 1 and closed.value(3, 5) == 1
        new_zeros = {(4, 1), (4, 0), (5, 0), (5, 1)}
        assert {(p, q) for p, q in np.argwhere(closed.zeros)} == new_zeros

    def test_empty_unchanged(self):
        pa = PartialAssignment.empty(4)
        assert close(pa) == pa

    def test_inconsistent_rejected(self):
        pa = PartialAssignment.from_pairs(3, one_pairs=[(0, 1), (1, 2)], zero_pairs=[(0, 2)])
        with pytest.raises(InconsistentAssignmentError):
            close(pa)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            pa = random_consistent_pa(rng, int(rng.integers(2, 6)))
            closed = close(pa)
            assert close(closed) == closed
            assert is_consistent(closed)

    def test_matches_bruteforce_decided_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            pa = random_consistent_pa(rng, int(rng.integers(2, 6)), density=0.4)
            closed = close(pa)
            truth = decided_pairs_bruteforce(pa)
            assert np.array_equal(closed.ones, truth.ones)
            assert np.array_equal(closed.zeros, truth.zeros)

    def test_preserves_completions(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            pa = random_consistent_pa(rng, int(rng.integers(2, 6)), density=0.4)
            before = completions(pa)
            after = completions(close(pa))
            assert before.shape == after.shape and (before == after).all()


class TestDecidedBruteforce:
    def test_forced_transitive_pair(self):
        pa = PartialAssignment.from_pairs(3, one_pairs=[(0, 1), (1, 2)])
        truth = decided_pairs_bruteforce(pa)
        assert truth.value(0, 2) == 1

    def test_empty_all_undecided(self):
        truth = decided_pairs_bruteforce(PartialAssignment.empty(2))
        assert truth.num_decided() == 0

    def test_guard_large_n(self):
        with pytest.raises(ValueError):
            decided_pairs_bruteforce(PartialAssignment.empty(7))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_close_properties_hypothesis(seed, n):
    rng = np.random.default_rng(seed)
    pa = random_consistent_pa(rng, n, density=0.5)
    closed = close(pa)
    assert is_consistent(closed)
    assert close(closed) == closed
    # closure only adds decisions
    assert (closed.ones | ~pa.ones).all() and (closed.zeros | ~pa.zeros).all()


class TestMergeClasses:
    def _pa_with_class(self, n, cls):
        pairs = [(p, q) for p in cls for q in cls if p != q]
        return close(PartialAssignment.from_pairs(n, one_pairs=pairs))

    def test_contracted_value_sums(self):
        c = np.zeros((3, 3))
        c[0, 2] = 2.0
        c[1, 2] = -1.0
        inst = Instance(c)
        pa = self._pa_with_class(3, [0, 1])
        merged, _, _, old_to_new = merge_classes(inst, pa, [0, 1])
        class_idx = old_to_new[0]
        assert merged.values[class_idx, old_to_new[2]] == pytest.approx(1.0)

    def test_offset_is_internal_sum(self):
        c = np.zeros((3, 3))
        c[0, 1] = 4.0
        c[1, 0] = 4.0
        inst = Instance(c)
        pa = self._pa_with_class(3, [0, 1])
        _, _, offset, _ = merge_classes(inst, pa, [0, 1])
        assert offset == pytest.approx(8.0)

    def test_precondition_enforced(self):
        inst = Instance(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            merge_classes(inst, PartialAssignment.empty(3), [0, 1])
        with pytest.raises(ValueError):
            merge_classes(inst, self._pa_with_class(3, [0, 1]), [0])

    def test_optimum_conservation(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(3, 7))
            inst = random_instance(rng, n)
            cls = sorted(rng.choice(n, size=2, replace=False).tolist())
            pa = self._pa_with_class(n, cls)
            merged_inst, merged_pa, offset, _ = merge_classes(inst, pa, cls)
            original = oracle.solve_exact(inst, pa).value
            contracted = oracle.solve_exact(merged_inst, merged_pa).value
            assert original == pytest.approx(offset + contracted, abs=1e-12)

    @staticmethod
    def _random_class_pa(rng, n, density):
        """A class of 2..n elements, assigned one inside, plus random pins
        revealed from a preorder that holds it; the result is not closed."""
        cls = sorted(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False).tolist())
        x = rng.random((n, n)) < 0.15
        x[np.ix_(cls, cls)] = True
        x = transitive_closure_matrix(x)
        reveal = rng.random((n, n)) < density
        reveal[np.ix_(cls, cls)] = True
        np.fill_diagonal(reveal, False)
        return PartialAssignment(x & reveal, ~x & reveal), cls

    @pytest.mark.parametrize("kind", ["grid", "pm1", "raw"])
    def test_matches_reference_on_closed_input(self, kind):
        rng = np.random.default_rng(24)
        for _ in range(150):
            n = int(rng.integers(2, 13))
            inst = random_instance(rng, n, kind)
            pa, cls = self._random_class_pa(rng, n, float(rng.uniform(0.1, 0.6)))
            pa = close(pa)
            got = merge_classes(inst, pa, cls)
            want = reference_merge_classes(inst, pa, cls)
            assert got[0].values.tobytes() == want[0].values.tobytes()
            assert got[1].ones.tobytes() == want[1].ones.tobytes()
            assert got[1].zeros.tobytes() == want[1].zeros.tobytes()
            assert got[2] == want[2]
            assert got[3].tobytes() == want[3].tobytes()

    def test_keeps_pins_of_unclosed_input(self):
        # 0 -> 2 with 1 joined to 0 pins 1 -> 2 as well; each costs 5
        c = np.zeros((3, 3))
        c[0, 2] = c[1, 2] = -5.0
        inst = Instance(c)
        pa = PartialAssignment.from_pairs(3, one_pairs=[(0, 1), (1, 0), (0, 2)])
        merged_inst, merged_pa, offset, _ = merge_classes(inst, pa, [0, 1])
        assert merged_pa.value(1, 0) == 1
        assert oracle.solve_exact(inst, pa).value == -10.0
        assert offset + oracle.solve_exact(merged_inst, merged_pa).value == -10.0

    def test_class_pinned_by_the_closure_accepted(self):
        rng = np.random.default_rng(26)
        inst = random_instance(rng, 4)
        pa = PartialAssignment.from_pairs(4, one_pairs=[(0, 1), (1, 2), (2, 0)])
        merged_inst, merged_pa, offset, old_to_new = merge_classes(inst, pa, [0, 1, 2])
        assert old_to_new.tolist() == [1, 1, 1, 0]
        assert oracle.solve_exact(inst, pa).value == pytest.approx(
            offset + oracle.solve_exact(merged_inst, merged_pa).value, abs=1e-12
        )

    def test_optimum_conservation_on_unclosed_input(self):
        rng = np.random.default_rng(25)
        for _ in range(120):
            n = int(rng.integers(3, 7))
            inst = random_instance(rng, n)
            pa, cls = self._random_class_pa(rng, n, float(rng.uniform(0.1, 0.6)))
            merged_inst, merged_pa, offset, _ = merge_classes(inst, pa, cls)
            original = oracle.solve_exact(inst, pa).value
            contracted = oracle.solve_exact(merged_inst, merged_pa).value
            assert original == pytest.approx(offset + contracted, abs=1e-9)

    def test_inconsistent_input_rejected(self):
        pa = PartialAssignment.from_pairs(
            3, one_pairs=[(0, 1), (1, 0), (1, 2)], zero_pairs=[(0, 2)]
        )
        with pytest.raises(InconsistentAssignmentError):
            merge_classes(Instance(np.zeros((3, 3))), pa, [0, 1])

    def test_contraction_order_does_not_matter(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            inst = random_instance(rng, 6)
            pairs = [(0, 1), (1, 0), (2, 3), (3, 2)]
            pa = close(PartialAssignment.from_pairs(6, one_pairs=pairs))
            inst_a, pa_a, off_a, _ = merge_classes(inst, pa, [0, 1])
            inst_ab, pa_ab, off_ab, _ = merge_classes(inst_a, pa_a, mutual_one_classes(pa_a)[0])
            inst_b, pa_b, off_b, _ = merge_classes(inst, pa, [2, 3])
            inst_ba, pa_ba, off_ba, _ = merge_classes(inst_b, pa_b, mutual_one_classes(pa_b)[0])
            assert off_a + off_ab == pytest.approx(off_b + off_ba)
            # same instance up to element relabeling
            assert np.allclose(
                np.sort(inst_ab.values.ravel()), np.sort(inst_ba.values.ravel())
            )
            assert oracle.solve_exact(inst_ab, pa_ab).value == pytest.approx(
                oracle.solve_exact(inst_ba, pa_ba).value
            )


class TestMutualClasses:
    def test_detects_closed_class(self):
        pa = close(PartialAssignment.from_pairs(4, one_pairs=[(0, 1), (1, 0), (2, 3)]))
        assert mutual_one_classes(pa) == [[0, 1]]

    def test_no_classes_in_empty(self):
        assert mutual_one_classes(PartialAssignment.empty(4)) == []

    def test_matches_reference(self):
        rng = np.random.default_rng(25)
        found = 0
        for _ in range(600):
            n = int(rng.integers(2, 13))
            pa = random_closed_pa_any(rng, n, float(rng.choice([0.3, 0.7, 1.0])))
            classes = mutual_one_classes(pa)
            assert repr(classes) == repr(reference_mutual_one_classes(pa))
            assert all(type(p) is int for cls in classes for p in cls)
            found += len(classes)
        assert found >= 100
