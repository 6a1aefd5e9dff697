import numpy as np
import pytest
from sympy.functions.combinatorial.numbers import stirling

from helpers import bruteforce_relation_stack, random_instance
from preopt import Instance
from preopt.oracle import (
    MAX_ORACLE_N,
    certify,
    completion_mask,
    relation_stack,
    solve_exact,
)
from preopt.relations import (
    InconsistentAssignmentError,
    PartialAssignment,
    Relation,
)

KNOWN_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942, 6: 209527}


class TestEnumeration:
    def test_single_element(self):
        assert relation_stack(1).shape[0] == 1

    def test_two_elements_unconstrained(self):
        assert relation_stack(2).shape[0] == 4

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_direct_filtering(self, n):
        ours = {Relation(m).encode() for m in relation_stack(n)}
        direct = {Relation(m).encode() for m in bruteforce_relation_stack(n)}
        assert ours == direct
        assert len(ours) == KNOWN_COUNTS[n]

    def test_all_transitive_and_unique(self):
        for n in range(1, MAX_ORACLE_N + 1):
            stack = relation_stack(n)
            encodings = set()
            sample = stack if n < 6 else stack[:: max(1, len(stack) // 500)]
            for m in sample:
                rel = Relation(m)
                assert rel.is_transitive()
                encodings.add(rel.encode())
            assert len(encodings) == len(sample)
            assert stack.shape[0] == KNOWN_COUNTS[n]

    def test_partition_poset_identity_for_six(self):
        # every preorder is a partition into classes plus a strict partial
        # order on the quotient, so the counts must satisfy the convolution
        # with Stirling numbers; poset counts up to 5 come from the
        # independent direct filter
        def poset_count(k):
            if k <= 5:
                stack = bruteforce_relation_stack(k) if k >= 2 else relation_stack(k)
            else:
                stack = relation_stack(k)
            anti = ~(stack & stack.transpose(0, 2, 1)).any(axis=(1, 2))
            return int(anti.sum())

        total = sum(int(stirling(6, k, kind=2)) * poset_count(k) for k in range(1, 7))
        assert total == relation_stack(6).shape[0]

    def test_guard_large_n(self):
        with pytest.raises(ValueError):
            relation_stack(7)


class TestSolveExact:
    def test_five_element_example_optimum(self):
        c = np.array(
            [
                [0, 2, -1, -1, -1],
                [2, 0, -1, 2, -1],
                [-4, -4, 0, 3, 2],
                [1, 1, -1, 0, -1],
                [-1, -1, 1, -2, 0],
            ],
            dtype=float,
        )
        opt = solve_exact(Instance(c))
        assert opt.value == pytest.approx(10.0)
        depicted = Relation.from_pairs(5, [(0, 1), (1, 0), (0, 3), (1, 3), (2, 3), (2, 4)])
        assert (opt.matrices == depicted.matrix).all(axis=(1, 2)).any()

    def test_two_element(self):
        c = np.zeros((2, 2))
        c[0, 1] = 5.0
        c[1, 0] = -1.0
        opt = solve_exact(Instance(c))
        assert opt.value == 5.0
        assert opt.matrices.shape[0] == 1
        assert opt.matrices[0][0, 1] and not opt.matrices[0][1, 0]

    def test_fully_fixed_assignment(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, 4)
        x = Relation.from_pairs(4, [(0, 1), (2, 3)])
        pa = PartialAssignment(x.matrix, ~x.matrix)
        opt = solve_exact(inst, pa)
        assert opt.matrices.shape[0] == 1
        assert opt.value == pytest.approx(float(inst.values[x.matrix].sum()))

    def test_inconsistent_assignment_rejected(self):
        pa = PartialAssignment.from_pairs(3, one_pairs=[(0, 1), (1, 2)], zero_pairs=[(0, 2)])
        with pytest.raises(InconsistentAssignmentError):
            solve_exact(Instance(np.zeros((3, 3))), pa)

    def test_constrained_optimum(self):
        c = np.zeros((2, 2))
        c[0, 1] = 5.0
        opt = solve_exact(Instance(c), PartialAssignment.from_pairs(2, zero_pairs=[(0, 1)]))
        assert opt.value == 0.0


class TestCertify:
    def test_empty_assignment_always_certified(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(2, 6)))
            assert certify(inst, PartialAssignment.empty(inst.n))

    def test_optimal_arc_fixation_certified(self):
        c = np.zeros((2, 2))
        c[0, 1] = 5.0
        c[1, 0] = -1.0
        inst = Instance(c)
        assert certify(inst, PartialAssignment.from_pairs(2, one_pairs=[(0, 1)]))

    def test_suboptimal_fixation_rejected(self):
        c = np.zeros((2, 2))
        c[0, 1] = 5.0
        c[1, 0] = -1.0
        inst = Instance(c)
        assert not certify(inst, PartialAssignment.from_pairs(2, zero_pairs=[(0, 1)]))
        assert not certify(inst, PartialAssignment.from_pairs(2, one_pairs=[(1, 0)]))

    def test_assignment_size_must_match(self):
        inst = random_instance(np.random.default_rng(3), 3)
        for pa in (PartialAssignment.empty(4), PartialAssignment.from_pairs(4, one_pairs=[(0, 3)])):
            with pytest.raises(ValueError, match="assignment size does not match instance"):
                certify(inst, pa)

    def test_completion_mask_selects_agreeing_rows(self):
        stack = relation_stack(3)
        pa = PartialAssignment.from_pairs(3, one_pairs=[(0, 1)], zero_pairs=[(1, 2)])
        mask = completion_mask(stack, pa)
        assert mask.any()
        for m in stack[mask]:
            assert m[0, 1] and not m[1, 2]
