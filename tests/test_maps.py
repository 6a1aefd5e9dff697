import functools

import numpy as np
import pytest

from helpers import (
    agrees_with,
    apply_dicut,
    apply_join,
    apply_map,
    completions,
    dicut_is_true,
    random_closed_pa,
)
from preopt import oracle
from preopt.maps import (
    TAU_BOTH,
    TAU_IN,
    TAU_OUT,
    MapSpec,
    change_sets,
    is_true_to,
    tau_loose_sets,
    tau_trueness_loose,
)
from preopt.relations import PartialAssignment, Relation


def reference_tau(variant, subset, y, x):
    """Case-by-case tau per its definition, with the implicit diagonal."""
    n = x.n
    u = set(subset)
    xm = x.matrix
    ym = y.matrix

    def aug(m, p, q):
        return True if p == q else bool(m[p, q])

    out = np.zeros((n, n), dtype=bool)
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            if p in u and q in u:
                out[p, q] = ym[p, q]
            elif p not in u and q not in u:
                out[p, q] = xm[p, q]
            elif p in u:  # out-boundary
                if variant == TAU_OUT or variant == TAU_BOTH:
                    out[p, q] = False
                else:
                    out[p, q] = any(aug(ym, p, r) and aug(xm, r, q) for r in u)
            else:  # in-boundary
                if variant == TAU_IN or variant == TAU_BOTH:
                    out[p, q] = False
                else:
                    out[p, q] = any(aug(xm, p, r) and aug(ym, r, q) for r in u)
    return Relation(out)


def random_subset(rng, n, allow_empty=False):
    while True:
        mask = rng.random(n) < 0.5
        if allow_empty or (mask.any() and not mask.all()):
            return frozenset(int(p) for p in np.flatnonzero(mask))


class TestDicutMap:
    def test_complete_two_elements(self):
        out = apply_dicut(Relation(np.ones((2, 2), dtype=bool)), {0})
        assert not out.matrix[0, 1] and out.matrix[1, 0]

    def test_identity_when_boundary_empty(self):
        x = Relation.from_pairs(3, [(1, 0), (2, 0)])
        assert apply_dicut(x, {0}) == x

    def test_preserves_transitivity_exhaustively(self):
        rng = np.random.default_rng(1)
        stack = oracle.relation_stack(4)
        for _ in range(30):
            subset = random_subset(rng, 4, allow_empty=True)
            for m in stack:
                assert apply_dicut(Relation(m), subset).is_transitive()

    def test_monotone_decrease_only_on_boundary(self):
        rng = np.random.default_rng(2)
        stack = oracle.relation_stack(4)
        subset = frozenset({0, 2})
        mask = np.zeros((4, 4), dtype=bool)
        for p in subset:
            for q in range(4):
                if q not in subset:
                    mask[p, q] = True
        for m in stack[rng.integers(0, len(stack), size=60)]:
            out = apply_dicut(Relation(m), subset)
            assert not out.matrix[mask].any()
            assert np.array_equal(out.matrix[~mask], m[~mask])


class TestJoinMap:
    def test_join_on_empty_relation(self):
        out = apply_join(Relation.empty(3), 0, 1)
        assert np.argwhere(out.matrix).tolist() == [[0, 1]]

    def test_join_propagates_through_target(self):
        x = Relation.from_pairs(3, [(1, 2)])
        out = apply_join(x, 0, 1)
        assert {tuple(e) for e in np.argwhere(out.matrix).tolist()} == {(1, 2), (0, 1), (0, 2)}

    def test_identity_when_arc_present(self):
        stack = oracle.relation_stack(4)
        for m in stack:
            if m[0, 1]:
                assert apply_join(Relation(m), 0, 1) == Relation(m)

    def test_preserves_transitivity_and_monotone(self):
        stack = oracle.relation_stack(4)
        for m in stack:
            out = apply_join(Relation(m), 2, 1)
            assert out.is_transitive()
            assert (out.matrix | ~m).all()  # pointwise >= x
            assert out.matrix[2, 1]


class TestApplyMap:
    def test_conditional_short_circuit(self):
        x = Relation.from_pairs(4, [(0, 2)])
        spec = MapSpec.gamma({0, 1}, {2, 3}, 0, 2)
        assert apply_map(spec, x, ((0, 2), 1)) == x  # x_ij = 1 already

    def test_join_map_figure(self):
        # i=0 with p=1 above and p2=2 below in U; j=3 with q=4, q2=5 in U';
        # r=6 outside; the composed map joins i to j and cuts U, U' loose
        x = Relation.from_pairs(7, [(4, 1), (2, 0), (3, 5), (4, 6), (6, 1)])
        assert x.is_transitive()
        spec = MapSpec.gamma({0, 1, 2}, {3, 4, 5}, 0, 3)
        out = apply_map(spec, x)
        expected = Relation.from_pairs(
            7, [(2, 0), (3, 5), (2, 3), (2, 5), (0, 3), (0, 5)]
        )
        assert out == expected

    def test_tau_both_case_table(self):
        rng = np.random.default_rng(3)
        stack = oracle.relation_stack(5)
        subset = frozenset({0, 3})
        sub_pa = PartialAssignment.empty(5)
        for idx in rng.integers(0, len(stack), size=40):
            x = Relation(stack[idx])
            y = reference_tau(TAU_BOTH, subset, Relation.from_pairs(5, [(0, 3)]), x)
            spec = MapSpec.tau(TAU_BOTH, subset, Relation.from_pairs(5, [(0, 3)]))
            out = apply_map(spec, x)
            boundary = np.outer([p in subset for p in range(5)], [p not in subset for p in range(5)])
            boundary |= boundary.T
            assert not out.matrix[boundary].any()
            assert out == y

    @pytest.mark.parametrize("variant", [TAU_OUT, TAU_IN, TAU_BOTH])
    def test_tau_matches_reference_and_transitive(self, variant):
        rng = np.random.default_rng(5)
        n = 5
        stack = oracle.relation_stack(n)
        for _ in range(25):
            subset = random_subset(rng, n)
            sub = sorted(subset)
            y_full = np.zeros((n, n), dtype=bool)
            sub_stack = oracle.relation_stack(len(sub))
            y_sub = sub_stack[int(rng.integers(0, len(sub_stack)))]
            y_full[np.ix_(sub, sub)] = y_sub
            y = Relation(y_full)
            spec = MapSpec.tau(variant, subset, y)
            for idx in rng.integers(0, len(stack), size=25):
                x = Relation(stack[idx])
                out = apply_map(spec, x)
                assert out == reference_tau(variant, subset, y, x)
                assert out.is_transitive()
                # interior of the subset is replanted, the rest untouched
                inside = np.array([p in subset for p in range(n)])
                assert np.array_equal(
                    out.matrix[np.ix_(inside, inside)], y.matrix[np.ix_(sub, sub)]
                )
                assert np.array_equal(
                    out.matrix[np.ix_(~inside, ~inside)], x.matrix[np.ix_(~inside, ~inside)]
                )

    def test_tau_requires_transitive_inner(self):
        y = Relation.from_pairs(4, [(0, 1), (1, 2)])  # not transitive
        with pytest.raises(ValueError):
            MapSpec.tau(TAU_BOTH, {0, 1, 2}, y)

    def test_gamma_requires_disjoint_subsets(self):
        with pytest.raises(ValueError):
            MapSpec.gamma({0, 1}, {1, 2}, 0, 2)


class TestChangeSets:
    def test_two_element_gamma(self):
        pa = PartialAssignment.empty(2)
        p01, p10 = change_sets(MapSpec.gamma({0}, {1}, 0, 1), pa)
        assert np.argwhere(p01).tolist() == [[0, 1]]
        assert np.argwhere(p10).tolist() == [[1, 0]]

    def test_tau_both_p01_empty(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = 5
            pa = random_closed_pa(rng, n)
            subset = random_subset(rng, n)
            sub = sorted(subset)
            y_full = np.zeros((n, n), dtype=bool)
            y_full[np.ix_(sub, sub)] = completions(pa.restrict(sub))[0]
            spec = MapSpec.tau(TAU_BOTH, subset, Relation(y_full))
            p01, _ = change_sets(spec, pa)
            assert not p01.any() and not tau_loose_sets(TAU_BOTH, subset, pa)[0].any()

    def _observed_changes(self, spec, pa, condition=None):
        stack = completions(pa)
        p01 = np.zeros((pa.n, pa.n), dtype=bool)
        p10 = np.zeros((pa.n, pa.n), dtype=bool)
        for m in stack:
            out = apply_map(spec, Relation(m), condition).matrix
            p01 |= ~m & out
            p10 |= m & ~out
        return p01, p10

    def test_gamma_change_sets_sound(self):
        rng = np.random.default_rng(21)
        n = 4
        trials = 0
        while trials < 40:
            pa = random_closed_pa(rng, n)
            u = random_subset(rng, n)
            rest = [p for p in range(n) if p not in u]
            u_prime = frozenset(
                int(p) for p in rng.choice(rest, size=rng.integers(1, len(rest) + 1), replace=False)
            )
            i = int(rng.choice(sorted(u)))
            j = int(rng.choice(sorted(u_prime)))
            if pa.value(i, j) is not None:
                continue
            trials += 1
            spec = MapSpec.gamma(u, u_prime, i, j)
            sharp01, sharp10 = change_sets(spec, pa)
            p01, p10 = self._observed_changes(spec, pa, ((i, j), 1))
            assert not (p01 & ~sharp01).any()
            assert not (p10 & ~sharp10).any()

    @pytest.mark.parametrize("variant", [TAU_OUT, TAU_IN, TAU_BOTH])
    def test_tau_change_sets_sound_on_boundary(self, variant):
        rng = np.random.default_rng(33)
        n = 4
        for _ in range(30):
            pa = random_closed_pa(rng, n)
            subset = random_subset(rng, n)
            sub = sorted(subset)
            y_full = np.zeros((n, n), dtype=bool)
            comp = completions(pa.restrict(sub))
            y_full[np.ix_(sub, sub)] = comp[int(rng.integers(0, len(comp)))]
            spec = MapSpec.tau(variant, subset, Relation(y_full))
            sharp01, sharp10 = change_sets(spec, pa)
            p01, p10 = self._observed_changes(spec, pa)
            inside = np.array([p in subset for p in range(n)])
            boundary = np.outer(inside, ~inside) | np.outer(~inside, inside)
            assert not (p01 & boundary & ~sharp01).any()
            assert not (p10 & boundary & ~sharp10).any()
            # sharp sets refine the loose ones
            loose01, loose10 = tau_loose_sets(variant, subset, pa)
            assert not (sharp01 & ~loose01).any()
            assert not (sharp10 & ~loose10).any()


class TestTrueness:
    def test_empty_assignment_always_true(self):
        pa = PartialAssignment.empty(4)
        assert dicut_is_true({0, 1}, pa)
        assert is_true_to(MapSpec.gamma({0}, {1}, 0, 1), pa)
        assert tau_trueness_loose(TAU_BOTH, frozenset({0, 1}), pa)

    def test_dicut_blocked_by_one_arc(self):
        pa = PartialAssignment.from_pairs(3, one_pairs=[(0, 2)])
        assert not dicut_is_true({0}, pa)
        assert dicut_is_true({1}, pa)

    def test_trueness_implies_containment(self):
        rng = np.random.default_rng(55)
        n = 4
        checked = 0
        while checked < 60:
            pa = random_closed_pa(rng, n)
            kind = rng.integers(0, 3)
            if kind == 0:
                subset = random_subset(rng, n)
                true = dicut_is_true(subset, pa)
                apply = functools.partial(apply_dicut, subset=subset)
            elif kind == 1:
                u = random_subset(rng, n)
                rest = [p for p in range(n) if p not in u]
                u_prime = frozenset(
                    int(p)
                    for p in rng.choice(rest, size=rng.integers(1, len(rest) + 1), replace=False)
                )
                i, j = int(rng.choice(sorted(u))), int(rng.choice(sorted(u_prime)))
                if pa.value(i, j) is not None:
                    continue
                spec = MapSpec.gamma(u, u_prime, i, j)
                true = is_true_to(spec, pa)
                apply = functools.partial(apply_map, spec, condition=((i, j), 1))
            else:
                subset = random_subset(rng, n)
                sub = sorted(subset)
                comp = completions(pa.restrict(sub))
                y_full = np.zeros((n, n), dtype=bool)
                y_full[np.ix_(sub, sub)] = comp[int(rng.integers(0, len(comp)))]
                variant = (TAU_OUT, TAU_IN, TAU_BOTH)[int(rng.integers(0, 3))]
                spec = MapSpec.tau(variant, subset, Relation(y_full))
                true = is_true_to(spec, pa)
                apply = functools.partial(apply_map, spec)
            if not true:
                continue
            checked += 1
            for m in completions(pa):
                assert agrees_with(pa, apply(Relation(m)))
