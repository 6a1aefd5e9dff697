import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_closed_pa,
    random_closed_pa_any,
    random_instance,
    reference_join_floor,
    reference_swap_minimize,
)
from preopt import Instance, bounds
from preopt.energy import (
    IN_U,
    IN_U_PRIME,
    LABELS,
    REST,
    EnergyModel,
    alpha_beta_swap_minimize,
    build_join_energy,
    join_floors,
    optimal_swap,
)
from preopt.maps import MapSpec, change_sets
from preopt.relations import PartialAssignment


def exhaustive_min(model: EnergyModel) -> float:
    best = math.inf
    free = [p for p in range(model.n) if p not in (model.i, model.j)]
    for assignment in product(LABELS, repeat=len(free)):
        lab = np.empty(model.n, dtype=np.int8)
        lab[model.i] = IN_U
        lab[model.j] = IN_U_PRIME
        for p, value in zip(free, assignment):
            lab[p] = value
        best = min(best, model.energy(lab))
    return best


def random_model(rng, n):
    inst = random_instance(rng, n)
    pa = random_closed_pa(rng, n, density=0.25)
    undecided = [
        (p, q) for p in range(n) for q in range(n) if p != q and pa.value(p, q) is None
    ]
    if not undecided:
        return None
    i, j = undecided[int(rng.integers(0, len(undecided)))]
    return build_join_energy(inst, pa, i, j), inst, pa, i, j


def outer_mask_energy(model: EnergyModel, lab: np.ndarray) -> float:
    """Reference energy: the masked sum over the join plane and the three
    cut-plane label pairs."""
    if lab[model.i] != IN_U or lab[model.j] != IN_U_PRIME:
        return math.inf
    join_mask = np.outer(lab == IN_U, lab == IN_U_PRIME)
    np.fill_diagonal(join_mask, False)
    cut_mask = (
        np.outer(lab == IN_U_PRIME, lab == IN_U)
        | np.outer(lab == REST, lab == IN_U)
        | np.outer(lab == IN_U_PRIME, lab == REST)
    )
    np.fill_diagonal(cut_mask, False)
    return 0.0 + float(model.join_cost[join_mask].sum()) + float(model.cut_cost[cut_mask].sum())


def random_costs(rng, n: int, kind: str) -> np.ndarray:
    """Nonnegative costs: raw floats over six decades, or multiples of 2^-10,
    with some infinite entries for kind "inf"."""
    if kind == "grid":
        costs = rng.integers(0, 1025, size=(n, n)) / 1024.0
    else:
        costs = 10.0 ** rng.uniform(-3, 3, size=(n, n))
    costs[rng.random((n, n)) < 0.3] = 0.0
    if kind == "inf":
        costs[rng.random((n, n)) < 0.1] = math.inf
    np.fill_diagonal(costs, 0.0)
    return costs


def swap_models(rng, count: int):
    """Random models with n <= 7 of four kinds: raw floats, 2^-10 values,
    infinite costs, and join energies of instances with pinned pairs (n <= 6,
    the oracle's limit for drawing a closed assignment)."""
    kinds = ("raw", "grid", "inf", "pinned")
    made = 0
    while made < count:
        kind = kinds[made % len(kinds)]
        if kind == "pinned":
            built = random_model(rng, int(rng.integers(2, 7)))
            if built is None:
                continue
            model = built[0]
        else:
            n = int(rng.integers(2, 8))
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            model = EnergyModel(
                i=i, j=j,
                join_cost=random_costs(rng, n, kind),
                cut_cost=random_costs(rng, n, kind),
                tolerance=1e-9,
            )
        made += 1
        yield kind, model


def random_labeling(rng, model: EnergyModel) -> np.ndarray:
    lab = rng.integers(0, 3, size=model.n).astype(np.int8)
    lab[model.i] = IN_U
    lab[model.j] = IN_U_PRIME
    return lab


class TestBuildJoinEnergy:
    def test_join_plane_is_negative_part_when_unconstrained(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, 4)
        model = build_join_energy(inst, PartialAssignment.empty(4), 0, 1)
        off = ~np.eye(4, dtype=bool)
        assert np.allclose(model.join_cost[off], inst.c_minus[off])
        assert np.allclose(model.cut_cost[off], inst.c_plus[off])

    def test_assigned_one_forbidden_in_cut_position(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, 4)
        pa = PartialAssignment.from_pairs(4, one_pairs=[(2, 3)])
        model = build_join_energy(inst, pa, 0, 1)
        assert math.isinf(model.cut_cost[2, 3])
        assert model.plane(IN_U_PRIME, IN_U)[2, 3] == math.inf
        assert model.plane(REST, REST) is None

    def test_requires_undecided_pair(self):
        inst = Instance(np.zeros((3, 3)))
        pa = PartialAssignment.from_pairs(3, one_pairs=[(0, 1)])
        with pytest.raises(ValueError):
            build_join_energy(inst, pa, 0, 1)

    def test_invalid_pair_rejected(self):
        # (-1, 0) would wrap around to (2, 0) and build a model with i == -1
        inst = Instance(np.zeros((3, 3)))
        for pair in ((-1, 0), (0, -1), (0, 3), (3, 3)):
            with pytest.raises(ValueError, match="invalid pair"):
                build_join_energy(inst, PartialAssignment.empty(3), *pair)

    def test_initial_energy_matches_singleton_rhs(self):
        # labeling i -> U, j -> U', rest -> REST prices exactly the join
        # condition's rhs for singleton subsets
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            inst = random_instance(rng, n)
            pa = random_closed_pa(rng, n, density=0.25)
            undecided = [
                (p, q) for p in range(n) for q in range(n)
                if p != q and pa.value(p, q) is None
            ]
            if not undecided:
                continue
            i, j = undecided[int(rng.integers(0, len(undecided)))]
            model = build_join_energy(inst, pa, i, j)
            energy = model.energy(model.initial_labeling())
            p01, p10 = change_sets(MapSpec.gamma({i}, {j}, i, j), pa)
            rhs = float(inst.c_minus[p01].sum() + inst.c_plus[p10].sum())
            if math.isinf(energy):
                # some flip the map needs is already pinned the other way
                assert (p10 & pa.ones).any() or (p01 & pa.zeros).any()
            else:
                assert energy == pytest.approx(rhs)

    def test_energy_matches_gamma_rhs_for_random_labelings(self):
        rng = np.random.default_rng(5)
        count = 0
        while count < 50:
            made = random_model(rng, int(rng.integers(3, 6)))
            if made is None:
                continue
            model, inst, pa, i, j = made
            lab = model.initial_labeling()
            for p in range(model.n):
                if p not in (i, j):
                    lab[p] = int(rng.integers(0, 3))
            energy = model.energy(lab)
            subset = frozenset(int(p) for p in np.flatnonzero(lab == IN_U))
            subset_prime = frozenset(int(p) for p in np.flatnonzero(lab == IN_U_PRIME))
            p01, p10 = change_sets(MapSpec.gamma(subset, subset_prime, i, j), pa)
            rhs = float(inst.c_minus[p01].sum() + inst.c_plus[p10].sum())
            trueness_broken = (p10 & pa.ones).any() or (p01 & pa.zeros).any()
            count += 1
            if math.isinf(energy):
                assert trueness_broken
            else:
                assert not trueness_broken
                assert energy == pytest.approx(rhs)


class TestEnergyFormula:
    def test_matches_outer_mask_reference(self):
        rng = np.random.default_rng(15)
        for kind, model in swap_models(rng, 400):
            for _ in range(5):
                lab = random_labeling(rng, model)
                if rng.random() < 0.1:
                    lab[model.i] = REST  # a forbidden labeling
                expected = outer_mask_energy(model, lab)
                energy = model.energy(lab)
                if kind == "grid":
                    assert energy == expected
                elif math.isinf(expected):
                    assert math.isinf(energy)
                else:
                    assert energy == pytest.approx(expected, rel=1e-12)


class TestOptimalSwapExact:
    def test_matches_every_resplit(self):
        rng = np.random.default_rng(16)
        seen = set()
        for kind, model in swap_models(rng, 300):
            lab = random_labeling(rng, model)
            for alpha, beta in ((IN_U, IN_U_PRIME), (IN_U, REST), (IN_U_PRIME, REST)):
                members = np.flatnonzero((lab == alpha) | (lab == beta))
                best = math.inf
                for split in product((alpha, beta), repeat=members.size):
                    trial = lab.copy()
                    trial[members] = split
                    best = min(best, model.energy(trial))
                swapped = optimal_swap(model, lab, alpha, beta)
                assert set(swapped[members].tolist()) <= {alpha, beta}
                outside = (lab != alpha) & (lab != beta)
                assert np.array_equal(swapped[outside], lab[outside])
                energy = model.energy(swapped)
                if math.isinf(best):
                    assert math.isinf(energy)
                else:
                    finite = np.concatenate([model.join_cost.ravel(), model.cut_cost.ravel()])
                    scale = max(1.0, float(finite[np.isfinite(finite)].sum()))
                    assert abs(energy - best) <= 1e-9 * scale
                    seen.add(kind)
        assert seen == {"raw", "grid", "inf", "pinned"}


class TestAlphaBetaSwap:
    def test_zero_costs_single_sweep(self):
        model = EnergyModel(
            i=0, j=1,
            join_cost=np.zeros((4, 4)),
            cut_cost=np.zeros((4, 4)),
            tolerance=1e-9,
        )
        history: list[float] = []
        lab, energy = alpha_beta_swap_minimize(model, history=history)
        assert energy == 0.0
        assert lab[0] == IN_U and lab[1] == IN_U_PRIME
        assert len(history) <= 2  # init plus one non-improving sweep

    def test_three_node_models_exact(self):
        rng = np.random.default_rng(7)
        solved = 0
        while solved < 60:
            made = random_model(rng, 3)
            if made is None:
                continue
            model = made[0]
            _, energy = alpha_beta_swap_minimize(model)
            expected = exhaustive_min(model)
            solved += 1
            assert energy == pytest.approx(expected)

    def test_energy_monotone_and_bounded(self):
        rng = np.random.default_rng(9)
        runs = 0
        while runs < 60:
            made = random_model(rng, int(rng.integers(3, 6)))
            if made is None:
                continue
            model = made[0]
            history: list[float] = []
            _, energy = alpha_beta_swap_minimize(model, history=history)
            runs += 1
            assert energy <= history[0] or math.isinf(history[0])
            for before, after in zip(history, history[1:]):
                assert after <= before or math.isinf(before)
            assert energy >= exhaustive_min(model) - 1e-9

    def test_single_swap_never_increases(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            made = random_model(rng, 4)
            if made is None:
                continue
            model = made[0]
            lab = model.initial_labeling()
            before = model.energy(lab)
            for alpha, beta in ((IN_U, IN_U_PRIME), (IN_U, REST), (IN_U_PRIME, REST)):
                after = model.energy(optimal_swap(model, lab, alpha, beta))
                assert after <= before + 1e-9 or math.isinf(before)


class TestJoinFloors:
    @pytest.mark.parametrize("rows", [None, 1, 4])
    def test_matches_reference_floor(self, monkeypatch, rows):
        rng = np.random.default_rng(30)
        if rows is not None:
            # several slabs of rows i; n = 13 is the largest size drawn
            monkeypatch.setattr(bounds, "SLAB_ENTRIES", rows * 13 * 13)
        checked = set()
        for trial in range(24):
            kind = ("raw", "grid", "pm1")[trial % 3]
            n = (2, 5, 9, 13)[trial % 4]
            inst = random_instance(rng, n, kind)
            pa = random_closed_pa_any(rng, n, 0.4)
            if not (pa.ones.any() and pa.zeros.any()):
                continue
            floors = join_floors(inst, pa)
            undecided = ~pa.decided
            np.fill_diagonal(undecided, False)
            for i, j in np.argwhere(undecided).tolist():
                want = reference_join_floor(build_join_energy(inst, pa, i, j))
                assert float(floors[i, j]).hex() == want.hex()
                checked.add(kind)
        assert checked == {"raw", "grid", "pm1"}

    def test_matches_reference_floor_past_pairwise_block(self):
        # numpy sums more than 128 terms pairwise; the slab sum must too
        rng = np.random.default_rng(31)
        n = 140
        inst = random_instance(rng, n, "raw")
        pa = random_closed_pa_any(rng, n, 0.4)
        floors = join_floors(inst, pa)
        undecided = np.argwhere(~pa.decided & ~np.eye(n, dtype=bool))
        for i, j in undecided[rng.permutation(len(undecided))[:20]].tolist():
            want = reference_join_floor(build_join_energy(inst, pa, i, j))
            assert float(floors[i, j]).hex() == want.hex()


class TestSwapStopping:
    def test_nan_gain_matches_full_sweeps(self):
        rng = np.random.default_rng(32)
        for _, model in swap_models(rng, 400):
            model = replace(model, gain=math.nan)
            lab, energy = alpha_beta_swap_minimize(model)
            want_lab, want_energy = reference_swap_minimize(model)
            assert np.array_equal(lab, want_lab)
            assert energy.hex() == want_energy.hex()

    def test_finite_gain_keeps_fix_decision(self):
        rng = np.random.default_rng(33)
        tested = 0
        for kind, model in swap_models(rng, 300):
            if kind == "grid":
                # 2^-10 energies and gains sum exactly, so gain - energy can
                # equal the tolerance
                model = replace(model, tolerance=2.0**-10)
            tol = model.tolerance
            history: list[float] = []
            alpha_beta_swap_minimize(replace(model, gain=math.nan), history=history)
            _, final = reference_swap_minimize(model)
            # gains around every energy the sweeps pass through
            steps = (0.0, tol / 2, tol, 2 * tol)
            gains = [e + d for e in history if math.isfinite(e) for d in steps]
            for gain in [*gains, math.inf, -math.inf]:
                _, energy = alpha_beta_swap_minimize(replace(model, gain=gain))
                assert (gain - energy >= tol) == (gain - final >= tol)
                # the first energy of the same sequence that reaches the goal
                goal = next((e for e in history if gain - e >= tol), final)
                assert energy.hex() == goal.hex()
                tested += 1
        assert tested > 1000


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([math.nan, 0.0, 1.0, 10.0]))
def test_swap_solves_only_moves_that_can_change(seed, gain):
    """No swap is solved whose members are only the pinned i and j, and no
    (alpha, beta) swap is solved on a labeling it was solved on or
    returned."""
    solved = set()
    count = 0

    def recording(model, labeling, alpha, beta):
        free = (labeling == alpha) | (labeling == beta)
        free[[model.i, model.j]] = False
        assert free.any()
        key = (alpha, beta, labeling.tobytes())
        assert key not in solved
        solved.add(key)
        nonlocal count
        count += 1
        swapped = optimal_swap(model, labeling, alpha, beta)
        solved.add((alpha, beta, swapped.tobytes()))
        return swapped

    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("preopt.energy.optimal_swap", recording)
        for _, model in swap_models(rng, 8):
            solved.clear()
            alpha_beta_swap_minimize(replace(model, gain=gain))
    assert count > 0
