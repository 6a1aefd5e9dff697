import math
from itertools import product

import numpy as np
import pytest

from helpers import random_closed_pa, random_instance
from preopt import Instance
from preopt.energy import (
    IN_U,
    IN_U_PRIME,
    LABELS,
    REST,
    EnergyModel,
    alpha_beta_swap_minimize,
    build_join_energy,
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
