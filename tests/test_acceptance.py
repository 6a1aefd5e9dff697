"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Tolerances are pinned here and nowhere else.
"""

import csv
import functools
import math
import time
from itertools import combinations

import numpy as np
from click.testing import CliRunner

from helpers import (
    agrees_with,
    apply_dicut,
    apply_join,
    apply_map,
    arc_matrix,
    completions,
    decided_pairs_bruteforce,
    random_closed_pa,
    random_consistent_pa,
    random_instance,
    reference_boundary_bound,
)
from preopt import (
    Instance,
    PartialAssignment,
    Relation,
    evaluate,
    oracle,
    run_joint,
)
from preopt.bounds import (
    SUBSET_VARIANTS,
    TriplePackingBound,
    boundary_bound,
    exact_bounds_tractable,
    induced_value,
    local_search_lower_bound,
)
from preopt.cli import main as cli_main
from preopt.conditions import subset_fixation_condition
from preopt.energy import LABELS, alpha_beta_swap_minimize, build_join_energy
from preopt.flow import FlowNetwork, min_st_cut
from preopt.instance import GeneratorConfig, generate_synthetic
from preopt.maps import TAU_BOTH, TAU_IN, TAU_OUT, MapSpec, change_sets, is_true_to
from preopt.relations import close

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
        [[0, 5, 1, 1], [0, 0, 1, 1], [0, 0, 0, 2], [0, 0, 0, 0]], dtype=float
    )
)


def report(num: int, message: str) -> None:
    print(f"PASS criterion {num:2d}: {message}")


def criterion(num: int):
    """Print a FAIL line when the wrapped criterion raises."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num:2d}: {fn.__name__}")
                raise

        return wrapper

    return decorate


def undecided_pairs(pa):
    return [
        (p, q)
        for p in range(pa.n)
        for q in range(pa.n)
        if p != q and pa.value(p, q) is None
    ]


@criterion(1)
def test_criterion_01_soundness_suite():
    start = time.time()
    rng = np.random.default_rng(20260809)
    total = 500
    certified = 0
    for trial in range(total):
        n = 3 + trial % 4
        kind = "pm1" if trial % 3 == 2 else "grid"
        inst = random_instance(rng, n, kind)
        pa, _, _ = run_joint(inst)
        assert oracle.certify(inst, pa), f"unsound fixations on trial {trial} (n={n})"
        certified += 1
    elapsed = time.time() - start
    assert elapsed < 120.0, f"soundness suite took {elapsed:.0f}s, budget is 120s"
    report(1, f"{certified}/{total} random instances certified in {elapsed:.0f}s")


@criterion(2)
def test_criterion_02_closure_correctness():
    rng = np.random.default_rng(2)
    total = 500
    for trial in range(total):
        n = 2 + trial % 4
        pa = random_consistent_pa(rng, n, density=float(rng.uniform(0.1, 0.7)))
        closed = close(pa)
        truth = decided_pairs_bruteforce(pa)
        assert np.array_equal(closed.ones, truth.ones)
        assert np.array_equal(closed.zeros, truth.zeros)
        before = completions(pa)
        after = completions(closed)
        assert before.shape == after.shape and (before == after).all()
    report(2, f"{total} closures match brute-force decided pairs and completions")


def _random_map(rng, pa):
    """A random map as (apply, spec): ``apply`` maps a relation, ``spec`` is
    the gamma or tau map's MapSpec and None for the dicut and join maps."""
    n = pa.n
    kind = int(rng.integers(0, 4))
    if kind == 0:
        mask = rng.random(n) < 0.5
        subset = frozenset(int(p) for p in np.flatnonzero(mask))
        return functools.partial(apply_dicut, subset=subset), None
    if kind == 1:
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        return functools.partial(apply_join, i=i, j=j), None
    if kind == 2:
        while True:
            mask = rng.random(n) < 0.4
            rest = np.flatnonzero(~mask)
            if mask.any() and rest.size:
                break
        u = frozenset(int(p) for p in np.flatnonzero(mask))
        size = int(rng.integers(1, rest.size + 1))
        u_prime = frozenset(int(p) for p in rng.choice(rest, size=size, replace=False))
        i = int(rng.choice(sorted(u)))
        j = int(rng.choice(sorted(u_prime)))
        spec = MapSpec.gamma(u, u_prime, i, j)
        return functools.partial(apply_map, spec, condition=((i, j), 1)), spec
    while True:
        mask = rng.random(n) < 0.5
        if mask.any() and not mask.all():
            break
    sub = [int(p) for p in np.flatnonzero(mask)]
    comp = completions(pa.restrict(sub))
    y_full = np.zeros((n, n), dtype=bool)
    y_full[np.ix_(sub, sub)] = comp[int(rng.integers(0, len(comp)))]
    variant = (TAU_OUT, TAU_IN, TAU_BOTH)[int(rng.integers(0, 3))]
    spec = MapSpec.tau(variant, frozenset(sub), Relation(y_full))
    return functools.partial(apply_map, spec), spec


@criterion(3)
def test_criterion_03_map_lemmas():
    rng = np.random.default_rng(3)
    n = 4
    stack = oracle.relation_stack(n)
    specs = 0
    while specs < 100:
        pa = random_closed_pa(rng, n, density=0.3)
        apply, spec = _random_map(rng, pa)
        specs += 1
        # well-definedness over every feasible relation
        for m in stack:
            assert apply(Relation(m)).is_transitive()
        if spec is None:  # dicut and join
            continue
        p01, p10 = change_sets(spec, pa)
        comp = completions(pa)
        observed01 = np.zeros((n, n), dtype=bool)
        observed10 = np.zeros((n, n), dtype=bool)
        for m in comp:
            out = apply(Relation(m)).matrix
            observed01 |= ~m & out
            observed10 |= m & ~out
        if spec.kind == "gamma":
            assert not (observed01 & ~p01).any()
            assert not (observed10 & ~p10).any()
        else:
            inside = np.array([p in spec.subset for p in range(n)])
            delta = np.outer(inside, ~inside) | np.outer(~inside, inside)
            assert not (observed01 & delta & ~p01).any()
            assert not (observed10 & delta & ~p10).any()
        if is_true_to(spec, pa):
            for m in comp:
                assert agrees_with(pa, apply(Relation(m)))
    report(3, "100 random map specs: well-defined, change sets contained, trueness sound")


@criterion(4)
def test_criterion_04_worked_example():
    pa = PartialAssignment.empty(4)
    fix, rep = subset_fixation_condition(FIG3, pa, (0, 1), [0, 1], TAU_BOTH)
    assert rep.lb == 5.0 and rep.ub == 0.0 and rep.ub_prime == 4.0
    assert fix is not None and fix.pair == (0, 1) and fix.value == 1

    lb, _ = local_search_lower_bound(FIG3, pa, ((0, 1), 1), greedy=False)
    packing = TriplePackingBound(FIG3, pa)
    ub = induced_value(FIG3, pa, 0)[0, 1] + packing.excluding[0, 1]
    assert lb == 5.0 and ub == 6.0
    assert not lb - ub >= FIG3.tolerance  # weak comparison does not fix
    report(4, "subset U={p,q}: lb=5 ub=0 ub'=4 fixes; U=V comparison lb=5 ub=6 does not")


@criterion(5)
def test_criterion_05_figure_one_regression():
    opt = oracle.solve_exact(FIG1)
    assert opt.value == 10.0
    depicted = Relation.from_pairs(5, [(0, 1), (1, 0), (0, 3), (1, 3), (2, 3), (2, 4)])
    assert (opt.matrices == depicted.matrix).all(axis=(1, 2)).any()
    pa, _, _ = run_joint(FIG1)
    assert agrees_with(pa, depicted)
    report(5, "optimum is 10, depicted relation optimal and admitted by the pipeline")


@criterion(6)
def test_criterion_06_phase_transition():
    start = time.time()
    per_alpha = 20
    medians = {}
    for alpha in (0.1, 0.95):
        fixed = []
        for k in range(per_alpha):
            cfg = GeneratorConfig(n=20, p_edges=0.5, alpha=alpha, seed=6000 + k)
            inst, _ = generate_synthetic(cfg)
            _, _, stats = run_joint(inst)
            fixed.append(stats.percent_fixed)
        medians[alpha] = float(np.median(fixed))
    elapsed = time.time() - start
    assert medians[0.1] >= 95.0, f"easy regime median {medians[0.1]:.1f}% < 95%"
    assert medians[0.95] <= 5.0, f"hard regime median {medians[0.95]:.1f}% > 5%"
    assert elapsed < 600.0, f"phase transition took {elapsed:.0f}s, budget 600s"
    report(
        6,
        f"n=20 medians: {medians[0.1]:.1f}% fixed at alpha=0.1, "
        f"{medians[0.95]:.1f}% at alpha=0.95 ({elapsed:.0f}s)",
    )


@criterion(7)
def test_criterion_07_tractable_exactness():
    rng = np.random.default_rng(7)
    applicable = 0
    while applicable < 200:
        n = int(rng.integers(2, 6))
        # bias toward nonnegative values so the sign-greedy relation is
        # frequently feasible
        if rng.random() < 0.5:
            c = rng.integers(0, 1025, size=(n, n)).astype(float) / 1024.0
            np.fill_diagonal(c, 0.0)
            inst = Instance(c)
        else:
            inst = random_instance(rng, n)
        pa = random_closed_pa(rng, n, density=0.2)
        pairs = [
            (p, q) for p, q in undecided_pairs(pa) if inst.values[p, q] >= 0.0
        ]
        if not pairs:
            continue
        pair = pairs[int(rng.integers(0, len(pairs)))]
        tractable = exact_bounds_tractable(inst, pa)
        if tractable is None:
            continue
        applicable += 1
        opt_one, opt_zero = tractable.optima(*pair)
        truth_one = oracle.solve_exact(inst, pa.with_assignments([(*pair, 1)])).value
        truth_zero = oracle.solve_exact(inst, pa.with_assignments([(*pair, 0)])).value
        assert opt_one == truth_one, (opt_one, truth_one)
        assert abs(opt_zero - truth_zero) <= 1e-9 * max(1.0, abs(truth_zero))
    report(7, "200 applicable cases: tractable bounds equal oracle constrained optima")


@criterion(8)
def test_criterion_08_bound_dominance():
    rng = np.random.default_rng(8)
    checked = true_maps = 0
    while checked < 150:
        n = int(rng.integers(3, 6))
        inst = random_instance(rng, n)
        pa = random_closed_pa(rng, n, density=0.25)
        pairs = undecided_pairs(pa)
        if not pairs:
            continue
        i, j = pairs[int(rng.integers(0, len(pairs)))]
        checked += 1
        packing = TriplePackingBound(inst, pa)
        for b in (0, 1):
            stack = completions(pa.with_assignments([(i, j, b)]))
            scores = stack.reshape(stack.shape[0], -1).astype(float) @ inst.values.ravel()
            truth = scores.max()
            lb, witness = local_search_lower_bound(inst, pa, ((i, j), b))
            assert witness.is_transitive() and agrees_with(pa, witness)
            assert evaluate(inst, witness) == lb
            assert lb <= truth + 1e-12
            ub = induced_value(inst, pa, b)[i, j] + packing.excluding[i, j]
            assert ub >= truth - 1e-12
        # boundary bounds against the actual boundary regret of tau
        sub = sorted(
            set([i, j])
            | {int(p) for p in rng.choice(n, size=rng.integers(0, n), replace=False)}
        )
        if len(sub) == n or len(sub) < 2:
            continue
        sub_opt = oracle.solve_exact(inst.restrict(sub), pa.restrict(sub))
        y_full = np.zeros((n, n), dtype=bool)
        y_full[np.ix_(sub, sub)] = sub_opt.matrices[0]
        y = Relation(y_full)
        inside = np.zeros(n, dtype=bool)
        inside[sub] = True
        delta = np.outer(inside, ~inside) | np.outer(~inside, inside)
        # the reference bounds every map, the library's every true one
        row = boundary_bound(inst, pa, np.array([sub]))[0]
        for variant in (TAU_OUT, TAU_IN, TAU_BOTH):
            spec = MapSpec.tau(variant, frozenset(sub), y)
            loose = reference_boundary_bound(inst, pa, sub, variant)
            sharp = reference_boundary_bound(inst, pa, sub, variant, y)
            true = is_true_to(spec, pa)
            true_maps += true
            bound = row[SUBSET_VARIANTS.index(variant)] if true else math.inf
            for m in completions(pa):
                out = apply_map(spec, Relation(m)).matrix
                regret = float(
                    (inst.values * (m.astype(float) - out.astype(float)))[delta].sum()
                )
                assert regret <= sharp + 1e-9 <= loose + 2e-9
                assert regret <= bound + 1e-9
    assert true_maps >= 150
    report(
        8, f"{checked} samples: lb <= optimum <= ub and boundary bounds dominate"
        f" ({true_maps} true maps)"
    )


@criterion(9)
def test_criterion_09_max_flow_oracle():
    rng = np.random.default_rng(9)
    for trial in range(1000):
        n = int(rng.integers(2, 11))
        density = float(rng.uniform(0.15, 0.9))
        arcs = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < density:
                    arcs.append((u, v, float(rng.integers(0, 64)) / 8.0))
        s, t = (int(v) for v in rng.choice(n, size=2, replace=False))
        value, side = min_st_cut(FlowNetwork(arc_matrix(n, arcs)), s, t)
        others = [v for v in range(n) if v not in (s, t)]
        best = math.inf
        for k in range(len(others) + 1):
            for extra in combinations(others, k):
                group = {s, *extra}
                best = min(
                    best,
                    sum(cap for u, v, cap in arcs if u in group and v not in group),
                )
        scale = max(1.0, sum(cap for _, _, cap in arcs))
        assert abs(value - best) <= 1e-9 * scale
        assert s in side and t not in side
        cut_value = sum(cap for u, v, cap in arcs if u in side and v not in side)
        assert abs(cut_value - value) <= 1e-9 * scale
    report(9, "1000 random networks: shortest augmenting paths equal exhaustive minimum cut")


@criterion(10)
def test_criterion_10_alpha_beta_swap():
    rng = np.random.default_rng(10)
    runs = 0
    exact_checked = 0
    while runs < 100:
        n = int(rng.integers(3, 6))
        inst = random_instance(rng, n)
        pa = random_closed_pa(rng, n, density=0.25)
        pairs = undecided_pairs(pa)
        if not pairs:
            continue
        i, j = pairs[int(rng.integers(0, len(pairs)))]
        model = build_join_energy(inst, pa, i, j)
        history: list[float] = []
        _, energy = alpha_beta_swap_minimize(model, history=history)
        runs += 1
        assert energy <= history[0] or math.isinf(history[0])
        for before, after in zip(history, history[1:]):
            assert after <= before or math.isinf(before)
        if n == 3:
            exact_checked += 1
            free = [p for p in range(3) if p not in (i, j)]
            best = math.inf
            for label in LABELS:
                lab = model.initial_labeling()
                lab[free[0]] = label
                best = min(best, model.energy(lab))
            assert energy == best
    assert exact_checked > 0
    report(
        10,
        f"100 swap runs monotone; {exact_checked} three-node models solved exactly",
    )


@criterion(11)
def test_criterion_11_merging_conservation():
    from preopt.relations import merge_classes

    rng = np.random.default_rng(11)
    for trial in range(200):
        n = int(rng.integers(3, 7))
        inst = random_instance(rng, n)
        cls = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        pairs = [(p, q) for p in cls for q in cls if p != q]
        pa = close(PartialAssignment.from_pairs(n, one_pairs=pairs))
        merged_inst, merged_pa, offset, _ = merge_classes(inst, pa, cls)
        original = oracle.solve_exact(inst, pa).value
        contracted = oracle.solve_exact(merged_inst, merged_pa).value
        assert original == offset + contracted, (original, offset, contracted)
    report(11, "200 forced merges conserve the optimum exactly")


@criterion(12)
def test_criterion_12_ego_network_smoke(tmp_path):
    rng = np.random.default_rng(12)
    n = 49
    lines = []
    seen = set()

    def add(p, q):
        if p != q and (p, q) not in seen:
            seen.add((p, q))
            lines.append(f"{p} {q}")

    for q in range(1, 17):
        add(0, q)
    for p in range(1, n):
        if rng.random() < 0.6:
            add(p, 0)
    for p in range(1, n):
        for q in range(1, n):
            if (p - 1) // 16 == (q - 1) // 16 and rng.random() < 0.5:
                add(p, q)
    edge_file = tmp_path / "ego.txt"
    edge_file.write_text("\n".join(lines) + "\n")

    runner = CliRunner()
    instance_csv = tmp_path / "ego_instance.csv"
    result = runner.invoke(cli_main, ["ingest-ego", str(edge_file), "--out", str(instance_csv)])
    assert result.exit_code == 0, result.output
    stats_csv = tmp_path / "stats.csv"
    result = runner.invoke(
        cli_main,
        ["fix", str(instance_csv), "--out", str(stats_csv), "--emit-partial", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(stats_csv.open()))
    assert len(rows) == 1
    row = rows[0]
    assert row["n"] == str(n)
    percent = float(row["percent_fixed"])
    assert 0.0 <= percent <= 100.0
    report(
        12,
        f"{n}-node ego network completed without inconsistency; "
        f"{percent:.1f}% fixed (not gated)",
    )
