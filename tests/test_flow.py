import math
import signal
from contextlib import contextmanager
from itertools import combinations, permutations, product

import numpy as np
import pytest

from helpers import (
    arc_matrix,
    random_closed_pa,
    random_closed_pa_any,
    random_instance,
    reference_min_st_cut,
)
from preopt.bounds import TriplePackingBound, _triple_table
from preopt.flow import FlowNetwork, min_st_cut, reachability_sets
from preopt import GeneratorConfig, Instance, generate_synthetic, run_joint
from preopt.relations import PartialAssignment, transitive_closure


def bruteforce_min_cut(n: int, arcs, source: int, sink: int) -> tuple[float, set[int]]:
    """Minimum over all source-side subsets, and the intersection of the
    source sides that attain it (the inclusion-minimal minimum cut);
    exponential, test-only."""
    others = [v for v in range(n) if v not in (source, sink)]
    best, minimal = math.inf, set(range(n))
    for k in range(len(others) + 1):
        for extra in combinations(others, k):
            side = {source, *extra}
            value = sum(cap for u, v, cap in arcs if u in side and v not in side)
            if value < best:
                best, minimal = value, side
            elif value == best:
                minimal = minimal & side
    return best, minimal


def cut_capacity(arcs, side: set[int]) -> float:
    return sum(cap for u, v, cap in arcs if u in side and v not in side)


def solve(n: int, arcs, source: int, sink: int) -> tuple[float, set[int]]:
    """min_st_cut on a fresh network built from an arc list."""
    return min_st_cut(FlowNetwork(arc_matrix(n, arcs)), source, sink)


class _TimeLimitExceeded(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    """Fail the test when the body runs longer than ``seconds`` of wall time."""

    def on_alarm(signum, frame):
        raise _TimeLimitExceeded()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _TimeLimitExceeded:
        # no traceback: the interrupted frames may carry no line number
        pytest.fail(f"no result within {seconds} s", pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_min_cut(n: int, arcs, source: int, sink: int, value: float, side: set[int]) -> None:
    expected, _ = bruteforce_min_cut(n, arcs, source, sink)
    scale = max(1.0, sum(c for _, _, c in arcs if not math.isinf(c)))
    assert source in side and sink not in side
    if math.isinf(expected):
        assert math.isinf(value)
    else:
        assert abs(value - expected) <= 1e-9 * scale
        assert abs(cut_capacity(arcs, side) - value) <= 1e-9 * scale


class TestMinCutExamples:
    def test_single_arc(self):
        value, side = solve(2, ((0, 1, 3.0),), 0, 1)
        assert value == pytest.approx(3.0)
        assert side == {0}

    def test_two_paths_with_bottleneck(self):
        arcs = ((0, 1, 2.0), (1, 3, 2.0), (0, 2, 5.0), (2, 3, 1.0))
        value, side = solve(4, arcs, 0, 3)
        assert value == pytest.approx(bruteforce_min_cut(4, arcs, 0, 3)[0]) == pytest.approx(3.0)
        assert cut_capacity(arcs, side) == pytest.approx(value)

    def test_no_path(self):
        value, side = solve(3, ((1, 0, 2.0), (1, 2, 1.0)), 0, 2)
        assert value == 0.0
        assert side == {0}

    def test_infinite_when_unavoidable(self):
        value, _ = solve(2, ((0, 1, math.inf),), 0, 1)
        assert math.isinf(value)

    def test_infinite_arc_avoided_when_possible(self):
        arcs = ((0, 1, math.inf), (1, 2, 4.0), (0, 2, 1.0))
        value, side = solve(3, arcs, 0, 2)
        assert value == pytest.approx(5.0)
        assert side == {0, 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            solve(2, (), 0, 0)
        with pytest.raises(ValueError):
            FlowNetwork(arc_matrix(2, ((0, 1, -1.0),)))


class TestMinCutRandom:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        for trial in range(300):
            n = int(rng.integers(2, 9))
            density = rng.uniform(0.2, 0.9)
            arcs = []
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < density:
                        arcs.append((u, v, float(rng.integers(0, 50)) / 4.0))
            s, t = rng.choice(n, size=2, replace=False)
            value, side = solve(n, arcs, int(s), int(t))
            expected, minimal = bruteforce_min_cut(n, arcs, int(s), int(t))
            scale = max(1.0, sum(c for _, _, c in arcs))
            assert abs(value - expected) <= 1e-9 * scale
            assert s in side and t not in side
            assert abs(cut_capacity(arcs, side) - value) <= 1e-9 * scale
            assert side == minimal

    def test_with_infinite_arcs(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(3, 8))
            arcs = []
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < 0.5:
                        cap = math.inf if rng.random() < 0.15 else float(rng.integers(0, 20))
                        arcs.append((u, v, cap))
            s, t = rng.choice(n, size=2, replace=False)
            value, side = solve(n, arcs, int(s), int(t))
            expected, _ = bruteforce_min_cut(n, arcs, int(s), int(t))
            if math.isinf(expected):
                assert math.isinf(value)
            else:
                scale = max(1.0, sum(c for _, _, c in arcs if not math.isinf(c)))
                assert abs(value - expected) <= 1e-9 * scale
                assert not math.isinf(cut_capacity(arcs, side))


class TestNetworkReuse:
    def test_one_network_for_every_pair(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            cap = np.where(rng.random((n, n)) < 0.6, 10.0 ** rng.uniform(-3, 3, (n, n)), 0.0)
            cap[rng.random((n, n)) < 0.08] = math.inf
            np.fill_diagonal(cap, 0.0)
            arcs = [(u, v, float(cap[u, v])) for u in range(n) for v in range(n) if cap[u, v] > 0]
            before = cap.copy()
            net = FlowNetwork(cap)
            for s, t in permutations(range(n), 2):
                value, side = min_st_cut(net, s, t)
                assert (value, side) == min_st_cut(FlowNetwork(cap), s, t)
                assert_min_cut(n, arcs, s, t, value, side)
            assert np.array_equal(net.capacities, before)
            assert np.array_equal(cap, before)
            assert net.arcs == tuple(arcs)

    def test_diagonal_ignored(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            cap = np.where(rng.random((n, n)) < 0.6, 10.0 ** rng.uniform(-3, 3, (n, n)), 0.0)
            cap[rng.random((n, n)) < 0.08] = math.inf
            np.fill_diagonal(cap, 0.0)
            plain = FlowNetwork(cap)
            for diagonal in (10.0 ** rng.uniform(-3, 3, n), np.full(n, math.inf)):
                looped = cap.copy()
                np.fill_diagonal(looped, diagonal)
                net = FlowNetwork(looped)
                assert all(u != v for u, v, _ in net.arcs)
                assert net.arcs == plain.arcs
                for s, t in permutations(range(n), 2):
                    assert min_st_cut(net, s, t) == min_st_cut(plain, s, t)

    def test_every_pair_twice_leaves_network_as_built(self):
        # edge-cut reuses one network for all its cuts, so no solve, stopped
        # or not, may leave residue in the rows it copies
        rng = np.random.default_rng(16)
        for kind in ("grid", "pm1", "raw"):
            for _ in range(15):
                n = int(rng.integers(2, 10))
                cap = dense_network(rng, n, kind)
                net = FlowNetwork(cap)
                first = [(min_st_cut(net, s, t), min_st_cut(net, s, t, 0.5))
                         for s, t in permutations(range(n), 2)]
                second = [(min_st_cut(net, s, t), min_st_cut(net, s, t, 0.5))
                          for s, t in permutations(range(n), 2)]
                assert first == second
                fresh = FlowNetwork(cap)
                assert net._residual == fresh._residual
                assert net._bits == fresh._bits
                for v in range(n):
                    row = [w != v and net._residual[v][w] > 0.0 for w in range(n)]
                    assert [bool(net._bits[v] >> w & 1) for w in range(n)] == row

    def test_rejects_bad_capacities(self):
        for bad in (np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="square"):
                FlowNetwork(bad)
        for value in (-1.0, -math.inf, math.nan):
            cap = np.ones((3, 3))
            cap[1, 2] = value
            with pytest.raises(ValueError, match="nonnegative"):
                FlowNetwork(cap)

    def test_rejects_bad_terminals(self):
        net = FlowNetwork(np.ones((3, 3)))
        for s, t in ((0, 0), (2, 2), (-1, 1), (0, 3), (3, 0)):
            with pytest.raises(ValueError):
                min_st_cut(net, s, t)


def dense_network(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    """The positive parts of a random instance's values (multiples of 1/1024,
    0 or 1, or raw floats) as capacities, with about one arc in twelve made
    infinite."""
    cap = random_instance(rng, n, kind).c_plus.copy()
    cap[rng.random((n, n)) < 0.08] = math.inf
    np.fill_diagonal(cap, 0.0)
    return cap


class TestMatchesReference:
    """``min_st_cut`` against the queue-and-parent search it replaced."""

    @pytest.mark.parametrize("kind", ["grid", "pm1"])
    def test_exact_data_same_value_and_side(self, kind):
        # every flow is exact on these values, so the value and the
        # inclusion-minimal side cannot depend on which shortest paths are taken
        rng = np.random.default_rng(17)
        stopped = 0
        for _ in range(40):
            n = int(rng.integers(2, 13))
            net = FlowNetwork(dense_network(rng, n, kind))
            for s, t in permutations(range(n), 2):
                expected = reference_min_st_cut(net, s, t)
                assert min_st_cut(net, s, t) == expected
                value = expected[0]
                if math.isinf(value):
                    total = net._finite_total
                    limits = [0.0, total * rng.uniform(), total]
                else:
                    limits = [0.0, value * rng.uniform(), math.nextafter(value, -math.inf),
                              value, value * (1.0 + rng.uniform())]
                for limit in limits:
                    got = min_st_cut(net, s, t, limit)
                    if value > limit:
                        stopped += 1
                        assert got[1] is None and got[0] > limit
                        assert reference_min_st_cut(net, s, t, limit)[1] is None
                    else:
                        assert got == expected
        assert stopped > 1000

    def test_raw_floats_same_side_and_bruteforce(self):
        # on raw floats another choice of shortest paths may round the
        # value differently, so it is checked against brute force
        rng = np.random.default_rng(18)
        stopped = 0
        for _ in range(60):
            n = int(rng.integers(2, 9))
            cap = dense_network(rng, n, "raw")
            arcs = [(u, v, float(cap[u, v])) for u in range(n) for v in range(n) if cap[u, v] > 0]
            net = FlowNetwork(cap)
            for s, t in permutations(range(n), 2):
                value, side = min_st_cut(net, s, t)
                expected_value, expected_side = reference_min_st_cut(net, s, t)
                assert side == expected_side
                assert_min_cut(n, arcs, s, t, value, side)
                if math.isinf(expected_value):
                    assert math.isinf(value)
                    total = net._finite_total
                    limits = [0.0, total * rng.uniform(0.0, 0.9), total]
                else:
                    # clear of the value, so rounding cannot decide the stop
                    limits = [0.0, expected_value * rng.uniform(0.0, 0.9),
                              expected_value * rng.uniform(1.1, 2.0) + 1e-9, math.inf]
                for limit in limits:
                    got = min_st_cut(net, s, t, limit)
                    assert (got[1] is None) == (expected_value > limit)
                    if got[1] is None:
                        stopped += 1
                        assert got[0] > limit
                    else:
                        assert got == (value, side)
        assert stopped > 500


class TestLimit:
    def test_limit_against_bruteforce(self):
        rng = np.random.default_rng(31)
        stopped = 0
        for _ in range(200):
            n = int(rng.integers(2, 8))
            cap = np.where(rng.random((n, n)) < 0.6, 10.0 ** rng.uniform(-3, 3, (n, n)), 0.0)
            cap[rng.random((n, n)) < 0.08] = math.inf
            np.fill_diagonal(cap, 0.0)
            arcs = [(u, v, float(cap[u, v])) for u in range(n) for v in range(n) if cap[u, v] > 0]
            s, t = (int(v) for v in rng.choice(n, size=2, replace=False))
            net = FlowNetwork(cap)
            full = min_st_cut(net, s, t)
            value = full[0]
            expected, _ = bruteforce_min_cut(n, arcs, s, t)
            total = float(cap[np.isfinite(cap)].sum())
            scale = max(1.0, total)
            if math.isinf(value):
                # infinite arcs carry flow at a sentinel above the finite total
                limits = [0.0, *(total * rng.uniform(size=3)), total]
            else:
                # a limit equal to the min cut must not stop the search
                limits = [0.0, value * rng.uniform(), math.nextafter(value, -math.inf), value,
                          value * (1.0 + rng.uniform()), math.inf]
            for limit in limits:  # a stopped search leaves the network as it was
                got = min_st_cut(net, s, t, limit)
                if value <= limit:
                    assert got == full
                else:
                    stopped += 1
                    assert got[1] is None
                    assert limit < got[0] <= value
                    assert got[0] <= expected + 1e-9 * scale
        assert stopped > 200


#: a swap network that edge-join builds on generate_synthetic(n=10,
#: p_edges=0.5, alpha=0.5, seed=18): float residue is left at a node whose
#: residual arcs all lead to height 2n, which once made min_st_cut re-queue
#: that node forever
STRANDING_ARCS = (
    (7, 0, math.inf), (7, 1, 2.3141483870297117), (7, 2, 1.6009501281438099),
    (7, 3, 0.8698529503856751), (7, 4, 1.6406514594576345), (5, 8, math.inf),
    (7, 6, 1.6079551452709704), (0, 1, 0.01734985749808232), (0, 2, 0.6714389203647986),
    (0, 3, 0.49101441712255756), (0, 4, 0.32977438179482516), (0, 6, 0.35428261345505296),
    (1, 0, 0.9385915354481648), (1, 2, 0.2979947577981015), (1, 3, 0.6607805939350928),
    (1, 4, 0.2553710456449313), (1, 5, 0.09955969369835016), (1, 6, 0.12490165206590848),
    (2, 0, 0.8856145711539423), (2, 1, 0.34261535080181366), (2, 3, 0.8186699026476749),
    (2, 4, 1.0851133800414785), (2, 6, 0.7442977177947709), (4, 3, 0.1901518218211929),
    (5, 0, 0.253514553563619), (5, 2, 0.938893331363061), (5, 3, 0.8936682642621703),
    (5, 4, 0.10171163816329193), (5, 6, 0.7104036815332423), (6, 0, 0.6019927482633298),
    (6, 1, 0.9934526824175742), (6, 2, 0.7718159058258849), (6, 3, 0.3268762676419441),
    (6, 4, 0.28068082922944654),
)


class TestMinCutRawFloats:
    def test_stranded_residue_network(self):
        with time_limit(10.0):
            value, side = solve(9, STRANDING_ARCS, 7, 8)
        assert_min_cut(9, STRANDING_ARCS, 7, 8, value, side)

    @pytest.mark.parametrize(
        "n, alpha", [(10, 0.5), (30, 0.5), (30, 0.1)], ids=["n10-a0.5", "n30-a0.5", "n30-a0.1"]
    )
    def test_generator_reproducers_finish(self, n, alpha):
        seed = 0 if n == 30 else 18
        instance, _ = generate_synthetic(GeneratorConfig(n=n, p_edges=0.5, alpha=alpha, seed=seed))
        with time_limit(60.0):
            pa, _, stats = run_joint(instance)
        assert stats.fixed_zero + stats.fixed_one == pa.num_decided()

    def test_seeded_scan_matches_bruteforce(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(3, 11))
            density = rng.uniform(0.3, 1.0)
            arcs = []
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < density:
                        cap = math.inf if rng.random() < 0.05 else float(10.0 ** rng.uniform(-3, 3))
                        arcs.append((u, v, cap))
            s, t = rng.choice(n, size=2, replace=False)
            with time_limit(10.0):
                value, side = solve(n, arcs, int(s), int(t))
            assert_min_cut(n, arcs, int(s), int(t), value, side)


class TestReachability:
    def test_chain(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 2] = True
        reach = reachability_sets(adj)
        assert set(np.flatnonzero(reach[0])) == {0, 1, 2}
        assert set(np.flatnonzero(reach[2])) == {2}

    def test_empty(self):
        reach = reachability_sets(np.zeros((4, 4), dtype=bool))
        assert np.array_equal(reach, np.eye(4, dtype=bool))

    def test_matches_transitive_closure(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = 6
            adj = rng.random((n, n)) < 0.3
            np.fill_diagonal(adj, False)
            reach = reachability_sets(adj)
            closed = transitive_closure({(int(p), int(q)) for p, q in np.argwhere(adj)}, n)
            for u in range(n):
                expected = {q for p, q in closed if p == u} | {u}
                assert set(np.flatnonzero(reach[u])) == expected


def triple_arcs(t) -> tuple[tuple[int, int], ...]:
    p, q, r = t
    return ((p, q), (q, r), (p, r))


def triple_improvement(inst, pa, t) -> float:
    """Termwise maximum of a triple's arcs minus its true maximum under the
    triangle constraint and the pinned pairs, by enumeration."""
    arcs = triple_arcs(t)
    c = inst.values
    termwise = 0.0
    for e in arcs:
        v = pa.value(*e)
        termwise += max(c[e], 0.0) if v is None else c[e] * v
    best = max(
        sum(c[e] * x for e, x in zip(arcs, combo))
        for combo in product((0, 1), repeat=3)
        if combo[0] + combo[1] - combo[2] <= 1
        and all(pa.value(*e) in (None, x) for e, x in zip(arcs, combo))
    )
    return termwise - best


def chain_instance(n: int) -> Instance:
    """c = +1 on the arcs p -> p+1 and -1 elsewhere: exactly the triples
    (p, p+1, p+2) improve, all by 1, and consecutive ones share an arc."""
    c = -np.ones((n, n))
    for p in range(n - 1):
        c[p, p + 1] = 1.0
    np.fill_diagonal(c, 0.0)
    return Instance(c)


class TestTriplePacking:
    """The greedy edge-disjoint packing behind ``TriplePackingBound``."""

    def test_three_elements_at_most_one_per_orientation(self):
        # a triple consumes one full orientation class of the 6 arcs, so a
        # packing on 3 elements holds at most two triples
        rng = np.random.default_rng(9)
        for _ in range(30):
            inst = random_instance(rng, 3)
            assert len(TriplePackingBound(inst, PartialAssignment.empty(3)).triples) <= 2
        packing = TriplePackingBound(chain_instance(3), PartialAssignment.empty(3))
        assert packing.triples == [(0, 1, 2)]

    def test_zero_weights_empty(self):
        # all-zero or all-positive values leave no triple that improves
        for c in (np.zeros((5, 5)), np.ones((5, 5))):
            np.fill_diagonal(c, 0.0)
            assert TriplePackingBound(Instance(c), PartialAssignment.empty(5)).triples == []

    def test_disjoint_and_maximal(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = 5
            inst = random_instance(rng, n)
            pa = random_closed_pa(rng, n, density=0.2)
            packing = TriplePackingBound(inst, pa)
            used = {e for t in packing.triples for e in triple_arcs(t)}
            assert len(used) == 3 * len(packing.triples)  # disjoint
            for t in packing.triples:
                assert triple_improvement(inst, pa, t) > 0.0
            for t in product(range(n), repeat=3):
                if len(set(t)) == 3 and t not in packing.triples:
                    if triple_improvement(inst, pa, t) > 0.0:
                        assert any(e in used for e in triple_arcs(t))  # not addable

    def test_deterministic_tie_break(self):
        # (0, 1, 2) and (1, 2, 3) tie and share the arc 12
        a = TriplePackingBound(chain_instance(4), PartialAssignment.empty(4))
        b = TriplePackingBound(chain_instance(4), PartialAssignment.empty(4))
        assert a.triples == b.triples == [(0, 1, 2)]

    def test_tied_dyadic_improvements_follow_old_key(self):
        # values in quarters tie many improvements; the selection must be
        # the one the Python sort key (-improvement, triple) gave
        rng = np.random.default_rng(15)
        ties = 0
        for _ in range(20):
            n = 7
            c = rng.integers(-4, 5, size=(n, n)) / 4.0
            np.fill_diagonal(c, 0.0)
            inst = Instance(c)
            pa = random_closed_pa_any(rng, n, density=0.2)
            triples, tri_sum, tri_max = _triple_table(inst, pa)
            improvement = tri_sum - tri_max
            order = sorted(
                (k for k in range(triples.shape[0]) if improvement[k] > 0.0),
                key=lambda k: (-improvement[k], tuple(triples[k])),
            )
            ties += len(order) - len(set(improvement[order]))
            used, expected = set(), []
            for k in order:
                arcs = triple_arcs(tuple(int(v) for v in triples[k]))
                if not any(e in used for e in arcs):
                    used.update(arcs)
                    expected.append(k)
            packing = TriplePackingBound(inst, pa)
            assert packing.triples == [tuple(int(v) for v in triples[k]) for k in expected]
            assert packing.tri_max == [float(tri_max[k]) for k in expected]
        assert ties > 0

    def test_packing_validates_disjointness(self):
        # dense positive-improvement instances: many candidate triples overlap
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = 6
            inst = random_instance(rng, n, kind="pm1")
            packing = TriplePackingBound(inst, PartialAssignment.empty(n))
            covered = np.zeros((n, n), dtype=int)
            for t in packing.triples:
                for e in triple_arcs(t):
                    covered[e] += 1
            assert covered.max(initial=0) <= 1
            assert np.array_equal(covered.astype(bool), packing.covered)
