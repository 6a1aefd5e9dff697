"""Self-test of the benchmark's checks on tiny inputs: ``python3 perfbench/selftest.py``.

Each check must accept a right output and reject a planted wrong one:

- the exact check against a fixation that HiGHS shows loses more than the
  tolerance (and HiGHS itself against brute force on 4 elements);
- the closure check against unclosed and contradictory assignments;
- the cut-witness check against a zero on a pair with no cheap cut;
- the stats-row check against a row that miscounts the partial file.

It also checks that ``BENCHMARK.json`` names exactly the metrics the runner
prints. Exits 0 when every case holds.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np

from checks import (
    EXACT_RTOL,
    closure_failure,
    cut_witness_failure,
    exact_failure,
    solve_triangle_ilp,
    stats_row_failure,
)

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def _pairs(n: int, pairs) -> np.ndarray:
    m = np.zeros((n, n), dtype=bool)
    for p, q in pairs:
        m[p, q] = True
    return m


def brute_force_optimum(c: np.ndarray) -> float:
    n = c.shape[0]
    arcs = [(p, q) for p in range(n) for q in range(n) if p != q]
    best = 0.0
    for bits in itertools.product((False, True), repeat=len(arcs)):
        x = _pairs(n, [a for a, b in zip(arcs, bits) if b])
        implied = ((x.astype(int) @ x.astype(int)) > 0) & ~np.eye(n, dtype=bool)
        if (implied & ~x).any():
            continue
        best = max(best, float(c[x].sum()))
    return best


def test_exact() -> None:
    rng = np.random.default_rng(7)
    agree = 0
    for _ in range(5):
        c = rng.integers(-3, 4, size=(4, 4)).astype(float)
        np.fill_diagonal(c, 0.0)
        agree += abs(solve_triangle_ilp(c)[0] - brute_force_optimum(c)) < 1e-9
    expect(agree == 5, "HiGHS triangle ILP equals brute force on five 4-element instances")

    c = rng.normal(size=(5, 5))
    np.fill_diagonal(c, 0.0)
    best, x = solve_triangle_ilp(c)
    empty = np.zeros_like(x)
    expect(exact_failure(c, x, ~x & ~np.eye(5, dtype=bool)) is None,
           "exact check accepts every pair pinned to an optimum")
    tol = EXACT_RTOL * max(1.0, float(np.abs(c).sum()))
    planted = None
    for p, q in zip(*np.nonzero(~np.eye(5, dtype=bool))):
        ones, zeros = (empty.copy(), _pairs(5, [(p, q)])) if x[p, q] else (_pairs(5, [(p, q)]), empty.copy())
        pinned, _ = solve_triangle_ilp(c, ones, zeros)
        if best - pinned > tol:
            planted = (ones, zeros)
            break
    expect(planted is not None, "HiGHS shows a flipped pair that loses more than the tolerance")
    if planted is not None:
        expect(exact_failure(c, *planted) is not None,
               "exact check rejects that planted fixation")


def test_closure() -> None:
    n = 4
    none = np.zeros((n, n), dtype=bool)
    ones = _pairs(n, [(0, 1), (1, 2), (0, 2)])
    zeros = _pairs(n, [(3, 0), (3, 1), (3, 2)])
    expect(closure_failure(ones, zeros) is None, "closure check accepts a closed assignment")
    expect(closure_failure(_pairs(n, [(0, 1), (1, 2)]), none) is not None,
           "closure check rejects ones that are not transitive")
    expect(closure_failure(_pairs(n, [(0, 1)]), _pairs(n, [(0, 2)])) is not None,
           "closure check rejects a zero not closed under a one-path")
    expect(closure_failure(_pairs(n, [(0, 1)]), _pairs(n, [(0, 1)])) is not None,
           "closure check rejects a pair that is both zero and one")


def test_cut_witness() -> None:
    n = 3
    c = np.zeros((n, n))
    c[0, 2] = c[2, 1] = 5.0
    c[0, 1] = c[1, 0] = -1.0
    none = np.zeros((n, n), dtype=bool)
    expect(cut_witness_failure(c, none, _pairs(n, [(1, 0)]), 0) is None,
           "cut-witness check accepts a zero with a cut of value 0")
    expect(cut_witness_failure(c, none, _pairs(n, [(0, 1)]), 0) is not None,
           "cut-witness check rejects a zero whose cheapest cut costs 5 > 1")
    cheap = c.copy()
    cheap[0, 2] = 0.5
    expect(cut_witness_failure(cheap, none, _pairs(n, [(0, 1)]), 0) is None,
           "cut-witness check accepts a zero whose cheapest cut costs 0.5 < 1")
    expect(cut_witness_failure(c, _pairs(n, [(0, 2)]), none, 0) is not None,
           "cut-witness check rejects a pair fixed to one")
    expect(cut_witness_failure(c, none, _pairs(n, [(0, 2)]), 0) is not None,
           "cut-witness check rejects a zero on a positive pair")


def test_stats_row() -> None:
    ones = _pairs(3, [(0, 1)])
    zeros = _pairs(3, [(1, 0), (2, 0)])
    row = {"n": "3", "fixed_one": "1", "fixed_zero": "2", "percent_fixed": "50.000000"}
    expect(stats_row_failure(row, ones, zeros) is None, "stats-row check accepts a matching row")
    expect(stats_row_failure(dict(row, fixed_zero="3"), ones, zeros) is not None,
           "stats-row check rejects a row that miscounts zeros")


def test_benchmark_json() -> None:
    from run import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
           "BENCHMARK.json end-to-end metrics match the runner")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
           "BENCHMARK.json per-layer metrics match the runner")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads match the runner")


def main() -> int:
    test_closure()
    test_cut_witness()
    test_stats_row()
    test_exact()
    test_benchmark_json()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
