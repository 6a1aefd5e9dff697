"""Output checks computed apart from the program.

Nothing here imports ``preopt``. Every check takes plain numpy arrays (the
instance values ``c`` and the returned ``ones``/``zeros`` matrices) and
returns ``None`` when the output passes, or a one-line reason when it fails.

- ``closure_failure``: the assignment is consistent and closed (ones are
  transitive, zeros are closed under one-paths on both sides, no pair is
  both).
- ``exact_failure``: pinning every fixed pair leaves the optimum of the
  triangle ILP unchanged, solved exactly by HiGHS (scipy ``milp``).
- ``cut_witness_failure``: a cut-only single pass fixed only negative pairs
  to zero, each with a p->q cut cheaper than ``-c_pq`` in the digraph of
  positive values (reachability for cut value 0, networkx max-flow for a
  seeded sample of the rest).
"""

from __future__ import annotations

import random

import numpy as np

EXACT_RTOL = 1e-6
MAX_FLOW_SAMPLE = 12


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.int64) @ b.astype(np.int64)) > 0


def closure_failure(ones: np.ndarray, zeros: np.ndarray) -> str | None:
    n = ones.shape[0]
    if ones.shape != (n, n) or zeros.shape != (n, n):
        return "closure: matrices are not square"
    if ones.diagonal().any() or zeros.diagonal().any():
        return "closure: a diagonal pair is assigned"
    both = ones & zeros
    if both.any():
        p, q = np.argwhere(both)[0]
        return f"closure: pair ({p}, {q}) is both zero and one"
    offdiag = ~np.eye(n, dtype=bool)
    missing = _bool_matmul(ones, ones) & offdiag & ~ones
    if missing.any():
        p, r = np.argwhere(missing)[0]
        return f"closure: ones are not transitive, ({p}, {r}) is implied but not one"
    # x_ac = 0 with x_ab = 1 forces x_bc = 0; with x_bc = 1 it forces x_ab = 0
    reach = ones | np.eye(n, dtype=bool)
    implied = _bool_matmul(reach.T, _bool_matmul(zeros, reach.T)) & offdiag
    unclosed = implied & ~zeros
    if unclosed.any():
        p, q = np.argwhere(unclosed)[0]
        return f"closure: zero ({p}, {q}) is implied by a one-path but not assigned"
    return None


def _triangle_model(n: int):
    """Variables x_pq (p != q) in row-major order and the rows
    x_pq + x_qr - x_pr <= 1 over all ordered triples of distinct elements."""
    from scipy.sparse import csr_matrix

    off = ~np.eye(n, dtype=bool)
    rows_p, rows_q = np.nonzero(off)
    index = np.full((n, n), -1, dtype=np.int64)
    index[rows_p, rows_q] = np.arange(rows_p.size)
    p, q, r = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    distinct = (p != q) & (q != r) & (p != r)
    p, q, r = p[distinct], q[distinct], r[distinct]
    k = p.size
    cols = np.stack([index[p, q], index[q, r], index[p, r]], axis=1).ravel()
    data = np.tile([1.0, 1.0, -1.0], k)
    matrix = csr_matrix((data, (np.repeat(np.arange(k), 3), cols)), shape=(k, rows_p.size))
    return rows_p, rows_q, matrix


def solve_triangle_ilp(
    c: np.ndarray, ones: np.ndarray | None = None, zeros: np.ndarray | None = None,
    time_limit: float = 120.0,
) -> tuple[float, np.ndarray]:
    """Exact maximum of sum c_pq x_pq over transitive x, optionally with
    pinned pairs. Returns the optimum and one optimal relation."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = c.shape[0]
    if n < 2:
        return 0.0, np.zeros((n, n), dtype=bool)
    rows_p, rows_q, matrix = _triangle_model(n)
    lower = np.zeros(rows_p.size)
    upper = np.ones(rows_p.size)
    if ones is not None:
        lower[ones[rows_p, rows_q]] = 1.0
    if zeros is not None:
        upper[zeros[rows_p, rows_q]] = 0.0
    constraints = [LinearConstraint(matrix, -np.inf, 1.0)] if matrix.shape[0] else []
    res = milp(
        -c[rows_p, rows_q],
        constraints=constraints,
        integrality=np.ones(rows_p.size),
        bounds=Bounds(lower, upper),
        options={"mip_rel_gap": 0.0, "time_limit": time_limit},
    )
    if res.status != 0 or res.x is None:
        raise RuntimeError(f"HiGHS found no proven optimum: {res.message}")
    x = np.zeros((n, n), dtype=bool)
    x[rows_p, rows_q] = res.x > 0.5
    return float(-res.fun), x


def exact_failure(c: np.ndarray, ones: np.ndarray, zeros: np.ndarray) -> str | None:
    """Pinning every fixed pair must keep the optimum within the tolerance.

    One solve suffices when the free optimum already agrees with every pin;
    otherwise the pinned problem is solved too and the optima compared.
    """
    tol = EXACT_RTOL * max(1.0, float(np.abs(c).sum()))
    try:
        best, x = solve_triangle_ilp(c)
        if not ((ones & ~x).any() or (zeros & x).any()):
            return None
        pinned, _ = solve_triangle_ilp(c, ones, zeros)
    except RuntimeError as exc:
        return f"exact: {exc}"
    if best - pinned > tol:
        return f"exact: pinning loses {best - pinned:.6g} (optimum {best:.6g}, tolerance {tol:.3g})"
    return None


def cut_witness_failure(
    c: np.ndarray, ones: np.ndarray, zeros: np.ndarray, sample_seed: int,
    sample: int = MAX_FLOW_SAMPLE,
) -> str | None:
    """Witness every zero of a single cut-only pass in the positive digraph."""
    import networkx as nx

    if ones.any():
        p, q = np.argwhere(ones)[0]
        return f"cut-witness: pair ({p}, {q}) fixed to one by a cut-only pass"
    nonneg = zeros & (c >= 0.0)
    if nonneg.any():
        p, q = np.argwhere(nonneg)[0]
        return f"cut-witness: pair ({p}, {q}) with c = {c[p, q]:g} fixed to zero"
    n = c.shape[0]
    positive = (c > 0.0) & ~np.eye(n, dtype=bool)
    reach = positive | np.eye(n, dtype=bool)
    while True:
        grown = _bool_matmul(reach, reach)
        if (grown == reach).all():
            break
        reach = grown
    needs_flow = [(int(p), int(q)) for p, q in np.argwhere(zeros & reach)]
    if len(needs_flow) > sample:
        needs_flow = random.Random(sample_seed).sample(needs_flow, sample)
    if not needs_flow:
        return None
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    for p, q in np.argwhere(positive):
        graph.add_edge(int(p), int(q), capacity=float(c[p, q]))
    for p, q in needs_flow:
        value = nx.maximum_flow_value(graph, p, q)
        if not value < -c[p, q]:
            return f"cut-witness: min cut {p}->{q} is {value:.6g}, not below {-c[p, q]:.6g}"
    return None


def read_partial(path, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse a ``p,q,{0|1}`` file into ones and zeros matrices."""
    ones = np.zeros((n, n), dtype=bool)
    zeros = np.zeros((n, n), dtype=bool)
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            p, q, v = (int(part) for part in line.split(","))
            if v == 1:
                ones[p, q] = True
            elif v == 0:
                zeros[p, q] = True
            else:
                raise ValueError(f"{path}: value {v} is not 0 or 1")
    return ones, zeros


def stats_row_failure(row: dict, ones: np.ndarray, zeros: np.ndarray) -> str | None:
    """The CLI's stats row must describe the partial file it emitted."""
    n = ones.shape[0]
    pairs = n * (n - 1)
    decided = int(ones.sum() + zeros.sum())
    expected = {
        "n": n,
        "fixed_one": int(ones.sum()),
        "fixed_zero": int(zeros.sum()),
    }
    for key, value in expected.items():
        if int(row[key]) != value:
            return f"stats-row: {key} is {row[key]}, the partial file says {value}"
    percent = 100.0 * decided / pairs if pairs else 100.0
    if abs(float(row["percent_fixed"]) - percent) > 1e-5:
        return f"stats-row: percent_fixed is {row['percent_fixed']}, the partial file says {percent:.6f}"
    return None
