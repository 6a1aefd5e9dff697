"""Max-flow/min-cut and reachability substrates.

The dicut network of a partial assignment is built once, as a dense capacity
matrix (``cut_capacities``), and read by every caller that needs it. A
``FlowNetwork`` takes such a matrix, checks it and builds its residual
adjacency once; ``min_st_cut(net, source, sink)`` copies the residual
capacities, so one network serves every source-sink pair the caller asks
about. The solver finds shortest augmenting paths by breadth-first search
(Edmonds-Karp); every network here is dense with a few dozen nodes, where
this plain loop beats push-relabel's bookkeeping. Each augmentation empties
its bottleneck arc exactly, so float capacities cannot make it loop.
Infinite capacities are represented by a sentinel equal to the sum of all
finite capacities plus one, which can never be part of a finite minimum cut.
"""

from __future__ import annotations

import math
from collections import deque
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .relations import PartialAssignment, reach_or_equal

if TYPE_CHECKING:
    from .instance import Instance

Arc = tuple[int, int, float]


def cut_capacities(instance: "Instance", pa: PartialAssignment) -> np.ndarray:
    """Dense capacities of the dicut network of an assignment.

    Assigned ones are uncuttable (inf), assigned zeros free (0), every other
    pair costs its positive part c+; the diagonal is 0.
    """
    cap = np.where(pa.ones, math.inf, np.where(pa.zeros, 0.0, instance.c_plus))
    np.fill_diagonal(cap, 0.0)
    return cap


class FlowNetwork:
    """Directed capacitated graph given as a dense capacity matrix.

    ``capacities[u, v]`` is the capacity of the arc u -> v; entries must be
    nonnegative, math.inf marks uncuttable arcs, and the diagonal is
    ignored. The matrix is checked and turned into residual adjacency once,
    so one network serves minimum cuts between any source and sink.
    """

    def __init__(self, capacities: np.ndarray):
        cap = np.array(capacities, dtype=float)
        if cap.ndim != 2 or cap.shape[0] != cap.shape[1]:
            raise ValueError(f"capacities must be a square matrix, got shape {cap.shape}")
        if not (cap >= 0.0).all():
            raise ValueError("capacities must be nonnegative and not NaN")
        cap.flags.writeable = False
        self.capacities = cap
        self.n = n = cap.shape[0]
        positive = cap > 0.0
        positive.flat[:: n + 1] = False
        tails, heads = positive.nonzero()
        self._tails, self._heads = tails.tolist(), heads.tolist()
        self._caps = cap[positive].tolist()
        # the same float sum, in the same row-major order, as an arc list gives
        self._finite_total = sum([c for c in self._caps if c != math.inf])
        sentinel = self._finite_total + 1.0
        # residual arc 2m is arc m and 2m + 1 its reverse; each node's list
        # keeps row-major arc order
        adj: list[list[int]] = [[] for _ in range(n)]
        arc_to: list[int] = []
        residual: list[float] = []
        a = 0
        for u, v, c in zip(self._tails, self._heads, self._caps):
            adj[u].append(a)
            adj[v].append(a + 1)
            a += 2
            arc_to.append(v)
            arc_to.append(u)
            residual.append(sentinel if c == math.inf else c)
            residual.append(0.0)
        self._adj, self._arc_to, self._residual = adj, arc_to, residual

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """The positive off-diagonal capacities as (u, v, cap), row-major."""
        return tuple(zip(self._tails, self._heads, self._caps))


def min_st_cut(net: FlowNetwork, source: int, sink: int) -> tuple[float, set[int]]:
    """Minimum source-sink cut value and the source side of one minimum cut.

    Returns (value, U) with source in U and sink not in U; the value equals
    the maximum flow. U is the set the source reaches in the final residual
    graph, which is the inclusion-minimal minimum cut. If every cut crosses
    an infinite arc the value is math.inf and U is that reachable set. The
    network is not changed, so it can be solved again for another pair.

    Shortest augmenting paths (Edmonds & Karp, J. ACM 1972): a breadth-first
    search finds a path with the fewest arcs, the bottleneck is pushed along
    it, and this repeats until the sink is unreachable. The bottleneck arc
    is left at exactly 0.0 (x - x is exact in floating point), every other
    residual stays nonnegative, and positive residual appears only on the
    reverse arcs of the path, so the O(V E) bound on augmentations holds in
    floating point too: float residue cannot keep the loop going.
    """
    n, s, t = net.n, source, sink
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"source/sink ({s}, {t}) out of range for {n} nodes")
    if s == t:
        raise ValueError("source and sink must differ")
    adj, arc_to = net._adj, net._arc_to
    residual = net._residual.copy()
    value = 0.0
    while True:
        # via[v]: the residual arc v was reached by; -1 for the source
        via = [-2] * n
        via[s] = -1
        queue = deque([s])
        while queue and via[t] == -2:
            v = queue.popleft()
            for a in adj[v]:
                w = arc_to[a]
                if via[w] == -2 and residual[a] > 0.0:
                    via[w] = a
                    queue.append(w)
        if via[t] == -2:
            break
        path = []
        v = t
        while v != s:
            a = via[v]
            path.append(a)
            v = arc_to[a ^ 1]
        d = min([residual[a] for a in path])
        for a in path:
            residual[a] -= d
            residual[a ^ 1] += d
        value += d
    reachable = {v for v in range(n) if via[v] != -2}
    if value > net._finite_total + 0.5:
        return math.inf, reachable
    return value, reachable


def reachability_sets(adjacency: np.ndarray) -> np.ndarray:
    """Per-node reachable sets of a digraph.

    Row u of the returned boolean matrix marks every node with a u->q path,
    including u itself.
    """
    return reach_or_equal(np.asarray(adjacency, dtype=bool))
