"""Max-flow/min-cut and reachability substrates.

The dicut network of a partial assignment is built once, as a dense capacity
matrix (``cut_capacities``), and read by every caller that needs it. A
``FlowNetwork`` takes such a matrix, checks it and builds its residual
adjacency once; ``min_st_cut(net, source, sink)`` copies the residual
capacities, so one network serves every source-sink pair the caller asks
about. The solver is a push-relabel implementation with highest-label
selection, the gap heuristic and periodic global relabeling; the condition
deciders solve O(n^2) cut problems per instance, so these heuristics matter.
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
    the maximum flow. If every cut crosses an infinite arc the value is
    math.inf and U is the residual-reachable set of the source. The network
    is not changed, so it can be solved again for another pair.
    """
    n, s, t = net.n, source, sink
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"source/sink ({s}, {t}) out of range for {n} nodes")
    if s == t:
        raise ValueError("source and sink must differ")
    finite_total = net._finite_total
    adj, arc_to = net._adj, net._arc_to
    arc_cap = net._residual.copy()

    hmax = 2 * n
    height = [0] * n
    excess = [0.0] * n
    cur = [0] * n
    buckets: list[list[int]] = [[] for _ in range(hmax + 2)]
    cnt = [0] * (hmax + 2)
    highest = 0

    def activate(v: int) -> None:
        nonlocal highest
        if v not in (s, t) and excess[v] > 0.0:
            buckets[height[v]].append(v)
            if height[v] > highest:
                highest = height[v]

    def rebuild_buckets() -> None:
        nonlocal highest
        for b in buckets:
            b.clear()
        for h in range(len(cnt)):
            cnt[h] = 0
        for v in range(n):
            cnt[height[v]] += 1
        highest = 0
        for v in range(n):
            activate(v)

    def global_relabel() -> None:
        unset = hmax + 1
        h = [unset] * n
        h[s] = n
        h[t] = 0
        queue = deque([t])
        while queue:
            v = queue.popleft()
            for a in adj[v]:
                w = arc_to[a]
                if h[w] == unset and arc_cap[a ^ 1] > 0.0:
                    h[w] = h[v] + 1
                    queue.append(w)
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for a in adj[v]:
                w = arc_to[a]
                if h[w] == unset and arc_cap[a ^ 1] > 0.0:
                    h[w] = h[v] + 1
                    queue.append(w)
        for v in range(n):
            height[v] = h[v] if h[v] != unset else hmax
        rebuild_buckets()

    # saturate the source's out-arcs, then discharge by highest label
    height[s] = n
    for a in adj[s]:
        d = arc_cap[a]
        if d > 0.0:
            arc_cap[a] = 0.0
            arc_cap[a ^ 1] += d
            excess[arc_to[a]] += d
            excess[s] -= d
    global_relabel()

    relabels = 0
    while True:
        while highest >= 0 and not buckets[highest]:
            highest -= 1
        if highest < 0:
            break
        v = buckets[highest].pop()
        if v in (s, t) or excess[v] <= 0.0:
            continue
        if height[v] != highest:
            activate(v)
            continue
        need_global = False
        stranded = False
        while excess[v] > 0.0:
            if cur[v] == len(adj[v]):
                old = height[v]
                new_h = hmax + 1
                for a in adj[v]:
                    if arc_cap[a] > 0.0 and height[arc_to[a]] + 1 < new_h:
                        new_h = height[arc_to[a]] + 1
                if new_h > hmax:
                    # no residual arc leads below height 2n, so the excess
                    # (float residue) can reach neither sink nor source;
                    # re-queueing v would pop it at this height forever
                    height[v] = hmax
                    stranded = True
                    break
                cnt[old] -= 1
                height[v] = new_h
                cnt[new_h] += 1
                cur[v] = 0
                if cnt[old] == 0 and old < n:
                    # gap: nodes stranded above the hole can never reach t
                    for w in range(n):
                        if old < height[w] < n:
                            cnt[height[w]] -= 1
                            height[w] = n + 1
                            cnt[n + 1] += 1
                relabels += 1
                if relabels >= n:
                    relabels = 0
                    need_global = True
                    break
            else:
                a = adj[v][cur[v]]
                w = arc_to[a]
                if arc_cap[a] > 0.0 and height[v] == height[w] + 1:
                    d = min(excess[v], arc_cap[a])
                    arc_cap[a] -= d
                    arc_cap[a ^ 1] += d
                    excess[v] -= d
                    had = excess[w]
                    excess[w] += d
                    if had <= 0.0:
                        activate(w)
                else:
                    cur[v] += 1
        if need_global:
            global_relabel()
        elif not stranded:
            activate(v)

    value = excess[t]
    reachable = {s}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for a in adj[v]:
            w = arc_to[a]
            if w not in reachable and arc_cap[a] > 0.0:
                reachable.add(w)
                queue.append(w)
    if value > finite_total + 0.5:
        return math.inf, reachable
    return value, reachable


def reachability_sets(adjacency: np.ndarray) -> np.ndarray:
    """Per-node reachable sets of a digraph.

    Row u of the returned boolean matrix marks every node with a u->q path,
    including u itself.
    """
    return reach_or_equal(np.asarray(adjacency, dtype=bool))
