"""Max-flow/min-cut and reachability substrates, and what a pin costs.

``pinned_values`` is the one place where pins become arc values: each arc's
value when set to one and when set to zero, -inf where its pin forbids it.
``pin_costs`` derives what setting each arc to zero (the cut plane) or to
one (the join plane) gives up; the cut plane is the dicut network's dense
capacity matrix, ``cut_capacities``. A
``FlowNetwork`` takes such a matrix, checks it and keeps it as the residual
graph: one row of residual capacities per node, plus one bit row per node, a
Python int whose bit w is set when the residual arc v -> w is positive.
``min_st_cut(net, source, sink)`` copies both, so one network serves every
source-sink pair the caller asks about. The solver finds shortest augmenting
paths by breadth-first search (Edmonds-Karp), one level at a time: the next
level is the OR of the current level's bit rows less the nodes already seen,
so the interpreter loops over nodes, not over arcs. Every network here is
dense with a few dozen nodes, where this beats push-relabel's bookkeeping.
Each augmentation empties its bottleneck entry exactly, so float capacities
cannot make it loop.
The flow value at any step bounds every s-t cut from below, so a caller
that only needs to know whether the minimum cut stays within a limit can
have the solver stop once the flow exceeds it.
Infinite capacities are represented by a sentinel equal to the sum of all
finite capacities plus one, which can never be part of a finite minimum cut.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .relations import PartialAssignment, reach_or_equal

if TYPE_CHECKING:
    from .instance import Instance

Arc = tuple[int, int, float]


def pinned_values(instance: "Instance", pa: PartialAssignment) -> tuple[np.ndarray, np.ndarray]:
    """Each arc's value when set to one (``hi``) and when set to zero
    (``lo``), -inf where its pin forbids that value. The diagonal is
    unpinned, at 0 both ways."""
    hi = np.where(pa.zeros, -math.inf, instance.values)
    lo = np.where(pa.ones, -math.inf, 0.0)
    return hi, lo


def pin_costs(instance: "Instance", pa: PartialAssignment) -> tuple[np.ndarray, np.ndarray]:
    """What setting each arc to zero (``cut``) and to one (``join``) gives
    up against its best pinned value: c+ and c- where undecided, inf where
    the pin forbids the value, 0 where the pin sets it and on the diagonal."""
    hi, lo = pinned_values(instance, pa)
    best = np.maximum(hi, lo)
    return best - lo, best - hi


def cut_capacities(instance: "Instance", pa: PartialAssignment) -> np.ndarray:
    """Dense capacities of the dicut network of an assignment: the cut
    plane of ``pin_costs``."""
    return pin_costs(instance, pa)[0]


class FlowNetwork:
    """Directed capacitated graph given as a dense capacity matrix.

    ``capacities[u, v]`` is the capacity of the arc u -> v; entries must be
    nonnegative, math.inf marks uncuttable arcs, and the diagonal is
    ignored. The matrix is checked and its residual rows and bit rows are
    built once, so one network serves minimum cuts between any source
    and sink.
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
        finite = np.isfinite(cap)
        # the same float sum, in the same row-major order, as the arc list gives
        self._finite_total = sum(cap[positive & finite].tolist())
        self._residual = np.where(finite, cap, self._finite_total + 1.0).tolist()
        # bit w of row v is set when the residual arc v -> w is positive
        packed = np.packbits(positive, axis=1, bitorder="little").tolist()
        self._bits = [int.from_bytes(row, "little") for row in packed]

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """The positive off-diagonal capacities as (u, v, cap), row-major."""
        positive = self.capacities > 0.0
        positive.flat[:: self.n + 1] = False
        tails, heads = positive.nonzero()
        return tuple(zip(tails.tolist(), heads.tolist(), self.capacities[positive].tolist()))


def min_st_cut(
    net: FlowNetwork, source: int, sink: int, limit: float = math.inf
) -> tuple[float, set[int] | None]:
    """Minimum source-sink cut value and the source side of one minimum cut.

    Returns (value, U) with source in U and sink not in U; the value equals
    the maximum flow. U is the set the source reaches in the final residual
    graph, which is the inclusion-minimal minimum cut. If every cut crosses
    an infinite arc the value is math.inf and U is that reachable set. The
    network is not changed, so it can be solved again for another pair.

    The search stops as soon as the flow value exceeds ``limit`` and returns
    (that value, None): a lower bound on every source-sink cut, and no cut.
    Partial flow values never exceed the final one, so a minimum cut of at
    most ``limit`` comes back exactly as without a limit. Infinite arcs
    carry flow at the sentinel, so a limit above the sentinel can still
    return (math.inf, U).

    Shortest augmenting paths (Edmonds & Karp, J. ACM 1972) on the residual
    matrix: a breadth-first search finds a path with the fewest arcs, the
    bottleneck is pushed along it, and this repeats until the sink is
    unreachable. The search grows one level at a time on the bit rows; the
    path is walked back from the sink, taking in each earlier level the
    lowest node with a positive arc into the current one. After each
    augmentation the bit of every entry at exactly 0.0 is cleared and the
    bit of every reverse arc set, so the bit rows mark the positive
    residuals throughout. The bottleneck entry is left at exactly 0.0
    (x - x is exact in floating point), every other residual stays
    nonnegative, and positive residual appears only on the reverse pairs of
    the path, so the O(V E) bound on augmentations holds in floating point
    too: float residue cannot keep the loop going.
    """
    n, s, t = net.n, source, sink
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"source/sink ({s}, {t}) out of range for {n} nodes")
    if s == t:
        raise ValueError("source and sink must differ")
    bits = net._bits.copy()
    residual = [row.copy() for row in net._residual]
    sink_bit = 1 << t
    value = 0.0
    while True:
        if value > limit:
            return value, None
        # levels[k]: the nodes k arcs from the source, as a bit set
        levels = []
        seen = frontier = 1 << s
        while frontier and not frontier & sink_bit:
            levels.append(frontier)
            reached = 0
            while frontier:
                low = frontier & -frontier
                reached |= bits[low.bit_length() - 1]
                frontier ^= low
            frontier = reached & ~seen
            seen |= frontier
        if not frontier:
            break
        path = []
        w = t
        for level in reversed(levels):
            while True:
                low = level & -level
                v = low.bit_length() - 1
                if bits[v] >> w & 1:
                    break
                level ^= low
            path.append((v, w))
            w = v
        d = min([residual[v][w] for v, w in path])
        for v, w in path:
            row = residual[v]
            row[w] -= d
            if row[w] == 0.0:
                bits[v] &= ~(1 << w)
            residual[w][v] += d
            bits[w] |= 1 << v
        value += d
    reachable = {v for v in range(n) if seen >> v & 1}
    if value > net._finite_total + 0.5:
        return math.inf, reachable
    return value, reachable


def reachability_sets(adjacency: np.ndarray) -> np.ndarray:
    """Per-node reachable sets of a digraph.

    Row u of the returned boolean matrix marks every node with a u->q path,
    including u itself.
    """
    return reach_or_equal(np.asarray(adjacency, dtype=bool))
