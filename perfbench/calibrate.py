"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the same Python work can take 40 % longer in one minute
than in the next. The benchmark times this kernel right before and right
after every timed call and set-up, and reports those times scaled to
``REFERENCE_S``, the kernel's time at the reference speed. The kernel mixes
what ``preopt`` does at these sizes: small numpy operations, list and dict
work, and a pure-Python graph search with float arithmetic. It is the
benchmark's own code, so a change to the library does not change it.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

#: seconds one kernel run takes at the reference speed
REFERENCE_S = 0.0025

_N = 24
_ADJ = [[(u * 7 + v * 3) % _N for v in range(5)] for u in range(_N)]
_CAP = [[float((u * 13 + v * 5) % 11) / 3.0 for v in range(5)] for u in range(_N)]


def reference_kernel() -> float:
    total = 0.0
    a = np.arange(64.0).reshape(8, 8)
    for i in range(100):
        b = a * (i % 7) + 1.0
        total += float(b.sum()) + float(b[i % 8].max())
    for i in range(200):
        row = [k * i for k in range(24)]
        table = {k: v for k, v in enumerate(row)}
        total += sum(table.values()) / (1 + len(row))
    for rep in range(120):
        start = rep % _N
        dist = [-1] * _N
        dist[start] = 0
        excess = [0.0] * _N
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for j, v in enumerate(_ADJ[u]):
                if _CAP[u][j] > 0.0 and dist[v] < 0:
                    dist[v] = dist[u] + 1
                    excess[v] += min(_CAP[u][j], 1.5)
                    queue.append(v)
        total += sum(excess)
    return total


def kernel_seconds() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def speed_factors(kernel: list[float], window: int = 5) -> list[float]:
    """``REFERENCE_S`` over the median kernel time of each sample's neighbourhood."""
    half = window // 2
    return [
        REFERENCE_S / statistics.median(kernel[max(0, i - half): i + half + 1])
        for i in range(len(kernel))
    ]
