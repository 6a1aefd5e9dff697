"""Seeded ego-network edge lists, shaped like acceptance criterion 12.

One ego (node 0) follows the members of the first community, each other
node follows the ego with probability 0.6, and members of one community
follow each other with probability 0.5. Criterion 12 uses three
communities of 16 members; the benchmark uses smaller communities so that
one ``preopt fix`` process stays near a second.
"""

from __future__ import annotations

import numpy as np


def ego_edges(seed: int, community: int, communities: int = 3) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    n = 1 + communities * community
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()

    def add(p: int, q: int) -> None:
        if p != q and (p, q) not in seen:
            seen.add((p, q))
            edges.append((p, q))

    for q in range(1, community + 1):
        add(0, q)
    for p in range(1, n):
        if rng.random() < 0.6:
            add(p, 0)
    for p in range(1, n):
        for q in range(1, n):
            if (p - 1) // community == (q - 1) // community and rng.random() < 0.5:
                add(p, q)
    return edges


def write_edge_file(path, seed: int, community: int) -> None:
    lines = [f"{p} {q}" for p, q in ego_edges(seed, community)]
    path.write_text("\n".join(lines) + "\n")
