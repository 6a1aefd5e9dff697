"""Preordering instances: representation, generation, ingestion and file io.

An instance is a dense matrix of pair values c_pq with zero diagonal; the
objective of a relation x is the sum of c over the arcs of x.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Iterable, Sequence

import numpy as np

from .relations import Pair, PartialAssignment, Relation, insert_arc_closed, is_consistent
from .rng import SplitMix64

#: comparisons against condition inequalities fire only beyond this slack,
#: scaled by the total absolute value mass of the instance
TOLERANCE_SCALE = 1e-9


class Instance:
    """A preordering instance: n elements and a value for every ordered pair."""

    __slots__ = ("values", "_c_plus", "_c_minus", "_tolerance")

    def __init__(self, values: np.ndarray, *, copy: bool = True):
        v = np.array(values, dtype=np.float64, copy=copy)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("value matrix must be square")
        if v.shape[0] < 1:
            raise ValueError("instance needs at least one element")
        if not np.isfinite(v).all():
            raise ValueError("instance values must be finite")
        if np.diagonal(v).any():
            raise ValueError("diagonal values must be zero")
        with np.errstate(over="ignore"):
            mass = float(np.abs(v).sum())
        if not math.isfinite(mass):
            raise ValueError("the sum of absolute instance values overflows")
        v.flags.writeable = False
        self.values = v
        self._c_plus = None
        self._c_minus = None
        self._tolerance = TOLERANCE_SCALE * max(1.0, mass)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def c_plus(self) -> np.ndarray:
        """Positive parts max(c, 0)."""
        if self._c_plus is None:
            cp = np.maximum(self.values, 0.0)
            cp.flags.writeable = False
            self._c_plus = cp
        return self._c_plus

    @property
    def c_minus(self) -> np.ndarray:
        """Negative parts max(-c, 0)."""
        if self._c_minus is None:
            cm = np.maximum(-self.values, 0.0)
            cm.flags.writeable = False
            self._c_minus = cm
        return self._c_minus

    @property
    def tolerance(self) -> float:
        """Slack below which condition inequalities are treated as ties."""
        return self._tolerance

    def pair_count(self) -> int:
        return self.n * (self.n - 1)

    def restrict(self, elements: Sequence[int]) -> "Instance":
        """Sub-instance on the given elements, in the given order."""
        idx = np.ix_(elements, elements)
        return Instance(self.values[idx])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Instance) and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"Instance(n={self.n})"


def evaluate(instance: Instance, x: Relation) -> float:
    """Objective value of a relation: sum of c over its arcs."""
    if x.n != instance.n:
        raise ValueError(f"relation on {x.n} elements, instance on {instance.n}")
    return float(instance.values[x.matrix].sum())


@dataclass(frozen=True)
class GeneratorConfig:
    """Synthetic instance parameters.

    alpha steers difficulty: value means are +-(1 - alpha) depending on the
    ground truth and the common standard deviation is 0.1 + 0.3 * alpha.
    p_edges is the target arc density of the ground-truth preorder.
    """

    n: int
    p_edges: float
    alpha: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0.0 <= self.p_edges <= 1.0:
            raise ValueError("p_edges must lie in [0, 1]")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


def generate_ground_truth(n: int, p_edges: float, rng: SplitMix64) -> Relation:
    """Grow a random transitive ground truth up to the target arc density.

    Starting from the empty relation, repeatedly pick a uniformly random
    non-arc and insert it with the elementary join (which restores
    transitivity); stop as soon as the density target is met. The join may
    overshoot the target because it inserts implied arcs as well.
    """
    m = np.zeros((n, n), dtype=bool)
    total = n * (n - 1)
    if total == 0:
        return Relation(m, copy=False)
    offdiag = ~np.eye(n, dtype=bool)
    while m.sum() / total < p_edges:
        candidates = np.flatnonzero((~m & offdiag).ravel())
        e = int(candidates[rng.randrange(len(candidates))])
        m = insert_arc_closed(m, e // n, e % n)
    return Relation(m, copy=False)


def draw_values(truth: Relation, alpha: float, rng: SplitMix64) -> Instance:
    """Draw pair values around the ground truth, in row-major pair order."""
    n = truth.n
    std = 0.1 + 0.3 * alpha
    c = np.zeros((n, n), dtype=np.float64)
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            mean = 1.0 - alpha if truth.matrix[p, q] else -1.0 + alpha
            c[p, q] = rng.normal(mean, std)
    return Instance(c, copy=False)


def generate_synthetic(cfg: GeneratorConfig) -> tuple[Instance, Relation]:
    """Deterministic synthetic instance plus its ground-truth preorder."""
    rng = SplitMix64(cfg.seed)
    truth = generate_ground_truth(cfg.n, cfg.p_edges, rng)
    instance = draw_values(truth, cfg.alpha, rng)
    return instance, truth


def ingest_ego_network(
    edges: Iterable[Pair], nodes: Sequence[Hashable]
) -> Instance:
    """Instance from a follower digraph: +1 for present arcs, -1 otherwise.

    Edges are deduplicated and self-loops dropped. Exactly the nodes provided
    form the element set (whether that includes an ego node is up to the
    caller).
    """
    if len(nodes) == 0:
        raise ValueError("node list must not be empty")
    index = {node: k for k, node in enumerate(nodes)}
    if len(index) != len(nodes):
        raise ValueError("node list contains duplicates")
    n = len(nodes)
    c = np.full((n, n), -1.0, dtype=np.float64)
    np.fill_diagonal(c, 0.0)
    for src, dst in set(edges):
        if src not in index or dst not in index:
            raise ValueError(f"edge endpoint {src!r} or {dst!r} not in node list")
        if src == dst:
            continue
        c[index[src], index[dst]] = 1.0
    return Instance(c, copy=False)


def _read_text(path: str | Path) -> str:
    """The text of an input file; one that does not decode is a data error
    naming the file."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_edge_list(path: str | Path) -> tuple[list, list[tuple]]:
    """Parse a whitespace-separated "src dst" edge file.

    Returns the sorted list of node ids seen and the edge list. Node ids are
    kept as ints when every token is an ASCII decimal in canonical form
    ("7", not "07" or "²"), as strings otherwise, so that distinct labels
    stay distinct nodes.
    """
    raw: list[tuple[str, str]] = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'src dst', got {line!r}")
        raw.append((parts[0], parts[1]))
    numeric = all(t.isascii() and t.isdigit() and t == str(int(t)) for e in raw for t in e)
    if numeric:
        edges = [(int(s), int(d)) for s, d in raw]
    else:
        edges = list(raw)
    nodes = sorted({p for e in edges for p in e})
    return nodes, edges


def save_instance(instance: Instance, path: str | Path) -> None:
    """Write the CSV instance format: an "n=<count>" line, a header, and one
    row per non-zero pair value. repr() formatting round-trips floats exactly."""
    lines = [f"n={instance.n}", "p,q,c"]
    v = instance.values
    for p in range(instance.n):
        for q in range(instance.n):
            if p != q and v[p, q] != 0.0:
                lines.append(f"{p},{q},{float(v[p, q])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def _number(field: str, kind: type):
    """``kind(field)`` for a plain ASCII field. int() and float() alone would
    read "1_0" as 10 and a non-ASCII digit such as a full-width one as 1."""
    if not field.isascii() or "_" in field:
        raise ValueError(f"field {field.strip()!r} is not a plain ASCII number")
    return kind(field)


def load_instance(path: str | Path) -> Instance:
    """Read the CSV instance format written by save_instance.

    Unlisted pairs default to value zero. Rejects, with a "path:line"
    message, a count or row field that is not a plain ASCII number, malformed
    rows, duplicate pairs, diagonal entries and non-finite values; rejects,
    with a "path:" message, a count too large to allocate and values whose
    absolute sum overflows. A value matrix larger than physical memory
    counts as too large before it is allocated: numpy may reserve it lazily
    and fail only once it is filled, out of memory.
    """
    lines = [
        (lineno, ln.strip())
        for lineno, ln in enumerate(_read_text(path).splitlines(), start=1)
        if ln.strip()
    ]
    if not lines or not lines[0][1].startswith("n="):
        raise ValueError(f"{path}: missing 'n=<count>' line")
    lineno, line = lines[0]
    try:
        n = _number(line[2:], int)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: malformed element count {line!r}: {exc}") from exc
    if n < 1:
        raise ValueError(f"{path}: element count must be positive")
    if len(lines) < 2 or lines[1][1].replace(" ", "") != "p,q,c":
        raise ValueError(f"{path}: missing 'p,q,c' header")
    too_large = f"{path}: element count {n} is too large to allocate"
    if n * n * 8 > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        raise ValueError(too_large)
    try:
        c = np.zeros((n, n), dtype=np.float64)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
        raise ValueError(too_large) from exc
    seen = set()
    for lineno, line in lines[2:]:
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}")
        try:
            p, q, value = _number(parts[0], int), _number(parts[1], int), _number(parts[2], float)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}: {exc}") from exc
        if not (0 <= p < n and 0 <= q < n):
            raise ValueError(f"{path}:{lineno}: pair ({p}, {q}) out of range")
        if p == q:
            raise ValueError(f"{path}:{lineno}: diagonal pair ({p}, {q}) forbidden")
        if (p, q) in seen:
            raise ValueError(f"{path}:{lineno}: duplicate pair ({p}, {q})")
        if not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: non-finite value {parts[2]!r}")
        seen.add((p, q))
        c[p, q] = value
    try:
        return Instance(c, copy=False)
    except ValueError as exc:  # the rows are valid one by one; their sum is not
        raise ValueError(f"{path}: {exc}") from exc


def save_partial(pa, path: str | Path) -> None:
    """Write a partial assignment as bare "p,q,{0|1}" rows (undecided omitted)."""
    lines = [f"{p},{q},{v}" for p, q, v in pa.domain_pairs()]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_partial(path: str | Path, n: int):
    """Read "p,q,{0|1}" rows into a partial assignment on n elements.

    Rejects, with a "path:line" message, rows that are malformed, hold a
    field that is not a plain ASCII integer, an index outside 0..n-1, a
    diagonal pair, a value other than 0 or 1, or a value that contradicts an
    earlier row; rejects with a "path:" message rows that have no transitive
    completion together.
    """
    assignments = []
    first_seen: dict[tuple[int, int], tuple[int, int]] = {}
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}")
        try:
            p, q, v = (_number(part, int) for part in parts)
        except ValueError as exc:
            raise ValueError(
                f"{path}:{lineno}: non-integer field in row {line!r}: {exc}"
            ) from exc
        if not (0 <= p < n and 0 <= q < n):
            raise ValueError(f"{path}:{lineno}: pair ({p}, {q}) out of range for n={n}")
        if p == q:
            raise ValueError(f"{path}:{lineno}: diagonal pair ({p}, {q}) forbidden")
        if v not in (0, 1):
            raise ValueError(f"{path}:{lineno}: value must be 0 or 1")
        earlier = first_seen.setdefault((p, q), (v, lineno))
        if earlier[0] != v:
            raise ValueError(
                f"{path}:{lineno}: pair ({p}, {q}) set to {v}, "
                f"but line {earlier[1]} sets it to {earlier[0]}"
            )
        assignments.append((p, q, v))
    pa = PartialAssignment.empty(n).with_assignments(assignments)
    if not is_consistent(pa):
        raise ValueError(f"{path}: the assignment has no transitive completion")
    return pa
