"""Relations on ordered pairs and partially defined preorders.

A relation is a 0/1 assignment on all ordered pairs of distinct elements of
``{0, .., n-1}``; it is feasible for the preordering problem when it is
transitive. A partial assignment maps each pair to one of zero, one or
undecided; consistency and the maximal-specificity closure are decided from
the transitive closure of its one-arcs.

The join rule (``insert_arc_closed``) and the zero rule (``implied_zeros``,
and ``insert_zero_closed`` for one new zero) read reachability straight off
a closed ones-set; closure, local search and contraction all use them.

Matrices are dense boolean numpy arrays with an all-False diagonal. The
implicit convention x_pp = 1 is applied inside the algorithms that need it
and never stored.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .instance import Instance

Pair = tuple[int, int]


class InconsistentAssignmentError(ValueError):
    """Raised when a partial assignment admits no transitive completion."""


def _pair_matrix(n: int, pairs: Iterable[Pair]) -> np.ndarray:
    """The (n, n) matrix set at the given ordered pairs of distinct elements
    of 0..n-1; any other pair raises ``ValueError``."""
    m = np.zeros((n, n), dtype=bool)
    for p, q in pairs:
        if not (0 <= p < n and 0 <= q < n) or p == q:
            raise ValueError(f"invalid pair ({p}, {q}) for n={n}")
        m[p, q] = True
    return m


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # float64 sums are exact: each counts at most n < 2**53 products
    return (a.astype(np.float64) @ b.astype(np.float64)) > 0


def transitive_closure_matrix(m: np.ndarray) -> np.ndarray:
    """Proper-path closure: entry pq set iff a directed p->q path exists."""
    reach = m.copy()
    n = reach.shape[0]
    for k in range(n):
        col = reach[:, k]
        if col.any():
            reach[col] |= reach[k]
    np.fill_diagonal(reach, False)
    return reach


def reach_or_equal(m: np.ndarray) -> np.ndarray:
    """Closure plus the identity: entry pq set iff p == q or a p->q path exists."""
    reach = transitive_closure_matrix(m)
    np.fill_diagonal(reach, True)
    return reach


def transitive_closure(rel: Iterable[Pair], n: int) -> set[Pair]:
    """Transitive closure of an arc set, as a set of ordered pairs."""
    m = np.zeros((n, n), dtype=bool)
    for p, q in rel:
        if not (0 <= p < n and 0 <= q < n):
            raise IndexError(f"pair ({p}, {q}) out of range for n={n}")
        if p == q:
            raise ValueError("diagonal pairs are not part of the relation")
        m[p, q] = True
    closed = transitive_closure_matrix(m)
    return {(int(p), int(q)) for p, q in np.argwhere(closed)}


class Relation:
    """A 0/1 assignment on all ordered pairs of distinct elements."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray, *, copy: bool = True):
        m = np.array(matrix, dtype=bool, copy=copy)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("relation matrix must be square")
        np.fill_diagonal(m, False)
        self.matrix = m

    @classmethod
    def empty(cls, n: int) -> "Relation":
        return cls(np.zeros((n, n), dtype=bool), copy=False)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Pair]) -> "Relation":
        return cls(_pair_matrix(n, pairs), copy=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def count(self) -> int:
        return int(self.matrix.sum())

    def is_transitive(self) -> bool:
        chain2 = _bool_matmul(self.matrix, self.matrix)
        np.fill_diagonal(chain2, False)
        return not (chain2 & ~self.matrix).any()

    def copy(self) -> "Relation":
        return Relation(self.matrix)

    def encode(self) -> bytes:
        """Canonical byte encoding, used for deduplication and hashing."""
        return np.packbits(self.matrix).tobytes()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relation) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return hash((self.n, self.encode()))

    def __repr__(self) -> str:
        return f"Relation(n={self.n}, ones={self.count()})"


def insert_arc_closed(m: np.ndarray, p: int, q: int) -> np.ndarray:
    """Apply the join rule for arc pq to a transitive matrix.

    Returns a new matrix with every pair (a, b) set where a reaches p
    (or a == p) and q reaches b (or b == q); the result is transitive again.
    """
    own = np.arange(len(m))
    out = m | np.outer(m[:, p] | (own == p), m[q] | (own == q))
    np.fill_diagonal(out, False)
    return out


def insert_zero_closed(ones: np.ndarray, zeros: np.ndarray, p: int, q: int) -> np.ndarray:
    """Apply the zero rule for a new zero pq to closed ones and zeros, in
    O(n^2): every ab with p reaching a (or a == p) and b reaching q (or
    b == q) becomes zero, as a one ab would give p a path to q."""
    own = np.arange(len(ones))
    out = zeros | np.outer(ones[p] | (own == p), ones[:, q] | (own == q))
    np.fill_diagonal(out, False)
    return out


def implied_zeros(reach: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """The zero rule in bulk: every ab with reach[p', a] and reach[b, q']
    for some zero p'q', where ``reach`` is the reflexive-transitive closed
    ones-set. The diagonal is False."""
    out = _bool_matmul(reach.T, _bool_matmul(zeros, reach.T))
    np.fill_diagonal(out, False)
    return out


class PartialAssignment:
    """Map from ordered pairs to {zero, one, undecided}.

    Stored as two disjoint boolean matrices, ``ones`` and ``zeros``. The
    diagonal is implicitly one and never stored.
    """

    __slots__ = ("ones", "zeros")

    def __init__(self, ones: np.ndarray, zeros: np.ndarray, *, copy: bool = True):
        o = np.array(ones, dtype=bool, copy=copy)
        z = np.array(zeros, dtype=bool, copy=copy)
        if o.shape != z.shape or o.ndim != 2 or o.shape[0] != o.shape[1]:
            raise ValueError("ones/zeros must be square matrices of equal shape")
        np.fill_diagonal(o, False)
        np.fill_diagonal(z, False)
        if (o & z).any():
            raise ValueError("a pair cannot be assigned both zero and one")
        self.ones = o
        self.zeros = z

    @classmethod
    def empty(cls, n: int) -> "PartialAssignment":
        return cls(np.zeros((n, n), dtype=bool), np.zeros((n, n), dtype=bool), copy=False)

    @classmethod
    def from_pairs(
        cls, n: int, one_pairs: Iterable[Pair] = (), zero_pairs: Iterable[Pair] = ()
    ) -> "PartialAssignment":
        return cls(_pair_matrix(n, one_pairs), _pair_matrix(n, zero_pairs), copy=False)

    @property
    def n(self) -> int:
        return self.ones.shape[0]

    @property
    def decided(self) -> np.ndarray:
        return self.ones | self.zeros

    def value(self, p: int, q: int) -> int | None:
        """Assigned value of pair pq, or None if undecided; diagonal is 1."""
        if p == q:
            return 1
        if self.ones[p, q]:
            return 1
        if self.zeros[p, q]:
            return 0
        return None

    def num_decided(self) -> int:
        return int(self.decided.sum())

    def domain_pairs(self) -> list[tuple[int, int, int]]:
        """Decided pairs as (p, q, value) triples in row-major order."""
        out = []
        dec = self.decided
        for p, q in np.argwhere(dec):
            out.append((int(p), int(q), 1 if self.ones[p, q] else 0))
        return out

    def with_assignments(self, assignments: Iterable[tuple[int, int, int]]) -> "PartialAssignment":
        """New assignment with extra pairs set (no closure, no consistency check)."""
        o = self.ones.copy()
        z = self.zeros.copy()
        for p, q, v in assignments:
            if p == q:
                raise ValueError("cannot assign a diagonal pair")
            if v == 1:
                o[p, q] = True
            elif v == 0:
                z[p, q] = True
            else:
                raise ValueError(f"assignment value must be 0 or 1, got {v}")
        return PartialAssignment(o, z, copy=False)

    def restrict(self, elements: Sequence[int]) -> "PartialAssignment":
        idx = np.ix_(elements, elements)
        return PartialAssignment(self.ones[idx], self.zeros[idx])

    def copy(self) -> "PartialAssignment":
        return PartialAssignment(self.ones, self.zeros)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PartialAssignment)
            and np.array_equal(self.ones, other.ones)
            and np.array_equal(self.zeros, other.zeros)
        )

    def __hash__(self) -> int:
        return hash((self.n, np.packbits(self.ones).tobytes(), np.packbits(self.zeros).tobytes()))

    def __repr__(self) -> str:
        return f"PartialAssignment(n={self.n}, ones={int(self.ones.sum())}, zeros={int(self.zeros.sum())})"


def is_consistent(pa: PartialAssignment) -> bool:
    """Whether at least one transitive completion exists.

    Criterion: no pair assigned zero may lie in the transitive closure of
    the one-arcs.
    """
    return not (pa.zeros & transitive_closure_matrix(pa.ones)).any()


def close(pa: PartialAssignment) -> PartialAssignment:
    """Maximal-specificity closure.

    The closed ones-set is the transitive closure of the one-arcs. The closed
    zeros-set contains pq iff some assigned-zero pair p'q' has a p'->p path
    and a q->q' path in the one-arc graph (paths may be trivial). The result
    has exactly the same completions and is idempotent under close().
    """
    ones_c = transitive_closure_matrix(pa.ones)
    if (pa.zeros & ones_c).any():
        raise InconsistentAssignmentError("assignment has no transitive completion")
    reach = ones_c.copy()
    np.fill_diagonal(reach, True)
    zeros_c = implied_zeros(reach, pa.zeros)
    if (ones_c & zeros_c).any():  # implied by the consistency check above
        raise InconsistentAssignmentError("assignment has no transitive completion")
    return PartialAssignment(ones_c, zeros_c, copy=False)


def mutual_one_classes(pa: PartialAssignment) -> list[list[int]]:
    """Element classes of size >= 2 whose internal pairs are all assigned one.

    ``pa`` must be closed: its ones are then transitive, so the elements
    mutually joined to p, plus p, are p's strongly connected component of
    the one-arc graph, i.e. a group that can be contracted. Each class is
    sorted and listed once, at its smallest member, in ascending order.
    ``merge_classes`` still checks the class it is given.
    """
    mutual = pa.ones & pa.ones.T
    # p leads its class when its first mutual partner comes after it
    lead = np.flatnonzero(mutual.argmax(axis=1) > np.arange(pa.n))
    return [[p, *np.flatnonzero(mutual[p]).tolist()] for p in lead.tolist()]


def merge_classes(
    instance: "Instance", pa: PartialAssignment, elements: Sequence[int]
) -> tuple["Instance", PartialAssignment, float, np.ndarray]:
    """Contract a class of mutually joined elements into a single element.

    Requires every internal ordered pair of ``elements`` to be assigned one
    in the closure of ``pa``; raises ``InconsistentAssignmentError`` when
    ``pa`` has no transitive completion. In the closure every member of a
    class has the same row and column, so the contracted assignment is the
    closure restricted to the other elements and one representative.
    Returns the contracted instance, the contracted (closed) assignment,
    the value offset collected from internal pairs, and the old-to-new
    element index map. The contracted element sits at the last new index.
    The optimum of the original constrained problem equals the offset plus
    the optimum of the contracted one.
    """
    from .instance import Instance

    cls = sorted(set(int(e) for e in elements))
    n = pa.n
    if len(cls) < 2:
        raise ValueError("merge requires at least two elements")
    if any(e < 0 or e >= n for e in cls):
        raise IndexError("class element out of range")
    closed = close(pa)
    sub = np.ix_(cls, cls)
    block = closed.ones[sub]
    np.fill_diagonal(block, True)
    if not block.all():
        raise ValueError("all internal pairs of the class must be assigned one")

    keep = [p for p in range(n) if p not in set(cls)]
    m = len(keep)
    new_n = m + 1
    c = instance.values
    offset = float(c[sub].sum())

    new_c = np.zeros((new_n, new_n), dtype=np.float64)
    new_c[:m, :m] = c[np.ix_(keep, keep)]
    new_c[:m, m] = c[np.ix_(keep, cls)].sum(axis=1)
    new_c[m, :m] = c[np.ix_(cls, keep)].sum(axis=0)

    old_to_new = np.empty(n, dtype=np.int64)
    old_to_new[keep] = np.arange(m)
    old_to_new[cls] = m
    return Instance(new_c, copy=False), closed.restrict(keep + [cls[0]]), offset, old_to_new
