"""Three-label energy minimization for the join condition.

Finding the pair of disjoint subsets that minimizes the join condition's
right-hand side is cast as an energy minimization over labels
{IN_U, IN_U_PRIME, REST}: the energy of a labeling equals the sum of
negative parts over pairs that the join map may raise plus positive parts
over pairs it may lower, with forbidden (infinite) costs wherever a flip
would contradict the current partial assignment. The minimization runs
alpha-beta swap moves, each solved exactly as one minimum s-t cut, cycling
over the three label pairs. It stops when three moves in a row leave the
labeling unchanged (a full cycle with no change; Boykov, Veksler & Zabih,
2001), when the model's gain minus the energy reaches the tolerance, or
after ``3 * MAX_SWEEPS`` swap moves, and it skips the moves whose result
is already known. ``join_floors`` bounds the minimum energy of every
pair's model from below in one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .flow import FlowNetwork, cut_capacities, min_st_cut
from .instance import Instance
from .maps import gamma_raise_set
from .relations import PartialAssignment

IN_U = 0
IN_U_PRIME = 1
REST = 2
LABELS = (IN_U, IN_U_PRIME, REST)

#: the swap moves, in the order a sweep solves them
SWAPS = ((IN_U, IN_U_PRIME), (IN_U, REST), (IN_U_PRIME, REST))

#: one minimization solves at most this many sweeps' worth of swap moves
MAX_SWEEPS = 20

#: the cost plane each ordered label pair (label of p, label of q) reads;
#: every other pair costs nothing
_PLANES = {
    (IN_U, IN_U_PRIME): "join_cost",
    (IN_U_PRIME, IN_U): "cut_cost",
    (REST, IN_U): "cut_cost",
    (IN_U_PRIME, REST): "cut_cost",
}


@dataclass(eq=False)
class EnergyModel:
    """Pairwise costs for the join condition's subset search.

    ``join_cost[p, q]`` applies when p is labeled IN_U and q IN_U_PRIME;
    ``cut_cost[p, q]`` applies on the three other label pairs of _PLANES.
    All other label combinations cost nothing. The elements i and j are
    pinned to IN_U and IN_U_PRIME by infinite terminal arcs in each swap.
    ``gain`` is the value the energy is compared with: the minimization
    stops once gain - energy reaches the tolerance. NaN never does.
    """

    i: int
    j: int
    join_cost: np.ndarray
    cut_cost: np.ndarray
    tolerance: float
    gain: float = math.nan

    @property
    def n(self) -> int:
        return self.join_cost.shape[0]

    def plane(self, label_p: int, label_q: int) -> np.ndarray | None:
        """The cost matrix read when p has label_p and q has label_q, or None."""
        name = _PLANES.get((label_p, label_q))
        return None if name is None else getattr(self, name)

    def energy(self, labeling: np.ndarray) -> float:
        lab = np.asarray(labeling)
        if lab.shape != (self.n,):
            raise ValueError("labeling has wrong shape")
        if lab[self.i] != IN_U or lab[self.j] != IN_U_PRIME:
            return math.inf
        members = [np.flatnonzero(lab == label) for label in LABELS]
        total = 0.0
        # label classes are disjoint, so no block touches the diagonal
        for (label_p, label_q), name in _PLANES.items():
            block = getattr(self, name)[members[label_p]][:, members[label_q]]
            total += float(block.sum())
        return total

    def initial_labeling(self) -> np.ndarray:
        lab = np.full(self.n, REST, dtype=np.int8)
        lab[self.i] = IN_U
        lab[self.j] = IN_U_PRIME
        return lab


def _join_base(instance: Instance, pa: PartialAssignment) -> np.ndarray:
    """The join-plane costs of every pair's model before gamma's raise-set
    mask: c- where undecided, infinite where assigned zero, 0 where
    assigned one and on the diagonal."""
    base = np.where(pa.ones, 0.0, np.where(pa.zeros, math.inf, instance.c_minus))
    np.fill_diagonal(base, 0.0)
    return base


def join_floors(instance: Instance, pa: PartialAssignment) -> np.ndarray:
    """Lower bound on the minimum energy of ``build_join_energy(instance,
    pa, i, j)`` at [i, j], for every undecided pair at once.

    All costs are nonnegative, so dropping the terms between two elements
    other than i and j leaves the ij terms plus, per other element p, the
    cheapest of its costs against i and j as a member of U, U' or REST,
    each read off _PLANES. The cut costs do not depend on the pair, and
    gamma's raise set keeps the join cost of pj exactly where pi is not
    assigned zero, and that of ip where jp is not. Both matrices have a
    zero diagonal, so the terms of p = i and p = j are zero and the sum
    may run over every p. The terms are built for one ``bounds.row_slabs``
    slab of rows i at a time, with each pair's arithmetic in the order of a
    single pair's, so each entry is the same float. Entries of decided
    pairs bound nothing.
    """
    n = instance.n
    cut = cut_capacities(instance, pa)
    base = _join_base(instance, pa)
    not_zero = ~pa.zeros
    cut_t, base_t, not_zero_t = (np.ascontiguousarray(a.T) for a in (cut, base, not_zero))
    out = base + cut_t  # the terms ij and ji
    for slab in bounds.row_slabs(n):
        # [i - slab.start, j, p]: p in U pays join[p, j] + cut[j, p]
        terms = np.where(not_zero_t[slab, None], base_t[None], 0.0)
        terms += cut[None]
        # p in U' pays cut[p, i] + join[i, p]
        other = np.where(not_zero[None], base[slab, None], 0.0)
        other += cut_t[slab, None]
        np.minimum(terms, other, out=terms)
        # p in REST pays cut[p, i] + cut[j, p]
        np.add(cut_t[slab, None], cut[None], out=other)
        np.minimum(terms, other, out=terms)
        out[slab] += terms.sum(axis=2)
    return out


def build_join_energy(
    instance: Instance, pa: PartialAssignment, i: int, j: int
) -> EnergyModel:
    """Energy model whose minimum over labelings with i in U and j in U'
    equals the smallest right-hand side of the join condition.

    Cut-plane costs: c+ where undecided, 0 where assigned zero (the pair can
    never flip down), infinite where assigned one (a flip would break the
    assignment). Join-plane costs mirror this for upward flips, and are 0
    wherever the assignment already rules the pair out of the flip set.
    """
    if pa.value(i, j) is not None:
        raise ValueError("pair ij must be undecided")
    cut = cut_capacities(instance, pa)
    join = np.where(gamma_raise_set(pa, i, j), _join_base(instance, pa), 0.0)
    return EnergyModel(i=i, j=j, join_cost=join, cut_cost=cut, tolerance=instance.tolerance)


def optimal_swap(model: EnergyModel, labeling: np.ndarray, alpha: int, beta: int) -> np.ndarray:
    """Best single alpha-beta swap from the labeling, via one minimum cut.

    Nodes currently labeled alpha or beta are re-split between the two
    labels; all other nodes keep their labels. The returned labeling never
    has higher energy than the input.
    """
    lab = labeling.copy()
    in_swap = (lab == alpha) | (lab == beta)
    members = np.flatnonzero(in_swap)
    k = members.size
    outside = np.flatnonzero(~in_swap)
    (third,) = set(LABELS) - {alpha, beta}  # the label of every outside node
    source, sink = k, k + 1  # source side keeps alpha, sink side beta
    cap = np.zeros((k + 2, k + 2))
    # terminal arcs: source -> p is cut when p takes beta, p -> sink when it
    # takes alpha; each prices p's label against every outside node, and
    # one that would move i or j off its label cannot be cut
    for label, terminal in ((beta, cap[source, :k]), (alpha, cap[:k, sink])):
        costs = model.plane(label, third)
        if costs is not None:
            terminal += costs[members][:, outside].sum(axis=1)
        costs = model.plane(third, label)
        if costs is not None:
            terminal += costs[outside][:, members].sum(axis=0)
        for pinned, pinned_label in ((model.i, IN_U), (model.j, IN_U_PRIME)):
            if label != pinned_label:
                terminal[members == pinned] = math.inf
    # pairwise arcs: p -> q is cut when p keeps alpha and q takes beta
    block = cap[:k, :k]
    costs = model.plane(alpha, beta)
    if costs is not None:
        block += costs[members][:, members]
    costs = model.plane(beta, alpha)
    if costs is not None:
        block += costs[members][:, members].T
    _, source_side = min_st_cut(FlowNetwork(cap), source, sink)
    lab[members] = [alpha if a in source_side else beta for a in range(k)]
    return lab


def alpha_beta_swap_minimize(
    model: EnergyModel, *, history: list[float] | None = None
) -> tuple[np.ndarray, float]:
    """Cycle optimal swaps over the label pairs, in SWAPS order, from the
    initial labeling until the model's gain minus the energy reaches the
    tolerance or three swap moves in a row leave the labeling unchanged, at
    most ``len(SWAPS) * MAX_SWEEPS`` swap moves.

    A swap is accepted when it lowers the energy by more than the tolerance.
    Moves that cannot change the labeling are not solved: a swap whose
    members are only the pinned i and j returns its input, and so does the
    swap just accepted, solved again on its own output (the same members
    face the same outside labels, so its network is the same). With a NaN
    gain the labeling and energy are therefore those of full sweeps until
    one sweep improves nothing; a finite gain stops that same sequence at
    its first energy with gain - energy >= tolerance, so whether that test
    holds at the end does not change. Returns the labeling and its energy;
    the energy never rises. ``history``, when given, collects the energy of
    the initial labeling and after each accepted swap.
    """
    lab = model.initial_labeling()
    energy = model.energy(lab)
    if history is not None:
        history.append(energy)
    unchanged = 0  # swap moves in a row known to leave lab as it is
    for move in range(len(SWAPS) * MAX_SWEEPS):
        if unchanged == len(SWAPS) or model.gain - energy >= model.tolerance:
            break
        alpha, beta = SWAPS[move % len(SWAPS)]
        free = (lab == alpha) | (lab == beta)
        free[[model.i, model.j]] = False
        if free.any():
            candidate = optimal_swap(model, lab, alpha, beta)
            if not np.array_equal(candidate, lab):
                cand_energy = model.energy(candidate)
                if cand_energy < energy - model.tolerance:
                    lab = candidate
                    energy = cand_energy
                    unchanged = 1  # this move, solved again, returns its output
                    if history is not None:
                        history.append(energy)
                    continue
        unchanged += 1
    return lab, energy
