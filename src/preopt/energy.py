"""Three-label energy minimization for the join condition.

Finding the pair of disjoint subsets that minimizes the join condition's
right-hand side is cast as an energy minimization over labels
{IN_U, IN_U_PRIME, REST}: the energy of a labeling equals the sum of
negative parts over pairs that the join map may raise plus positive parts
over pairs it may lower, with forbidden (infinite) costs wherever a flip
would contradict the current partial assignment. The minimization runs
alpha-beta swap moves, each solved exactly as one minimum s-t cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import FlowNetwork, cut_capacities, min_st_cut
from .instance import Instance
from .maps import gamma_raise_set
from .relations import PartialAssignment

IN_U = 0
IN_U_PRIME = 1
REST = 2
LABELS = (IN_U, IN_U_PRIME, REST)

#: the most swap sweeps one minimization runs
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
    """

    i: int
    j: int
    join_cost: np.ndarray
    cut_cost: np.ndarray
    tolerance: float

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

    def floor(self) -> float:
        """Lower bound on the energy of every labeling with i in U and j in U'.

        All costs are nonnegative, so dropping the terms between two elements
        other than i and j leaves the ij terms plus, per other element p, the
        cheapest of its costs against i and j as a member of U, U' or REST.
        """
        i, j = self.i, self.j
        join, cut = self.join_cost, self.cut_cost
        # p in U, in U' or in REST, each read off _PLANES
        per_label = np.minimum(
            np.minimum(join[:, j] + cut[j, :], cut[:, i] + join[i, :]), cut[:, i] + cut[j, :]
        )
        per_label[[i, j]] = 0.0
        return float(join[i, j] + cut[j, i] + per_label.sum())

    def initial_labeling(self) -> np.ndarray:
        lab = np.full(self.n, REST, dtype=np.int8)
        lab[self.i] = IN_U
        lab[self.j] = IN_U_PRIME
        return lab


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
    join = np.where(
        gamma_raise_set(pa, i, j), np.where(pa.zeros, math.inf, instance.c_minus), 0.0
    )
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
    """Sweep optimal swaps over all label pairs from the initial labeling
    until no sweep improves, at most MAX_SWEEPS times.

    Returns the labeling and its energy; the energy is non-increasing across
    sweeps. ``history``, when given, collects the energy after the initial
    labeling and each sweep.
    """
    lab = model.initial_labeling()
    energy = model.energy(lab)
    if history is not None:
        history.append(energy)
    for _ in range(MAX_SWEEPS):
        improved = False
        for alpha, beta in ((IN_U, IN_U_PRIME), (IN_U, REST), (IN_U_PRIME, REST)):
            candidate = optimal_swap(model, lab, alpha, beta)
            cand_energy = model.energy(candidate)
            if cand_energy < energy - model.tolerance:
                lab = candidate
                energy = cand_energy
                improved = True
        if history is not None:
            history.append(energy)
        if not improved:
            break
    return lab, energy
