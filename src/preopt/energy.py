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
from .relations import PartialAssignment

IN_U = 0
IN_U_PRIME = 1
REST = 2
LABELS = (IN_U, IN_U_PRIME, REST)

#: label pairs (a, b) whose ordered cost is the "may turn 1 -> 0" plane
_CUT_POSITIONS = ((IN_U_PRIME, IN_U), (REST, IN_U), (IN_U_PRIME, REST))


@dataclass(eq=False)
class EnergyModel:
    """Pairwise costs for the join condition's subset search.

    ``join_cost[p, q]`` applies when p is labeled IN_U and q IN_U_PRIME;
    ``cut_cost[p, q]`` applies on the three label pairs of _CUT_POSITIONS.
    All other label combinations cost nothing. The elements i and j are
    pinned to IN_U and IN_U_PRIME by infinite unary costs.
    """

    i: int
    j: int
    join_cost: np.ndarray
    cut_cost: np.ndarray
    tolerance: float

    @property
    def n(self) -> int:
        return self.join_cost.shape[0]

    def unary(self, p: int, label: int) -> float:
        if p == self.i:
            return 0.0 if label == IN_U else math.inf
        if p == self.j:
            return 0.0 if label == IN_U_PRIME else math.inf
        return 0.0

    def pair_cost(self, p: int, q: int, label_p: int, label_q: int) -> float:
        if label_p == IN_U and label_q == IN_U_PRIME:
            return float(self.join_cost[p, q])
        if (label_p, label_q) in _CUT_POSITIONS:
            return float(self.cut_cost[p, q])
        return 0.0

    def energy(self, labeling: np.ndarray) -> float:
        lab = np.asarray(labeling)
        if lab.shape != (self.n,):
            raise ValueError("labeling has wrong shape")
        if lab[self.i] != IN_U or lab[self.j] != IN_U_PRIME:
            return math.inf
        total = 0.0
        join_mask = np.outer(lab == IN_U, lab == IN_U_PRIME)
        np.fill_diagonal(join_mask, False)
        total += float(self.join_cost[join_mask].sum())
        cut_mask = (
            np.outer(lab == IN_U_PRIME, lab == IN_U)
            | np.outer(lab == REST, lab == IN_U)
            | np.outer(lab == IN_U_PRIME, lab == REST)
        )
        np.fill_diagonal(cut_mask, False)
        total += float(self.cut_cost[cut_mask].sum())
        return total

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
    reachable = np.outer(~pa.zeros[:, i], ~pa.zeros[j, :])
    join = np.where(
        reachable, np.where(pa.ones, 0.0, np.where(pa.zeros, math.inf, instance.c_minus)), 0.0
    )
    np.fill_diagonal(join, 0.0)
    return EnergyModel(i=i, j=j, join_cost=join, cut_cost=cut, tolerance=instance.tolerance)


def optimal_swap(model: EnergyModel, labeling: np.ndarray, alpha: int, beta: int) -> np.ndarray:
    """Best single alpha-beta swap from the labeling, via one minimum cut.

    Nodes currently labeled alpha or beta are re-split between the two
    labels; all other nodes keep their labels. The returned labeling never
    has higher energy than the input.
    """
    lab = labeling.copy()
    members = np.flatnonzero((lab == alpha) | (lab == beta))
    if members.size == 0:
        return lab
    outside = np.flatnonzero((lab != alpha) & (lab != beta))
    k = members.size
    source, sink = k, k + 1  # source side keeps alpha, sink side beta
    arcs = []
    for a_idx, p in enumerate(members):
        w_source = model.unary(int(p), beta)
        w_sink = model.unary(int(p), alpha)
        for q in outside:
            w_source += model.pair_cost(int(p), int(q), beta, int(lab[q]))
            w_source += model.pair_cost(int(q), int(p), int(lab[q]), beta)
            w_sink += model.pair_cost(int(p), int(q), alpha, int(lab[q]))
            w_sink += model.pair_cost(int(q), int(p), int(lab[q]), alpha)
        if w_source > 0.0:
            arcs.append((source, a_idx, w_source))
        if w_sink > 0.0:
            arcs.append((a_idx, sink, w_sink))
    for a_idx, p in enumerate(members):
        for b_idx, q in enumerate(members):
            if a_idx == b_idx:
                continue
            w = model.pair_cost(int(p), int(q), alpha, beta)
            w += model.pair_cost(int(q), int(p), beta, alpha)
            if w > 0.0:
                arcs.append((a_idx, b_idx, w))
    _, source_side = min_st_cut(FlowNetwork(k + 2, tuple(arcs), source, sink))
    for a_idx, p in enumerate(members):
        lab[p] = alpha if a_idx in source_side else beta
    return lab


def alpha_beta_swap_minimize(
    model: EnergyModel,
    init: np.ndarray | None = None,
    *,
    max_sweeps: int = 20,
    history: list[float] | None = None,
) -> tuple[np.ndarray, float]:
    """Sweep optimal swaps over all label pairs until no sweep improves.

    Returns the labeling and its energy; the energy never increases from the
    initial labeling and is non-increasing across sweeps. ``history``, when
    given, collects the energy after the initial labeling and each sweep.
    """
    lab = model.initial_labeling() if init is None else np.array(init, dtype=np.int8)
    if model.unary(model.i, int(lab[model.i])) == math.inf or model.unary(
        model.j, int(lab[model.j])
    ) == math.inf:
        raise ValueError("initial labeling violates a forbidden unary cost")
    energy = model.energy(lab)
    if history is not None:
        history.append(energy)
    for _ in range(max_sweeps):
        improved = False
        for alpha, beta in ((IN_U, IN_U_PRIME), (IN_U, REST), (IN_U_PRIME, REST)):
            candidate = optimal_swap(model, lab, alpha, beta)
            cand_energy = model.energy(candidate)
            if cand_energy < energy - model.tolerance or (
                math.isinf(energy) and cand_energy < energy
            ):
                lab = candidate
                energy = cand_energy
                improved = True
        if history is not None:
            history.append(energy)
        if not improved:
            break
    return lab, energy
