"""The four benchmark workloads: what one round holds and how it is seeded.

This module imports nothing from ``preopt``; the runner and the worker both
read it, and only the worker turns a spec into an instance.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the condition order of ``preopt.DEFAULT_CONDITIONS``, named here so the
#: runner needs no import of the library
DEFAULT_CONDITIONS = (
    "directed-cut",
    "edge-cut",
    "bbk-strong-0",
    "edge-join",
    "bbk-strong-1",
    "subset-u",
)
CUT_CONDITIONS = ("directed-cut", "edge-cut")

#: the instance on which ``flow.min_st_cut`` never returns (see README); it
#: does not depend on ``--seed``
HANG_SPEC = {"n": 30, "p_edges": 0.5, "alpha": 0.5, "seed": 0, "grid": 0}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "api" (run_joint in a worker) or "cli" (preopt fix processes)
    conditions: tuple[str, ...]
    single_pass: bool
    round_size: int  # seeded instances per round
    time_limit_s: float  # per timed call; far above the slowest completing one
    setup_samples: int  # set-ups per run; setup_s is their median
    hang_per_round: bool = False
    check: str = "exact"  # "exact", "cut-witness" or "cli"
    n: int = 0
    alphas: tuple[float, ...] = ()
    p_edges: float = 0.5
    community: int = 0  # ego workloads: members per community
    grid: int = 0  # when set, values are rounded to multiples of 1/grid


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="synth-easy", kind="api", conditions=DEFAULT_CONDITIONS,
            single_pass=False, round_size=80, time_limit_s=3.0, setup_samples=5,
            hang_per_round=True, n=12, alphas=(0.1, 0.5), grid=1024,
        ),
        Workload(
            name="synth-hard", kind="api", conditions=DEFAULT_CONDITIONS,
            single_pass=True, round_size=112, time_limit_s=3.0, setup_samples=5,
            n=8, alphas=(0.9,), grid=1024,
        ),
        Workload(
            name="cuts-large", kind="api", conditions=CUT_CONDITIONS,
            single_pass=True, round_size=50, time_limit_s=5.0, setup_samples=5,
            check="cut-witness", n=30, alphas=(0.7,), p_edges=0.2, grid=1024,
        ),
        Workload(
            name="ego-cli", kind="cli", conditions=DEFAULT_CONDITIONS,
            single_pass=False, round_size=16, time_limit_s=30.0, setup_samples=3,
            check="cli", community=5,
        ),
    )
}


def instance_seed(seed: int, slot: int) -> int:
    """Generator seed of round slot ``slot`` under benchmark seed ``seed``."""
    return 1_000_003 * (seed + 1) + 7919 * slot


def round_specs(workload: Workload, seed: int) -> list[dict]:
    """The seeded instances of one round, in the order they run."""
    specs = []
    for slot in range(workload.round_size):
        spec = {"slot": slot, "seed": instance_seed(seed, slot)}
        if workload.kind == "api":
            spec.update(
                n=workload.n,
                p_edges=workload.p_edges,
                alpha=workload.alphas[slot % len(workload.alphas)],
                grid=workload.grid,
            )
        else:
            spec.update(community=workload.community)
        specs.append(spec)
    return specs


def warmup_spec(workload: Workload) -> dict:
    """A small fixed instance of the workload's kind for the warm-up call."""
    if workload.kind == "api":
        return {"slot": -1, "seed": 1, "n": 8, "p_edges": workload.p_edges,
                "alpha": workload.alphas[0], "grid": workload.grid}
    return {"slot": -1, "seed": 1, "community": 2}
