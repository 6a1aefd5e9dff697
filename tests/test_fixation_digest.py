"""The fixation digest: exact `run_joint` output over the benchmark ensemble.

SHA-256 over ``ones.tobytes() + zeros.tobytes()`` of each lifted
``run_joint`` result, in this order: the seed-0 rounds of ``synth-easy``
(without the hang instance), ``synth-hard`` and ``cuts-large`` from
``perfbench/workloads.py`` ``round_specs(W, 0)``, with their configs and
their 2^-10 rounding; 16 ego networks ``ego_edges(1000 + k, 5)``,
k = 0..15, on nodes 0..15 with the default config; 72 raw-float n = 12
instances (``p_edges`` 0.5, alpha 0.1/0.5/0.9 outer, seed 0..23 inner)
with the default config. Each of the five parts is also hashed on its own.
A change meant to alter fixations updates these pins and states both values.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from preopt import (
    GeneratorConfig,
    Instance,
    PipelineConfig,
    generate_synthetic,
    ingest_ego_network,
    run_joint,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TOTAL = "ebd5c513aca3ef54a44a074ccba19998ac912bf7d25a4056308491640a83af4b"
PARTS = {
    "synth-easy": "9fb9896b7935",
    "synth-hard": "04f61745b203",
    "cuts-large": "66e756b09371",
    "ego16": "a1b2546ed742",
    "raw12": "25a6f9ba46fb",
}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import ego
    import workloads

    return workloads, ego


def _workload_part(workloads, name):
    workload = workloads.WORKLOADS[name]
    cfg = PipelineConfig(conditions=workload.conditions, single_pass=workload.single_pass)
    for spec in workloads.round_specs(workload, 0):
        inst, _ = generate_synthetic(GeneratorConfig(
            n=spec["n"], p_edges=spec["p_edges"], alpha=spec["alpha"], seed=spec["seed"]
        ))
        grid = spec["grid"]
        yield Instance(np.round(inst.values * grid) / grid), cfg


def _ego_part(ego):
    for k in range(16):
        yield ingest_ego_network(ego.ego_edges(1000 + k, 5), range(16)), PipelineConfig()


def _raw_part():
    for alpha in (0.1, 0.5, 0.9):
        for seed in range(24):
            inst, _ = generate_synthetic(GeneratorConfig(n=12, p_edges=0.5, alpha=alpha, seed=seed))
            yield inst, PipelineConfig()


def test_fixation_digest(perfbench):
    workloads, ego = perfbench
    parts = {
        "synth-easy": _workload_part(workloads, "synth-easy"),
        "synth-hard": _workload_part(workloads, "synth-hard"),
        "cuts-large": _workload_part(workloads, "cuts-large"),
        "ego16": _ego_part(ego),
        "raw12": _raw_part(),
    }
    total = hashlib.sha256()
    found = {}
    for name, runs in parts.items():
        part = hashlib.sha256()
        for inst, cfg in runs:
            pa, _, _ = run_joint(inst, cfg)
            data = pa.ones.tobytes() + pa.zeros.tobytes()
            part.update(data)
            total.update(data)
        found[name] = part.hexdigest()[:12]
    assert found == PARTS
    assert total.hexdigest() == TOTAL
