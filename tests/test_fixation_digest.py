"""The fixation digest: exact `run_joint` output over the benchmark ensemble.

SHA-256 over ``ones.tobytes() + zeros.tobytes()`` of each lifted
``run_joint`` result, in this order: the seed-0 rounds of ``synth-easy``
(without the hang instance), ``synth-hard`` and ``cuts-large`` from
``perfbench/workloads.py`` ``round_specs(W, 0)``, with their configs and
their 2^-10 rounding; 16 ego networks ``ego_edges(1000 + k, 5)``,
k = 0..15, on nodes 0..15 with the default config; 72 raw-float n = 12
instances (``p_edges`` 0.5, alpha 0.1/0.5/0.9 outer, seed 0..23 inner)
with the default config. Each of the five parts is also hashed on its own.

The fixation lists of the four exact-arithmetic parts (all but raw12, whose
margins depend on summation order) are hashed too: every run's fixations in
the order ``run_joint`` returns them, one line
``f"{p},{q},{value},{condition},{float(margin).hex()}\n"`` each, so the pin
also covers each fixation's condition, margin and place in the list.
A change meant to alter fixations or margins updates these pins and states
both values.
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

FIXATION_LISTS = "6e48613798d765af8c203ce67843e3cca8c4f2a5b008bce02711bcd26b1c521f"
FIXATION_COUNT = 19335
EXACT_PARTS = ("synth-easy", "synth-hard", "cuts-large", "ego16")


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


@pytest.fixture(scope="module")
def results():
    """Each part's name with its runs' (lifted assignment, fixations), in order."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import ego
        import workloads

        parts = {
            "synth-easy": _workload_part(workloads, "synth-easy"),
            "synth-hard": _workload_part(workloads, "synth-hard"),
            "cuts-large": _workload_part(workloads, "cuts-large"),
            "ego16": _ego_part(ego),
            "raw12": _raw_part(),
        }
        return {
            name: [run_joint(inst, cfg)[:2] for inst, cfg in runs]
            for name, runs in parts.items()
        }


def test_fixation_digest(results):
    total = hashlib.sha256()
    found = {}
    for name, runs in results.items():
        part = hashlib.sha256()
        for pa, _ in runs:
            data = pa.ones.tobytes() + pa.zeros.tobytes()
            part.update(data)
            total.update(data)
        found[name] = part.hexdigest()[:12]
    assert found == PARTS
    assert total.hexdigest() == TOTAL


def test_fixation_lists(results):
    digest = hashlib.sha256()
    count = 0
    for name in EXACT_PARTS:
        for _, fixations in results[name]:
            for f in fixations:
                p, q = f.pair
                digest.update(f"{p},{q},{f.value},{f.condition},{float(f.margin).hex()}\n".encode())
            count += len(fixations)
    assert count == FIXATION_COUNT
    assert digest.hexdigest() == FIXATION_LISTS
