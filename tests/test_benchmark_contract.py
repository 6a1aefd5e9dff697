"""The library names that the benchmark's tracer wraps must stay callable.

``perfbench/tracing.py`` patches each traced function at every module that
binds it and reports a name it cannot find as absent; the benchmark then
reports fewer per-layer metrics than it declares. This runs the pipeline
under the tracer and checks that every traced name is present and that the
spans the per-layer metrics read record calls.
"""

from pathlib import Path

import numpy as np
import pytest

from preopt import GeneratorConfig, Instance, generate_synthetic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: spans that must record at least one call across the three runs
EXPECTED_SPANS = (
    "conditions.run_joint",
    "conditions.directed_cut_condition",
    "conditions.edge_cut_condition",
    "conditions.boecker_conditions",
    "conditions.edge_join_condition",
    "conditions.subset_fixation_pass",
    "flow.min_st_cut.edge-cut",
    "flow.min_st_cut.swap",
    "flow.min_st_cut.tractable",
    "flow.FlowNetwork",
    "flow.reachability_sets",
    "bounds.induced_value",
    "bounds.TriplePackingBound",
)


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def test_traced_names_present_and_called(tracer):
    import preopt.conditions

    # looked up after install: a name bound before it is not traced
    run_joint = preopt.conditions.run_joint
    # alpha 0.9 is the run that reaches edge-join's swap engine
    for alpha in (0.1, 0.5, 0.9):
        instance, _ = generate_synthetic(GeneratorConfig(n=12, p_edges=0.5, alpha=alpha, seed=0))
        run_joint(instance)
    # bbk-strong-1 settles every tractable pair with c_ij >= tol without a
    # cut; the zero-valued pair 0 -> 2 of this tractable instance needs one
    run_joint(Instance(np.array([[0, 1, 0], [-1, 0, 1], [-1, -1, 0]], dtype=float)))
    totals = tracer.totals()
    assert totals["absent"] == []
    silent = [name for name in EXPECTED_SPANS if totals["calls"].get(name, 0) == 0]
    assert silent == []
