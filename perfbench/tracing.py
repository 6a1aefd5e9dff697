"""Spans around the calls into each layer of ``preopt``, recorded from outside.

``Tracer.install`` wraps every traced function at every module that binds
it, so a call is caught whichever module makes it, and the binding module
names the caller where that matters (``min_st_cut`` is bound in
``conditions``, ``energy`` and ``bounds``). Spans (name, start, end, parent)
stay in memory until ``take_spans``; a span's self time is its duration
minus the durations of its direct children. A traced function that the
library no longer has is listed in ``absent`` instead of failing.
"""

from __future__ import annotations

import functools
import sys
import time

#: (defining module, attribute, span name)
TARGETS = (
    ("preopt.conditions", "run_joint", "conditions.run_joint"),
    ("preopt.conditions", "directed_cut_condition", "conditions.directed_cut_condition"),
    ("preopt.conditions", "edge_cut_condition", "conditions.edge_cut_condition"),
    ("preopt.conditions", "boecker_conditions", "conditions.boecker_conditions"),
    ("preopt.conditions", "edge_join_condition", "conditions.edge_join_condition"),
    ("preopt.conditions", "subset_fixation_pass", "conditions.subset_fixation_pass"),
    ("preopt.conditions", "subset_fixation_condition", "conditions.subset_fixation_condition"),
    ("preopt.energy", "build_join_energy", "energy.build_join_energy"),
    ("preopt.energy", "alpha_beta_swap_minimize", "energy.alpha_beta_swap_minimize"),
    ("preopt.energy", "optimal_swap", "energy.optimal_swap"),
    ("preopt.flow", "min_st_cut", "flow.min_st_cut"),
    ("preopt.flow", "FlowNetwork", "flow.FlowNetwork"),
    ("preopt.flow", "reachability_sets", "flow.reachability_sets"),
    ("preopt.bounds", "TriplePackingBound", "bounds.TriplePackingBound"),
    ("preopt.bounds", "local_search_lower_bound", "bounds.local_search_lower_bound"),
    ("preopt.bounds", "exact_bounds_tractable", "bounds.exact_bounds_tractable"),
    ("preopt.bounds", "induced_value", "bounds.induced_value"),
    ("preopt.bounds", "boundary_bound", "bounds.boundary_bound"),
    ("preopt.maps", "is_true_to", "maps.is_true_to"),
    ("preopt.maps", "tau_trueness_loose", "maps.tau_trueness_loose"),
    ("preopt.relations", "close", "relations.close"),
    ("preopt.relations", "merge_classes", "relations.merge_classes"),
    ("preopt.instance", "generate_synthetic", "instance.generate_synthetic"),
    ("preopt.instance", "ingest_ego_network", "instance.ingest_ego_network"),
    ("preopt.instance", "load_instance", "instance.load_instance"),
    ("preopt.instance", "save_partial", "instance.save_partial"),
)

#: the caller a ``min_st_cut`` binding stands for
MIN_CUT_SITES = {
    "preopt.conditions": "edge-cut",
    "preopt.energy": "swap",
    "preopt.bounds": "tractable",
}

#: condition deciders whose returned fixations are counted
FIXATION_COUNTERS = {
    "conditions.edge_cut_condition": "fixations.edge-cut",
    "conditions.edge_join_condition": "fixations.edge-join",
    "conditions.subset_fixation_pass": "fixations.subset-u",
}

LIBRARY_MODULES = (
    "preopt",
    "preopt.relations",
    "preopt.instance",
    "preopt.maps",
    "preopt.flow",
    "preopt.bounds",
    "preopt.energy",
    "preopt.conditions",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[list] = []  # [span index, child nanoseconds]
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_ns[name] = 0
        return self._name_ids[name]

    def span(self, name: str, func, after=None):
        """``func`` wrapped in a span; ``after(args, result)`` may count."""
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(func, updated=())
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[index] = (name_id, start, end, parent)
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _after(self, name: str):
        if name == "flow.min_st_cut":
            return lambda args, result: self.count("flow.min_st_cut.arcs", len(args[0].arcs))
        if name in FIXATION_COUNTERS:
            key = FIXATION_COUNTERS[name]
            return lambda args, result: self.count(key, len(result))
        return None

    def install(self, with_cli: bool = False) -> None:
        """Wrap every target at every ``preopt`` module that binds it."""
        import importlib

        self.absent = []
        module_names = LIBRARY_MODULES + (("preopt.cli",) if with_cli else ())
        modules = [importlib.import_module(name) for name in module_names]
        for home, attr, name in TARGETS:
            original = getattr(sys.modules[home], attr, None)
            if original is None:
                self.absent.append(name)
                continue
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is not original:
                        continue
                    span_name = name
                    if name == "flow.min_st_cut":
                        span_name = f"{name}.{MIN_CUT_SITES.get(module.__name__, 'other')}"
                    self._patch(module, bound, self.span(span_name, original, self._after(name)))
        if with_cli:
            command = sys.modules["preopt.cli"].fix
            self._patch(command, "callback", self.span("cli.fix", command.callback))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def reset(self) -> None:
        """Forget spans and totals, keeping the wrappers installed."""
        self.spans.clear()
        self.stack.clear()
        for name in self.calls:
            self.calls[name] = 0
            self.self_ns[name] = 0
        self.counters.clear()

    def totals(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": {name: ns / 1e9 for name, ns in self.self_ns.items()},
            "counters": dict(self.counters),
            "absent": list(self.absent),
        }

    def take_spans(self) -> dict:
        """The recorded spans, ready to write out, then cleared."""
        out = {"names": list(self.names), "spans": [list(s) for s in self.spans if s]}
        self.spans.clear()
        return out
