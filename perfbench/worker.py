"""Benchmark worker: the one process that does a workload's library work.

Run as ``python3 perfbench/worker.py`` with ``src`` on ``PYTHONPATH``. It
reads one JSON request per line on stdin and answers with one JSON line on
stdout:

- ``setup``: build the round's instances with ``generate_synthetic`` and
  make one warm-up call; the reply marks the end of set-up.
- ``run``: time ``run_joint`` on one instance under a time limit. With
  tracing on, the instance then runs a second time with spans recorded.
- ``run_file``: ``run_joint`` on an instance file (the ego check).
- ``finish``: write the recorded spans and report peak memory.
"""

from __future__ import annotations

import gzip
import json
import resource
import signal
import sys
import time

import numpy as np

import preopt
from preopt import GeneratorConfig, PipelineConfig, load_instance

from calibrate import kernel_seconds
from tracing import Tracer
from workloads import WORKLOADS, round_specs, warmup_spec, HANG_SPEC


class TimeLimit(Exception):
    pass


def _on_alarm(signum, frame):
    raise TimeLimit()


def _config(workload) -> PipelineConfig:
    return PipelineConfig(conditions=workload.conditions, single_pass=workload.single_pass)


def _generate(spec: dict):
    cfg = GeneratorConfig(
        n=spec["n"], p_edges=spec["p_edges"], alpha=spec["alpha"], seed=spec["seed"]
    )
    instance, _ = preopt.generate_synthetic(cfg)
    if spec["grid"]:
        instance = preopt.Instance(np.round(instance.values * spec["grid"]) / spec["grid"])
    return instance


def _timed_run(instance, cfg, limit: float):
    """run_joint under a time limit: (status, seconds, result or message)."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        result = preopt.run_joint(instance, cfg)
        seconds = time.perf_counter() - start
    except TimeLimit:
        return "timeout", time.perf_counter() - start, f"no result within {limit:g} s"
    except Exception as exc:  # reported as a failed instance, never fatal
        return "error", time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return "ok", seconds, result


def _describe(result) -> dict:
    pa, _, stats = result
    return {
        "ones": np.flatnonzero(pa.ones).tolist(),
        "zeros": np.flatnonzero(pa.zeros).tolist(),
        "stats": {
            "rounds": stats.rounds,
            "merged_classes": stats.merged_classes,
            "per_condition": {
                cond: [rec.fixed_zero, rec.fixed_one, rec.time_ns]
                for cond, rec in stats.per_condition.items()
            },
        },
    }


class Worker:
    def __init__(self):
        self.workload = None
        self.cfg = None
        self.pool: list = []
        self.tracer: Tracer | None = None
        self.trace_lines: list[str] = []

    def setup(self, req: dict) -> dict:
        self.workload = WORKLOADS[req["workload"]]
        self.cfg = _config(self.workload)
        reply: dict = {"ready": True}
        if req["trace"]:
            self.tracer = Tracer()
            self.tracer.install()
        if self.workload.kind == "api":
            specs = round_specs(self.workload, req["seed"])
            if self.workload.hang_per_round:
                specs.append(dict(HANG_SPEC, slot=len(specs)))
            self.pool = [_generate(spec) for spec in specs]
        if self.tracer is not None:
            reply["trace"] = self.tracer.totals()
            self.tracer.uninstall()
            self.tracer.reset()
        if self.workload.kind == "api":
            _timed_run(_generate(warmup_spec(self.workload)), self.cfg, 60.0)
        reply["pool"] = len(self.pool)
        return reply

    def run(self, req: dict) -> dict:
        instance = self.pool[req["index"]]
        traced = None
        if self.tracer is not None and req["index"] % 2:
            # odd slots run traced first, so that warm caches favour neither side
            traced = self._traced_run(instance, req)
        before = kernel_seconds()
        status, seconds, result = _timed_run(instance, self.cfg, req["limit"])
        kernel_s = (before + kernel_seconds()) / 2
        reply = {"status": status, "seconds": seconds, "kernel_s": kernel_s, "n": instance.n}
        if status != "ok":
            reply["message"] = result
            return reply
        reply["values"] = instance.values.tolist()
        reply.update(_describe(result))
        if self.tracer is not None:
            reply["traced"] = traced or self._traced_run(instance, req)
        return reply

    def _traced_run(self, instance, req: dict) -> dict:
        tracer = self.tracer
        tracer.reset()
        tracer.install()
        try:
            status, seconds, result = _timed_run(instance, self.cfg, req["limit"])
        finally:
            tracer.uninstall()
        out = {"status": status, "seconds": seconds, "trace": tracer.totals()}
        if status == "ok":
            out.update(_describe(result))
            spans = tracer.take_spans()
            spans["slot"] = req["index"]
            self.trace_lines.append(json.dumps(spans))
        return out

    def run_file(self, req: dict) -> dict:
        instance = load_instance(req["path"])
        status, seconds, result = _timed_run(instance, PipelineConfig(), req["limit"])
        reply = {"status": status, "seconds": seconds, "n": instance.n}
        if status == "ok":
            reply.update(_describe(result))
        else:
            reply["message"] = result
        return reply

    def finish(self, req: dict) -> dict:
        if req.get("trace_path") and self.trace_lines:
            with gzip.open(req["trace_path"], "wt") as fh:
                fh.write("\n".join(self.trace_lines) + "\n")
        return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    worker = Worker()
    handlers = {
        "setup": worker.setup,
        "run": worker.run,
        "run_file": worker.run_file,
        "finish": worker.finish,
    }
    for line in sys.stdin:
        req = json.loads(line)
        reply = handlers[req["op"]](req)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
        if req["op"] == "finish":
            break


if __name__ == "__main__":
    main()
