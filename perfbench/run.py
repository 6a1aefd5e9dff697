"""Benchmark of ``preopt``: ``run_joint`` through the public API and the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the library is imported from ``src``).
NAME is one of the workloads in ``workloads.py`` or ``all``. The run sets
up a few times, then runs whole rounds of the workload's seeded instances
until S seconds have passed, checks every output with ``checks.py``, and
prints every metric with its unit. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). Results and spans are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from calibrate import REFERENCE_S, kernel_seconds, speed_factors
from checks import (
    closure_failure,
    cut_witness_failure,
    exact_failure,
    read_partial,
    stats_row_failure,
)
from ego import write_edge_file
from workloads import DEFAULT_CONDITIONS, WORKLOADS, round_specs, warmup_spec

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "instance_s_p50": "s",
    "instances_per_s": "1/s",
    "pairs_decided": "count",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for cond in DEFAULT_CONDITIONS:
        units[f"conditions.{cond}.s"] = "s"
        units[f"conditions.{cond}.fixed"] = "count"
    units["conditions.rounds"] = "count"
    units["conditions.merged_classes"] = "count"
    units["conditions.subset_fixation_condition.calls"] = "count"
    for cond in ("edge-join", "edge-cut", "subset-u"):
        units[f"conditions.{cond}.useful_ratio"] = "ratio"
    for func in ("run_joint", "directed_cut_condition", "edge_cut_condition",
                 "boecker_conditions", "edge_join_condition", "subset_fixation_pass",
                 "subset_fixation_condition"):
        units[f"conditions.{func}.self_s"] = "s"
    for func in ("alpha_beta_swap_minimize", "optimal_swap"):
        units[f"energy.{func}.calls"] = "count"
        units[f"energy.{func}.self_s"] = "s"
    units["energy.build_join_energy.self_s"] = "s"
    units["energy.sweeps_per_minimize"] = "ratio"
    for site in ("edge-cut", "swap", "tractable"):
        units[f"flow.min_st_cut.{site}.calls"] = "count"
        units[f"flow.min_st_cut.{site}.self_s"] = "s"
    units["flow.min_st_cut.arcs"] = "count"
    units["flow.FlowNetwork.self_s"] = "s"
    units["flow.reachability_sets.self_s"] = "s"
    for layer, funcs in (
        ("bounds", ("TriplePackingBound", "local_search_lower_bound", "exact_bounds_tractable",
                    "induced_value", "boundary_bound")),
        ("maps", ("is_true_to", "tau_trueness_loose")),
        ("relations", ("close", "merge_classes")),
    ):
        for func in funcs:
            units[f"{layer}.{func}.calls"] = "count"
            units[f"{layer}.{func}.self_s"] = "s"
    for func in ("generate_synthetic", "ingest_ego_network", "load_instance", "save_partial"):
        units[f"instance.{func}.self_s"] = "s"
    units["cli.fix.self_s"] = "s"
    units["cli.process.self_s"] = "s"
    units["trace.overhead"] = "ratio"
    units["trace.self_s"] = "s"
    units["trace.untraced_s"] = "s"
    units["trace.instances"] = "count"
    return units


PER_LAYER = _per_layer_units()


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class WorkerProcess:
    """A ``worker.py`` process; its set-up time runs from spawn to ready."""

    def __init__(self, workload: str, seed: int, trace: bool):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=child_env(),
        )
        self.ready = self.request({"op": "setup", "workload": workload, "seed": seed,
                                   "trace": int(trace)})
        self.setup_s = time.perf_counter() - start

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"benchmark worker exited with {self.proc.wait()}")
        return json.loads(line)

    def finish(self, trace_path: Path | None = None) -> dict:
        reply = self.request({"op": "finish",
                              "trace_path": str(trace_path) if trace_path else None})
        self.proc.wait(timeout=60)
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_child(cmd: list[str], timeout: float, log: Path) -> tuple[int, float, float]:
    """Run one process: (exit code, wall seconds, peak RSS in MB).

    The process is reaped with wait4, which gives its own resource usage;
    it is killed if it outlives ``timeout``.
    """
    lock = threading.Lock()
    with log.open("a") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)

        def kill() -> None:
            with lock:
                if proc.returncode is None:
                    proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        with lock:
            proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _matrix(flat: list[int], n: int) -> np.ndarray:
    m = np.zeros(n * n, dtype=bool)
    m[flat] = True
    return m.reshape(n, n)


class Layers:
    """Sums per-instance trace totals and turns them into per-layer metrics."""

    def __init__(self):
        self.calls: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.setup_self_s: dict[str, float] = {}
        self.setup_instances = 0
        self.absent: set[str] = set()
        self.conditions: dict[str, float] = {}
        self.instances = 0
        self.traced_s = 0.0
        self.untraced_s = 0.0

    def add(self, trace: dict, untraced_s: float, traced_s: float, stats: dict) -> None:
        self.instances += 1
        self.untraced_s += untraced_s
        self.traced_s += traced_s
        for name, count in trace["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + count
        for name, seconds in trace["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + seconds
        for name, count in trace["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + count
        self.absent.update(trace["absent"])
        for key, value in stats.items():
            self.conditions[key] = self.conditions.get(key, 0.0) + value

    def add_setup(self, trace: dict, instances: int) -> None:
        self.setup_instances += instances
        for name, seconds in trace["self_s"].items():
            self.setup_self_s[name] = self.setup_self_s.get(name, 0.0) + seconds
        self.absent.update(trace["absent"])

    def metrics(self) -> dict[str, float]:
        k = max(self.instances, 1)
        calls, self_s, counters = self.calls, self.self_s, self.counters
        out: dict[str, float] = {}
        for key, value in self.conditions.items():
            out[key] = value / k
        for name in PER_LAYER:
            base, _, field = name.rpartition(".")
            if field == "calls" and base in calls:
                out[name] = calls[base] / k
            elif field == "self_s" and base.startswith("instance."):
                setup = self.setup_self_s.get(base, 0.0) / max(self.setup_instances, 1)
                out[name] = setup + self_s.get(base, 0.0) / k
            elif field == "self_s" and base in self_s:
                out[name] = self_s.get(base, 0.0) / k

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        swaps = calls.get("energy.alpha_beta_swap_minimize", 0)
        out["conditions.edge-join.useful_ratio"] = ratio(counters.get("fixations.edge-join", 0), swaps)
        out["conditions.edge-cut.useful_ratio"] = ratio(
            counters.get("fixations.edge-cut", 0), calls.get("flow.min_st_cut.edge-cut", 0))
        out["conditions.subset-u.useful_ratio"] = ratio(
            counters.get("fixations.subset-u", 0),
            calls.get("conditions.subset_fixation_condition", 0))
        out["energy.sweeps_per_minimize"] = ratio(calls.get("energy.optimal_swap", 0) / 3, swaps)
        out["flow.min_st_cut.arcs"] = counters.get("flow.min_st_cut.arcs", 0) / k
        out["trace.overhead"] = ratio(self.traced_s, self.untraced_s) - 1.0
        out["trace.self_s"] = sum(self_s.values()) / k
        out["trace.untraced_s"] = self.untraced_s / k
        out["trace.instances"] = self.instances
        # a metric whose function the library no longer has is left out
        for name in PER_LAYER:
            if any(name == a or name.startswith(a + ".") for a in self.absent):
                out.pop(name, None)
            else:
                out.setdefault(name, 0.0)
        return out


def _condition_stats(stats: dict) -> dict[str, float]:
    out = {
        "conditions.rounds": stats["rounds"],
        "conditions.merged_classes": stats["merged_classes"],
    }
    for cond, (zero, one, ns) in stats["per_condition"].items():
        out[f"conditions.{cond}.fixed"] = zero + one
        out[f"conditions.{cond}.s"] = ns / 1e9
    return out


class Run:
    """State of one workload run: records, set-up samples and failures."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setup_samples: list[tuple[float, float]] = []  # (seconds, kernel seconds)
        self.timed: list[tuple[float | None, float]] = []  # timed calls in order
        self.times: list[tuple[float, int]] = []  # completed: (seconds, index in timed)
        self.pairs_decided = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rounds = 0
        self.peak_rss_mb = 0.0
        self.layers = Layers()
        self.failures: list[str] = []
        self._checked: dict = {}
        self.cli_spans: list[str] = []  # spans of traced CLI processes
        self.records: list[list] = []  # [round, slot, status, seconds, pairs]

    def fail(self, slot: int, reason: str, wrong_output: bool) -> None:
        self.records.append([self.rounds, slot, reason, None, None])
        self.failed += 1
        if wrong_output:
            self.correct = False
        self.failures.append(f"round {self.rounds} slot {slot}: {reason}")

    def complete(self, slot: int, seconds: float, pairs: int) -> None:
        """Count the timed call checked last as completed."""
        self.records.append([self.rounds, slot, "ok", seconds, pairs])
        self.times.append((seconds, len(self.timed) - 1))
        self.pairs_decided += pairs

    def check(self, slot: int, c: np.ndarray, ones: np.ndarray, zeros: np.ndarray) -> str | None:
        """Run the workload's checks once per distinct output of a slot."""
        key = (slot, ones.tobytes(), zeros.tobytes())
        if key not in self._checked:
            failure = closure_failure(ones, zeros)
            if failure is None and self.workload.check == "exact":
                failure = exact_failure(c, ones, zeros)
            elif failure is None and self.workload.check == "cut-witness":
                sample_seed = round_specs(self.workload, self.seed)[slot]["seed"]
                failure = cut_witness_failure(c, ones, zeros, sample_seed)
            self._checked[key] = failure
        return self._checked[key]

    def measure(self, timed_call, check_call, slots: list[int]) -> None:
        """Whole rounds of timed calls while ``--seconds`` of them fit.

        A round's outputs are checked after the round, so that no check runs
        between two timed calls; checks are never timed.
        """
        measured = 0.0
        while True:
            started = time.perf_counter()
            outputs = [timed_call(slot) for slot in slots]
            last = time.perf_counter() - started
            measured += last
            for slot, output in zip(slots, outputs):
                self.attempted += 1
                check_call(slot, output)
            self.rounds += 1
            if measured + last > self.seconds:
                break

    # -- api workloads -------------------------------------------------

    def run_api(self) -> None:
        w = self.workload
        if not self.trace:
            for _ in range(w.setup_samples - 1):
                before = kernel_seconds()
                probe = WorkerProcess(w.name, self.seed, False)
                self.setup_samples.append((probe.setup_s, (before + kernel_seconds()) / 2))
                probe.finish()
        before = kernel_seconds()
        worker = WorkerProcess(w.name, self.seed, self.trace)
        try:
            self.setup_samples.append((worker.setup_s, (before + kernel_seconds()) / 2))
            if self.trace:
                self.layers.add_setup(worker.ready["trace"], worker.ready["pool"])
            limit = w.time_limit_s
            self.measure(
                lambda index: worker.request({"op": "run", "index": index, "limit": limit}),
                self._api_check,
                list(range(worker.ready["pool"])),
            )
            trace_path = self._out_path("trace", ".jsonl.gz") if self.trace else None
            self.peak_rss_mb = worker.finish(trace_path)["peak_rss_mb"]
        finally:
            worker.kill()

    def _api_check(self, index: int, reply: dict) -> None:
        self.timed.append((reply["seconds"] if reply["status"] == "ok" else None,
                           reply["kernel_s"]))
        if reply["status"] != "ok":
            self.fail(index, f"{reply['status']}: {reply['message']}", wrong_output=False)
            return
        n = reply["n"]
        ones, zeros = _matrix(reply["ones"], n), _matrix(reply["zeros"], n)
        failure = self.check(index, np.array(reply["values"]), ones, zeros)
        if failure is None and self.trace:
            traced = reply["traced"]
            if traced["status"] != "ok":
                failure = f"traced run: {traced['status']}"
            elif traced["ones"] != reply["ones"] or traced["zeros"] != reply["zeros"]:
                failure = "traced run: output differs from the untraced run"
            else:
                self.layers.add(traced["trace"], reply["seconds"], traced["seconds"],
                                _condition_stats(reply["stats"]))
        if failure is not None:
            self.fail(index, failure, wrong_output=True)
            return
        self.complete(index, reply["seconds"], len(reply["ones"]) + len(reply["zeros"]))

    # -- the CLI workload ----------------------------------------------

    def _cli(self, args: list[str], trace_out: Path | None, log: Path) -> tuple[int, float, float]:
        if trace_out is None:
            cmd = [sys.executable, "-m", "preopt.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "tracecli.py"), str(trace_out), *args]
        return run_child(cmd, self.workload.time_limit_s, log)

    def _cli_setup(self, work: Path, specs: list[dict], trace: bool) -> tuple[float, list[Path]]:
        """Edge lists, ``preopt ingest-ego`` for each, one warm-up ``preopt fix``."""
        start = time.perf_counter()
        work.mkdir(parents=True)
        log = work / "stderr.log"
        paths = []
        for spec in specs + [warmup_spec(self.workload)]:
            edges = work / f"ego{spec['slot']}.txt"
            write_edge_file(edges, spec["seed"], spec["community"])
            csv_path = work / f"ego{spec['slot']}.csv"
            trace_out = work / f"ingest{spec['slot']}.json" if trace else None
            code, _, _ = self._cli(["ingest-ego", str(edges), "--out", str(csv_path)],
                                   trace_out, log)
            if code != 0:
                raise RuntimeError(f"preopt ingest-ego exited with {code}; see {log}")
            if trace_out is not None:
                self.layers.add_setup(json.loads(trace_out.read_text())["trace"], 1)
            paths.append(csv_path)
        warm = paths.pop()
        code, _, _ = self._cli(["fix", str(warm), "--out", str(work / "warmup.csv")], None, log)
        if code != 0:
            raise RuntimeError(f"warm-up preopt fix exited with {code}; see {log}")
        return time.perf_counter() - start, paths

    def run_cli(self) -> None:
        work = OUT_DIR / f"work-{self.workload.name}-{self.seed}-{os.getpid()}"
        specs = round_specs(self.workload, self.seed)
        checker = None
        try:
            if not self.trace:
                for k in range(self.workload.setup_samples - 1):
                    before = kernel_seconds()
                    setup_s, _ = self._cli_setup(work / f"probe{k}", specs, False)
                    self.setup_samples.append((setup_s, (before + kernel_seconds()) / 2))
            before = kernel_seconds()
            setup_s, paths = self._cli_setup(work / "main", specs, self.trace)
            self.setup_samples.append((setup_s, (before + kernel_seconds()) / 2))
            checker = WorkerProcess(self.workload.name, self.seed, False)
            self.measure(
                lambda slot: self._cli_timed(work / f"r{self.rounds}s{slot}", paths[slot], slot),
                lambda slot, runs: self._cli_check(slot, runs, paths[slot], checker),
                list(range(len(paths))),
            )
            checker.finish()
            if self.cli_spans:
                with gzip.open(self._out_path("trace", ".jsonl.gz"), "wt") as fh:
                    fh.write("\n".join(self.cli_spans) + "\n")
        finally:
            if checker is not None:
                checker.kill()
            shutil.rmtree(work, ignore_errors=True)

    def _cli_fix(self, out: Path, path: Path, traced: bool) -> dict:
        """One timed ``preopt fix --emit-partial`` process on one instance file."""
        out.mkdir(parents=True, exist_ok=True)
        trace_out = out / "trace.json" if traced else None
        code, wall, rss = self._cli(
            ["fix", str(path), "--out", str(out / "stats.csv"), "--emit-partial", str(out)],
            trace_out, out / "stderr.log")
        return {"out": out, "code": code, "wall": wall, "rss": rss, "trace_out": trace_out}

    def _cli_timed(self, out: Path, path: Path, slot: int) -> dict:
        runs = {}
        if self.trace and slot % 2:
            # odd slots run traced first, so that warm caches favour neither side
            runs["traced"] = self._cli_fix(out / "traced", path, True)
        before = kernel_seconds()
        runs["plain"] = self._cli_fix(out / "plain", path, False)
        runs["kernel_s"] = (before + kernel_seconds()) / 2
        if self.trace and "traced" not in runs:
            runs["traced"] = self._cli_fix(out / "traced", path, True)
        return runs

    @staticmethod
    def _cli_output(run: dict, path: Path):
        with (run["out"] / "stats.csv").open() as fh:
            row = next(csv.DictReader(fh))
        ones, zeros = read_partial(run["out"] / (path.stem + ".partial.csv"), int(row["n"]))
        return row, ones, zeros

    def _cli_check(self, slot: int, runs: dict, path: Path, checker: WorkerProcess) -> None:
        plain = runs["plain"]
        self.timed.append((plain["wall"] if plain["code"] == 0 else None, runs["kernel_s"]))
        self.peak_rss_mb = max(self.peak_rss_mb, plain["rss"])
        if plain["code"] != 0:
            self.fail(slot, f"preopt fix exited with {plain['code']}", wrong_output=False)
            return
        row, ones, zeros = self._cli_output(plain, path)
        failure = closure_failure(ones, zeros) or stats_row_failure(row, ones, zeros)
        if failure is None:
            key = (slot, ones.tobytes(), zeros.tobytes())
            if key not in self._checked:
                ref = checker.request({"op": "run_file", "path": str(path),
                                       "limit": self.workload.time_limit_s})
                n = ones.shape[0]
                if ref["status"] != "ok":
                    self._checked[key] = f"run_joint on the file: {ref['status']}"
                elif not (np.array_equal(_matrix(ref["ones"], n), ones)
                          and np.array_equal(_matrix(ref["zeros"], n), zeros)):
                    self._checked[key] = "cli: emitted partial differs from run_joint"
                else:
                    self._checked[key] = None
            failure = self._checked[key]
        if failure is None and self.trace:
            failure = self._cli_trace(slot, runs["traced"], path, row, ones, zeros, plain["wall"])
        if failure is not None:
            self.fail(slot, failure, wrong_output=True)
            return
        self.complete(slot, plain["wall"], int(ones.sum() + zeros.sum()))

    def _cli_trace(self, slot, traced, path, row, ones, zeros, plain_wall) -> str | None:
        if traced["code"] != 0:
            return f"traced preopt fix exited with {traced['code']}"
        _, t_ones, t_zeros = self._cli_output(traced, path)
        if not (np.array_equal(t_ones, ones) and np.array_equal(t_zeros, zeros)):
            return "traced run: output differs from the untraced run"
        shim = json.loads(traced["trace_out"].read_text())
        trace = shim["trace"]
        self.cli_spans.append(json.dumps(dict(shim["spans"], slot=slot)))
        # spans in the child all nest in cli.fix; the rest of the process
        # (interpreter, imports, click) is cli.process
        trace["self_s"]["cli.process"] = traced["wall"] - sum(trace["self_s"].values())
        stats = {
            "rounds": int(row["rounds"]),
            "merged_classes": int(row["merged_classes"]),
            "per_condition": {
                cond: [int(row[f"{cond}_zero"]), int(row[f"{cond}_one"]), int(row[f"{cond}_ns"])]
                for cond in self.workload.conditions
            },
        }
        self.layers.add(trace, plain_wall, traced["wall"], _condition_stats(stats))
        return None

    # -- reporting -----------------------------------------------------

    def _out_path(self, kind: str, suffix: str) -> Path:
        OUT_DIR.mkdir(exist_ok=True)
        return OUT_DIR / f"{kind}-{self.workload.name}-seed{self.seed}-trace{int(self.trace)}{suffix}"

    def end_to_end(self) -> tuple[dict[str, float], dict[str, float]]:
        """End-to-end metrics at the reference speed, and as measured."""
        factors = speed_factors([kernel_s for _, kernel_s in self.timed])
        raw = [seconds for seconds, _ in self.times]
        scaled = [seconds * factors[index] for seconds, index in self.times]
        setup_raw = [seconds for seconds, _ in self.setup_samples]
        setup_scaled = [seconds * REFERENCE_S / kernel_s for seconds, kernel_s in self.setup_samples]
        common = {
            "pairs_decided": self.pairs_decided / max(self.rounds, 1),
            "peak_rss_mb": self.peak_rss_mb,
        }

        def timing(times: list[float], setup: list[float]) -> dict[str, float]:
            return dict(
                common,
                setup_s=statistics.median(setup),
                instance_s_p50=statistics.median(times),
                instances_per_s=len(times) / sum(times),
            )

        return timing(scaled, setup_scaled), timing(raw, setup_raw)

    def metrics(self) -> dict[str, dict]:
        if not self.times:
            raise RuntimeError(f"no instance of {self.workload.name} completed")
        if self.trace:
            values, units = self.layers.metrics(), PER_LAYER
        else:
            values, units = self.end_to_end()[0], END_TO_END
        return {name: {"value": values[name], "unit": units[name]}
                for name in units if name in values}

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics(),
        }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(name, seed, seconds, trace)
    if run.workload.kind == "api":
        run.run_api()
    else:
        run.run_cli()
    result = run.result()
    print(f"workload {name}: seed {seed}, {run.rounds} round(s), "
          f"{run.attempted} attempted, {run.failed} failed, "
          f"outputs {'correct' if run.correct else 'NOT correct'}")
    for line in run.failures:
        print(f"  failed: {line}")
    raw = {} if trace else run.end_to_end()[1]
    for metric, item in result["metrics"].items():
        measured = f" (as measured: {raw[metric]:.6g})" if metric in raw else ""
        print(f"  {metric} = {item['value']:.6g} {item['unit']}{measured}")
    absent = sorted(set(PER_LAYER) - set(result["metrics"])) if trace else []
    if absent:
        print(f"  absent (no longer in the library): {', '.join(absent)}")
    path = run._out_path("result", ".json")
    path.write_text(json.dumps(dict(result, as_measured=raw, setup_samples=run.setup_samples,
                                    timed=run.timed, instances=run.records)) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "preopt" / "__init__.py").is_file():
        print(f"no library to benchmark: {ROOT / 'src' / 'preopt'} is missing", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": item for name, r in results.items()
                        for metric, item in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
