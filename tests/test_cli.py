import os
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import CONTRADICTORY_BATCHES, read_csv_rows
from preopt import cli, conditions, oracle
from preopt.cli import STATS_FIELDS, main
from preopt.conditions import DIRECTED_CUT, Fixation
from preopt.instance import Instance, save_instance

FIG1 = np.array(
    [
        [0, 2, -1, -1, -1],
        [2, 0, -1, 2, -1],
        [-4, -4, 0, 3, 2],
        [1, 1, -1, 0, -1],
        [-1, -1, 1, -2, 0],
    ],
    dtype=float,
)


@pytest.fixture
def runner():
    return CliRunner()


def write_fig1(tmp_path) -> Path:
    path = tmp_path / "fig1.csv"
    save_instance(Instance(FIG1), path)
    return path


class TestGenerate:
    def test_default_ensemble_shape(self, runner, tmp_path):
        out = tmp_path / "ens"
        result = runner.invoke(
            main,
            ["generate", "--out", str(out), "--n", "6", "--truths", "5", "--count", "20", "--seed", "3"],
        )
        assert result.exit_code == 0, result.output
        files = sorted(out.glob("synthetic_*.csv"))
        assert len(files) == 100
        manifest = read_csv_rows(out / "manifest.csv")
        assert len(manifest) == 100
        assert {"instance", "n", "alpha", "p_edges", "truth_seed", "value_seed"} <= set(
            manifest[0]
        )

    def test_override_shape(self, runner, tmp_path):
        out = tmp_path / "ens"
        result = runner.invoke(
            main,
            ["generate", "--out", str(out), "--n", "5", "--truths", "2", "--count", "2"],
        )
        assert result.exit_code == 0
        assert len(list(out.glob("synthetic_*.csv"))) == 4

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--alpha", "2"], "alpha must lie in [0, 1]"),
            (["--n", "0"], "n must be positive"),
        ],
        ids=["alpha-out-of-range", "n-zero"],
    )
    def test_invalid_parameters_are_usage_errors(self, runner, tmp_path, args, message):
        out = tmp_path / "ens"
        result = runner.invoke(main, ["generate", "--out", str(out), *args])
        assert result.exit_code == 1, result.output
        assert message in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not list(out.glob("*.csv"))

    def test_n_beyond_physical_memory_is_usage_error(
        self, runner, tmp_path, monkeypatch
    ):
        # the rule ``fix`` applies to an element count: 16 pages of 16
        # bytes hold a 5 x 5 float matrix, not 6 x 6
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 16, "SC_PAGE_SIZE": 16}.get)
        out = tmp_path / "ens"
        result = runner.invoke(main, ["generate", "--out", str(out), "--n", "6"])
        assert (result.exit_code, result.output) == (
            1, "usage error: n=6 is too large to allocate\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--out", "OUT", "--n", "abc"], "usage error: Invalid value for '--n'"),
            ([], "usage error: Missing option '--out'"),
            (["--out", "OUT", "--truths", "-1"], "usage error: Invalid value for '--truths'"),
            (["--out", "OUT", "--count", "0"], "usage error: Invalid value for '--count'"),
        ],
        ids=["n-not-integer", "out-missing", "truths-negative", "count-zero"],
    )
    def test_rejected_arguments_are_usage_errors(self, runner, tmp_path, args, message):
        out = tmp_path / "ens"
        args = [str(out) if arg == "OUT" else arg for arg in args]
        result = runner.invoke(main, ["generate", *args])
        assert result.exit_code == 1, result.output
        assert result.output.startswith(message)
        assert result.output.count("\n") == 1
        assert not out.exists()

    def test_uncreatable_out_is_usage_error(self, runner, tmp_path):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        result = runner.invoke(main, ["generate", "--out", str(blocker / "sub"), "--n", "3"])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("usage error: cannot create --out directory")
        assert result.output.count("\n") == 1
        assert "Traceback" not in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_reproducible_bytes(self, runner, tmp_path):
        args = ["--n", "5", "--truths", "1", "--count", "2", "--seed", "11"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, ["generate", "--out", str(out_a), *args]).exit_code == 0
        assert runner.invoke(main, ["generate", "--out", str(out_b), *args]).exit_code == 0
        for fa in sorted(out_a.glob("*.csv")):
            fb = out_b / fa.name
            assert fa.read_bytes() == fb.read_bytes()


class TestFix:
    def test_single_instance_row(self, runner, tmp_path):
        inst = write_fig1(tmp_path)
        out_csv = tmp_path / "stats.csv"
        result = runner.invoke(main, ["fix", str(inst), "--out", str(out_csv)])
        assert result.exit_code == 0, result.output
        rows = read_csv_rows(out_csv)
        assert len(rows) == 1
        assert rows[0]["n"] == "5"
        assert 0.0 <= float(rows[0]["percent_fixed"]) <= 100.0

    def test_golden_column_set(self, runner, tmp_path):
        inst = write_fig1(tmp_path)
        out_csv = tmp_path / "stats.csv"
        runner.invoke(main, ["fix", str(inst), "--out", str(out_csv)])
        header = out_csv.read_text().splitlines()[0].split(",")
        assert header == STATS_FIELDS

    def test_emit_partial(self, runner, tmp_path):
        inst = write_fig1(tmp_path)
        emit = tmp_path / "parts"
        result = runner.invoke(main, ["fix", str(inst), "--emit-partial", str(emit)])
        assert result.exit_code == 0
        files = list(emit.glob("*.partial.csv"))
        assert len(files) == 1
        for line in files[0].read_text().splitlines():
            p, q, v = line.split(",")
            assert v in ("0", "1") and p != q

    def test_emit_partial_rejects_colliding_stems(self, runner, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            save_instance(Instance(FIG1), tmp_path / sub / "x.csv")
        first, second = str(tmp_path / "a" / "x.csv"), str(tmp_path / "b" / "x.csv")
        emit = tmp_path / "out"
        result = runner.invoke(main, ["fix", first, second, "--emit-partial", str(emit)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("usage error: ")
        assert first in result.output and second in result.output
        assert result.output.count("\n") == 1  # no instance ran
        assert not emit.exists()

    def test_directed_cut_on_all_positive(self, runner, tmp_path):
        c = np.ones((4, 4))
        np.fill_diagonal(c, 0.0)
        path = tmp_path / "pos.csv"
        save_instance(Instance(c), path)
        out_csv = tmp_path / "stats.csv"
        result = runner.invoke(
            main, ["fix", str(path), "--conditions", "directed-cut", "--out", str(out_csv)]
        )
        assert result.exit_code == 0
        row = read_csv_rows(out_csv)[0]
        assert row["fixed_zero"] == "0" and row["fixed_one"] == "0"

    def test_batch_quantile_summary_and_determinism(self, runner, tmp_path):
        out = tmp_path / "ens"
        runner.invoke(
            main,
            ["generate", "--out", str(out), "--n", "6", "--truths", "2", "--count", "3",
             "--alpha", "0.3", "--seed", "5"],
        )
        files = [str(p) for p in sorted(out.glob("synthetic_*.csv"))]
        csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
        res_a = runner.invoke(main, ["fix", *files, "--out", str(csv_a)])
        res_b = runner.invoke(main, ["fix", *files, "--out", str(csv_b)])
        assert res_a.exit_code == 0 and res_b.exit_code == 0
        assert "median" in res_a.output

        def strip_times(path):
            rows = read_csv_rows(path)
            return [
                {k: v for k, v in row.items() if not k.endswith("_ns")} for row in rows
            ]

        assert strip_times(csv_a) == strip_times(csv_b)

    def test_manifest_metadata_echoed(self, runner, tmp_path):
        out = tmp_path / "ens"
        runner.invoke(
            main,
            ["generate", "--out", str(out), "--n", "5", "--truths", "1", "--count", "1",
             "--alpha", "0.4", "--seed", "2"],
        )
        instance = next(out.glob("synthetic_*.csv"))
        stats = tmp_path / "stats.csv"
        assert runner.invoke(main, ["fix", str(instance), "--out", str(stats)]).exit_code == 0
        row = read_csv_rows(stats)[0]
        assert row["alpha"] == "0.4"
        assert row["p_edges"] == "0.5"
        assert row["seed"] != ""

    def test_parallel_workers_match_serial(self, runner, tmp_path):
        out = tmp_path / "ens"
        runner.invoke(
            main,
            ["generate", "--out", str(out), "--n", "6", "--truths", "2", "--count", "2",
             "--alpha", "0.3", "--seed", "8"],
        )
        files = [str(p) for p in sorted(out.glob("synthetic_*.csv"))]
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        assert runner.invoke(main, ["fix", *files, "--out", str(serial)]).exit_code == 0
        assert (
            runner.invoke(main, ["fix", *files, "--threads", "2", "--out", str(parallel)]).exit_code
            == 0
        )

        def strip_times(path):
            return [
                {k: v for k, v in row.items() if not k.endswith("_ns")}
                for row in read_csv_rows(path)
            ]

        assert strip_times(serial) == strip_times(parallel)

    @pytest.mark.parametrize("count, threads, workers", [(1, "8", None), (3, "8", 3), (3, "2", 2)])
    def test_threads_capped_by_instances(self, runner, tmp_path, monkeypatch, count, threads, workers):
        requested = []

        class InProcessExecutor:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessExecutor)
        files = [str(tmp_path / f"inst{k}.csv") for k in range(count)]
        for path in files:
            save_instance(Instance(FIG1), path)
        result = runner.invoke(main, ["fix", *files, "--threads", threads])
        assert result.exit_code == 0, result.output
        assert result.output.count("% fixed") == count
        assert requested == ([] if workers is None else [workers])

    def test_unknown_condition_is_usage_error(self, runner, tmp_path):
        inst = write_fig1(tmp_path)
        result = runner.invoke(main, ["fix", str(inst), "--conditions", "bogus"])
        assert result.exit_code == 1
        assert "unknown condition id 'bogus'" in result.output

    @pytest.mark.parametrize("command", ["fix", "oracle-check"])
    @pytest.mark.parametrize(
        "conditions", [",", " , ,", ""], ids=["comma", "blank-parts", "empty"]
    )
    def test_empty_condition_list_is_usage_error(self, runner, tmp_path, command, conditions):
        inst = write_fig1(tmp_path)
        result = runner.invoke(main, [command, str(inst), "--conditions", conditions])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("usage error: conditions must name at least one")
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_zero_rounds_is_usage_error(self, runner, tmp_path):
        inst = write_fig1(tmp_path)
        result = runner.invoke(main, ["fix", str(inst), "--rounds", "0"])
        assert result.exit_code == 1, result.output
        assert "max_rounds must be at least 1" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_nonpositive_threads_is_usage_error(self, runner, tmp_path, threads):
        inst = write_fig1(tmp_path)
        result = runner.invoke(main, ["fix", str(inst), "--threads", threads])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("usage error: Invalid value for '--threads'")
        assert result.output.count("\n") == 1

    def test_malformed_instance_is_data_error(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("n=2\np,q,c\n0,0,1\n")
        result = runner.invoke(main, ["fix", str(bad)])
        assert result.exit_code == 2

    def test_digit_separator_is_data_error(self, runner, tmp_path):
        bad = tmp_path / "separator.csv"
        bad.write_text("n=2\np,q,c\n0,1,1_0\n")
        result = runner.invoke(main, ["fix", str(bad)])
        assert result.exit_code == 2, result.output
        assert f"data error: {bad}:3: malformed row" in result.output
        assert "fixed" not in result.output

    def test_overflowing_values_are_data_error(self, runner, tmp_path):
        bad = tmp_path / "overflow.csv"
        bad.write_text("n=3\np,q,c\n0,1,1e308\n1,2,1e308\n2,0,-1e308\n")
        result = runner.invoke(main, ["fix", str(bad)])
        assert result.exit_code == 2, result.output
        assert f"data error: {bad}: the sum of absolute instance values overflows" in result.output
        assert "fixed" not in result.output

    def test_undecodable_instance_is_named(self, runner, tmp_path):
        ok = write_fig1(tmp_path)
        binary = tmp_path / "bin.csv"
        binary.write_bytes(b"n=2\np,q,c\n0,1,\xff\n")
        result = runner.invoke(main, ["fix", str(ok), str(binary)])
        assert result.exit_code == 2, result.output
        assert f"data error: {binary}: " in result.output

    def test_unallocatable_element_count_is_data_error(self, runner, tmp_path):
        # an n x n float matrix of 71 PiB: numpy refuses it without allocating
        big = tmp_path / "big.csv"
        big.write_text("n=100000000\np,q,c\n0,1,1.0\n")
        result = runner.invoke(main, ["fix", str(big)])
        assert result.exit_code == 2, result.output
        assert f"data error: {big}: element count 100000000 is too large" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_element_count_beyond_physical_memory_is_data_error(
        self, runner, tmp_path, monkeypatch
    ):
        # numpy may reserve a large matrix lazily and fail only once it is
        # filled, so the count is checked against physical memory first:
        # here 16 pages of 16 bytes, which hold a 5 x 5 float matrix, not 6 x 6
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 16, "SC_PAGE_SIZE": 16}.get)
        fits, big = tmp_path / "fits.csv", tmp_path / "big.csv"
        fits.write_text("n=5\np,q,c\n0,1,1.0\n")
        big.write_text("n=6\np,q,c\n0,1,1.0\n")
        assert runner.invoke(main, ["fix", str(fits)]).exit_code == 0
        result = runner.invoke(main, ["fix", str(big)])
        assert (result.exit_code, result.output) == (
            2, f"data error: {big}: element count 6 is too large to allocate\n"
        )

    def test_element_count_beyond_numpy_limit_is_named(self, runner, tmp_path):
        # past numpy's size limit np.zeros raises ValueError, not MemoryError
        big = tmp_path / "huge.csv"
        big.write_text("n=99999999999\np,q,c\n0,1,1.0\n")
        result = runner.invoke(main, ["fix", str(big)])
        assert (result.exit_code, result.output) == (
            2, f"data error: {big}: element count 99999999999 is too large to allocate\n"
        )

    def test_out_in_missing_directory_is_usage_error(self, runner, tmp_path):
        inst = write_fig1(tmp_path)
        out = tmp_path / "missing" / "o.csv"
        result = runner.invoke(main, ["fix", str(inst), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("usage error: output directory")
        assert result.output.count("\n") == 1  # no instance ran

    def test_out_empty_file_gets_header(self, runner, tmp_path):
        inst = write_fig1(tmp_path)
        out = tmp_path / "empty.csv"
        out.write_text("")
        result = runner.invoke(main, ["fix", str(inst), "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == STATS_FIELDS and len(lines) == 2

    def test_out_appends_below_matching_header(self, runner, tmp_path):
        inst = write_fig1(tmp_path)
        out = tmp_path / "stats.csv"
        for _ in range(2):
            result = runner.invoke(main, ["fix", str(inst), "--out", str(out)])
            assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == STATS_FIELDS and len(lines) == 3
        rows = read_csv_rows(out)
        assert [row["instance"] for row in rows] == ["fig1.csv", "fig1.csv"]

    def test_out_with_foreign_header_is_usage_error(self, runner, tmp_path):
        inst = write_fig1(tmp_path)
        out = tmp_path / "other.csv"
        out.write_text("a,b\n1,2\n")
        result = runner.invoke(main, ["fix", str(inst), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("usage error: --out file")
        assert result.output.count("\n") == 1  # no instance ran
        assert out.read_text() == "a,b\n1,2\n"

    def test_out_in_emit_partial_directory_still_written(self, runner, tmp_path):
        inst = write_fig1(tmp_path)
        emit = tmp_path / "new"
        result = runner.invoke(
            main, ["fix", str(inst), "--out", str(emit / "o.csv"), "--emit-partial", str(emit)]
        )
        assert result.exit_code == 0, result.output
        assert (emit / "o.csv").exists() and (emit / "fig1.partial.csv").exists()

    def test_emit_partial_onto_a_directory_is_usage_error(self, runner, tmp_path):
        inst = write_fig1(tmp_path)
        emit = tmp_path / "parts"
        (emit / "fig1.partial.csv").mkdir(parents=True)
        out = tmp_path / "stats.csv"
        result = runner.invoke(
            main, ["fix", str(inst), "--emit-partial", str(emit), "--out", str(out)]
        )
        assert result.exit_code == 1, result.output
        assert result.output.startswith("usage error: ")
        assert "fig1.partial.csv" in result.output and "directory" in result.output
        assert result.output.count("\n") == 1  # no instance ran
        assert [p.name for p in emit.rglob("*")] == ["fig1.partial.csv"] and not out.exists()

    def test_uncreatable_emit_partial_is_usage_error(self, runner, tmp_path):
        inst = write_fig1(tmp_path)
        blocker = tmp_path / "afile"
        blocker.write_text("")
        result = runner.invoke(main, ["fix", str(inst), "--emit-partial", str(blocker / "sub")])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("usage error: cannot create --emit-partial directory")
        assert result.output.count("\n") == 1


class TestOracleCheck:
    def test_pipeline_certified(self, runner, tmp_path):
        inst = write_fig1(tmp_path)
        result = runner.invoke(main, ["oracle-check", str(inst)])
        assert result.exit_code == 0, result.output
        assert "certified" in result.output

    @pytest.mark.parametrize(
        "rows, exit_code, output",
        [
            (None, 0, "certified: optimum value 10 with arcs "
             "[(0, 1), (0, 3), (1, 0), (1, 3), (2, 4), (3, 0), (3, 1), (4, 2)]\n"),
            # rules out the first of the two optima, so the second certifies
            ("3,0,0\n", 0, "certified: optimum value 10 with arcs "
             "[(0, 1), (0, 3), (1, 0), (1, 3), (2, 3), (2, 4)]\n"),
            ("0,1,0\n", 3, "unsound fixation: pair (0, 1) = 0\n"),
        ],
        ids=["pipeline", "second-optimum", "unsound"],
    )
    def test_solves_once(self, runner, tmp_path, monkeypatch, rows, exit_code, output):
        calls = []
        solve_exact = oracle.solve_exact

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_exact(*args, **kwargs)

        monkeypatch.setattr(oracle, "solve_exact", counted)
        args = ["oracle-check", str(write_fig1(tmp_path))]
        if rows is not None:
            partial = tmp_path / "partial.csv"
            partial.write_text(rows)
            args += ["--partial", str(partial)]
        result = runner.invoke(main, args)
        assert (result.exit_code, result.output) == (exit_code, output)
        assert len(calls) == 1

    def test_unsound_partial_rejected_with_pair(self, runner, tmp_path):
        c = np.zeros((2, 2))
        c[0, 1] = 5.0
        path = tmp_path / "two.csv"
        save_instance(Instance(c), path)
        bad = tmp_path / "bad_partial.csv"
        bad.write_text("0,1,0\n")  # the unique optimum sets this arc
        result = runner.invoke(main, ["oracle-check", str(path), "--partial", str(bad)])
        assert result.exit_code == 3
        assert "(0, 1)" in result.output

    def test_jointly_unsound_partial_is_reported(self, runner, tmp_path):
        # optima {01}, {12} and {01, 02, 12}: each fixed zero agrees with one
        # of them, but none has both 01 and 12 zero
        c = -np.ones((3, 3))
        np.fill_diagonal(c, 0.0)
        c[0, 1] = c[1, 2] = 1.0
        path = tmp_path / "three.csv"
        save_instance(Instance(c), path)
        partial = tmp_path / "partial.csv"
        partial.write_text("0,1,0\n1,2,0\n")
        result = runner.invoke(main, ["oracle-check", str(path), "--partial", str(partial)])
        assert (result.exit_code, result.output) == (
            3, "unsound fixations: no optimum agrees with the decided pairs taken together\n"
        )

    def test_partial_without_transitive_completion_is_data_error(self, runner, tmp_path):
        path = tmp_path / "three.csv"
        save_instance(Instance(np.zeros((3, 3))), path)
        partial = tmp_path / "partial.csv"
        partial.write_text("0,1,1\n1,2,1\n0,2,0\n")  # 0->1->2 forces 0->2
        result = runner.invoke(main, ["oracle-check", str(path), "--partial", str(partial)])
        assert result.exit_code == 2, result.output
        assert f"data error: {partial}: the assignment has no transitive completion" in (
            result.output
        )
        assert "unsound" not in result.output

    @pytest.mark.parametrize(
        "rows, line",
        [
            ("0,1,1\n0,x,0\n", 2),  # non-integer field
            ("0,1,1.0\n", 1),  # non-integer value
            ("0,1,1\n-1,0,1\n", 2),  # negative index, would pin (n-1, 0)
            ("0,5,0\n", 1),  # index out of range
            ("1,1,1\n", 1),  # diagonal row
            ("0,1,1\n1,0,0\n0,1,0\n", 3),  # conflicting rows
            ("0,1,0_1\n", 1),  # int() reads 0_1 as 1
        ],
        ids=["non-integer", "float-value", "negative", "out-of-range", "diagonal", "conflict",
             "digit-separator"],
    )
    def test_malformed_partial_is_data_error(self, runner, tmp_path, rows, line):
        inst = write_fig1(tmp_path)
        partial = tmp_path / "partial.csv"
        partial.write_text(rows)
        result = runner.invoke(main, ["oracle-check", str(inst), "--partial", str(partial)])
        assert result.exit_code == 2, result.output
        assert f"{partial}:{line}:" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_undecodable_partial_is_named(self, runner, tmp_path):
        inst = write_fig1(tmp_path)
        partial = tmp_path / "partial.csv"
        partial.write_bytes(b"0,1,1\n\xff\n")
        result = runner.invoke(main, ["oracle-check", str(inst), "--partial", str(partial)])
        assert result.exit_code == 2, result.output
        assert f"data error: {partial}: " in result.output

    def test_large_instance_is_usage_error(self, runner, tmp_path):
        c = np.zeros((7, 7))
        path = tmp_path / "seven.csv"
        save_instance(Instance(c), path)
        result = runner.invoke(main, ["oracle-check", str(path)])
        assert result.exit_code == 1


class TestIngestEgo:
    def test_round_trip(self, runner, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        out = tmp_path / "ego.csv"
        result = runner.invoke(main, ["ingest-ego", str(edges), "--out", str(out)])
        assert result.exit_code == 0
        from preopt.instance import load_instance

        inst = load_instance(out)
        assert inst.n == 3
        assert inst.values[0, 1] == 1.0 and inst.values[1, 0] == -1.0

    @pytest.mark.parametrize(
        "text, nodes",
        [("1 2\n01 3\n", 4), ("\u00b2 1\n", 2)],
        ids=["leading-zero", "superscript-digit"],
    )
    def test_labels_that_are_not_canonical_ints_stay_strings(self, runner, tmp_path, text, nodes):
        # "1" and "01" are two nodes; "\u00b2" passes str.isdigit but not int()
        edges = tmp_path / "edges.txt"
        edges.write_text(text, encoding="utf-8")
        out = tmp_path / "ego.csv"
        result = runner.invoke(main, ["ingest-ego", str(edges), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output.startswith(f"{nodes} nodes")
        from preopt.instance import load_instance

        assert load_instance(out).n == nodes

    def test_undecodable_edge_list_is_data_error(self, runner, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_bytes(b"0 1\n\xff 2\n")
        out = tmp_path / "ego.csv"
        result = runner.invoke(main, ["ingest-ego", str(edges), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"data error: {edges}: " in result.output

    def test_out_in_missing_directory_is_usage_error(self, runner, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n")
        out = tmp_path / "missing" / "x.csv"
        result = runner.invoke(main, ["ingest-ego", str(edges), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("usage error: output directory")
        assert result.exception is None or isinstance(result.exception, SystemExit)


def unsound_directed_cut(instance, pa):
    """A batch with no transitive completion: 0->1 and 1->2, but not 0->2."""
    return [
        Fixation((0, 1), 1, DIRECTED_CUT, 1.0),
        Fixation((1, 2), 1, DIRECTED_CUT, 1.0),
        Fixation((0, 2), 0, DIRECTED_CUT, 1.0),
    ]


def assert_exit(result, exit_code: int, output: str) -> None:
    """The exit code and the whole output: one line, with no traceback."""
    assert (result.exit_code, result.output) == (exit_code, output)
    assert result.exception is None or isinstance(result.exception, SystemExit)


class TestExitCodes:
    """Every command maps an escaping error to its exit code in one handler."""

    def test_policy_is_stated_once(self):
        source = Path(cli.__file__).read_text()
        assert (source.count("data error:"), source.count("soundness violation:")) == (1, 1)

    @pytest.mark.parametrize(
        "command, copies",
        [(["fix"], 1), (["fix", "--threads", "2"], 2), (["oracle-check"], 1)],
        ids=["fix", "fix-threads", "oracle-check"],
    )
    def test_soundness_violation_exits_3(self, runner, tmp_path, monkeypatch, command, copies):
        # forked workers inherit the patch
        monkeypatch.setattr(conditions, "directed_cut_condition", unsound_directed_cut)
        paths = []
        for k in range(copies):
            (tmp_path / str(k)).mkdir()
            paths.append(str(write_fig1(tmp_path / str(k))))
        result = runner.invoke(main, [*command, *paths])
        assert_exit(result, 3, "soundness violation: condition 'directed-cut' emitted "
                    "fixations with no common completion\n")

    @pytest.mark.parametrize("case", CONTRADICTORY_BATCHES)
    def test_contradictory_batch_exits_3(self, runner, tmp_path, monkeypatch, case):
        deciders, condition = CONTRADICTORY_BATCHES[case]
        for name, decider in deciders.items():
            monkeypatch.setattr(conditions, name, decider)
        result = runner.invoke(main, ["fix", str(write_fig1(tmp_path))])
        assert_exit(result, 3, f"soundness violation: condition {condition!r} emitted "
                    "fixations with no common completion\n")

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("ingest-ego", "0 1\n1 2 3\n", "{path}:2: expected 'src dst', got '1 2 3'"),
            ("oracle-check --partial", "0,1\n", "{path}:1: malformed row '0,1'"),
            ("oracle-check", "n=2\np,q,c\n0,0,1\n", "{path}:3: diagonal pair (0, 0) forbidden"),
        ],
        ids=["ingest-ego", "oracle-check-partial", "oracle-check-instance"],
    )
    def test_data_error_exits_2(self, runner, tmp_path, command, text, message):
        path = tmp_path / "input.txt"
        path.write_text(text)
        if command == "ingest-ego":
            args = ["ingest-ego", str(path), "--out", str(tmp_path / "out.csv")]
        elif command == "oracle-check":
            args = ["oracle-check", str(path)]
        else:
            args = ["oracle-check", str(write_fig1(tmp_path)), "--partial", str(path)]
        result = runner.invoke(main, args)
        assert_exit(result, 2, f"data error: {message.format(path=path)}\n")

    @pytest.mark.parametrize(
        "name, args",
        [
            ("run_joint", ["oracle-check", "INSTANCE"]),
            ("draw_values", ["generate", "--out", "OUT", "--n", "3"]),
        ],
        ids=["oracle-check-pipeline", "generate"],
    )
    def test_escaping_value_error_is_data_error(self, runner, tmp_path, monkeypatch, name, args):
        def broken(*args, **kwargs):
            raise ValueError("broken input")

        monkeypatch.setattr(cli, name, broken)
        swap = {"INSTANCE": str(write_fig1(tmp_path)), "OUT": str(tmp_path / "ens")}
        result = runner.invoke(main, [swap.get(arg, arg) for arg in args])
        assert_exit(result, 2, "data error: broken input\n")
