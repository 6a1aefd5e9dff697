"""Command-line front end: dataset generation, condition runs, oracle checks.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 internal inconsistency
(a soundness violation, which aborts instead of being repaired).
"""

from __future__ import annotations

import csv
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import NoReturn

import click
from click.exceptions import NoArgsIsHelpError

from . import oracle
from .conditions import (
    ALL_CONDITIONS,
    DEFAULT_CONDITIONS,
    PipelineConfig,
    RunStats,
    SoundnessError,
    run_joint,
)
from .instance import (
    GeneratorConfig,
    draw_values,
    generate_ground_truth,
    ingest_ego_network,
    load_instance,
    load_partial,
    read_edge_list,
    save_instance,
    save_partial,
)
from .rng import SplitMix64, derive_seed

STATS_FIELDS = [
    "instance",
    "n",
    "alpha",
    "p_edges",
    "seed",
    "rounds",
    "merged_classes",
    "fixed_zero",
    "fixed_one",
    "percent_fixed",
    "total_ns",
]
for _cond in ALL_CONDITIONS:
    STATS_FIELDS += [f"{_cond}_zero", f"{_cond}_one", f"{_cond}_ns"]

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INCONSISTENT = 3


def _stats_row(name: str, stats: RunStats, meta: dict | None = None) -> dict:
    row = {field: "" for field in STATS_FIELDS}
    row.update(
        instance=name,
        n=stats.n,
        rounds=stats.rounds,
        merged_classes=stats.merged_classes,
        fixed_zero=stats.fixed_zero,
        fixed_one=stats.fixed_one,
        percent_fixed=f"{stats.percent_fixed:.6f}",
        total_ns=stats.total_ns,
    )
    if meta:
        row.update({k: v for k, v in meta.items() if k in row})
    for cond, rec in stats.per_condition.items():
        row[f"{cond}_zero"] = rec.fixed_zero
        row[f"{cond}_one"] = rec.fixed_one
        row[f"{cond}_ns"] = rec.time_ns
    return row


def _usage_error(message) -> NoReturn:
    click.echo(f"usage error: {message}", err=True)
    sys.exit(EXIT_USAGE)


def _check_out_parent(out_path: str | None) -> None:
    """Exit 1 before any work when an output file's directory is missing."""
    if out_path is not None and not Path(out_path).parent.is_dir():
        _usage_error(f"output directory {str(Path(out_path).parent)!r} does not exist")


def _stats_header_needed(out_csv: str) -> bool:
    """True when the stats file is missing or empty; exit 1 before any work
    when it exists with a first line other than the stats header."""
    path = Path(out_csv)
    if not path.exists() or path.stat().st_size == 0:
        return True
    with path.open(newline="", errors="replace") as fh:
        if next(csv.reader(fh), []) != STATS_FIELDS:
            _usage_error(f"--out file {out_csv!r} exists without the stats header")
    return False


def _pipeline_config(conditions_text: str | None, **options) -> PipelineConfig:
    """The run's config from the comma-separated condition ids; exit 1 if invalid."""
    conditions = DEFAULT_CONDITIONS
    if conditions_text is not None:
        conditions = tuple(part.strip() for part in conditions_text.split(",") if part.strip())
    try:
        return PipelineConfig(conditions=conditions, **options)
    except ValueError as exc:
        _usage_error(exc)


def _manifest_meta(path: Path) -> dict:
    """Echo generator parameters from a sibling manifest.csv, when present."""
    manifest = path.parent / "manifest.csv"
    if not manifest.exists():
        return {}
    with manifest.open() as fh:
        for row in csv.DictReader(fh):
            if row.get("instance") == path.name:
                return {
                    "alpha": row.get("alpha", ""),
                    "p_edges": row.get("p_edges", ""),
                    "seed": row.get("value_seed", row.get("seed", "")),
                }
    return {}


def _partial_path(emit_dir: str, path: str) -> Path:
    return Path(emit_dir) / (Path(path).stem + ".partial.csv")


def _run_one(args) -> tuple[str, dict]:
    path, cfg, emit_dir = args
    instance = load_instance(path)
    name = Path(path).name
    pa, _, stats = run_joint(instance, cfg)
    if emit_dir is not None:
        save_partial(pa, _partial_path(emit_dir, path))
    return name, _stats_row(name, stats, _manifest_meta(Path(path)))


@contextmanager
def _exit_codes():
    """The one place that turns an escaping error into an exit code.

    Arguments click itself rejects are usage errors (exit 1, not click's 2),
    a ``SoundnessError`` is a soundness violation (exit 3) and any other
    ``ValueError`` is a data error (exit 2), each with a one-line message.
    """
    try:
        yield
    except NoArgsIsHelpError as exc:
        exc.exit_code = EXIT_USAGE  # keep click's help text
        raise
    except click.UsageError as exc:
        _usage_error(exc.format_message())
    except SoundnessError as exc:
        click.echo(f"soundness violation: {exc}", err=True)
        sys.exit(EXIT_INCONSISTENT)
    except ValueError as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(EXIT_DATA)


class _Group(click.Group):
    """The command group: parsing and every command run under ``_exit_codes``."""

    def make_context(self, *args, **kwargs):
        with _exit_codes():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _exit_codes():
            return super().invoke(ctx)


@click.group(cls=_Group)
def main():
    """Partial-optimality preprocessing for preordering instances."""


@main.command()
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--n", "n", type=int, default=20, show_default=True)
@click.option("--alpha", type=float, default=0.5, show_default=True)
@click.option("--p-edges", type=float, default=0.5, show_default=True)
@click.option("--truths", type=click.IntRange(min=1), default=5, show_default=True,
              help="ground truths per setting")
@click.option("--count", type=click.IntRange(min=1), default=20, show_default=True,
              help="value draws per truth")
@click.option("--seed", type=int, default=0, show_default=True)
def generate(out_dir, n, alpha, p_edges, truths, count, seed):
    """Write an ensemble of synthetic instances plus a manifest."""
    try:
        GeneratorConfig(n=n, p_edges=p_edges, alpha=alpha, seed=seed)
    except ValueError as exc:
        _usage_error(exc)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _usage_error(f"cannot create --out directory {out_dir!r}: {exc}")
    manifest_path = out / "manifest.csv"
    rows = []
    for t in range(truths):
        truth_seed = derive_seed(seed, t)
        truth = generate_ground_truth(n, p_edges, SplitMix64(truth_seed))
        for k in range(count):
            value_seed = derive_seed(seed, t, k)
            instance = draw_values(truth, alpha, SplitMix64(value_seed))
            name = f"synthetic_n{n}_a{alpha:g}_p{p_edges:g}_t{t}_k{k}.csv"
            save_instance(instance, out / name)
            rows.append(
                {
                    "instance": name,
                    "n": n,
                    "alpha": alpha,
                    "p_edges": p_edges,
                    "truth_seed": truth_seed,
                    "value_seed": value_seed,
                }
            )
    with manifest_path.open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["instance", "n", "alpha", "p_edges", "truth_seed", "value_seed"]
        )
        writer.writeheader()
        writer.writerows(rows)
    click.echo(f"wrote {len(rows)} instances to {out}")


def _quantiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
    return q[0], med, q[2]


@main.command()
@click.argument("instances", nargs=-1, type=click.Path(exists=True, dir_okay=False))
@click.option("--conditions", "conditions_text", default=None, help="comma-separated condition ids")
@click.option(
    "--rounds",
    type=int,
    default=None,
    help="cap on fixpoint rounds; one round settles the cut and bbk conditions, "
    "then runs edge-join and subset-u once each, settling again after each that fixes a pair",
)
@click.option("--single-pass", is_flag=True, help="one pass per condition, no fixpoint")
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--emit-partial", "emit_dir", type=click.Path(file_okay=False), default=None)
@click.option("--out", "out_csv", type=click.Path(dir_okay=False), default=None)
def fix(instances, conditions_text, rounds, single_pass, threads, emit_dir, out_csv):
    """Run the condition pipeline on instance files and report stats rows."""
    if not instances:
        _usage_error("no instance files given")
    cfg = _pipeline_config(conditions_text, max_rounds=rounds, single_pass=single_pass)
    if emit_dir is not None:  # before the --out check, which may name this directory
        owners: dict[Path, str] = {}
        for path in instances:
            out = _partial_path(emit_dir, path)
            if out in owners:
                _usage_error(f"{owners[out]} and {path} would both write {out}")
            if out.is_dir():
                _usage_error(f"{path} would write {out}, which is a directory")
            owners[out] = path
        try:
            Path(emit_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            _usage_error(f"cannot create --emit-partial directory {emit_dir!r}: {exc}")
    _check_out_parent(out_csv)
    write_header = out_csv is not None and _stats_header_needed(out_csv)
    jobs = [(path, cfg, emit_dir) for path in instances]
    workers = min(threads, len(jobs))  # at most one worker per instance
    rows = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for name, row in (pool.map if workers > 1 else map)(_run_one, jobs):
            rows.append(row)
            click.echo(f"{name}: {row['percent_fixed']}% fixed")
    if out_csv is not None:
        with Path(out_csv).open("a", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=STATS_FIELDS)
            if write_header:
                writer.writeheader()
            writer.writerows(rows)
    if len(rows) > 1:
        fixed = [float(r["percent_fixed"]) for r in rows]
        q25, med, q75 = _quantiles(fixed)
        click.echo(f"percent fixed: median {med:.2f} (q25 {q25:.2f}, q75 {q75:.2f})")


@main.command("oracle-check")
@click.argument("instance_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--conditions", "conditions_text", default=None)
@click.option("--partial", "partial_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="certify a stored partial assignment instead of running the pipeline")
def oracle_check(instance_path, conditions_text, partial_path):
    """Certify pipeline fixations against the exhaustive oracle (n <= 6)."""
    cfg = _pipeline_config(conditions_text)
    instance = load_instance(instance_path)
    if instance.n > oracle.MAX_ORACLE_N:
        click.echo(f"oracle check needs n <= {oracle.MAX_ORACLE_N}, got {instance.n}", err=True)
        sys.exit(EXIT_USAGE)
    if partial_path is not None:
        pa = load_partial(partial_path, instance.n)
    else:
        pa, _, _ = run_joint(instance, cfg)
    optima = oracle.solve_exact(instance)
    agrees = oracle.completion_mask(optima.matrices, pa)
    if agrees.any():
        witness = optima.matrices[agrees][0]
        arcs = [(int(p), int(q)) for p, q in zip(*witness.nonzero())]
        click.echo(f"certified: optimum value {optima.value:g} with arcs {arcs}")
        sys.exit(0)
    for p, q, v in pa.domain_pairs():
        if not any(int(m[p, q]) == v for m in optima.matrices):
            click.echo(f"unsound fixation: pair ({p}, {q}) = {v}", err=True)
            break
    else:
        click.echo("unsound fixations: no optimum agrees with the decided pairs taken together",
                   err=True)
    sys.exit(EXIT_INCONSISTENT)


@main.command("ingest-ego")
@click.argument("edge_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_csv", type=click.Path(dir_okay=False), required=True)
def ingest_ego(edge_file, out_csv):
    """Convert a "src dst" edge list into an instance file."""
    _check_out_parent(out_csv)
    nodes, edges = read_edge_list(edge_file)
    instance = ingest_ego_network(edges, nodes)
    save_instance(instance, out_csv)
    click.echo(f"{len(nodes)} nodes, {len(edges)} edges -> {out_csv}")


if __name__ == "__main__":
    main()
