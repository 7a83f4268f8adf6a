"""Command-line interface.

Exit codes: 0 on success, 2 on configuration errors (bad flags, bad config
files, unreadable inputs), 3 on numerical failures.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from topocorr.complexes import FilteredComplex
from topocorr.dcor import permutation_test, sample_dcor
from topocorr.dem import load_grid, synth_terrain
from topocorr.errors import ConfigurationError, NumericalFailure, ParseError
from topocorr.experiment import (
    build_complex,
    dem_from_grid,
    format_negtype_report,
    load_config,
    run_experiment,
    run_negtype_suite,
    run_parameter_correlation,
    summary_for,
)
from topocorr.metrics import parse_metric_spec, pairwise_matrix
from topocorr.models import ModelSpec, generate as generate_sample
from topocorr.negtype import negtype_check
from topocorr.persistence import compute_persistence
from topocorr.serialize import (
    curve_to_csv,
    diagram_from_csv,
    diagram_to_csv,
    landscape_to_text,
    matrix_from_csv,
    matrix_to_csv,
)


def _write(out, text):
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)


def _parse(path, parse):
    """``parse`` applied to a file's text; an unreadable or malformed file is
    a configuration error."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except (ParseError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


@click.group()
def cli():
    """Persistent-homology summaries, exact metrics, and distance correlation."""


@cli.command("generate")
@click.option("--kind", type=click.Choice(ModelSpec.KINDS), required=True)
@click.option("--n", type=int, required=True, help="Vertices or sample points.")
@click.option("--gamma", type=click.FloatRange(0, 1), default=None,
              help="Interpolation parameter.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--index", type=int, default=0, show_default=True,
              help="Sample index within the seeded batch.")
@click.option("--max-dim", type=click.IntRange(min=1), default=2, show_default=True)
@click.option("--max-radius", type=click.FloatRange(min=0, min_open=True), default=1.0,
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def generate_cmd(kind, n, gamma, seed, index, max_dim, max_radius, out):
    """Sample a random model and emit its filtered complex as text."""
    try:
        spec = ModelSpec(kind, n, gamma=gamma, seed=seed)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    raw = generate_sample(spec, index)
    cx = build_complex(kind, raw, max_dim, max_radius)
    _write(out, cx.to_text())


@cli.command("persist")
@click.argument("complex_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--degree", type=click.IntRange(min=0), default=None,
              help="Keep only this homology degree.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def persist_cmd(complex_file, degree, out):
    """Compute the persistence diagram of a filtered complex file."""
    cx = _parse(complex_file, FilteredComplex.from_text)
    degrees = None if degree is None else {degree}
    _write(out, diagram_to_csv(compute_persistence(cx, degrees=degrees)))


@cli.command("summarize")
@click.argument("diagram_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=click.Choice(["landscape", "betti", "euler"]),
              default="landscape", show_default=True)
@click.option("--degree", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def summarize_cmd(diagram_file, kind, degree, out):
    """Derive a landscape or Betti/Euler curve from a diagram CSV."""
    diagram = _parse(diagram_file, diagram_from_csv)
    write = landscape_to_text if kind == "landscape" else curve_to_csv
    _write(out, write(summary_for(kind, diagram, degree)))


@cli.command("distmat")
@click.argument("diagram_files", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--metric", required=True,
              help="Metric spec, e.g. wasserstein:p=2 or landscape:p=inf.")
@click.option("--degree", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def distmat_cmd(diagram_files, metric, degree, out):
    """Pairwise distance matrix of a metric over diagram CSV files."""
    spec = parse_metric_spec(metric)
    if spec.summary_kind == "count":
        raise ConfigurationError("count metrics need complexes; use the experiment command")
    diagrams = [_parse(path, diagram_from_csv) for path in diagram_files]
    if len(diagrams) < 2:
        raise ConfigurationError("need at least 2 diagram files")
    samples = [summary_for(spec.summary_kind, d, degree) for d in diagrams]
    _write(out, matrix_to_csv(pairwise_matrix(samples, spec)))


@cli.command("dcor")
@click.argument("matrix_x", type=click.Path(exists=True, dir_okay=False))
@click.argument("matrix_y", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def dcor_cmd(matrix_x, matrix_y, out):
    """Distance-correlation report between two distance matrices."""
    dx, dy = _parse(matrix_x, matrix_from_csv), _parse(matrix_y, matrix_from_csv)
    if dx.n != dy.n:
        raise ConfigurationError("matrices must have the same sample count")
    _write(out, sample_dcor(dx, dy).to_text())


@cli.command("permtest")
@click.argument("matrix_x", type=click.Path(exists=True, dir_okay=False))
@click.argument("matrix_y", type=click.Path(exists=True, dir_okay=False))
@click.option("--permutations", type=int, default=999, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def permtest_cmd(matrix_x, matrix_y, permutations, seed, out):
    """Permutation p-value for independence of two distance matrices."""
    if permutations < 1:
        raise ConfigurationError("permutations must be >= 1")
    dx, dy = _parse(matrix_x, matrix_from_csv), _parse(matrix_y, matrix_from_csv)
    if dx.n != dy.n:
        raise ConfigurationError("matrices must have the same sample count")
    p = permutation_test(dx, dy, permutations, seed)
    _write(out, f"p_value={p!r}\n")


@cli.command("negtype")
@click.argument("matrix_file", required=False,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def negtype_cmd(matrix_file, tol, out):
    """Check a distance matrix for negative type, or run the fixture suite."""
    if matrix_file is None:
        _write(out, format_negtype_report(run_negtype_suite()))
        return
    verdict = negtype_check(_parse(matrix_file, matrix_from_csv), tol=tol)
    if verdict.negative_type:
        _write(out, "negative_type\n")
    else:
        weights = " ".join(repr(w) for w in verdict.witness)
        _write(out, f"violated worst_value={verdict.worst_value!r}\nwitness {weights}\n")


@cli.command("dem")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Elevation grid file; omit to synthesize terrain.")
@click.option("--size", type=int, default=65, show_default=True,
              help="Synthetic terrain side (2^k + 1).")
@click.option("--roughness", type=click.FloatRange(0, 1, min_open=True), default=0.6,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--chunk-size", type=click.IntRange(min=1), default=16, show_default=True)
@click.option("--stride", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--max-chunks", type=click.IntRange(min=1), default=None)
@click.option("--resolution", type=click.FloatRange(min=0, min_open=True), default=10.0,
              show_default=True)
@click.option("--metric", "metric_names", multiple=True,
              help="Metric spec (repeatable); default wasserstein:p=2.")
@click.option("--out", type=click.Path(file_okay=False), required=True)
def dem_cmd(input_path, size, roughness, seed, chunk_size, stride, max_chunks,
            resolution, metric_names, out):
    """Chunked elevation-grid pipeline: cubical persistence vs ruggedness."""
    metrics = [parse_metric_spec(m) for m in (metric_names or ("wasserstein:p=2",))]
    if input_path is None:
        grid = synth_terrain(size, roughness, seed)
    else:
        try:
            grid = load_grid(Path(input_path))
        except (ParseError, ValueError) as exc:
            raise ConfigurationError(f"{input_path}: {exc}") from exc
    result = dem_from_grid(grid, chunk_size, stride, metrics, out=Path(out),
                           resolution=resolution, max_chunks=max_chunks)
    for label, dcor_tri, dcor_geo in result["rows"]:
        click.echo(f"{label} dCor_tri={dcor_tri:.6f} dCor_geodesic={dcor_geo:.6f}")


@cli.command("experiment")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", type=click.Path(file_okay=False), default=None,
              help="Override the config output directory.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker processes for per-sample persistence.")
@click.option("--verbose/--quiet", default=False)
def experiment_cmd(config_path, seed, out, threads, verbose):
    """Run a configured experiment; with a [sweep] section, a parameter sweep."""
    if threads < 1:
        raise ConfigurationError("threads must be >= 1")
    cfg = load_config(config_path, seed=seed, out=out)
    progress = (lambda msg: click.echo(msg, err=True)) if verbose else None
    if cfg.sweep is not None:
        rows = run_parameter_correlation(cfg, progress=progress)
        for label, value, flag in rows:
            suffix = " negative_flag" if flag else ""
            click.echo(f"{label} dCor={value:.6f}{suffix}")
    else:
        result = run_experiment(cfg, progress=progress, threads=threads)
        click.echo(f"wrote {len(result['labels'])} distance matrices and "
                   f"dCor artifacts to {cfg.out}")


def main(argv=None):
    """Console entry point mapping domain errors to exit codes."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
        return 0 if rv is None else rv
    except click.ClickException as exc:
        exc.show()
        return 2
    except click.exceptions.Abort:
        return 130
    except (ConfigurationError, ParseError) as exc:
        click.echo(f"configuration error: {exc}", err=True)
        return 2
    except NumericalFailure as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
