"""Run driver: models -> complexes -> persistence -> summaries -> distance
matrices -> distance correlation, with the artifacts of :mod:`topocorr.serialize`.
The experiment, the γ sweep and the DEM run share one driver, :func:`_matrices`."""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from topocorr import __version__
from topocorr.complexes import (
    build_directed_flag_complex,
    build_flag_complex,
    build_rips_complex,
)
from topocorr.dcor import dcor_matrix
from topocorr.dem import chunk_grid, synth_terrain, tri
from topocorr.errors import ConfigurationError, NumericalFailure
from topocorr.metrics import DistanceMatrix, MetricSpec, pairwise_matrix, parse_metric_spec
from topocorr.models import ModelSpec, generate
from topocorr.persistence import compute_persistence
from topocorr.serialize import (
    diagram_to_csv,
    labeled_matrix_to_csv,
    matrix_to_csv,
    parse_file,
    render_heatmap,
    rows_to_csv,
)
from topocorr.summaries import betti_curve, euler_curve, landscape_from_diagram, simplex_count_curve

DEFAULT_METRICS = (
    "wasserstein:p=1",
    "wasserstein:p=2",
    "bottleneck",
    "landscape:p=1",
    "landscape:p=2",
    "landscape:p=inf",
    "pss:sigma=0.01",
    "pss:sigma=1",
    "betti:p=1",
    "betti:p=2",
    "euler:p=1",
    "euler:p=2",
    "swk:sigma=1,lines=10",
)


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to replay an experiment."""

    model: ModelSpec
    repetitions: int
    degree: int
    metrics: tuple[MetricSpec, ...]
    out: Path
    seed: int
    max_dim: int = 2
    max_radius: float = 1.0
    sweep: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.repetitions < 2 and self.sweep is None:
            raise ConfigurationError("repetitions must be >= 2")
        if self.max_dim < 1:
            raise ConfigurationError("max_dim must be >= 1")
        if not self.max_radius > 0:
            raise ConfigurationError("max_radius must be positive")
        if not 0 <= self.degree <= self.max_dim:
            raise ConfigurationError(f"degree must lie in [0, max_dim = {self.max_dim}]")
        check_metrics(self.metrics, self.max_dim)
        if self.sweep is not None and len(self.sweep) < 2:
            raise ConfigurationError("a sweep needs at least 2 gamma values")
        if self.sweep is not None and not all(0.0 <= g <= 1.0 for g in self.sweep):
            raise ConfigurationError("sweep gamma values must lie in [0, 1]")


def check_metrics(metrics, top):
    """ConfigurationError unless ``metrics`` is a non-empty list of specs of
    distinct metrics (by name and parameters, however spelled) whose
    ``count<d>`` cells can exist: d at most ``top``, the top cell dimension of
    the run's complexes (None for diagram files, which hold none)."""
    if not metrics:
        raise ConfigurationError("at least one metric spec required")
    for m in metrics:
        twins = [k.label for k in metrics if (k.name, k.params) == (m.name, m.params)]
        if len(twins) > 1:
            raise ConfigurationError(f"metric listed twice: {twins[0]!r} and {twins[1]!r}")
        if m.cell_dim is not None and (top is None or m.cell_dim > top):
            where = "diagram files" if top is None else f"complexes of dimension {top}"
            raise ConfigurationError(f"{m.label} counts {m.cell_dim}-cells; {where} have none")


# Config section -> key -> conversion of its text; nothing else is accepted.
_CONFIG_KEYS = {
    "model": {"kind": str, "n": int, "gamma": float},
    "run": {"repetitions": int, "degree": int, "metrics": str.split, "seed": int, "out": str,
            "max_dim": int, "max_radius": float},
    "sweep": {"gamma_count": int, "gamma": lambda text: tuple(float(v) for v in text.split())},
}


def load_config(path, seed=None, out=None) -> RunConfig:
    """Read an INI config: [model] with kind and n, [run], and a [sweep] for
    a parameter sweep, each with the keys of :data:`_CONFIG_KEYS`."""
    import configparser

    parser = configparser.ConfigParser()
    try:
        parse_file(path, partial(parser.read_string, source=str(path)))
        cfg = {}
        for section in parser.sections():
            if section not in _CONFIG_KEYS:
                raise ConfigurationError(f"unknown config section [{section}]")
            cfg[section] = {}
            for key, value in parser.items(section):
                if key not in _CONFIG_KEYS[section]:
                    raise ConfigurationError(f"unknown key {key!r} in [{section}]")
                cfg[section][key] = _CONFIG_KEYS[section][key](value)
        model, run, sweep = cfg["model"], cfg["run"], cfg.get("sweep")
        kind = model["kind"]
        if sweep is not None:
            # A sweep draws one interpolated sample per gamma value.
            if kind != "interpolated":
                raise ConfigurationError(f"a sweep needs [model] kind = interpolated, not {kind}")
            for section, key in (("model", "gamma"), ("run", "repetitions")):
                if key in cfg[section]:
                    raise ConfigurationError(f"a sweep takes no [{section}] {key}")
            if len(sweep) != 1:
                raise ConfigurationError("[sweep] needs exactly one of gamma and gamma_count")
            sweep = sweep["gamma"] if "gamma" in sweep else tuple(
                np.linspace(0.0, 1.0, sweep["gamma_count"]))
        seed = run.get("seed", 0) if seed is None else seed
        model = ModelSpec(kind, model["n"], seed=seed,
                          gamma=model.get("gamma", 0.0 if kind == "interpolated" else None))
    except ConfigurationError:
        raise
    except KeyError as exc:
        raise ConfigurationError(f"config needs {exc.args[0]!r}") from exc
    except (configparser.Error, ValueError) as exc:
        raise ConfigurationError(f"bad config: {exc}") from exc
    return RunConfig(
        model=model, repetitions=run.get("repetitions", 2), degree=run.get("degree", 1),
        metrics=tuple(parse_metric_spec(m) for m in run.get("metrics", DEFAULT_METRICS)),
        out=Path(out if out is not None else run.get("out", "out")), seed=seed,
        max_dim=run.get("max_dim", 2), max_radius=run.get("max_radius", 1.0), sweep=sweep)


def build_complex(kind, raw, max_dim=2, max_radius=1.0):
    """Turn a generated graph or point cloud into its filtered complex."""
    if kind in ("er", "interpolated"):
        return build_flag_complex(raw, max_dim)
    if kind == "directed_er":
        return build_directed_flag_complex(raw, max_dim)
    if kind in ("torus", "cube"):
        return build_rips_complex(raw, max_dim, max_radius)
    raise ConfigurationError(f"unknown model kind {kind!r}")


def summary_for(kind, diagram, degree):
    """The ``kind`` summary ("diagram", "landscape", "betti" or "euler") of a
    full persistence diagram, in homology degree ``degree``; the Euler curve
    takes the bars of every degree."""
    if kind == "diagram":
        return diagram.restrict(degree)
    if kind == "landscape":
        return landscape_from_diagram(diagram.restrict(degree))
    if kind == "betti":
        return betti_curve(diagram, degree)
    if kind == "euler":
        return euler_curve(diagram)
    raise ConfigurationError(f"no {kind} summary of a diagram")


def compute_bundle(cx, degree, metrics, max_dim=2):
    """All summaries a metric list needs, computed once per sample and keyed
    by :attr:`MetricSpec.summary_kind`.

    ``cx`` is a filtered complex or a height grid; persistence and cell
    counts both read either as it is.  ``max_dim`` is the top cell dimension
    of ``cx``; no summary needs it, since the diagram holds no degree above it.
    """
    diagram = compute_persistence(cx)
    bundle = {"diagram": diagram.restrict(degree)}
    for m in metrics:
        if m.summary_kind in bundle:
            continue
        if m.cell_dim is None:
            bundle[m.summary_kind] = summary_for(m.summary_kind, diagram, degree)
        else:
            bundle[m.summary_kind] = simplex_count_curve(cx, m.cell_dim)
    return bundle


def _safe_label(label):
    return label.replace(":", "_").replace("=", "_").replace(",", "_").replace("/", "_")


def _make_out(out, *subdirs):
    """Create the output directory ``out`` and its ``subdirs`` before any
    work, unless ``out`` is None; ConfigurationError if one cannot be made."""
    try:
        for path in () if out is None else (out, *(out / sub for sub in subdirs)):
            path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out}: {exc}") from exc


def _write_manifest(out, **settings):
    """``out/manifest.json``: the package version and the settings a run used,
    keys sorted, so reruns write the same bytes."""
    (out / "manifest.json").write_text(
        json.dumps({"version": __version__, **settings}, indent=2, sort_keys=True) + "\n")


def _sample_bundle(cfg: RunConfig, index: int) -> dict:
    """Sample ``index`` of an experiment, or the sample at ``cfg.sweep[index]``."""
    spec = cfg.model if cfg.sweep is None else ModelSpec(
        "interpolated", cfg.model.n, gamma=float(cfg.sweep[index]), seed=cfg.seed)
    cx = build_complex(spec.kind, generate(spec, index), cfg.max_dim, cfg.max_radius)
    return compute_bundle(cx, cfg.degree, cfg.metrics, cfg.max_dim)


def _matrices(make, items, metrics, threads=1, progress=None):
    """The bundle ``make(item)`` of every item, in item order, and one pairwise
    matrix per metric over them.  ``threads`` > 1 builds the bundles in worker
    processes; each is a pure function of its item, so the result is the same.
    The metrics that share a pass key share one call, by the first of them."""
    pool = nullcontext()
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(threads, len(items)))
    bundles = []
    with pool:
        for bundle in (pool.map if threads > 1 else map)(make, items):
            bundles.append(bundle)
            if progress:
                progress(f"sample {len(bundles)}/{len(items)}")
    groups, found = {}, {}
    for m in metrics:
        groups.setdefault(m.pass_key, []).append(m)
    for first, *rest in groups.values():
        samples = [b[first.summary_kind] for b in bundles]
        found[first.label] = pairwise_matrix(samples, first, rest, found)
    return bundles, [found[m.label] for m in metrics]


def run_experiment(cfg: RunConfig, progress=None, threads: int = 1) -> dict:
    """Full pipeline run; writes diagrams, matrices, dCor CSV + SVG and a
    manifest.  ``threads`` > 1 builds the samples in worker processes."""
    out = cfg.out
    _make_out(out, "diagrams", "matrices")
    bundles, mats = _matrices(partial(_sample_bundle, cfg), range(cfg.repetitions),
                              cfg.metrics, threads, progress)
    for i, bundle in enumerate(bundles):
        (out / "diagrams" / f"sample_{i:04d}.csv").write_text(
            diagram_to_csv(bundle["diagram"]))
    for m in mats:
        (out / "matrices" / f"{_safe_label(m.label)}.csv").write_text(matrix_to_csv(m))

    labels = [m.label for m in mats]
    dcors, flags = dcor_matrix(mats)
    (out / "dcor.csv").write_text(labeled_matrix_to_csv(dcors, labels))
    (out / "dcor.svg").write_text(render_heatmap(dcors, labels, flags))

    _write_manifest(out, model={"kind": cfg.model.kind, "n": cfg.model.n,
                                "gamma": cfg.model.gamma, "seed": cfg.model.seed},
                    repetitions=cfg.repetitions, degree=cfg.degree, max_dim=cfg.max_dim,
                    max_radius=cfg.max_radius, metrics=labels, seed=cfg.seed)
    return {"dcor": dcors, "labels": labels, "flags": flags, "matrices": mats}


def parameter_matrix(values, label="parameter") -> DistanceMatrix:
    """Absolute-difference distance matrix of a real parameter."""
    v = np.asarray(values, dtype=float)
    return DistanceMatrix(np.abs(v[:, None] - v[None, :]), label)


def run_parameter_correlation(cfg: RunConfig, progress=None,
                              threads: int = 1) -> list[tuple[str, float, bool]]:
    """dCor between each summary metric and the sweep parameter, sorted
    descending; with ``cfg.out``, written with a manifest of the sweep."""
    if cfg.sweep is None:
        raise ConfigurationError("parameter correlation needs a sweep")
    _make_out(cfg.out)
    _, mats = _matrices(partial(_sample_bundle, cfg), range(len(cfg.sweep)),
                        cfg.metrics, threads, progress)
    dcors, flags = dcor_matrix(mats, [parameter_matrix(cfg.sweep, label="gamma")])
    rows = sorted(((mat.label, dcor, flag) for mat, (dcor,), (flag,)
                   in zip(mats, dcors.tolist(), flags)), key=lambda row: -row[1])
    if cfg.out is not None:
        (cfg.out / "parameter_dcor.csv").write_text(
            rows_to_csv(("metric", "dCor", "negative_flag"), rows))
        _write_manifest(cfg.out, model={"kind": "interpolated", "n": cfg.model.n},
                        gamma=[float(g) for g in cfg.sweep], seed=cfg.seed,
                        metrics=[m.label for m in cfg.metrics], degree=cfg.degree,
                        max_dim=cfg.max_dim)
    return rows


def run_dem_pipeline(size, roughness, seed, chunk_size, stride, metrics,
                     out: Path | None = None) -> dict:
    """Synthetic-terrain end-to-end run; see :func:`dem_from_grid`."""
    grid = synth_terrain(size, roughness, seed)
    return dem_from_grid(grid, chunk_size, stride, metrics, out=out,
                         source={"size": size, "roughness": roughness, "seed": seed})


def dem_from_grid(grid, chunk_size, stride, metrics, out: Path | None = None,
                  source=None) -> dict:
    """Elevation-grid run: chunks -> cubical persistence -> summaries ->
    dCor against per-chunk ruggedness (TRI) and center distance (``cellsize`` units).

    ``source`` says where the grid came from (the terrain's size, roughness
    and seed, or the input path); the manifest records it with the grid."""
    check_metrics(metrics, 2)
    chunks = chunk_grid(grid, chunk_size, stride)
    if len(chunks) < 2:
        raise ConfigurationError("need at least 2 chunks; shrink chunk_size or stride")
    _make_out(out)
    blocks = [block for block, _ in chunks]
    _, mats = _matrices(partial(compute_bundle, degree=1, metrics=metrics), blocks, metrics)
    # Centre differences are origin differences, whole strides: equal to math.hypot.
    origins = np.array([origin for _, origin in chunks])
    dx, dy = (origins[:, None, k] - origins[None, :, k] for k in (0, 1))
    with np.errstate(over="ignore"):
        tris = [tri(block) for block in blocks]
        geo = grid.cellsize * np.sqrt(dx ** 2 + dy ** 2)
    for label, values in (("tri", tris), ("geodesic", geo)):
        if not np.isfinite(values).all():
            raise NumericalFailure(f"{label}: a value is not finite")
    tri_mat = parameter_matrix(tris, label="tri")
    geo_mat = DistanceMatrix(geo, "geodesic")
    dcors, flags = dcor_matrix(mats, [tri_mat, geo_mat])
    rows = [(mat.label, *row) for mat, row in zip(mats, dcors.tolist())]
    if out is not None:
        half = (chunk_size - 1) / 2
        (out / "chunks.csv").write_text(rows_to_csv(
            ("row", "col", "center_x", "center_y", "tri"),
            [(r, c, c + half, r + half, t) for (_, (r, c)), t in zip(chunks, tris)]))
        for mat in (*mats, tri_mat, geo_mat):
            (out / f"{_safe_label(mat.label)}.csv").write_text(matrix_to_csv(mat))
        (out / "dem_dcor.csv").write_text(
            rows_to_csv(("metric", "dCor_tri", "dCor_geodesic"), rows))
        _write_manifest(out, grid={"rows": grid.rows, "cols": grid.cols, **(source or {})},
                        chunk_size=chunk_size, stride=stride, resolution=float(grid.cellsize),
                        metrics=[m.label for m in metrics], degree=1, chunks=len(chunks))
    return {"rows": rows, "flags": flags, "tri": tris, "matrices": mats,
            "tri_matrix": tri_mat, "geo_matrix": geo_mat}
