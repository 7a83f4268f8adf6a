"""Experiment orchestration: models -> complexes -> persistence -> summaries
-> distance matrices -> distance correlation, with CSV/SVG artifacts."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from topocorr import __version__
from topocorr.complexes import (
    build_cubical_complex,
    build_directed_flag_complex,
    build_flag_complex,
    build_rips_complex,
)
from topocorr.dcor import dcor_matrix, sample_dcor
from topocorr.dem import ChunkSpec, chunk_grid, chunk_center_distance, synth_terrain, tri
from topocorr.errors import ConfigurationError
from topocorr.metrics import DistanceMatrix, MetricSpec, pairwise_matrix, parse_metric_spec
from topocorr.models import ModelSpec, generate
from topocorr.negtype import (
    WeightedConfiguration,
    fixture_landscape_l1,
    fixture_landscape_linf,
    fixture_large_p,
    fixture_small_p,
    quadratic_form,
)
from topocorr.persistence import compute_persistence
from topocorr.serialize import diagram_to_csv, labeled_matrix_to_csv, matrix_to_csv
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
        if not self.metrics:
            raise ConfigurationError("at least one metric spec required")
        if self.max_dim < 1:
            raise ConfigurationError("max_dim must be >= 1")
        if self.max_radius <= 0:
            raise ConfigurationError("max_radius must be positive")
        if not 0 <= self.degree <= self.max_dim:
            raise ConfigurationError(f"degree must lie in [0, max_dim = {self.max_dim}]")
        for m in self.metrics:
            if m.cell_dim is not None and m.cell_dim > self.max_dim:
                raise ConfigurationError(
                    f"{m.label} counts {m.cell_dim}-cells, above max_dim = {self.max_dim}")
        if self.sweep is not None and len(self.sweep) < 2:
            raise ConfigurationError("a sweep needs at least 2 gamma values")
        if self.sweep is not None and not all(0.0 <= g <= 1.0 for g in self.sweep):
            raise ConfigurationError("sweep gamma values must lie in [0, 1]")


def load_config(path, seed=None, out=None) -> RunConfig:
    """Read a flat key-value config with [model], [run] and optional [sweep] sections."""
    import configparser

    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read:
        raise ConfigurationError(f"config file {path} not found")
    try:
        kind = parser.get("model", "kind")
        n = parser.getint("model", "n")
        gamma = parser.getfloat("model", "gamma", fallback=None)
        run = parser["run"]
        repetitions = int(run.get("repetitions", "2"))
        degree = int(run.get("degree", "1"))
        metric_names = run.get("metrics", " ".join(DEFAULT_METRICS)).split()
        cfg_seed = int(run.get("seed", "0"))
        cfg_out = run.get("out", "out")
        max_dim = int(run.get("max_dim", "2"))
        max_radius = float(run.get("max_radius", "1.0"))
        sweep = None
        if parser.has_section("sweep"):
            if parser.has_option("sweep", "gamma_count"):
                count = parser.getint("sweep", "gamma_count")
                sweep = tuple(np.linspace(0.0, 1.0, count))
            elif parser.has_option("sweep", "gamma"):
                sweep = tuple(float(v) for v in parser.get("sweep", "gamma").split())
            else:
                raise ConfigurationError("sweep section needs gamma or gamma_count")
            kind = "interpolated"
        if kind == "interpolated" and gamma is None:
            gamma = 0.0
        model = ModelSpec(kind, n, gamma=gamma if kind == "interpolated" else None,
                          seed=seed if seed is not None else cfg_seed)
    except (configparser.Error, ValueError, KeyError) as exc:
        raise ConfigurationError(f"bad config: {exc}") from exc
    metrics = tuple(parse_metric_spec(m) for m in metric_names)
    return RunConfig(
        model=model,
        repetitions=repetitions,
        degree=degree,
        metrics=metrics,
        out=Path(out if out is not None else cfg_out),
        seed=seed if seed is not None else cfg_seed,
        max_dim=max_dim,
        max_radius=max_radius,
        sweep=sweep,
    )


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
    full persistence diagram, in homology degree ``degree``.

    The Euler curve sums the Betti curves of the degrees the diagram has;
    those of absent degrees are empty.
    """
    if kind == "diagram":
        return diagram.restrict(degree)
    if kind == "landscape":
        return landscape_from_diagram(diagram.restrict(degree))
    if kind == "betti":
        return betti_curve(diagram, degree)
    if kind == "euler":
        top = max(diagram.degrees(), default=0)
        return euler_curve([betti_curve(diagram, k) for k in range(top + 1)])
    raise ConfigurationError(f"no {kind} summary of a diagram")


def compute_bundle(cx, degree, metrics, max_dim=2):
    """All summaries a metric list needs, computed once per sample and keyed
    by :attr:`MetricSpec.bundle_key`.

    ``max_dim`` is the top cell dimension of ``cx``; no summary needs it,
    since the diagram holds no degree above it.
    """
    diagram = compute_persistence(cx)
    bundle = {"diagram": diagram.restrict(degree), "full_diagram": diagram}
    for m in metrics:
        if m.bundle_key in bundle:
            continue
        if m.cell_dim is None:
            bundle[m.bundle_key] = summary_for(m.summary_kind, diagram, degree)
        else:
            bundle[m.bundle_key] = simplex_count_curve(cx, m.cell_dim)
    return bundle


def distance_matrices(bundles, metrics):
    return [pairwise_matrix([b[m.bundle_key] for b in bundles], m) for m in metrics]


def _safe_label(label):
    return label.replace(":", "_").replace("=", "_").replace(",", "_").replace("/", "_")


def _sample_bundle(cfg: RunConfig, index: int) -> dict:
    raw = generate(cfg.model, index)
    cx = build_complex(cfg.model.kind, raw, cfg.max_dim, cfg.max_radius)
    return compute_bundle(cx, cfg.degree, cfg.metrics, cfg.max_dim)


def run_experiment(cfg: RunConfig, progress=None, threads: int = 1) -> dict:
    """Full pipeline run; writes diagrams, matrices, dCor CSV + SVG and a manifest.

    ``threads`` > 1 fans per-sample persistence out to worker processes; each
    sample is a pure function of (config, index), so results are collected in
    index order and the output is identical to a sequential run.
    """
    out = cfg.out
    try:
        (out / "diagrams").mkdir(parents=True, exist_ok=True)
        (out / "matrices").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out}: {exc}") from exc

    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial

        with ProcessPoolExecutor(max_workers=threads) as pool:
            bundles = list(pool.map(partial(_sample_bundle, cfg),
                                    range(cfg.repetitions)))
    else:
        bundles = [_sample_bundle(cfg, i) for i in range(cfg.repetitions)]
    for i, bundle in enumerate(bundles):
        (out / "diagrams" / f"sample_{i:04d}.csv").write_text(
            diagram_to_csv(bundle["diagram"]))
        if progress:
            progress(f"sample {i + 1}/{cfg.repetitions}")

    mats = distance_matrices(bundles, cfg.metrics)
    for m in mats:
        (out / "matrices" / f"{_safe_label(m.label)}.csv").write_text(matrix_to_csv(m))

    labels = [m.label for m in mats]
    dcors, flags = dcor_matrix(mats)
    (out / "dcor.csv").write_text(labeled_matrix_to_csv(dcors, labels))
    (out / "dcor.svg").write_text(render_heatmap(dcors, labels, flags))

    manifest = {
        "version": __version__,
        "model": {"kind": cfg.model.kind, "n": cfg.model.n,
                  "gamma": cfg.model.gamma, "seed": cfg.model.seed},
        "repetitions": cfg.repetitions,
        "degree": cfg.degree,
        "max_dim": cfg.max_dim,
        "max_radius": cfg.max_radius,
        "metrics": labels,
        "seed": cfg.seed,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return {"dcor": dcors, "labels": labels, "flags": flags, "matrices": mats}


def parameter_matrix(values, label="parameter") -> DistanceMatrix:
    """Absolute-difference distance matrix of a real parameter."""
    v = np.asarray(values, dtype=float)
    return DistanceMatrix(len(v), np.abs(v[:, None] - v[None, :]), label)


def run_parameter_correlation(cfg: RunConfig, progress=None) -> list[tuple[str, float, bool]]:
    """dCor between each summary metric and the sweep parameter, sorted descending."""
    if cfg.sweep is None:
        raise ConfigurationError("parameter correlation needs a sweep")
    bundles = []
    for i, gamma in enumerate(cfg.sweep):
        spec = ModelSpec("interpolated", cfg.model.n, gamma=float(gamma), seed=cfg.seed)
        raw = generate(spec, i)
        cx = build_complex("interpolated", raw, cfg.max_dim, cfg.max_radius)
        bundles.append(compute_bundle(cx, cfg.degree, cfg.metrics, cfg.max_dim))
        if progress:
            progress(f"gamma {i + 1}/{len(cfg.sweep)}")
    pmat = parameter_matrix(cfg.sweep, label="gamma")
    rows = []
    for mat in distance_matrices(bundles, cfg.metrics):
        report = sample_dcor(mat, pmat)
        rows.append((mat.label, report.dCor, report.negative_flag))
    rows.sort(key=lambda r: -r[1])
    if cfg.out is not None:
        cfg.out.mkdir(parents=True, exist_ok=True)
        lines = ["metric,dCor,negative_flag"]
        lines += [f"{label},{value!r},{flag}" for label, value, flag in rows]
        (cfg.out / "parameter_dcor.csv").write_text("\n".join(lines) + "\n")
    return rows


_SMALLP_THRESHOLD = math.log(2) / math.log(4.0 / 3.0)


def run_negtype_suite() -> list[dict]:
    """Evaluate every counterexample fixture and compare signs to the claims."""
    results = []

    def check(fixture, p, form, expect_sign):
        if expect_sign == "+":
            ok = form > 0
        elif expect_sign == "-":
            ok = form < 0
        else:
            ok = abs(form) < 1e-12
        results.append({"fixture": fixture, "p": p, "form": form,
                        "expected_sign": expect_sign, "pass": ok})

    def form(spec, diagrams, weights):
        metric = parse_metric_spec(spec)
        # Every fixture point is a degree-1 bar.
        samples = [summary_for(metric.summary_kind, d, 1) for d in diagrams]
        mat = pairwise_matrix(samples, metric)
        return quadratic_form(WeightedConfiguration(mat, weights))

    def transport(p):
        return "bottleneck" if p == math.inf else f"wasserstein:p={p!r}"

    small = fixture_small_p()
    for p in (1.0, 2.0, 2.4, 2.41, 3.0, math.inf):
        expect = "+" if p != math.inf and p < _SMALLP_THRESHOLD else "-"
        check("small_p", p, form(transport(p), *small), expect)

    large = fixture_large_p()
    for p in (2.4, 2.41, 3.0, 10.0, math.inf):
        check("large_p", p, form(transport(p), *large), "+")

    check("landscape_l1", 1.0, form("landscape:p=1", *fixture_landscape_l1()), "0")
    check("landscape_linf", math.inf,
          form("landscape:p=inf", *fixture_landscape_linf()), "+")
    return results


def format_negtype_report(results) -> str:
    lines = []
    for r in results:
        p = "inf" if r["p"] == math.inf else r["p"]
        status = "PASS" if r["pass"] else "FAIL"
        lines.append(f"{status} {r['fixture']} p={p} form={r['form']:+.9g}"
                     f" expected_sign={r['expected_sign']}")
    return "\n".join(lines) + "\n"


def run_dem_pipeline(size, roughness, seed, chunk_size, stride, metrics,
                     out: Path | None = None, resolution=10.0, max_chunks=None) -> dict:
    """Synthetic-terrain end-to-end run; see :func:`dem_from_grid`."""
    grid = synth_terrain(size, roughness, seed)
    return dem_from_grid(grid, chunk_size, stride, metrics, out=out,
                         resolution=resolution, max_chunks=max_chunks)


def dem_from_grid(grid, chunk_size, stride, metrics,
                  out: Path | None = None, resolution=10.0, max_chunks=None) -> dict:
    """Elevation-grid run: chunks -> cubical persistence -> summaries ->
    dCor against per-chunk ruggedness (TRI) and center distance."""
    spec = ChunkSpec(chunk_size, stride, max_chunks)
    chunks = chunk_grid(grid, spec)
    if len(chunks) < 2:
        raise ConfigurationError("need at least 2 chunks; shrink chunk_size or stride")
    bundles = []
    tris = []
    centers = []
    for block, center in chunks:
        cx = build_cubical_complex(block)
        bundles.append(compute_bundle(cx, 1, metrics))
        tris.append(tri(block))
        centers.append(center)
    mats = distance_matrices(bundles, metrics)
    tri_mat = parameter_matrix(tris, label="tri")
    n = len(chunks)
    geo = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            geo[i, j] = geo[j, i] = chunk_center_distance(centers[i], centers[j], resolution)
    geo_mat = DistanceMatrix(n, geo, "geodesic")

    rows = []
    for mat in mats:
        rows.append((mat.label,
                     sample_dcor(mat, tri_mat).dCor,
                     sample_dcor(mat, geo_mat).dCor))
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        manifest_lines = ["row,col,center_x,center_y,tri"]
        for (block, center), t in zip(chunks, tris):
            manifest_lines.append(
                f"{int(center[0] - (chunk_size - 1) / 2)},"
                f"{int(center[1] - (chunk_size - 1) / 2)},"
                f"{center[1]!r},{center[0]!r},{t!r}")
        (out / "chunks.csv").write_text("\n".join(manifest_lines) + "\n")
        for mat in mats:
            (out / f"{_safe_label(mat.label)}.csv").write_text(matrix_to_csv(mat))
        (out / "tri.csv").write_text(matrix_to_csv(tri_mat))
        (out / "geodesic.csv").write_text(matrix_to_csv(geo_mat))
        lines = ["metric,dCor_tri,dCor_geodesic"]
        lines += [f"{label},{a!r},{b!r}" for label, a, b in rows]
        (out / "dem_dcor.csv").write_text("\n".join(lines) + "\n")
    return {"rows": rows, "tri": tris, "matrices": mats,
            "tri_matrix": tri_mat, "geo_matrix": geo_mat}


def _heat_color(value, flagged):
    if flagged:
        return "#c51b8a"
    v = min(max(value, 0.0), 1.0)
    r = int(round(255 + (8 - 255) * v))
    g = int(round(255 + (72 - 255) * v))
    b = int(round(255 + (135 - 255) * v))
    return f"#{r:02x}{g:02x}{b:02x}"


def render_heatmap(matrix, labels, flags=None) -> str:
    """Standalone SVG heatmap with a fixed [0, 1] color scale.

    Negative-flagged entries get a sentinel color instead of the scale.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n) or len(labels) != n:
        raise ValueError("labels must match a square matrix")
    cell = 56
    margin = 170
    width = margin + n * cell + 10
    height = margin + n * cell + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        '<style>text{font-family:monospace;font-size:11px;}</style>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i, label in enumerate(labels):
        y = margin + i * cell + cell / 2 + 4
        parts.append(f'<text x="4" y="{y}">{label}</text>')
        x = margin + i * cell + cell / 2
        parts.append(
            f'<text x="{x}" y="{margin - 8}" transform="rotate(-60 {x} {margin - 8})">{label}</text>')
    for i in range(n):
        for j in range(n):
            flagged = bool(flags[i][j]) if flags is not None else False
            color = _heat_color(matrix[i, j], flagged)
            x = margin + j * cell
            y = margin + i * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                         f'fill="{color}" stroke="#999"/>')
            text_fill = "white" if (matrix[i, j] > 0.6 and not flagged) else "black"
            parts.append(f'<text x="{x + cell / 2}" y="{y + cell / 2 + 4}" '
                         f'text-anchor="middle" fill="{text_fill}">{matrix[i, j]:.2f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
