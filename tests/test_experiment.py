import concurrent.futures
import csv
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from topocorr import __version__, complexes, dcor, experiment
from topocorr.errors import ConfigurationError
from topocorr.experiment import (
    DEFAULT_METRICS,
    RunConfig,
    check_metrics,
    build_complex,
    compute_bundle,
    load_config,
    parameter_matrix,
    run_dem_pipeline,
    run_experiment,
    run_parameter_correlation,
)
from topocorr.metrics import parse_metric_spec
from topocorr.models import ModelSpec, generate
from topocorr.persistence import compute_persistence
from topocorr.serialize import matrix_from_csv
from topocorr.summaries import betti_curve
from tests.oracles import euler_from_betti

METRICS = tuple(parse_metric_spec(m) for m in
                ("wasserstein:p=1", "wasserstein:p=2", "bottleneck"))


def small_config(out, reps=3, seed=1):
    return RunConfig(model=ModelSpec("er", 8, seed=seed), repetitions=reps,
                     degree=1, metrics=METRICS, out=out, seed=seed)


def sweep_config(out, gammas=(0.0, 0.3, 0.6, 1.0)):
    return RunConfig(model=ModelSpec("interpolated", 8, gamma=0.0, seed=2),
                     repetitions=2, degree=1,
                     metrics=METRICS + (parse_metric_spec("count2:p=1"),),
                     out=out, seed=2, sweep=gammas)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the process pools a run asks for.  Each pool runs its
    samples on one thread, so a test starts no process whatever size is asked."""
    requested = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            requested.append(max_workers)
            super().__init__(max_workers=1)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return requested


class TestRunConfig:
    def test_rejects_too_few_repetitions(self):
        with pytest.raises(ConfigurationError):
            small_config(None, reps=1)

    def test_rejects_empty_metrics(self):
        with pytest.raises(ConfigurationError):
            RunConfig(model=ModelSpec("er", 8, seed=0), repetitions=3,
                      degree=1, metrics=(), out=None, seed=0)

    def test_rejects_negative_degree(self):
        with pytest.raises(ConfigurationError):
            RunConfig(model=ModelSpec("er", 8, seed=0), repetitions=3,
                      degree=-1, metrics=METRICS, out=None, seed=0)

    @pytest.mark.parametrize("degree, metric", [(3, "bottleneck"), (1, "count7:p=1")])
    def test_rejects_degree_or_cell_count_above_max_dim(self, degree, metric):
        # Nothing lives above max_dim: such runs gave all-zero matrices.
        with pytest.raises(ConfigurationError):
            RunConfig(model=ModelSpec("er", 8, seed=0), repetitions=3, degree=degree,
                      metrics=(parse_metric_spec(metric),), out=None, seed=0, max_dim=2)

    def test_rejects_single_gamma(self):
        with pytest.raises(ConfigurationError):
            RunConfig(model=ModelSpec("interpolated", 8, gamma=0.0, seed=0),
                      repetitions=2, degree=1, metrics=METRICS, out=None, seed=0,
                      sweep=(0.5,))


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "nope.ini")

    def test_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(
            "[model]\nkind = er\nn = 8\n\n"
            "[run]\nrepetitions = 3\nseed = 1\nout = a\n"
            "metrics = wasserstein:p=1 bottleneck\n")
        cfg = load_config(cfg_file, seed=9, out=tmp_path / "b")
        assert cfg.seed == 9 and cfg.model.seed == 9
        assert cfg.out == tmp_path / "b"
        assert [m.label for m in cfg.metrics] == ["wasserstein:p=1", "bottleneck"]

    def test_sweep_section(self, tmp_path):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(
            "[model]\nkind = interpolated\nn = 6\n\n"
            "[run]\nseed = 0\nmetrics = wasserstein:p=1\n\n"
            "[sweep]\ngamma_count = 5\n")
        cfg = load_config(cfg_file)
        assert cfg.sweep == (0.0, 0.25, 0.5, 0.75, 1.0)

    @pytest.mark.parametrize("kind, run, sweep, key", [
        ("er", "", "gamma_count = 3", "kind"),
        ("interpolated", "", "gamma = 0 1\ngamma_count = 3", "gamma_count"),
        ("interpolated", "repetitions = 5\n", "gamma_count = 3", "repetitions"),
    ])
    def test_sweep_rejects_a_setting_it_would_override(self, tmp_path, kind, run, sweep, key):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(f"[model]\nkind = {kind}\nn = 6\n\n"
                            f"[run]\n{run}metrics = bottleneck\n\n[sweep]\n{sweep}\n")
        with pytest.raises(ConfigurationError, match=key) as err:
            load_config(cfg_file)
        assert not str(err.value).startswith("bad config")

    def test_readme_configs_load_as_written(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 2
        for i, block in enumerate(blocks):
            (tmp_path / f"{i}.ini").write_text(block)
            cfg = load_config(tmp_path / f"{i}.ini")
            assert (cfg.sweep is None) == (i == 0)

    def test_bad_metric_fails_before_compute(self, tmp_path):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text("[model]\nkind = er\nn = 8\n\n"
                            "[run]\nrepetitions = 3\nmetrics = nope:p=1\n")
        with pytest.raises(ConfigurationError):
            load_config(cfg_file)


class TestRunExperiment:
    def test_artifacts(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        result = run_experiment(cfg)
        out = tmp_path / "out"
        assert sorted(p.name for p in (out / "diagrams").iterdir()) == \
            [f"sample_{i:04d}.csv" for i in range(3)]
        mats = sorted(p.name for p in (out / "matrices").iterdir())
        assert mats == ["bottleneck.csv", "wasserstein_p_1.csv", "wasserstein_p_2.csv"]
        assert (out / "dcor.csv").exists() and (out / "dcor.svg").exists()
        assert (out / "manifest.json").exists()
        assert np.allclose(np.diag(result["dcor"]), 1.0)
        # The emitted matrices satisfy the DistanceMatrix invariants on load.
        for name in mats:
            matrix_from_csv((out / "matrices" / name).read_text())

    def test_single_metric(self, tmp_path):
        cfg = RunConfig(model=ModelSpec("er", 8, seed=1), repetitions=3, degree=1,
                        metrics=METRICS[2:], out=tmp_path / "out", seed=1)
        result = run_experiment(cfg)
        assert result["dcor"].tolist() == [[1.0]]
        assert (tmp_path / "out" / "dcor.svg").exists()

    def test_euler_curve_sums_every_degree_to_max_dim(self):
        cx = build_complex("er", generate(ModelSpec("er", 10, seed=4), 0), 3)
        bundle = compute_bundle(cx, 1, (parse_metric_spec("euler:p=1"),), 3)
        diagram = compute_persistence(cx)
        expected = euler_from_betti([betti_curve(diagram, k) for k in range(4)])
        assert np.array_equal(bundle["euler"].breakpoints, expected.breakpoints)
        assert np.array_equal(bundle["euler"].values, expected.values)

    def test_idempotent(self, tmp_path):
        run_experiment(small_config(tmp_path / "a"))
        run_experiment(small_config(tmp_path / "b"))
        for rel in ("dcor.csv", "matrices/bottleneck.csv", "diagrams/sample_0000.csv"):
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes()

    def test_threads_match_sequential(self, tmp_path):
        run_experiment(small_config(tmp_path / "a"))
        run_experiment(small_config(tmp_path / "b"), threads=2)
        assert (tmp_path / "a" / "dcor.csv").read_bytes() == \
            (tmp_path / "b" / "dcor.csv").read_bytes()

    def test_threads_capped_at_sample_count(self, tmp_path, pool_sizes):
        run_experiment(small_config(tmp_path, reps=3), threads=5000)
        assert pool_sizes == [3]

    def test_directed_samples_share_one_skeleton(self, tmp_path, monkeypatch):
        calls, clique_skeleton = [], complexes._clique_skeleton

        def counting(*args):
            calls.append(args)
            return clique_skeleton(*args)

        monkeypatch.setattr(complexes, "_clique_skeleton", counting)
        complexes._flag_skeleton.cache_clear()
        run_experiment(replace(small_config(tmp_path, reps=6),
                               model=ModelSpec("directed_er", 8, seed=1)))
        assert len(calls) == 1

    def test_progress_per_sample(self, tmp_path):
        messages = []
        run_experiment(small_config(tmp_path, reps=3), progress=messages.append)
        assert messages == ["sample 1/3", "sample 2/3", "sample 3/3"]


class TestFamilyPasses:
    """The specs of a shared family that differ only in p share one call of
    ``experiment.pairwise_matrix``, by the first of them; every other spec,
    and every spec of a sweep or a DEM run here, gets a call of its own."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen, pairwise_matrix = [], experiment.pairwise_matrix

        def counting(*args):
            seen.append((args[1].label, [m.label for m in args[2]]))
            return pairwise_matrix(*args)

        monkeypatch.setattr(experiment, "pairwise_matrix", counting)
        return seen

    def test_experiment_calls_once_per_pass(self, tmp_path, calls):
        cfg = replace(small_config(tmp_path), metrics=tuple(map(parse_metric_spec,
                                                                DEFAULT_METRICS)))
        result = run_experiment(cfg)
        assert calls == [
            ("wasserstein:p=1", []), ("wasserstein:p=2", []), ("bottleneck", []),
            ("landscape:p=1", ["landscape:p=2", "landscape:p=inf"]),
            ("pss:sigma=0.01", []), ("pss:sigma=1", []), ("betti:p=1", ["betti:p=2"]),
            ("euler:p=1", ["euler:p=2"]), ("swk:sigma=1,lines=10", [])]
        assert [m.label for m in result["matrices"]] == list(DEFAULT_METRICS)

    def test_sweep_calls_once_per_spec(self, tmp_path, calls):
        cfg = sweep_config(tmp_path)
        run_parameter_correlation(cfg)
        assert calls == [(m.label, []) for m in cfg.metrics]

    def test_dem_calls_once_per_spec(self, calls):
        metrics = [parse_metric_spec(m) for m in ("wasserstein:p=2", "betti:p=1", "count1:p=1")]
        run_dem_pipeline(17, 0.5, 3, 8, 4, metrics)
        assert calls == [(m.label, []) for m in metrics]

    def test_matrices_in_a_pass_equal_those_alone(self, tmp_path):
        specs = tuple(map(parse_metric_spec, DEFAULT_METRICS))
        run_experiment(replace(small_config(tmp_path / "all", reps=6), metrics=specs))
        alone = ("landscape:p=2", "euler:p=2", "betti:p=1")
        run_experiment(replace(small_config(tmp_path / "alone", reps=6),
                               metrics=tuple(map(parse_metric_spec, alone))))
        for label in alone:
            name = f"{experiment._safe_label(label)}.csv"
            assert ((tmp_path / "all" / "matrices" / name).read_bytes()
                    == (tmp_path / "alone" / "matrices" / name).read_bytes())

    @pytest.mark.parametrize("labels", [("landscape:p=2", "landscape:p=2.0"),
                                        ("betti:p=1", "betti: p = 1"),
                                        ("count1:p=1", "wasserstein:p=1", "count1:p=1.0"),
                                        ("sw", "sw:lines=10"),
                                        ("swk:sigma=1", "swk:sigma=1,lines=10")])
    def test_a_metric_spelled_twice_is_rejected(self, labels):
        twins = [label for label in labels if label[0] == labels[0][0]]
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"metric listed twice: {twins[0]!r} and {twins[1]!r}")):
            check_metrics([parse_metric_spec(label) for label in labels], 2)


class TestCentredOnce:
    """A run centres each distance matrix it correlates once: the k metric
    matrices, plus the gamma matrix of a sweep and the TRI and geodesic
    matrices of a DEM run."""

    @pytest.fixture
    def centred(self, monkeypatch):
        labels, double_center = [], dcor.double_center

        def counting(d):
            labels.append(d.label)
            return double_center(d)

        monkeypatch.setattr(dcor, "double_center", counting)
        return labels

    def test_experiment(self, tmp_path, centred):
        run_experiment(small_config(tmp_path))
        assert sorted(centred) == sorted(m.label for m in METRICS)

    def test_sweep(self, tmp_path, centred):
        cfg = sweep_config(tmp_path)
        run_parameter_correlation(cfg)
        assert sorted(centred) == sorted([m.label for m in cfg.metrics] + ["gamma"])

    def test_dem(self, centred):
        run_dem_pipeline(17, 0.5, 3, 8, 4, METRICS)
        assert sorted(centred) == sorted([m.label for m in METRICS] + ["tri", "geodesic"])


class TestParameterCorrelation:
    def test_constant_sweep_degenerate(self, tmp_path):
        cfg = RunConfig(model=ModelSpec("interpolated", 6, gamma=0.0, seed=0),
                        repetitions=2, degree=1,
                        metrics=(parse_metric_spec("wasserstein:p=1"),),
                        out=tmp_path, seed=0, sweep=(0.5, 0.5, 0.5, 0.5))
        rows = run_parameter_correlation(cfg)
        assert rows[0][1] == 0.0

    def test_requires_sweep(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_parameter_correlation(small_config(tmp_path))

    def test_sorted_descending(self, tmp_path):
        cfg = RunConfig(model=ModelSpec("interpolated", 8, gamma=0.0, seed=0),
                        repetitions=2, degree=1,
                        metrics=(parse_metric_spec("wasserstein:p=1"),
                                 parse_metric_spec("swk:sigma=0.01")),
                        out=tmp_path, seed=0,
                        sweep=tuple(np.linspace(0, 1, 12)))
        rows = run_parameter_correlation(cfg)
        values = [v for _, v, _ in rows]
        assert values == sorted(values, reverse=True)
        assert (tmp_path / "parameter_dcor.csv").exists()

    def test_rows_are_csv_records(self, tmp_path):
        # Every CSV of an experiment, a sweep and a DEM run comes from one
        # writer: CRLF records with one field per column.  The default
        # sliced-Wasserstein kernel's label holds a comma.
        swk = parse_metric_spec("swk:sigma=1,lines=10")
        run_experiment(replace(small_config(tmp_path / "experiment"), metrics=METRICS + (swk,)))
        run_parameter_correlation(replace(sweep_config(tmp_path / "sweep"), metrics=(swk,)))
        run_dem_pipeline(17, 0.5, 3, 8, 4, (swk, parse_metric_spec("count1:p=1")),
                         out=tmp_path / "dem")
        paths = sorted(tmp_path.rglob("*.csv"))
        # 3 diagrams, 4 matrices and dcor; parameter_dcor; chunks, 4 matrices and dem_dcor.
        assert len(paths) == 8 + 1 + 6
        for path in paths:
            data = path.read_bytes()
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert len({len(row) for row in rows}) == 1, path
            assert data.count(b"\r\n") == data.count(b"\n") == len(rows), path
        with open(tmp_path / "sweep" / "parameter_dcor.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["metric", "dCor", "negative_flag"]
        assert [row[0] for row in rows[1:]] == ["swk:sigma=1,lines=10"]

    def test_idempotent(self, tmp_path):
        run_parameter_correlation(sweep_config(tmp_path / "a"))
        run_parameter_correlation(sweep_config(tmp_path / "b"))
        assert (tmp_path / "a" / "parameter_dcor.csv").read_bytes() == \
            (tmp_path / "b" / "parameter_dcor.csv").read_bytes()

    def test_manifest(self, tmp_path):
        # The model seed differs from the run's: the manifest records the
        # seed every sample was drawn from.
        cfg = replace(sweep_config(tmp_path / "a"),
                      model=ModelSpec("interpolated", 8, gamma=0.0, seed=99))
        for out in ("a", "b"):
            run_parameter_correlation(replace(cfg, out=tmp_path / out))
        data = (tmp_path / "a" / "manifest.json").read_bytes()
        assert json.loads(data) == {
            "version": __version__, "model": {"kind": "interpolated", "n": 8},
            "gamma": [0.0, 0.3, 0.6, 1.0], "seed": 2, "degree": 1, "max_dim": 2,
            "metrics": ["wasserstein:p=1", "wasserstein:p=2", "bottleneck", "count2:p=1"]}
        assert data == (tmp_path / "b" / "manifest.json").read_bytes()

    def test_threads_capped_at_sweep_length(self, tmp_path, pool_sizes):
        run_parameter_correlation(sweep_config(tmp_path), threads=5000)
        assert pool_sizes == [4]

    def test_progress_per_sample(self, tmp_path):
        messages = []
        run_parameter_correlation(sweep_config(tmp_path), progress=messages.append)
        assert messages == [f"sample {i}/4" for i in range(1, 5)]

    def test_keeps_run_seed(self, tmp_path):
        # A sweep draws every sample from the run seed, as load_config sets it.
        other = replace(sweep_config(tmp_path / "b"),
                        model=ModelSpec("interpolated", 8, gamma=0.0, seed=99))
        assert run_parameter_correlation(sweep_config(tmp_path / "a")) == \
            run_parameter_correlation(other)
