import numpy as np
import pytest

from topocorr.errors import ConfigurationError
from topocorr.experiment import (
    RunConfig,
    build_complex,
    compute_bundle,
    load_config,
    parameter_matrix,
    render_heatmap,
    run_experiment,
    run_negtype_suite,
    run_parameter_correlation,
)
from topocorr.metrics import parse_metric_spec
from topocorr.models import ModelSpec, generate
from topocorr.serialize import matrix_from_csv
from topocorr.summaries import betti_curve, euler_curve

METRICS = tuple(parse_metric_spec(m) for m in
                ("wasserstein:p=1", "wasserstein:p=2", "bottleneck"))


def small_config(out, reps=3, seed=1):
    return RunConfig(model=ModelSpec("er", 8, seed=seed), repetitions=reps,
                     degree=1, metrics=METRICS, out=out, seed=seed)


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
        diagram = bundle["full_diagram"]
        expected = euler_curve([betti_curve(diagram, k) for k in range(4)])
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


class TestNegtypeSuite:
    def test_all_claims_pass(self):
        results = run_negtype_suite()
        assert all(r["pass"] for r in results)
        fixtures = {r["fixture"] for r in results}
        assert fixtures == {"small_p", "large_p", "landscape_l1", "landscape_linf"}


class TestRenderHeatmap:
    def test_single_cell(self):
        svg = render_heatmap(np.array([[1.0]]), ["only"])
        assert svg.startswith("<svg") and "1.00" in svg

    def test_negative_flag_sentinel(self):
        svg = render_heatmap(np.array([[1.0, 0.2], [0.2, 1.0]]), ["a", "b"],
                             flags=[[False, True], [True, False]])
        assert "#c51b8a" in svg

    def test_label_mismatch(self):
        with pytest.raises(ValueError):
            render_heatmap(np.eye(2), ["a"])
