import numpy as np
import pytest

from topocorr.cli import main
from topocorr.serialize import matrix_from_csv


def run(*argv):
    return main(list(argv))


def make_diagrams(tmp_path, count=3, seed=1):
    paths = []
    cx = tmp_path / "cx.txt"
    for i in range(count):
        assert run("generate", "--kind", "er", "--n", "9", "--seed", str(seed),
                   "--index", str(i), "--out", str(cx)) == 0
        dg = tmp_path / f"dg{i}.csv"
        assert run("persist", str(cx), "--out", str(dg)) == 0
        paths.append(dg)
    return paths


class TestPipelineCommands:
    def test_generate_persist_summarize(self, tmp_path):
        cx = tmp_path / "cx.txt"
        assert run("generate", "--kind", "er", "--n", "8", "--seed", "3",
                   "--out", str(cx)) == 0
        dg = tmp_path / "dg.csv"
        assert run("persist", str(cx), "--out", str(dg)) == 0
        assert dg.read_text().startswith("degree,birth,death")
        for kind in ("landscape", "betti", "euler"):
            assert run("summarize", str(dg), "--kind", kind,
                       "--out", str(tmp_path / kind)) == 0

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            run("generate", "--kind", "torus", "--n", "6", "--seed", "2",
                "--max-radius", "1.2", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_distmat_and_dcor(self, tmp_path):
        dgs = make_diagrams(tmp_path)
        w1, w2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert run("distmat", *map(str, dgs), "--metric", "wasserstein:p=1",
                   "--out", str(w1)) == 0
        assert run("distmat", *map(str, dgs), "--metric", "wasserstein:p=2",
                   "--out", str(w2)) == 0
        matrix_from_csv(w1.read_text())
        report = tmp_path / "report.txt"
        assert run("dcor", str(w1), str(w2), "--out", str(report)) == 0
        assert "dCor=" in report.read_text()

    def test_permtest(self, tmp_path):
        dgs = make_diagrams(tmp_path, count=6)
        mat = tmp_path / "m.csv"
        run("distmat", *map(str, dgs), "--metric", "wasserstein:p=1",
            "--out", str(mat))
        out = tmp_path / "p.txt"
        assert run("permtest", str(mat), str(mat), "--permutations", "19",
                   "--seed", "1", "--out", str(out)) == 0
        assert out.read_text() == "p_value=0.05\n"

    def test_negtype_suite(self, tmp_path):
        out = tmp_path / "report.txt"
        assert run("negtype", "--out", str(out)) == 0
        text = out.read_text()
        assert "PASS" in text and "FAIL" not in text

    def test_negtype_matrix_check(self, tmp_path):
        mat = tmp_path / "m.csv"
        rng = np.random.default_rng(0)
        pts = rng.random((5, 2))
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        lines = ["euclid," * 4 + "euclid"]
        lines += [",".join(repr(float(x)) for x in row) for row in d]
        mat.write_text("\n".join(lines) + "\n")
        out = tmp_path / "verdict.txt"
        assert run("negtype", str(mat), "--out", str(out)) == 0
        assert out.read_text() == "negative_type\n"

    def test_dem(self, tmp_path):
        out = tmp_path / "dem"
        assert run("dem", "--size", "33", "--chunk-size", "12", "--stride", "10",
                   "--seed", "1", "--out", str(out)) == 0
        assert (out / "wasserstein_p_2.csv").exists()
        assert (out / "tri.csv").exists()
        assert (out / "chunks.csv").exists()

    def test_dem_landscape_metric(self, tmp_path):
        # Some chunk pairs have landscape segments ending near zero.
        assert run("dem", "--size", "65", "--metric", "landscape:p=1",
                   "--out", str(tmp_path / "dem")) == 0

    def test_dem_from_file(self, tmp_path):
        grid = tmp_path / "grid.txt"
        rng = np.random.default_rng(3)
        rows = rng.random((20, 20))
        grid.write_text("\n".join(" ".join(repr(float(x)) for x in row)
                                  for row in rows))
        out = tmp_path / "dem"
        assert run("dem", "--input", str(grid), "--chunk-size", "8",
                   "--stride", "4", "--out", str(out)) == 0
        assert (out / "tri.csv").exists()

    def test_experiment(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[model]\nkind = er\nn = 8\n\n"
                       "[run]\nrepetitions = 3\nseed = 2\n"
                       "metrics = wasserstein:p=1 bottleneck\n"
                       f"out = {tmp_path / 'out'}\n")
        assert run("experiment", "--config", str(cfg)) == 0
        assert (tmp_path / "out" / "dcor.svg").exists()

    def test_experiment_threads(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[model]\nkind = er\nn = 8\n\n"
                       "[run]\nrepetitions = 3\nseed = 2\n"
                       "metrics = wasserstein:p=1 bottleneck\n"
                       f"out = {tmp_path / 'out'}\n")
        assert run("experiment", "--config", str(cfg), "--threads", "2") == 0


class TestExitCodes:
    def test_unknown_metric_is_configuration_error(self, tmp_path):
        dgs = make_diagrams(tmp_path, count=2)
        assert run("distmat", *map(str, dgs), "--metric", "bogus:p=1") == 2

    def test_bad_model_arguments(self):
        assert run("generate", "--kind", "interpolated", "--n", "5") == 2

    def test_missing_config(self, tmp_path):
        assert run("experiment", "--config", str(tmp_path / "nope.ini")) == 2

    def test_malformed_complex_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a complex\n")
        assert run("persist", str(bad)) == 2

    def test_usage_error(self):
        assert run("persist") == 2

    def test_mismatched_matrices(self, tmp_path):
        dgs = make_diagrams(tmp_path, count=2)
        a = tmp_path / "a.csv"
        run("distmat", *map(str, dgs), "--metric", "wasserstein:p=1", "--out", str(a))
        big = tmp_path / "big.csv"
        big.write_text("d,d,d\n0.0,1.0,2.0\n1.0,0.0,0.5\n2.0,0.5,0.0\n")
        assert run("dcor", str(a), str(big)) == 2


DIAGRAM_CSV = "degree,birth,death\n0,0.0,1.0\n1,0.25,0.5\n"
ER_CONFIG = "[model]\nkind = er\nn = 6\n\n[run]\nrepetitions = 2\nmetrics = bottleneck\n"


@pytest.mark.parametrize("files, argv", [
    ({}, ["distmat", "{a}", "{b}", "--metric", "wasserstein:p=abc"]),
    ({}, ["distmat", "{a}", "{b}", "--metric", "swk:sigma=1,lines=2.5"]),
    ({"cfg": ER_CONFIG.replace("er", "foo", 1)}, ["experiment", "--config", "{cfg}"]),
    ({"cfg": ER_CONFIG + "\n[sweep]\ngamma_count = 1\n"},
     ["experiment", "--config", "{cfg}"]),
    ({"cfg": ER_CONFIG + "degree = -1\n"}, ["experiment", "--config", "{cfg}"]),
    ({}, ["generate", "--kind", "er", "--n", "5", "--max-dim", "0"]),
    ({"inf": DIAGRAM_CSV + "1,0.5,inf\n"},
     ["distmat", "{a}", "{inf}", "--metric", "bottleneck"]),
    ({}, ["distmat", "{a}", "{b}", "--metric", "bottleneck", "--degree", "-1"]),
    ({}, ["summarize", "{a}", "--degree", "-1"]),
    ({}, ["dem", "--size", "10", "--out", "dem"]),
    ({}, ["dem", "--chunk-size", "0", "--out", "dem"]),
    ({}, ["dem", "--resolution", "0", "--out", "dem"]),
    ({}, ["dem", "--roughness", "2", "--out", "dem"]),
    ({}, ["dem", "--max-chunks", "0", "--out", "dem"]),
    ({}, ["dem", "--stride", "30", "--out", "dem"]),
    ({}, ["dem", "--chunk-size", "100", "--out", "dem"]),
    ({}, ["generate", "--kind", "torus", "--n", "5", "--max-radius", "0"]),
    ({}, ["generate", "--kind", "interpolated", "--n", "5", "--gamma", "2"]),
    ({"cfg": ER_CONFIG + "max_dim = 0\n"}, ["experiment", "--config", "{cfg}"]),
    ({"cfg": ER_CONFIG + "max_radius = -1\n"}, ["experiment", "--config", "{cfg}"]),
    ({"cfg": ER_CONFIG.replace("kind = er", "kind = interpolated\ngamma = 2")},
     ["experiment", "--config", "{cfg}"]),
    ({"cfg": ER_CONFIG + "\n[sweep]\ngamma = 0 2\n"}, ["experiment", "--config", "{cfg}"]),
    ({"m": "d,d\n0.0,1.0\n1.0,0.0\n"}, ["negtype", "{m}", "--tol", "-1"]),
    ({}, ["generate", "--kind", "er", "--n", "100", "--max-dim", "9"]),
    ({"cfg": ER_CONFIG.replace("n = 6", "n = 100") + "max_dim = 9\n"},
     ["experiment", "--config", "{cfg}"]),
    ({}, ["dem", "--chunk-size", "2", "--stride", "1", "--out", "dem"]),
    ({"grid": "1 2 3 4\n5 6 7 8\n9 8 7 6\n5 4 3 2\n"},
     ["dem", "--input", "{grid}", "--chunk-size", "2", "--stride", "1", "--out", "dem"]),
    ({"cx": "0 0\n1 1 0\n"}, ["persist", "{cx}"]),
    ({"cx": "0 0\n0 0\n0 0\n1 1 0 1 2\n"}, ["persist", "{cx}"]),
    ({"cx": "0 0\n1 1 0 0\n"}, ["persist", "{cx}"]),
    ({"cx": "0 0\n0 0\n1 1 0 1\n2 2 2 2\n"}, ["persist", "{cx}"]),
    ({"cx": "0 0\n0 0\n1 1 0 1\n2 2 2\n"}, ["persist", "{cx}"]),
    ({"cx": "-1 0\n0 1 0\n"}, ["persist", "{cx}"]),
], ids=["p-not-a-number", "lines-not-an-integer", "unknown-model-kind", "one-gamma",
        "negative-degree-config", "max-dim-0", "infinite-death", "negative-degree-distmat",
        "negative-degree-summarize", "dem-size-not-2k+1", "dem-chunk-size-0",
        "dem-resolution-0", "dem-roughness-2", "dem-max-chunks-0", "dem-stride-above-chunk",
        "dem-chunk-above-grid", "max-radius-0", "gamma-2", "max-dim-0-config",
        "max-radius-negative-config", "gamma-2-config", "sweep-gamma-2", "negtype-tol-negative",
        "simplex-code-overflow", "simplex-code-overflow-config", "dem-chunk-size-2",
        "dem-input-chunk-size-2", "edge-one-vertex", "edge-three-vertices",
        "edge-vertex-twice", "face-listed-twice", "boundary-of-boundary-nonzero",
        "negative-dimension"])
def test_bad_input_exits_2(tmp_path, monkeypatch, files, argv):
    monkeypatch.chdir(tmp_path)  # a config without ``out`` writes to ./out
    paths = {}
    for name, text in {"a": DIAGRAM_CSV, "b": DIAGRAM_CSV, **files}.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    assert run(*(arg.format(**paths) for arg in argv)) == 2


DEGREE_1_CSV = "degree,birth,death\n1,0.0,5.0\n1,1.0,3.0\n"


@pytest.mark.parametrize("files, argv, message", [
    ({"c": "degree,birth,death\n1,100.0,200.0\n"},
     ["distmat", "{a}", "{c}", "--metric", "wasserstein:p=400"], "p=400"),
    ({"b": "degree,birth,death\n1,0.5,4.0\n"},
     ["distmat", "{a}", "{b}", "--metric", "wasserstein:p=2000"], "p=2000"),
], ids=["wasserstein-cost-overflow", "wasserstein-diagonal-cost-overflow"])
def test_bad_numerics_exit_3(tmp_path, capsys, files, argv, message):
    paths = {}
    for name, text in {"a": DEGREE_1_CSV, **files}.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    assert run(*(arg.format(**paths) for arg in argv), "--out", str(tmp_path / "m.csv")) == 3
    assert message in capsys.readouterr().err
