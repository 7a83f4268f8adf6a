import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topocorr
from topocorr.cli import main
from topocorr.serialize import matrix_from_csv
from tests.test_dem import k23_terrain


def run(*argv):
    return main(list(argv))


def test_cli_loads_without_scipy_optimize():
    # Only an assignment (Wasserstein or bottleneck) loads scipy.optimize.
    src = str(Path(topocorr.__file__).parents[1])
    code = "import sys, topocorr.cli\nassert 'scipy.optimize' not in sys.modules\n"
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                   check=True)


def write_grid(tmp_path):
    grid = tmp_path / "grid.txt"
    rows = np.random.default_rng(3).random((20, 20))
    grid.write_text("\n".join(" ".join(repr(float(x)) for x in row) for row in rows))
    return grid


def esri_grid(cellsize):
    """A 9 x 9 ESRI grid whose header gives ``cellsize``."""
    return (f"ncols 9\nnrows 9\ncellsize {cellsize}\n"
            + "".join(" ".join(str((r * 7 + c * 3) % 11) for c in range(9)) + "\n"
                      for r in range(9)))


def tree_bytes(root):
    """Relative path -> contents of every file under ``root``."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


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

    def test_negtype_suite_exits_1_on_a_failed_claim(self, tmp_path, monkeypatch):
        results = [{"fixture": "small_p", "p": p, "form": 0.5, "expected_sign": sign,
                    "pass": sign == "+"} for p, sign in ((1.0, "+"), (3.0, "-"))]
        monkeypatch.setattr("topocorr.cli.run_negtype_suite", lambda: results)
        out = tmp_path / "report.txt"
        assert run("negtype", "--out", str(out)) == 1
        assert out.read_text().splitlines()[1].startswith("FAIL small_p p=3.0 ")

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

    def test_negtype_matrix_witness_fields_are_floats(self, tmp_path):
        # The path metric of K_{2,3} is not of negative type.
        mat = tmp_path / "k23.csv"
        mat.write_text(K23_CSV)
        out = tmp_path / "verdict.txt"
        assert run("negtype", str(mat), "--out", str(out)) == 0
        verdict, witness = out.read_text().splitlines()
        key, _, worst = verdict.partition(" worst_value=")
        assert key == "violated" and float(worst) == pytest.approx(0.4)
        tag, *weights = witness.split()
        assert tag == "witness" and len(weights) == 5
        assert sum(float(w) for w in weights) == pytest.approx(0.0, abs=1e-12)

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
        out = tmp_path / "dem"
        assert run("dem", "--input", str(write_grid(tmp_path)), "--chunk-size", "8",
                   "--stride", "4", "--out", str(out)) == 0
        assert (out / "tri.csv").exists()

    def test_dem_marks_negative_dcov(self, tmp_path, capsys):
        # The line of a flagged metric names the reference its dcov is negative with.
        grid = tmp_path / "grid.csv"
        grid.write_text("".join(",".join(map(repr, row)) + "\n"
                                for row in k23_terrain().values.tolist()))
        assert run("dem", "--input", str(grid), "--chunk-size", "7", "--stride", "7",
                   "--metric", "bottleneck", "--metric", "wasserstein:p=1",
                   "--out", str(tmp_path / "dem")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("bottleneck dCor_tri=0.000000 ")
        assert lines[0].endswith(" negative_flag_tri")
        assert "negative_flag" not in lines[1]

    def test_dem_grid_formats_agree(self, tmp_path, monkeypatch):
        # One grid as a headerless CSV and as an ESRI grid whose body wraps
        # at 11 values per line.  The manifest records the input path as
        # given, so each run reads "grid" from its own directory.
        values = [repr(float(x)) for x in np.random.default_rng(4).random(18 * 18)]
        texts = {
            "csv": "".join(",".join(values[i:i + 18]) + "\n" for i in range(0, 324, 18)),
            "asc": "ncols 18\nnrows 18\nxllcorner 0\nyllcorner 0\ncellsize 10\n"
                   + "".join(" ".join(values[i:i + 11]) + "\n" for i in range(0, 324, 11))}
        for name, text in texts.items():
            (tmp_path / name).mkdir()
            (tmp_path / name / "grid").write_text(text)
            monkeypatch.chdir(tmp_path / name)
            assert run("dem", "--input", "grid", "--chunk-size", "8", "--stride", "5",
                       "--metric", "wasserstein:p=2", "--metric", "betti:p=1",
                       "--metric", "landscape:p=inf", "--out", str(tmp_path / name / "out")) == 0
        assert tree_bytes(tmp_path / "csv" / "out") == tree_bytes(tmp_path / "asc" / "out")

    def test_dem_geodesic_in_grid_cellsize(self, tmp_path):
        # One body at cell sizes 10 and 30: centre distances scale by 3, and
        # dCor, which no scale factor changes, reads the same.
        out = {}
        for cellsize in (10, 30):
            grid = tmp_path / f"grid{cellsize}.asc"
            grid.write_text(esri_grid(cellsize))
            out[cellsize] = tmp_path / f"out{cellsize}"
            assert run("dem", "--input", str(grid), "--chunk-size", "4", "--stride", "4",
                       "--metric", "betti:p=1", "--out", str(out[cellsize])) == 0
        ten, thirty = (matrix_from_csv((out[c] / "geodesic.csv").read_text()).entries
                       for c in (10, 30))
        assert ten[0].tolist() == [0.0, 40.0, 40.0, 10 * math.sqrt(32)]
        assert thirty.tolist() == (3 * ten).tolist()
        assert json.loads((out[30] / "manifest.json").read_text())["resolution"] == 30.0
        assert ((out[10] / "dem_dcor.csv").read_bytes()
                == (out[30] / "dem_dcor.csv").read_bytes())

    @pytest.mark.parametrize("source", ["synth", "input"])
    def test_dem_idempotent(self, tmp_path, source):
        argv = ["--size", "33", "--chunk-size", "12", "--stride", "10"]
        if source == "input":
            argv = ["--input", str(write_grid(tmp_path)), "--chunk-size", "8",
                    "--stride", "6"]
        for name in ("a", "b"):
            assert run("dem", *argv, "--metric", "wasserstein:p=2", "--metric",
                       "landscape:p=inf", "--out", str(tmp_path / name)) == 0
        a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
        assert sorted(a) == ["chunks.csv", "dem_dcor.csv", "geodesic.csv", "landscape_p_inf.csv",
                             "manifest.json", "tri.csv", "wasserstein_p_2.csv"]
        assert a == b

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

    def test_sweep_threads_match_sequential(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[model]\nkind = interpolated\nn = 8\n\n"
                       "[run]\nseed = 2\nmetrics = wasserstein:p=1 count2:p=1\n\n"
                       "[sweep]\ngamma_count = 4\n")
        for name, threads in (("a", "1"), ("b", "2")):
            assert run("experiment", "--config", str(cfg), "--threads", threads,
                       "--out", str(tmp_path / name)) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


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
K23_CSV = "d,d,d,d,d\n0,2,1,1,1\n2,0,1,1,1\n1,1,0,2,2\n1,1,2,0,2\n1,1,2,2,0\n"
NOT_UTF8 = b"\xff\xfe\x00bad"
ER_CONFIG = "[model]\nkind = er\nn = 6\n\n[run]\nrepetitions = 2\nmetrics = bottleneck\n"
SWEEP_CONFIG = "[model]\nkind = interpolated\nn = 6\n\n[run]\nmetrics = bottleneck\n"


@pytest.mark.parametrize("files, argv", [
    ({}, ["distmat", "{a}", "{b}", "--metric", "wasserstein:p=abc"]),
    ({}, ["distmat", "{a}", "{b}", "--metric", "swk:sigma=1,lines=2.5"]),
    ({"cfg": ER_CONFIG.replace("er", "foo", 1)}, ["experiment", "--config", "{cfg}"]),
    ({"cfg": SWEEP_CONFIG + "\n[sweep]\ngamma_count = 1\n"},
     ["experiment", "--config", "{cfg}"]),
    ({"cfg": ER_CONFIG + "degree = -1\n"}, ["experiment", "--config", "{cfg}"]),
    ({}, ["generate", "--kind", "er", "--n", "5", "--max-dim", "0"]),
    ({"inf": DIAGRAM_CSV + "1,0.5,inf\n"},
     ["distmat", "{a}", "{inf}", "--metric", "bottleneck"]),
    ({}, ["distmat", "{a}", "{b}", "--metric", "bottleneck", "--degree", "-1"]),
    ({}, ["summarize", "{a}", "--degree", "-1"]),
    ({}, ["dem", "--size", "10", "--out", "dem"]),
    ({}, ["dem", "--chunk-size", "0", "--out", "dem"]),
    ({}, ["dem", "--resolution", "10", "--out", "dem"]),
    ({}, ["dem", "--roughness", "2", "--out", "dem"]),
    ({}, ["dem", "--max-chunks", "5", "--out", "dem"]),
    ({}, ["dem", "--stride", "30", "--out", "dem"]),
    ({}, ["dem", "--chunk-size", "100", "--out", "dem"]),
    ({}, ["generate", "--kind", "torus", "--n", "5", "--max-radius", "0"]),
    ({}, ["generate", "--kind", "interpolated", "--n", "5", "--gamma", "2"]),
    ({"cfg": ER_CONFIG + "max_dim = 0\n"}, ["experiment", "--config", "{cfg}"]),
    ({"cfg": ER_CONFIG + "max_radius = -1\n"}, ["experiment", "--config", "{cfg}"]),
    ({"cfg": ER_CONFIG.replace("kind = er", "kind = interpolated\ngamma = 2")},
     ["experiment", "--config", "{cfg}"]),
    ({"cfg": SWEEP_CONFIG + "\n[sweep]\ngamma = 0 2\n"}, ["experiment", "--config", "{cfg}"]),
    ({"m": "d,d\n0.0,1.0\n1.0,0.0\n"}, ["negtype", "{m}", "--tol", "1e-9"]),
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
    ({"cx": NOT_UTF8}, ["persist", "{cx}"]),
    ({"cfg": NOT_UTF8}, ["experiment", "--config", "{cfg}"]),
    ({"grid": NOT_UTF8}, ["dem", "--input", "{grid}", "--out", "dem"]),
    ({"cfg": "kind = er\n"}, ["experiment", "--config", "{cfg}"]),
    ({"cfg": ER_CONFIG + "[model]\nn = 3\n"}, ["experiment", "--config", "{cfg}"]),
    ({"grid": "ncols inf\nnrows 2\n1 2\n"}, ["dem", "--input", "{grid}", "--out", "dem"]),
    ({"m": "d\n0.0\n"}, ["dcor", "{m}", "{m}"]),
    ({"m": "d\n0.0\n"}, ["permtest", "{m}", "{m}"]),
    ({}, ["generate", "--kind", "torus", "--n", "5", "--max-radius", "nan"]),
    ({"cfg": ER_CONFIG.replace("kind = er", "kind = torus") + "max_radius = nan\n"},
     ["experiment", "--config", "{cfg}"]),
    *(({"grid": esri_grid(cellsize)},
       ["dem", "--input", "{grid}", "--chunk-size", "4", "--stride", "4", "--out", "dem"])
      for cellsize in ("0", "-5", "nan", "inf")),
    ({"cfg": SWEEP_CONFIG.replace("interpolated", "er") + "\n[sweep]\ngamma_count = 3\n"},
     ["experiment", "--config", "{cfg}"]),
    ({"cfg": SWEEP_CONFIG + "\n[sweep]\ngamma = 0 1\ngamma_count = 3\n"},
     ["experiment", "--config", "{cfg}"]),
    ({"cfg": SWEEP_CONFIG + "repetitions = 5\n\n[sweep]\ngamma_count = 3\n"},
     ["experiment", "--config", "{cfg}"]),
    ({"cfg": ER_CONFIG.replace("metrics", "metric")}, ["experiment", "--config", "{cfg}"]),
    ({"cfg": ER_CONFIG + "\n[extra]\nkey = 1\n"}, ["experiment", "--config", "{cfg}"]),
    ({"cfg": ER_CONFIG.replace("kind = er", "kind = er\ngamma = 0.5")},
     ["experiment", "--config", "{cfg}"]),
    ({"cfg": SWEEP_CONFIG.replace("n = 6", "n = 6\ngamma = 0.7") + "\n[sweep]\ngamma_count = 3\n"},
     ["experiment", "--config", "{cfg}"]),
    ({"cfg": SWEEP_CONFIG + "\n[sweep]\ngamma_count = 3\n", "file": "not a directory"},
     ["experiment", "--config", "{cfg}", "--out", "{file}/x"]),
    ({"file": "not a directory"},
     ["dem", "--size", "17", "--chunk-size", "4", "--stride", "4", "--out", "{file}/x"]),
    ({}, ["dem", "--size", "17", "--chunk-size", "4", "--stride", "4",
          "--metric", "count3:p=1", "--out", "dem"]),
    ({"cfg": ER_CONFIG.replace("metrics = bottleneck", "metrics = betti:p=1 betti:p=1")},
     ["experiment", "--config", "{cfg}"]),
    ({}, ["dem", "--size", "17", "--chunk-size", "4", "--stride", "4",
          "--metric", "betti:p=1", "--metric", "betti:p=1", "--out", "dem"]),
    ({"cfg": ER_CONFIG.replace("metrics = bottleneck",
                               "metrics = landscape:p=2 landscape:p=2.0")},
     ["experiment", "--config", "{cfg}"]),
    ({}, ["dem", "--size", "17", "--chunk-size", "4", "--stride", "4",
          "--metric", "betti:p=1", "--metric", "betti: p = 1", "--out", "dem"]),
    ({}, ["distmat", "{a}", "{b}", "--metric", "count1:p=1"]),
    ({}, ["distmat", "{a}", "{b}", "--metric", "wasserstein:p=1,p=2"]),
    ({"cfg": ER_CONFIG}, ["experiment", "--config", "{cfg}", "--threads", "0"]),
    ({"m": "d,d\n0.0,1.0\n1.0,0.0\n"}, ["permtest", "{m}", "{m}", "--permutations", "0"]),
    ({"cfg": ER_CONFIG.replace("metrics = bottleneck", "metrics = sw sw:lines=10")},
     ["experiment", "--config", "{cfg}"]),
    ({}, ["dem", "--size", "17", "--chunk-size", "4", "--stride", "4",
          "--metric", "sw", "--metric", "sw:lines=10", "--out", "dem"]),
    ({"cx": "0 0\n0 0\n1 nan 0 1\n"}, ["persist", "{cx}"]),
    ({"cx": "0 0\n0 0\n1 inf 0 1\n"}, ["persist", "{cx}"]),
    ({"cx": "0 -inf\n0 0\n1 0 0 1\n"}, ["persist", "{cx}"]),
], ids=["p-not-a-number", "lines-not-an-integer", "unknown-model-kind", "one-gamma",
        "negative-degree-config", "max-dim-0", "infinite-death", "negative-degree-distmat",
        "negative-degree-summarize", "dem-size-not-2k+1", "dem-chunk-size-0",
        "dem-resolution-option", "dem-roughness-2", "dem-max-chunks-option-removed",
        "dem-stride-above-chunk", "dem-chunk-above-grid", "max-radius-0", "gamma-2",
        "max-dim-0-config", "max-radius-negative-config", "gamma-2-config", "sweep-gamma-2",
        "negtype-tol-option-removed",
        "simplex-code-overflow", "simplex-code-overflow-config", "dem-chunk-size-2",
        "dem-input-chunk-size-2", "edge-one-vertex", "edge-three-vertices",
        "edge-vertex-twice", "face-listed-twice", "boundary-of-boundary-nonzero",
        "negative-dimension", "persist-not-utf8", "config-not-utf8", "dem-input-not-utf8",
        "config-no-section-header", "config-duplicate-section", "grid-ncols-inf",
        "dcor-one-sample", "permtest-one-sample", "max-radius-nan",
        "max-radius-nan-config", "grid-cellsize-0", "grid-cellsize-negative",
        "grid-cellsize-nan", "grid-cellsize-inf",
        "sweep-kind-er",
        "sweep-gamma-and-gamma-count", "sweep-repetitions", "config-unknown-key",
        "config-unknown-section", "gamma-for-er-config", "sweep-model-gamma",
        "sweep-out-under-a-file", "dem-out-under-a-file", "dem-count-above-grid",
        "config-duplicate-metric", "dem-duplicate-metric", "config-metric-spelled-twice",
        "dem-metric-spelled-twice", "distmat-count",
        "metric-parameter-twice", "threads-0", "permutations-0",
        "config-default-spelled-out", "dem-default-spelled-out", "complex-value-nan",
        "complex-value-inf", "complex-value-minus-inf"])
def test_bad_input_exits_2(tmp_path, monkeypatch, files, argv):
    monkeypatch.chdir(tmp_path)  # a config without ``out`` writes to ./out
    paths = {}
    for name, text in {"a": DIAGRAM_CSV, "b": DIAGRAM_CSV, **files}.items():
        paths[name] = tmp_path / name
        paths[name].write_bytes(text if isinstance(text, bytes) else text.encode())
    assert run(*(arg.format(**paths) for arg in argv)) == 2


@pytest.mark.parametrize("text, message", [
    ("\n  \n", "line 1: empty grid file"),
    ("1 2 3\n4 5 6\n\n7 8\n", "line 4: ragged row"),
    ("ncols 3\nnrows 2\n\n1 2 3\n4 5\n", "line 4: expected 6 values, got 5"),
    ("ncols 3\nnrows 2\n", "line 2: expected 6 values, got 0"),
    ("ncols 3\nnrows two\n1 2 3\n4 5 6\n", "line 2: bad header value 'two'"),
    ("\nncols 3\ncellsize 1\n1 2 3\n", "line 2: ASCII grid header needs ncols and nrows"),
    ("ncols 2\nnrows 2\nnodata_value -9999\n\n1 2\n3 -9999\n", "line 5: NODATA"),
    ("1 2\n3 nan\n", "grid values must be finite"),
    ("1 2\n3 oops\n", "line 2: bad number 'oops'"),
    ("ncols 2\nnrows 2\n1 2\n3 oops\n", "line 4: bad number 'oops'"),
    ("ncols 2.7\nnrows 2.9\n1 2\n3 4\n", "line 1: ncols must be a positive whole number"),
    ("ncols -2\nnrows -3\n1 2 3\n4 5 6\n", "line 1: ncols must be a positive whole number"),
    ("ncols 0\nnrows 0\n", "line 1: ncols must be a positive whole number"),
    ("ncols 2\nnrows 1.5\n1 2\n", "line 2: nrows must be a positive whole number"),
    ("ncols 3\nnrows 3\nncols 4\nnrows 2\n1 2 3 4\n5 6 7 8\n",
     "line 3: repeated header key ncols"),
    ("ncols 2\nnrows 1\ncellsize 10\nCELLSIZE 30\n1 2\n", "line 4: repeated header key cellsize"),
    *((esri_grid(cellsize), "cellsize must be positive and finite")
      for cellsize in ("0", "-5", "nan", "inf")),
], ids=["empty", "ragged", "wrong-count", "wrong-count-no-body", "bad-header-value",
        "missing-nrows", "nodata", "nan", "bad-token", "bad-token-esri", "fractional-counts",
        "negative-counts", "zero-counts", "fractional-nrows", "repeated-ncols",
        "repeated-cellsize", "cellsize-0", "cellsize-negative", "cellsize-nan", "cellsize-inf"])
def test_bad_grid_exits_2_with_line(tmp_path, capsys, text, message):
    grid = tmp_path / "grid.txt"
    grid.write_text(text)
    assert run("dem", "--input", str(grid), "--out", str(tmp_path / "dem")) == 2
    assert message in capsys.readouterr().err


DEGREE_1_CSV = "degree,birth,death\n1,0.0,5.0\n1,1.0,3.0\n"
WIDE_CSV = "degree,birth,death\n1,0.0,40.0\n1,1.0,30.0\n"
LINE_3 = "x,x,x\n0.0,1.0,2.0\n1.0,0.0,1.5\n2.0,1.5,0.0\n"
# A 9 x 9 checkerboard of ±1e200: its squared height differences overflow.
HUGE_GRID = "".join(" ".join(("1e200", "-1e200")[(r + c) % 2] for c in range(9)) + "\n"
                    for r in range(9))


def csv_floats(points):
    """Degree-1 diagram CSV of (birth, death) ``points``, written exactly."""
    return "degree,birth,death\n" + "".join(f"1,{b!r},{d!r}\n" for b, d in points)


PSS_BARS = np.sort(np.random.default_rng(5).random((5, 2)), axis=1) + (0.0, 0.01)
PSS_MOVED = PSS_BARS.copy()
PSS_MOVED[0, 1] += 1e-12


@pytest.mark.parametrize("files, metric, entry", [
    # Two diagrams 1e-12 apart: the kernel's radicand rounds below zero and is clipped.
    ({"a": csv_floats(PSS_BARS.tolist()), "b": csv_floats(PSS_MOVED.tolist())},
     "pss:sigma=1e-5", 0.0),
    # A bar of length 2e-8 is a tent of height 1e-8, at any scale: its
    # sup distance from nothing equals its bottleneck distance.
    ({"a": "degree,birth,death\n1,0,2e-8\n", "b": "degree,birth,death\n"},
     "landscape:p=inf", 1e-8),
], ids=["pss-radicand-rounding", "landscape-tiny-bar"])
def test_distmat_entry(tmp_path, files, metric, entry):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "m.csv"
    assert run("distmat", str(tmp_path / "a"), str(tmp_path / "b"), "--metric", metric,
               "--out", str(out)) == 0
    assert matrix_from_csv(out.read_text()).entries[0, 1] == entry


def far_apart(n, distance):
    """Matrix CSV of n samples, each ``distance`` from every other."""
    return "d\n" + "".join(",".join("0.0" if i == j else distance for j in range(n)) + "\n"
                           for i in range(n))


def one_far(n, distance):
    """Matrix CSV of n samples, sample 0 ``distance`` from the others, which coincide."""
    return "d\n" + "".join(",".join(distance if (i == 0) != (j == 0) else "0.0"
                                     for j in range(n)) + "\n" for i in range(n))


@pytest.mark.parametrize("files, argv, message", [
    ({"c": "degree,birth,death\n1,100.0,200.0\n"},
     ["distmat", "{a}", "{c}", "--metric", "wasserstein:p=400"],
     "wasserstein:p=400: powered transport costs overflow"),
    ({"b": "degree,birth,death\n1,0.5,4.0\n"},
     ["distmat", "{a}", "{b}", "--metric", "wasserstein:p=2000"], "p=2000"),
    ({"a": WIDE_CSV, "b": "degree,birth,death\n1,0.0,10.0\n"},
     ["distmat", "{a}", "{b}", "--metric", "landscape:p=400"], "p=400"),
    ({"a": WIDE_CSV, "b": "degree,birth,death\n1,0.0,10.0\n"},
     ["distmat", "{a}", "{b}", "--metric", "betti:p=2000"], "p=2000"),
    ({"a": WIDE_CSV, "b": "degree,birth,death\n1,0.0,1e200\n"},
     ["distmat", "{a}", "{b}", "--metric", "landscape:p=2"], "p=2"),
    ({"x": far_apart(2, "1e308")}, ["dcor", "{x}", "{x}"], "centered distances overflow"),
    ({"x": far_apart(3, "1e308"), "y": LINE_3}, ["dcor", "{x}", "{y}"],
     "centered distances overflow"),
    ({"x": far_apart(3, "1e308"), "y": LINE_3},
     ["permtest", "{y}", "{x}", "--permutations", "9"], "centered distances overflow"),
    ({"x": far_apart(3, "1e100")}, ["dcor", "{x}", "{x}"], "dvar_x * dvar_y overflows"),
    # J D J already holds -inf (equal distances of 1.7e308 center finitely).
    ({"x": one_far(5, "1.7e308")}, ["negtype", "{x}"], "centered distances overflow"),
    ({"c": "degree,birth,death\n1,0,1e308\n"},
     ["distmat", "{a}", "{c}", "--metric", "sw"], "sw: a distance is not finite"),
    ({"b": "degree,birth,death\n1,0.5,4.0\n"},
     ["distmat", "{a}", "{b}", "--metric", "pss:sigma=1e-320"],
     "pss:sigma=1e-320: a distance is not finite"),
    # (0.01 / 2^(1 - 1/200))^200 is below the smallest normal float.
    ({"a": "degree,birth,death\n1,0,0.01\n", "b": "degree,birth,death\n1,0,0.02\n"},
     ["distmat", "{a}", "{b}", "--metric", "wasserstein:p=200"],
     "wasserstein:p=200: powered transport total underflows"),
    # Chunk centres 4 cells of 1e308 apart, and ruggedness of a grid of ±1e200.
    ({"g": esri_grid("1e308")}, ["dem", "--input", "{g}", "--chunk-size", "4", "--stride", "4"],
     "geodesic: a value is not finite"),
    ({"g": HUGE_GRID}, ["dem", "--input", "{g}", "--chunk-size", "4", "--stride", "4",
                        "--metric", "betti:p=1"], "tri: a value is not finite"),
], ids=["wasserstein-cost-overflow", "wasserstein-diagonal-cost-overflow",
        "landscape-integral-overflow", "betti-integral-overflow",
        "landscape-value-overflow", "dcor-dcov-overflow", "dcor-centering-overflow",
        "permtest-centering-overflow", "dcor-dvar-product-overflow",
        "negtype-centering-overflow", "sw-overflow", "pss-kernel-overflow",
        "wasserstein-underflow", "dem-geodesic-overflow", "dem-tri-overflow"])
def test_bad_numerics_exit_3(tmp_path, capsys, files, argv, message):
    paths = {}
    for name, text in {"a": DEGREE_1_CSV, **files}.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    assert run(*(arg.format(**paths) for arg in argv), "--out", str(tmp_path / "m.csv")) == 3
    assert message in capsys.readouterr().err
