"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -v -s`` or on
failure) after its assertions succeed.
"""

import math
import time

import numpy as np
import pytest

from topocorr.dcor import permutation_test, sample_dcor
from topocorr.experiment import (
    RunConfig,
    parameter_matrix,
    run_dem_pipeline,
    run_parameter_correlation,
)
from topocorr.complexes import build_flag_complex
from topocorr.metrics import DistanceMatrix, pairwise_matrix, parse_metric_spec
from topocorr.models import ModelSpec, derive_seed, gen_er, generate
from topocorr.negtype import (
    fixture_landscape_l1,
    fixture_landscape_linf,
    fixture_large_p,
    fixture_small_p,
    negtype_check,
    quadratic_form,
)
from topocorr.persistence import (
    PersistenceDiagram,
    compute_persistence,
    diagram_betti_count,
    persistent_betti,
)
from topocorr.summaries import landscape_from_diagram
from tests.oracles import brute_wasserstein, sup_landscape_value
from tests.test_summaries import landscape_value


def diagram_matrix(diagrams, p):
    spec = "bottleneck" if p == math.inf else f"wasserstein:p={p!r}"
    return pairwise_matrix(diagrams, parse_metric_spec(spec))


def landscape_matrix(diagrams, p):
    return pairwise_matrix([landscape_from_diagram(d) for d in diagrams],
                           parse_metric_spec(f"landscape:p={p!r}"))


def test_criterion_01_small_p_counterexample():
    start = time.time()
    diagrams, weights = fixture_small_p()
    for p in (1.0, 2.0):
        within = diagram_matrix(diagrams, p).entries[:8, :8]
        near, far = 2.0 ** (1.0 / p), 4.0 ** (1.0 / p)
        for i in range(8):
            for j in range(8):
                if i == j:
                    assert abs(within[i, j]) <= 1e-9
                else:
                    assert min(abs(within[i, j] - near),
                               abs(within[i, j] - far)) <= 1e-9
        # There are exactly 4 near and 3 far entries per row.
        counts = np.sum(np.abs(within - near) <= 1e-9, axis=1)
        assert np.all(counts == 4)
    forms = {}
    for p in (1.0, 2.0, 2.40, 2.41):
        forms[p] = quadratic_form(diagram_matrix(diagrams, p), weights)
    for p in (1.0, 2.0):
        assert forms[p] == pytest.approx(
            48.0 * 4.0 ** (1.0 / p) - 64.0 * 2.0 ** (1.0 / p), abs=1e-9)
    assert forms[2.40] > 0.0 > forms[2.41]
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: small-p fixture exact, sign flips in "
          f"(2.40, 2.41), {elapsed:.2f}s")


def test_criterion_02_large_p_counterexample():
    start = time.time()
    diagrams, weights = fixture_large_p()
    for p in (2.4, 3.0, 10.0):
        mat = diagram_matrix(diagrams, p).entries
        assert np.max(np.abs(mat[:16, 16:] - 8.0 ** (1.0 / p) / 2.0)) <= 1e-9
        expected = (4.0 + 6.0 * 2.0 ** (1.0 / p) + 4.0 * 3.0 ** (1.0 / p)
                    + 4.0 ** (1.0 / p))
        for i in range(16):
            assert mat[i, :16].sum() == pytest.approx(expected, abs=1e-9)
        form = quadratic_form(DistanceMatrix(mat, "w"), weights)
        assert form > 0.0
    bmat = diagram_matrix(diagrams, math.inf).entries
    assert np.max(np.abs(bmat[:16, 16:] - 0.5)) <= 1e-9
    bform = quadratic_form(DistanceMatrix(bmat, "b"), weights)
    assert bform > 0.0
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: large-p fixture exact, form positive for "
          f"p in {{2.4, 3, 10, inf}}, {elapsed:.2f}s")


def test_criterion_03_landscape_counterexamples():
    diagrams, weights = fixture_landscape_l1()
    l1 = landscape_matrix(diagrams, 1)
    form = quadratic_form(l1, weights)
    assert abs(form) < 1e-12

    diagrams, weights = fixture_landscape_linf()
    linf = landscape_matrix(diagrams, math.inf)
    e = linf.entries
    assert np.array_equal(e[:3, :3], np.ones((3, 3)) - np.eye(3))
    assert np.array_equal(e[3:, 3:], np.ones((3, 3)) - np.eye(3))
    assert np.all(e[:3, 3:] == 0.5)
    form = quadratic_form(linf, weights)
    assert form == 3.0
    print("\nPASS criterion 3: landscape L1 form 0, Linf pattern 1/0.5 with form 3")


def test_criterion_04_wasserstein_oracle():
    start = time.time()
    rng = np.random.default_rng(2024)

    def random_diagram():
        count = int(rng.integers(0, 6))
        pts = []
        for _ in range(count):
            b = float(rng.uniform(0, 4))
            pts.append((b, b + float(rng.uniform(0.05, 3)), 1))
        return PersistenceDiagram(tuple(pts))

    worst = 0.0
    for i in range(200):
        d1, d2 = random_diagram(), random_diagram()
        p = (1.0, 2.0, 3.0)[i % 3]
        got = parse_metric_spec(f"wasserstein:p={p}").distance(d1, d2)
        worst = max(worst, abs(got - brute_wasserstein(d1, d2, p)))
    assert worst <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 4: 200 diagram pairs match brute force, "
          f"max |delta| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_05_persistent_betti_oracle():
    checked = 0
    for seed in range(50):
        cx = build_flag_complex(gen_er(5, derive_seed(500, seed)), 2)
        assert len(cx) <= 30
        d = compute_persistence(cx)
        values = sorted(set(cx.values.tolist()))
        for k in (0, 1):
            for i, a in enumerate(values):
                for b in values[i:]:
                    assert diagram_betti_count(d, a, b, k) == \
                        persistent_betti(cx, a, b, k)
                    checked += 1
    print(f"\nPASS criterion 5: diagrams match persistent Betti ranks on "
          f"{checked} (a, b, k) triples over 50 complexes")


def test_criterion_06_landscape_definition_oracle():
    rng = np.random.default_rng(77)
    for _ in range(100):
        count = int(rng.integers(1, 9))
        pts = []
        for _ in range(count):
            b = rng.integers(0, 64) / 8.0
            pts.append((b, b + rng.integers(1, 32) / 8.0, 1))
        d = PersistenceDiagram(tuple(pts))
        lan = landscape_from_diagram(d)
        for _ in range(100):
            t = rng.integers(-16, 128) / 16.0
            k = int(rng.integers(1, count + 3))
            assert landscape_value(lan, k, t) == sup_landscape_value(d, k, t)
    print("\nPASS criterion 6: tent formula equals sup definition on "
          "100 diagrams x 100 points, exactly")


def test_criterion_07_dcov_hand_value():
    line = parameter_matrix([0.0, 1.0, 2.0], label="x")
    report = sample_dcor(line, line)
    assert report.dvar_x == pytest.approx(40.0 / 81.0, abs=1e-12)
    assert report.dcor == 1.0
    other = parameter_matrix([0.3, 2.0, 0.9], label="y")
    base = sample_dcor(line, other).dcor
    assert sample_dcor(DistanceMatrix(4.0 * line.entries, "x"), other).dcor == base
    assert sample_dcor(line, DistanceMatrix(0.5 * other.entries, "y")).dcor == base
    print("\nPASS criterion 7: dvar = 40/81, dcor(X,X) = 1, rescaling exact")


def test_criterion_08_independence_behavior():
    n, permutations = 500, 199
    low_dcor = 0
    high_p = 0
    for seed in range(20):
        rng = np.random.default_rng(derive_seed(808, seed))
        x = parameter_matrix(rng.random(n), label="x")
        y = parameter_matrix(rng.random(n), label="y")
        if sample_dcor(x, y).dCor < 0.15:
            low_dcor += 1
        if permutation_test(x, y, permutations, seed=seed) > 0.05:
            high_p += 1
    assert low_dcor >= 19
    assert high_p >= 17
    for seed in range(20):
        rng = np.random.default_rng(derive_seed(809, seed))
        x = parameter_matrix(rng.random(n), label="x")
        y = DistanceMatrix(x.entries, "y")
        assert permutation_test(x, y, permutations, seed=seed) == \
            pytest.approx(1.0 / (permutations + 1))
    print(f"\nPASS criterion 8: dCor < 0.15 in {low_dcor}/20, p > 0.05 in "
          f"{high_p}/20, dependent p = 1/(permutations+1) in 20/20")


def test_criterion_09_negtype_sanity():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        dim = int(rng.integers(1, 6))
        pts = rng.normal(size=(n, dim))
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        verdict = negtype_check(DistanceMatrix(d, "euclid"))
        assert verdict.negative_type
    diagrams, _ = fixture_small_p()
    verdict = negtype_check(diagram_matrix(diagrams, 1.0))
    assert not verdict.negative_type
    witness_form = quadratic_form(diagram_matrix(diagrams, 1.0), verdict.witness)
    assert witness_form > 0.0
    print(f"\nPASS criterion 9: 1000 Euclidean configs negative type; small-p "
          f"p=1 violated with witness form {witness_form:.4f} > 0")


def test_criterion_10_er_trend():
    start = time.time()
    metric_specs = [parse_metric_spec(m) for m in
                    ("wasserstein:p=1", "wasserstein:p=2", "bottleneck")]
    l1, l2, linf = (parse_metric_spec(m) for m in ("landscape:p=1", "landscape:p=2",
                                                   "landscape:p=inf"))
    for seed in range(3):
        spec = ModelSpec("er", 25, seed=derive_seed(1010, seed))
        diagrams = []
        for i in range(50):
            cx = build_flag_complex(generate(spec, i), 2)
            diagrams.append(compute_persistence(cx).restrict(1))
        mats = {m.label: pairwise_matrix(diagrams, m) for m in metric_specs}
        # The three landscape matrices share one pass over the landscapes.
        landscapes = [landscape_from_diagram(d) for d in diagrams]
        mats[l1.label] = pairwise_matrix(landscapes, l1, [l2, linf], mats)
        w1w2 = sample_dcor(mats["wasserstein:p=1"], mats["wasserstein:p=2"]).dCor
        w1b = sample_dcor(mats["wasserstein:p=1"], mats["bottleneck"]).dCor
        l12 = sample_dcor(mats["landscape:p=1"], mats["landscape:p=2"]).dCor
        l1inf = sample_dcor(mats["landscape:p=1"], mats["landscape:p=inf"]).dCor
        assert w1w2 > w1b, f"seed {seed}: {w1w2} vs {w1b}"
        assert l12 > l1inf, f"seed {seed}: {l12} vs {l1inf}"
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(f"\nPASS criterion 10: dCor(W1,W2) > dCor(W1,bottleneck) and "
          f"dCor(L1,L2) > dCor(L1,Linf) in 3/3 seeds, {elapsed:.1f}s")


def test_criterion_11_gamma_sweep_trend():
    metrics = tuple(parse_metric_spec(m) for m in
                    ("wasserstein:p=1", "betti:p=1", "swk:sigma=0.01"))
    for seed in range(3):
        cfg = RunConfig(model=ModelSpec("interpolated", 25, gamma=0.0, seed=seed),
                        repetitions=2, degree=1, metrics=metrics, out=None,
                        seed=seed, sweep=tuple(np.linspace(0.0, 1.0, 100)))
        rows = dict((label, value) for label, value, _ in
                    run_parameter_correlation(cfg))
        assert rows["wasserstein:p=1"] > rows["swk:sigma=0.01"], f"seed {seed}"
        assert rows["betti:p=1"] > rows["swk:sigma=0.01"], f"seed {seed}"
    print("\nPASS criterion 11: dCor(W1, gamma) and dCor(beta1-L1, gamma) "
          "exceed dCor(swk sigma=0.01, gamma) in 3/3 seeds")


def test_criterion_12_dem_pipeline(tmp_path):
    metrics = [parse_metric_spec("wasserstein:p=2")]
    from topocorr.serialize import matrix_from_csv

    for seed in range(3):
        out = tmp_path / f"seed{seed}"
        result = run_dem_pipeline(65, 0.4, seed, 8, 8, metrics, out=out)
        # Artifacts exist and re-validate as distance matrices.
        matrix_from_csv((out / "wasserstein_p_2.csv").read_text())
        matrix_from_csv((out / "tri.csv").read_text())
        assert (out / "chunks.csv").read_text().startswith("row,col,")
        w2 = result["matrices"][0]
        real = sample_dcor(w2, result["tri_matrix"]).dCor
        rng = np.random.default_rng(derive_seed(1212, seed))
        shuffled = parameter_matrix(
            np.asarray(result["tri"])[rng.permutation(len(result["tri"]))],
            label="tri_permuted")
        fake = sample_dcor(w2, shuffled).dCor
        assert real > fake, f"seed {seed}: {real} vs {fake}"
    print("\nPASS criterion 12: DEM pipeline artifacts valid; dCor(W2, TRI) "
          "beats permuted TRI in 3/3 seeds")
