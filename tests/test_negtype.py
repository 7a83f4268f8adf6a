import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topocorr
from topocorr.errors import NumericalFailure
from topocorr.metrics import DistanceMatrix, parse_metric_spec
from topocorr.negtype import (
    fixture_landscape_l1,
    fixture_landscape_linf,
    fixture_large_p,
    fixture_small_p,
    format_negtype_report,
    negtype_check,
    quadratic_form,
    run_negtype_suite,
)


def euclidean_matrix(points, label="euclid"):
    pts = np.asarray(points, dtype=float)
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    return DistanceMatrix(d, label)


def diagram_matrix(diagrams, p):
    n = len(diagrams)
    metric = parse_metric_spec("bottleneck" if p == math.inf else f"wasserstein:p={p}")
    entries = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            entries[i, j] = entries[j, i] = metric.distance(diagrams[i], diagrams[j])
    return DistanceMatrix(entries, f"p={p}")


class TestQuadraticForm:
    def test_rejects_nonzero_weight_sum(self):
        mat = euclidean_matrix([[0.0], [1.0]])
        with pytest.raises(ValueError):
            quadratic_form(mat, np.array([1.0, 1.0]))

    def test_rejects_wrong_weight_count(self):
        mat = euclidean_matrix([[0.0], [1.0]])
        with pytest.raises(ValueError, match="one weight per sample"):
            quadratic_form(mat, np.array([1.0, -0.5, -0.5]))

    def test_accepts_centred_weights_at_any_scale(self):
        # An absolute bound of 1e-12 on the sum rejected 144 of these 200 vectors.
        mat = euclidean_matrix(np.arange(10.0)[:, None])
        rng = np.random.default_rng(0)
        for _ in range(200):
            w = rng.normal(size=10) * 1e4
            w -= w.mean()
            assert quadratic_form(mat, w) == float(w @ mat.entries @ w)

    def test_two_point_value(self):
        mat = euclidean_matrix([[0.0], [3.0]])
        form = quadratic_form(mat, np.array([1.0, -1.0]))
        assert form == pytest.approx(-6.0)


class TestNegtypeCheck:
    def test_euclidean_never_violates(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            dim = int(rng.integers(1, 6))
            verdict = negtype_check(euclidean_matrix(rng.normal(size=(n, dim))))
            assert verdict.negative_type

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e12])
    def test_euclidean_never_violates_at_any_scale(self, scale):
        # An absolute tolerance read rounding as violations: 2 of these 50
        # sets at scale 1e6 and 20 at 1e12.
        rng = np.random.default_rng(4)
        for _ in range(50):
            assert negtype_check(euclidean_matrix(scale * rng.normal(size=(10, 3)))).negative_type

    def test_equal_distances_at_the_float_limit_read_negative_type(self):
        # -d J is finite, and its rounding (a top eigenvalue near 1e292) is
        # far below tol times d.
        e = np.full((5, 5), 1.7e308) - np.diag(np.full(5, 1.7e308))
        assert negtype_check(DistanceMatrix(e, "equal")).negative_type

    def test_violation_reports_witness(self):
        diagrams, _ = fixture_small_p()
        verdict = negtype_check(diagram_matrix(diagrams, 1.0))
        assert not verdict.negative_type
        assert quadratic_form(diagram_matrix(diagrams, 1.0), verdict.witness) > 0.0
        assert abs(sum(verdict.witness)) < 1e-9

    def test_centered_overflow_is_numerical_failure(self):
        # Row 0 is 1.7e308 from every other sample: J D J has entries near -2e308.
        e = np.zeros((5, 5))
        e[0, 1:] = e[1:, 0] = 1.7e308
        with pytest.raises(NumericalFailure, match="centered distances overflow"):
            negtype_check(DistanceMatrix(e, "big"))

    def test_equal_huge_distances_center_finitely(self):
        # Equal off-diagonal distances d center to -d J (J the centering
        # projector), which is finite and negative semidefinite.
        e = np.full((3, 3), 1e308) - np.diag(np.full(3, 1e308))
        verdict = negtype_check(DistanceMatrix(e, "equal"))
        assert verdict.negative_type and verdict.worst_value <= 1e-9


class TestSmallPFixture:
    def test_within_group_matrix(self):
        diagrams, _ = fixture_small_p()
        for p in (1.0, 2.0):
            mat = diagram_matrix(diagrams, p).entries[:8, :8]
            near, far = 2.0 ** (1.0 / p), 4.0 ** (1.0 / p)
            # Each row has one zero, four near entries and three far entries.
            for i in range(8):
                row = sorted(mat[i])
                assert row[0] == pytest.approx(0.0, abs=1e-9)
                assert np.allclose(row[1:5], near, atol=1e-9)
                assert np.allclose(row[5:], far, atol=1e-9)

    def test_cross_group_constant(self):
        diagrams, _ = fixture_small_p()
        mat = diagram_matrix(diagrams, 1.0).entries
        assert np.allclose(mat[:8, 8:], 2.0, atol=1e-9)

    def test_form_closed_form(self):
        diagrams, weights = fixture_small_p()
        for p in (1.0, 2.0, 2.4, 2.41):
            form = quadratic_form(diagram_matrix(diagrams, p), weights)
            assert form == pytest.approx(
                48.0 * 4.0 ** (1.0 / p) - 64.0 * 2.0 ** (1.0 / p), abs=1e-9)


class TestLargePFixture:
    def test_cross_distance_constant(self):
        diagrams, _ = fixture_large_p()
        for p in (2.4, 3.0):
            mat = diagram_matrix(diagrams, p).entries
            assert np.allclose(mat[:16, 16:], 8.0 ** (1.0 / p) / 2.0, atol=1e-9)
        bmat = diagram_matrix(diagrams, math.inf).entries
        assert np.allclose(bmat[:16, 16:], 0.5, atol=1e-9)

    def test_within_row_sum(self):
        diagrams, _ = fixture_large_p()
        for p in (2.4, 3.0, 10.0):
            mat = diagram_matrix(diagrams[:16], p).entries
            expected = 4.0 + 6.0 * 2.0 ** (1.0 / p) + 4.0 * 3.0 ** (1.0 / p) \
                + 4.0 ** (1.0 / p)
            assert mat[0].sum() == pytest.approx(expected, abs=1e-9)

    def test_form_positive(self):
        diagrams, weights = fixture_large_p()
        for p in (2.4, 3.0, math.inf):
            form = quadratic_form(diagram_matrix(diagrams, p), weights)
            assert form > 0.0


class TestLandscapeFixtures:
    def test_l1_form_zero(self):
        from topocorr.summaries import landscape_from_diagram

        diagrams, weights = fixture_landscape_l1()
        lans = [landscape_from_diagram(d) for d in diagrams]
        n, metric = len(lans), parse_metric_spec("landscape:p=1")
        entries = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                entries[i, j] = entries[j, i] = metric.distance(lans[i], lans[j])
        form = quadratic_form(DistanceMatrix(entries, "l1"), weights)
        assert abs(form) < 1e-12

    def test_l1_fixture_uses_only_first_level(self):
        from topocorr.summaries import landscape_from_diagram

        diagrams, _ = fixture_landscape_l1()
        for d in diagrams:
            assert len(landscape_from_diagram(d).levels) == 1

    def test_linf_pattern_and_form(self):
        from topocorr.summaries import landscape_from_diagram

        diagrams, weights = fixture_landscape_linf()
        lans = [landscape_from_diagram(d) for d in diagrams]
        n, metric = len(lans), parse_metric_spec("landscape:p=inf")
        entries = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                entries[i, j] = entries[j, i] = metric.distance(lans[i], lans[j])
        assert np.allclose(entries[:3, :3] + np.eye(3), np.ones((3, 3)))
        assert np.allclose(entries[3:, 3:] + np.eye(3), np.ones((3, 3)))
        assert np.allclose(entries[:3, 3:], 0.5)
        form = quadratic_form(DistanceMatrix(entries, "linf"), weights)
        assert form == pytest.approx(3.0)


class TestNegtypeSuite:
    def test_all_claims_pass(self):
        results = run_negtype_suite()
        assert all(r["pass"] for r in results)
        fixtures = {r["fixture"] for r in results}
        assert fixtures == {"small_p", "large_p", "landscape_l1", "landscape_linf"}

    def test_report_lines(self):
        # Each case's fixture, p, form and expected sign, in order.
        assert format_negtype_report(run_negtype_suite()) == (
            "PASS small_p p=1.0 form=+64 expected_sign=+\n"
            "PASS small_p p=2.0 form=+5.49033201 expected_sign=+\n"
            "PASS small_p p=2.4 form=+0.0965262746 expected_sign=+\n"
            "PASS small_p p=2.41 form=-0.00589886218 expected_sign=-\n"
            "PASS small_p p=3.0 form=-4.4396967 expected_sign=-\n"
            "PASS small_p p=inf form=-16 expected_sign=-\n"
            "PASS large_p p=2.4 form=+34.7395326 expected_sign=+\n"
            "PASS large_p p=2.41 form=+36.0972621 expected_sign=+\n"
            "PASS large_p p=3.0 form=+93.3096202 expected_sign=+\n"
            "PASS large_p p=10.0 form=+198.229649 expected_sign=+\n"
            "PASS large_p p=inf form=+224 expected_sign=+\n"
            "PASS landscape_l1 p=1.0 form=+0 expected_sign=0\n"
            "PASS landscape_linf p=inf form=+3 expected_sign=+\n")


def test_suite_and_heatmap_load_without_the_run_driver():
    # The fixture suite and the artifact writers stand below topocorr.experiment.
    src = str(Path(topocorr.__file__).parents[1])
    code = ("import sys\n"
            "from topocorr.negtype import run_negtype_suite, format_negtype_report\n"
            "import topocorr.serialize\n"
            "assert 'topocorr.experiment' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                   check=True)
