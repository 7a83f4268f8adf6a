import math

import numpy as np
import pytest

from topocorr.errors import ConfigurationError
from topocorr.metrics import (
    DistanceMatrix,
    bottleneck,
    curve_distance,
    diagonal_distance,
    landscape_distance,
    pairwise_matrix,
    parse_metric_spec,
    pss_distance,
    pss_kernel,
    sliced_wasserstein,
    sw_kernel_distance,
    wasserstein,
)
from topocorr.persistence import PersistenceDiagram
from topocorr.summaries import StepCurve, landscape_from_diagram
from topocorr.experiment import build_complex, compute_bundle
from topocorr.models import ModelSpec, derive_seed, generate
from tests.oracles import brute_bottleneck, brute_wasserstein, sup_landscape_distance
from tests.test_summaries import diagram


def random_diagram(rng, max_points=5):
    count = int(rng.integers(0, max_points + 1))
    pts = []
    for _ in range(count):
        b = float(rng.uniform(0, 5))
        pts.append((b, b + float(rng.uniform(0.05, 3))))
    return diagram(*pts) if pts else PersistenceDiagram(())


class TestDistanceMatrix:
    def test_validates(self):
        DistanceMatrix(2, np.array([[0.0, 1.0], [1.0, 0.0]]), "d")

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            DistanceMatrix(2, np.array([[0.1, 1.0], [1.0, 0.0]]), "d")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DistanceMatrix(2, np.array([[0.0, -1.0], [-1.0, 0.0]]), "d")


class TestDiagonalDistance:
    def test_values(self):
        assert diagonal_distance((0.0, 2.0), 1) == 2.0
        assert diagonal_distance((0.0, 2.0), 2) == pytest.approx(math.sqrt(2))
        assert diagonal_distance((0.0, 2.0), math.inf) == 1.0


class TestWasserstein:
    def test_identical_diagrams(self):
        d = diagram((0, 1), (2, 5))
        assert wasserstein(d, d, 2) == 0.0

    def test_single_point_vs_empty(self):
        d = diagram((0, 2))
        empty = PersistenceDiagram(())
        assert wasserstein(d, empty, 1) == pytest.approx(2.0)
        assert wasserstein(d, empty, 2) == pytest.approx(math.sqrt(2))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            d1, d2 = random_diagram(rng), random_diagram(rng)
            for p in (1.0, 2.0, 3.0):
                assert wasserstein(d1, d2, p) == pytest.approx(
                    brute_wasserstein(d1, d2, p), abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a, b, c = (random_diagram(rng) for _ in range(3))
            for p in (1.0, 2.0):
                assert wasserstein(a, c, p) <= \
                    wasserstein(a, b, p) + wasserstein(b, c, p) + 1e-9

    def test_rejects_infinite_p(self):
        with pytest.raises(ValueError):
            wasserstein(diagram((0, 1)), diagram((0, 1)), math.inf)


class TestBottleneck:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            d1, d2 = random_diagram(rng), random_diagram(rng)
            assert bottleneck(d1, d2) == pytest.approx(
                brute_bottleneck(d1, d2), abs=1e-12)

    def test_shifted_point(self):
        assert bottleneck(diagram((0, 4)), diagram((1, 4))) == 1.0

    def test_point_to_diagonal(self):
        assert bottleneck(diagram((0, 4)), PersistenceDiagram(())) == 2.0


class TestLandscapeDistance:
    def test_disjoint_tents_l1(self):
        # Two unit tents, each of area 1/4.
        l1 = landscape_from_diagram(diagram((0, 1)))
        l2 = landscape_from_diagram(diagram((5, 6)))
        assert landscape_distance(l1, l2, 1) == pytest.approx(0.5)

    def test_linf_is_max_gap(self):
        l1 = landscape_from_diagram(diagram((0, 2)))
        l2 = landscape_from_diagram(diagram((0, 4)))
        # The tents differ most at t = 2: heights 0 and 2.
        assert landscape_distance(l1, l2, math.inf) == pytest.approx(2.0)

    def test_l2_single_tent(self):
        # Integral of the tent squared over [0, 2] is 2/3... distance to zero.
        l1 = landscape_from_diagram(diagram((0, 2)))
        l2 = landscape_from_diagram(PersistenceDiagram(()))
        assert landscape_distance(l1, l2, 2) == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_quadrature_free_crossing(self):
        # Difference changes sign; the closed-form split must stay exact.
        l1 = landscape_from_diagram(diagram((0, 2)))
        l2 = landscape_from_diagram(diagram((1, 3)))
        # |f - g| integrates to 1/2 + 1/4 + 1/4 + 1/2 over [0, 3].
        assert landscape_distance(l1, l2, 1) == pytest.approx(1.5)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_matches_sup_definition_on_float_diagrams(self, p):
        rng = np.random.default_rng(31)
        for _ in range(40):
            d1, d2 = random_diagram(rng, 6), random_diagram(rng, 6)
            got = landscape_distance(landscape_from_diagram(d1), landscape_from_diagram(d2), p)
            assert got == pytest.approx(sup_landscape_distance(d1, d2, p), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_segment_end_below_rounding_of_the_other(self, p):
        # After the short tent ends, the difference runs from 2e-17 up to 1:
        # the lower end is below the rounding of the upper one.
        d1, d2 = diagram((0, 2)), diagram((0, 2e-17))
        got = landscape_distance(landscape_from_diagram(d1), landscape_from_diagram(d2), p)
        assert got == pytest.approx(sup_landscape_distance(d1, d2, p), rel=1e-9)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_matches_sup_definition_on_er_pair(self, p):
        # Samples 0 and 37 of ER n=25: many nearly parallel level differences.
        metrics = (parse_metric_spec(f"landscape:p={p}"),)
        bundles = [compute_bundle(build_complex("er", generate(
            ModelSpec("er", 25, seed=derive_seed(1010, 0)), k), 2), 1, metrics, 2)
            for k in (0, 37)]
        got = metrics[0].distance(bundles[0]["landscape"], bundles[1]["landscape"])
        assert got == pytest.approx(sup_landscape_distance(
            bundles[0]["diagram"], bundles[1]["diagram"], p), rel=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b, c = (landscape_from_diagram(random_diagram(rng)) for _ in range(3))
            for p in (1.0, 2.0, math.inf):
                assert landscape_distance(a, c, p) <= \
                    landscape_distance(a, b, p) + landscape_distance(b, c, p) + 1e-9


class TestCurveDistance:
    def test_l1(self):
        c1 = StepCurve((0.0, 2.0), (2,))
        c2 = StepCurve((1.0, 3.0), (1,))
        assert curve_distance(c1, c2, 1) == pytest.approx(2.0 + 1.0 + 1.0)

    def test_l2(self):
        c1 = StepCurve((0.0, 1.0), (3,))
        c2 = StepCurve((0.0, 1.0), (1,))
        assert curve_distance(c1, c2, 2) == pytest.approx(2.0)


class TestPSS:
    def test_kernel_symmetry(self):
        d1, d2 = diagram((0, 1), (1, 3)), diagram((0.5, 2))
        assert pss_kernel(d1, d2, 0.5) == pytest.approx(pss_kernel(d2, d1, 0.5))

    def test_self_distance_zero(self):
        d = diagram((0, 1), (1, 3))
        assert pss_distance(d, d, 1.0) == 0.0

    def test_kernel_positive_for_near_diagrams(self):
        assert pss_kernel(diagram((0, 2)), diagram((0.1, 2.1)), 1.0) > 0.0

    def test_distance_positive_for_distinct(self):
        assert pss_distance(diagram((0, 2)), diagram((3, 5)), 1.0) > 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b, c = (random_diagram(rng) for _ in range(3))
            assert pss_distance(a, c, 1.0) <= \
                pss_distance(a, b, 1.0) + pss_distance(b, c, 1.0) + 1e-9


class TestSlicedWasserstein:
    def test_identical_zero(self):
        d = diagram((0, 1), (2, 4))
        assert sliced_wasserstein(d, d) == 0.0

    def test_symmetry(self):
        d1, d2 = diagram((0, 1)), diagram((1, 3), (0, 2))
        assert sliced_wasserstein(d1, d2) == pytest.approx(sliced_wasserstein(d2, d1))

    def test_line_count_stability(self):
        # The average over equidistributed lines converges; 10 vs 500 lines
        # should already agree to a few percent.
        d1, d2 = diagram((0, 1), (2, 5)), diagram((1, 3))
        a = sliced_wasserstein(d1, d2, lines=10)
        b = sliced_wasserstein(d1, d2, lines=500)
        assert abs(a - b) / b < 0.05

    def test_kernel_distance_range(self):
        d1, d2 = diagram((0, 1)), diagram((4, 9))
        dist = sw_kernel_distance(d1, d2, sigma=1.0)
        assert 0.0 < dist < math.sqrt(2.0)

    def test_kernel_distance_sigma_squared_underflows(self):
        # sigma * sigma is 0.0: the sigma -> 0 limit, sqrt(2) apart and 0 on self.
        d1, d2 = diagram((0, 5), (1, 3)), diagram((0.5, 4))
        assert sw_kernel_distance(d1, d2, sigma=1e-200) == math.sqrt(2.0)
        assert sw_kernel_distance(d1, d1, sigma=1e-200) == 0.0


class TestMetricSpecs:
    def test_parse_wasserstein(self):
        spec = parse_metric_spec("wasserstein:p=2")
        assert spec.name == "wasserstein" and spec.params == {"p": 2.0}
        assert spec.summary_kind == "diagram"

    def test_parse_inf(self):
        assert parse_metric_spec("landscape:p=inf").params["p"] == math.inf

    def test_parse_swk(self):
        spec = parse_metric_spec("swk:sigma=0.01,lines=20")
        assert spec.params == {"sigma": 0.01, "lines": 20}

    def test_parse_count(self):
        spec = parse_metric_spec("count2:p=1")
        assert spec.summary_kind == "count"
        assert spec.cell_dim == 2 and spec.bundle_key == "count2"
        c1, c2 = StepCurve((0.0, 2.0), (2,)), StepCurve((1.0, 3.0), (1,))
        assert spec.distance(c1, c2) == curve_distance(c1, c2, 1.0)

    def test_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            parse_metric_spec("frobnicate:p=1")

    def test_rejects_missing_parameter(self):
        with pytest.raises(ConfigurationError):
            parse_metric_spec("wasserstein")

    def test_rejects_p_below_one(self):
        with pytest.raises(ConfigurationError):
            parse_metric_spec("wasserstein:p=0.5")

    @pytest.mark.parametrize("spec", [
        "wasserstein:p=abc", "wasserstein:p=inf", "betti:p=nan", "euler:p=inf",
        "swk:sigma=1,lines=2.5", "swk:sigma=0", "sw:lines=0", "pss:sigma=-1",
        "bottleneck:p=1", "landscape:p=1,q=2", "landscape:p", "count:p=1", "countx:p=1",
        "count<d>:p=1",
    ])
    def test_rejects_malformed_spec(self, spec):
        with pytest.raises(ConfigurationError):
            parse_metric_spec(spec)

    def test_pairwise_matrix(self):
        rng = np.random.default_rng(1)
        diagrams = [random_diagram(rng) for _ in range(4)]
        mat = pairwise_matrix(diagrams, parse_metric_spec("wasserstein:p=1"))
        assert mat.n == 4 and mat.label == "wasserstein:p=1"
        assert mat.entries[1, 2] == pytest.approx(
            wasserstein(diagrams[1], diagrams[2], 1))
