import numpy as np
import pytest

from topocorr.complexes import HeightGrid, build_cubical_complex
from topocorr.metrics import parse_metric_spec
from topocorr.persistence import PersistenceDiagram, compute_persistence
from topocorr.summaries import (
    StepCurve,
    betti_curve,
    euler_curve,
    landscape_from_diagram,
    simplex_count_curve,
)
from tests.oracles import euler_from_betti, sup_landscape_value
from tests.test_persistence import four_cycle


def diagram(*pairs):
    return PersistenceDiagram(tuple((float(b), float(d), 1) for b, d in pairs))


def dyadic_diagram(rng, max_points=8):
    # Dyadic coordinates make landscape evaluation exact in binary floats.
    count = rng.integers(1, max_points + 1)
    pts = []
    for _ in range(count):
        b = rng.integers(0, 64) / 8.0
        d = b + rng.integers(1, 32) / 8.0
        pts.append((b, d))
    return diagram(*pts)


def landscape_value(lan, k, t):
    """λ_k (1-based) of ``lan`` at t, interpolated between the breakpoints of
    its level; 0 past the last level."""
    if k > len(lan.levels):
        return 0.0
    level = lan.levels[k - 1]
    return np.interp(t, level[:, 0], level[:, 1], left=0.0, right=0.0)


def curve_value(c, t):
    """The value of the step curve ``c`` at t: 0 outside its breakpoints."""
    return np.concatenate(([0], c.values, [0]))[np.searchsorted(c.breakpoints, t, side="right")]


class TestLandscape:
    def test_levels_are_a_tuple_of_breakpoint_arrays(self):
        # One (t, value, level) array; the breakpoint count and the text
        # writer read its per-level (t, value) views.
        lan = landscape_from_diagram(diagram((0, 4), (1, 3), (5, 6)))
        assert lan.knots.dtype == float and lan.knots.shape == (6 + 3, 3)
        assert lan.knots[:, 2].tolist() == [0.0] * 6 + [1.0] * 3
        assert isinstance(lan.levels, tuple) and len(lan.levels) == 2
        for k, level in enumerate(lan.levels):
            assert isinstance(level, np.ndarray) and level.dtype == float
            assert level.ndim == 2 and level.shape[1] == 2
            assert np.all(np.diff(level[:, 0]) >= 0)
            assert np.array_equal(level, lan.knots[lan.knots[:, 2] == k, :2])
        assert sum(len(level) for level in lan.levels) == 6 + 3
        empty = landscape_from_diagram(diagram())
        assert empty.knots.shape == (0, 3) and empty.levels == ()

    def test_single_bar_tent(self):
        lan = landscape_from_diagram(diagram((0, 2)))
        assert len(lan.levels) == 1
        assert landscape_value(lan, 1, 1.0) == 1.0
        assert landscape_value(lan, 1, 0.5) == 0.5
        assert landscape_value(lan, 1, 2.0) == 0.0
        assert landscape_value(lan, 2, 1.0) == 0.0

    def test_nested_bars_two_levels(self):
        lan = landscape_from_diagram(diagram((0, 4), (1, 3)))
        assert len(lan.levels) == 2
        assert landscape_value(lan, 1, 2.0) == 2.0
        assert landscape_value(lan, 2, 2.0) == 1.0

    def test_crossing_bars_second_level(self):
        # Overlap [2, 4) of (0,4) and (2,6) feeds the second level.
        lan = landscape_from_diagram(diagram((0, 4), (2, 6)))
        assert landscape_value(lan, 2, 3.0) == 1.0
        assert landscape_value(lan, 1, 2.0) == 2.0
        assert landscape_value(lan, 1, 3.0) == 1.0
        assert landscape_value(lan, 1, 4.0) == 2.0

    def test_empty_diagram(self):
        lan = landscape_from_diagram(PersistenceDiagram(()))
        assert len(lan.levels) == 0
        assert landscape_value(lan, 1, 0.0) == 0.0

    def test_bounded_by_half_max_persistence(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = dyadic_diagram(rng)
            lan = landscape_from_diagram(d)
            bound = max(death - b for b, death, _ in d.points) / 2.0
            assert lan.knots[:, 1].max() <= bound + 1e-12

    def test_matches_sup_definition(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = dyadic_diagram(rng)
            lan = landscape_from_diagram(d)
            for _ in range(20):
                t = rng.integers(-16, 128) / 16.0
                for k in range(1, len(lan.levels) + 2):
                    assert landscape_value(lan, k, t) == sup_landscape_value(d, k, t)


class TestStepCurve:
    def test_zero_outside_support(self):
        c = StepCurve((0.0, 1.0, 2.0), (3, 1))
        assert curve_value(c, -0.5) == 0
        assert curve_value(c, 0.0) == 3
        assert curve_value(c, 1.5) == 1
        assert curve_value(c, 2.0) == 0

    def test_l1_norm(self):
        # The L^1 norm is the L^1 distance from the zero curve.
        zero = StepCurve((), ())
        curve = StepCurve((0.0, 1.0, 3.0), (2, -1))
        assert parse_metric_spec("betti:p=1").distance(curve, zero) == 4.0

    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(ValueError):
            StepCurve((1.0, 0.0), (1,))


class TestBettiCurve:
    def test_four_cycle_h1(self):
        c = betti_curve(compute_persistence(four_cycle()), 1)
        assert np.array_equal(c.breakpoints, [1.0, 2.0])
        assert np.array_equal(c.values, [1])

    def test_integrates_to_total_persistence(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = dyadic_diagram(rng)
            total = sum(death - b for b, death, _ in d.points)
            c = betti_curve(d, 1)
            assert np.sum(c.values * np.diff(c.breakpoints)) == pytest.approx(total, abs=1e-12)

    def test_counts_overlaps(self):
        c = betti_curve(diagram((0, 2), (1, 3)), 1)
        assert curve_value(c, 1.5) == 2
        assert curve_value(c, 0.5) == 1
        assert curve_value(c, 2.5) == 1


class TestEulerCurve:
    def test_four_cycle(self):
        d = compute_persistence(four_cycle())
        for chi in (euler_curve(d), euler_from_betti([betti_curve(d, 0), betti_curve(d, 1)])):
            assert curve_value(chi, 0.5) == 4
            assert curve_value(chi, 1.5) == 0

    def test_alternating_signs(self):
        # Two H0 bars on [0, 2) and three H1 bars on [1, 2).
        d = PersistenceDiagram([(0.0, 2.0, 0)] * 2 + [(1.0, 2.0, 1)] * 3)
        b0 = StepCurve((0.0, 2.0), (2,))
        b1 = StepCurve((1.0, 2.0), (3,))
        for chi in (euler_curve(d), euler_from_betti([b0, b1])):
            assert curve_value(chi, 0.5) == 2
            assert curve_value(chi, 1.5) == -1


class TestSimplexCountCurve:
    def test_cumulative_counts(self):
        c = simplex_count_curve(four_cycle(), 1)
        assert curve_value(c, 1.0) == 4
        assert curve_value(c, 2.0) == 6

    def test_empty_dimension(self):
        c = simplex_count_curve(four_cycle(), 3)
        assert c.breakpoints.size == 0

    def test_support_is_closed_past_last_jump(self):
        c = simplex_count_curve(four_cycle(), 0)
        assert c.breakpoints[-1] == 1.0
        assert curve_value(c, 0.5) == 4

    @pytest.mark.parametrize("scale", [1.0, 1e16, 1e17])
    def test_last_cell_counts_at_any_scale(self, scale):
        # From 2^53 up, max + 1.0 rounds back to max: the curve closes at the
        # next float instead, so the last square still counts.
        grid = HeightGrid.from_array(np.array([[1.0, 2.0], [3.0, 4.0]]) * scale)
        for source in (grid, build_cubical_complex(grid)):
            c = simplex_count_curve(source, 2)
            assert c.values.tolist() == [1, 2, 3, 4]
            assert np.all(np.diff(c.breakpoints) > 0)
            assert c.breakpoints[-1] == (5.0 if scale == 1.0 else np.nextafter(4 * scale, np.inf))
