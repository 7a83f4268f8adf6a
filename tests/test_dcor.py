import tracemalloc

import numpy as np
import pytest

from topocorr.dcor import (
    dcor_matrix,
    double_center,
    permutation_test,
    sample_dcor,
    sample_dcov,
)
from topocorr.errors import NumericalFailure
from topocorr.metrics import DistanceMatrix
from tests.oracles import permutation_p_value


def abs_matrix(values, label="x"):
    v = np.asarray(values, dtype=float)
    return DistanceMatrix(np.abs(v[:, None] - v[None, :]), label)


def random_matrix(rng, n, label):
    """Symmetric, zero on the diagonal, cubes of entries in [0, 1): off
    negative type, so some dcov come out negative."""
    upper = np.triu(rng.random((n, n)) ** 3, 1)
    return DistanceMatrix(upper + upper.T, label)


LINE3 = abs_matrix([0.0, 1.0, 2.0])


class TestDoubleCentering:
    def test_line_values(self):
        a = double_center(LINE3)
        assert a[0, 0] == pytest.approx(-10.0 / 9.0, abs=1e-15)
        assert a[0, 1] == pytest.approx(2.0 / 9.0, abs=1e-15)
        assert a[0, 2] == pytest.approx(8.0 / 9.0, abs=1e-15)
        assert a[1, 1] == pytest.approx(-4.0 / 9.0, abs=1e-15)

    def test_rows_sum_to_zero(self):
        a = double_center(abs_matrix([0.3, 1.7, 2.2, 5.0]))
        assert np.allclose(a.sum(axis=0), 0.0, atol=1e-12)
        assert np.allclose(a.sum(axis=1), 0.0, atol=1e-12)


class TestSampleDcov:
    def test_line_dvar(self):
        c = double_center(LINE3)
        assert sample_dcov(c, c) == pytest.approx(40.0 / 81.0, abs=1e-12)


class TestSampleDcor:
    def test_self_correlation_is_one(self):
        report = sample_dcor(LINE3, LINE3)
        assert report.dcor == 1.0
        assert report.dCor == 1.0
        assert not report.negative_flag

    def test_rescaling_invariance(self):
        other = abs_matrix([0.0, 0.5, 3.0], label="y")
        base = sample_dcor(LINE3, other)
        # Power-of-two factors keep every float operation exact.
        scaled_x = DistanceMatrix(4.0 * LINE3.entries, "x")
        scaled_y = DistanceMatrix(0.25 * other.entries, "y")
        assert sample_dcor(scaled_x, other).dcor == base.dcor
        assert sample_dcor(LINE3, scaled_y).dcor == base.dcor

    def test_degenerate_input(self):
        flat = DistanceMatrix(np.zeros((3, 3)), "flat")
        report = sample_dcor(flat, LINE3)
        assert report.dcor == 0.0 and report.dCor == 0.0
        assert not report.negative_flag

    def test_report_consistency(self):
        other = abs_matrix([2.0, 0.1, 4.0], label="y")
        r = sample_dcor(LINE3, other)
        assert r.dCov == pytest.approx(np.sqrt(abs(r.dcov)))
        assert r.dCor == pytest.approx(np.sqrt(max(r.dcor, 0.0)))

    def test_to_text(self):
        text = sample_dcor(LINE3, LINE3).to_text()
        assert "dcor=1.0" in text and "negative_flag=False" in text


class TestDcorMatrix:
    def test_unit_diagonal_and_symmetry(self):
        mats = [LINE3, abs_matrix([1.0, 4.0, 2.0], "y"), abs_matrix([3.0, 3.5, 0.0], "z")]
        out, flags = dcor_matrix(mats)
        assert np.allclose(np.diag(out), 1.0)
        assert np.array_equal(out, out.T)
        assert not any(any(row) for row in flags)

    def test_single_matrix(self):
        out, flags = dcor_matrix([LINE3])
        assert out.tolist() == [[1.0]] and flags == [[False]]

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            dcor_matrix([LINE3, abs_matrix([0.0, 1.0])])

    def test_entries_are_sample_dcor(self):
        rng = np.random.default_rng(5)
        xs = [random_matrix(rng, 9, f"x{i}") for i in range(4)]
        ys = [random_matrix(rng, 9, f"y{j}") for j in range(3)]
        flagged = 0
        for others, (out, flags) in ((ys, dcor_matrix(xs, ys)), (xs, dcor_matrix(xs))):
            assert out.shape == (len(xs), len(others))
            for i, x in enumerate(xs):
                for j, y in enumerate(others):
                    report = sample_dcor(x, y)
                    assert out[i, j].tobytes() == np.float64(report.dCor).tobytes()
                    assert flags[i][j] is report.negative_flag
                    flagged += report.negative_flag
        assert flagged > 0

    def test_reference_list_skips_pairs_within_xs(self):
        # The dvar of each matrix squares past the float range, but not its
        # product with the reference's dvar.
        huge = [DistanceMatrix(1e150 * m.entries, m.label)
                for m in (LINE3, abs_matrix([0.0, 0.5, 3.0], "y"))]
        with pytest.raises(NumericalFailure, match="dvar_x \\* dvar_y overflows"):
            dcor_matrix(huge)
        out, flags = dcor_matrix(huge, [LINE3])
        assert out.shape == (2, 1) and out[0, 0] == pytest.approx(1.0)
        assert flags == [[False], [False]]


class TestPermutationTest:
    def test_dependent_data_smallest_p(self):
        rng = np.random.default_rng(0)
        x = rng.random(60)
        p = permutation_test(abs_matrix(x), abs_matrix(x, "y"), 99, seed=4)
        assert p == pytest.approx(1.0 / 100.0)

    def test_independent_data_large_p(self):
        rng = np.random.default_rng(1)
        x, y = rng.random(100), rng.random(100)
        p = permutation_test(abs_matrix(x), abs_matrix(y, "y"), 199, seed=4)
        assert p > 0.05

    def test_one_sample_rejected(self):
        one = abs_matrix([0.0])
        with pytest.raises(ValueError, match="need at least 2 samples"):
            permutation_test(one, one, 9, seed=1)

    def test_zero_permutations_rejected(self):
        x = abs_matrix([0.0, 1.0, 3.0])
        with pytest.raises(ValueError, match="need at least one permutation"):
            permutation_test(x, x, 0, seed=1)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        x, y = rng.random(30), rng.random(30)
        args = (abs_matrix(x), abs_matrix(y, "y"), 99)
        assert permutation_test(*args, seed=7) == permutation_test(*args, seed=7)

    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 129, 200])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_unblocked_oracle(self, n, seed):
        # n falls below one 64-row block, on one, just past one and two, and
        # between three and four. Integer samples tie, so some permuted dcov
        # land on the observed one, where a change in rounding flips ``>=``.
        rng = np.random.default_rng(seed)
        ints = rng.integers(0, 4, n).astype(float)
        pairs = [(abs_matrix(rng.random(n)), abs_matrix(rng.random(n), "y")),
                 (abs_matrix(ints), abs_matrix(rng.integers(0, 3, n), "y")),
                 (abs_matrix(ints), abs_matrix(ints, "y"))]
        for x, y in pairs:
            assert permutation_test(x, y, 19, seed) == permutation_p_value(x, y, 19, seed)

    def test_holds_one_product_buffer(self):
        # Two centred matrices and one n x n product, plus a 64-row gather
        # buffer: about 3.2 n^2 doubles at n = 300.
        n = 300
        rng = np.random.default_rng(3)
        x, y = abs_matrix(rng.random(n)), abs_matrix(rng.random(n), "y")
        tracemalloc.start()
        try:
            permutation_test(x, y, 2, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * n * n * 8
