import numpy as np
import pytest

from topocorr.complexes import build_directed_flag_complex
from topocorr.models import (
    ModelSpec,
    derive_seed,
    gen_directed_er,
    gen_er,
    gen_interpolated,
    generate,
    sample_cube,
    sample_torus,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_distinct_indices_differ(self):
        seeds = {derive_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_distinct_bases_differ(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)


class TestModelSpec:
    def test_gamma_required_for_interpolated(self):
        with pytest.raises(ValueError):
            ModelSpec("interpolated", 5)
        with pytest.raises(ValueError):
            ModelSpec("er", 5, gamma=0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ModelSpec("smallworld", 5)


class TestGenerators:
    def test_er_deterministic(self):
        assert np.array_equal(gen_er(10, 4).weights, gen_er(10, 4).weights)

    def test_er_weights_uniform_range(self):
        w = gen_er(30, 1).weights
        off = w[np.triu_indices(30, k=1)]
        assert np.all((off >= 0) & (off < 1))
        assert abs(off.mean() - 0.5) < 0.05

    def test_directed_er_orientations_independent(self):
        g = gen_directed_er(10, 2)
        assert not np.allclose(g.weights, g.weights.T)
        # Complete: each of the 90 ordered pairs is an edge of its flag complex.
        assert np.count_nonzero(build_directed_flag_complex(g, 1).dims == 1) == 90

    def test_torus_points_on_unit_circles(self):
        pts = sample_torus(50, 3)
        assert pts.shape == (50, 4)
        assert np.allclose(pts[:, 0] ** 2 + pts[:, 1] ** 2, 1.0)
        assert np.allclose(pts[:, 2] ** 2 + pts[:, 3] ** 2, 1.0)

    def test_cube_in_unit_box(self):
        pts = sample_cube(50, 3)
        assert pts.shape == (50, 3)
        assert np.all((pts >= 0) & (pts < 1))

    def test_interpolated_endpoints(self):
        # gamma=0 is purely geometric: weights obey the triangle inequality.
        g = gen_interpolated(8, 0.0, 5).weights
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    if len({i, j, k}) == 3:
                        assert g[i, j] <= g[i, k] + g[k, j] + 1e-12

    def test_interpolated_gamma_monotone_noise(self):
        # At gamma=1 weights are i.i.d. noise, independent of the geometry.
        a = gen_interpolated(20, 1.0, 9).weights
        b = gen_interpolated(20, 0.0, 9).weights
        assert not np.allclose(a, b)

    def test_interpolated_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            gen_interpolated(5, 1.5, 0)


class TestGenerate:
    def test_batch_samples_differ(self):
        spec = ModelSpec("er", 10, seed=0)
        assert not np.array_equal(generate(spec, 0).weights,
                                  generate(spec, 1).weights)

    def test_batch_reproducible(self):
        spec = ModelSpec("torus", 10, seed=5)
        assert np.array_equal(generate(spec, 3), generate(spec, 3))

    def test_dispatch(self):
        assert generate(ModelSpec("cube", 4, seed=0)).shape == (4, 3)
        assert generate(ModelSpec("interpolated", 4, gamma=0.3, seed=0)).n == 4
