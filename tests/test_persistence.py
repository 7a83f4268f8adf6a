from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from topocorr import persistence
from topocorr.complexes import HeightGrid, build_flag_complex, build_rips_complex
from topocorr.dem import synth_terrain
from topocorr.models import gen_er, sample_cube
from topocorr.persistence import (
    PersistenceDiagram,
    compute_persistence,
    diagram_betti_count,
    _coboundary,
    _elder_merges,
    persistent_betti,
)
from tests.test_complexes import weights_from_edges


def four_cycle():
    # Square edges at 1, diagonals at 2; the flag complex fills at 2.
    return build_flag_complex(weights_from_edges(
        4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0),
            (0, 2, 2.0), (1, 3, 2.0)]), 2)


class TestComputePersistence:
    def test_four_cycle_h1(self):
        d = compute_persistence(four_cycle()).restrict(1)
        assert np.array_equal(d.pairs(), [(1.0, 2.0)])
        assert d.essential.tolist() == [False]

    def test_four_cycle_h0(self):
        d = compute_persistence(four_cycle()).restrict(0)
        # Three merges at 1 plus the essential component capped at 2.
        assert np.array_equal(d.pairs(), [(0.0, 1.0)] * 3 + [(0.0, 2.0)])
        assert sum(d.essential) == 1

    def test_filled_triangle_has_no_h1(self):
        cx = build_flag_complex(weights_from_edges(
            3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]), 2)
        assert len(compute_persistence(cx).restrict(1)) == 0

    def test_h0_interval_count(self):
        g = gen_er(8, 21)
        d = compute_persistence(build_flag_complex(g, 2)).restrict(0)
        # Distinct weights: 7 merges plus one essential class survive.
        assert len(d) == 8

    def test_degree_filter(self):
        d = compute_persistence(four_cycle()).restrict(1)
        assert len(d) and np.all(d.points[:, 2] == 1)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(7)
        g = gen_er(7, 13)
        for _ in range(5):
            perm = rng.permutation(7)
            relabeled = weights_from_edges(7, [
                (perm[u], perm[v], g.weights[u, v])
                for u in range(7) for v in range(u + 1, 7)])
            d1 = compute_persistence(build_flag_complex(g, 2))
            d2 = compute_persistence(build_flag_complex(relabeled, 2))
            assert np.array_equal(d1.points, d2.points)

    def test_zero_persistence_dropped(self):
        cx = build_flag_complex(weights_from_edges(
            3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]), 2)
        d = compute_persistence(cx)
        assert all(b < death for b, death, _ in d.points)


def grid_passes(grid):
    """The (ends, apparent, skip) arguments of the two union-find passes that
    ``compute_persistence(grid)`` runs: H0, then the dual pass."""
    with mock.patch.object(persistence, "_elder_merges", wraps=_elder_merges) as spy:
        compute_persistence(grid)
    return [call.args for call in spy.call_args_list]


class TestGridSkipMask:
    # Few distinct heights, so that many cells tie, and both signed zeros.
    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(values=st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
        lambda shape: arrays(float, shape, elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0]))))
    @example(values=np.array([[2.0, 0.0, -0.0, 1.0, 0.0, -1.0, 2.0]]))
    @example(values=np.array([[2.0, 0.0, -0.0, 1.0, 0.0, -1.0, 2.0]]).T)
    def test_masked_loop_gives_the_same_kills(self, values):
        (ends, apparent, skip), (dual, dual_apparent, dual_skip) = grid_passes(
            HeightGrid.from_array(values))
        kills, killed = _elder_merges(ends, apparent), _elder_merges(dual, dual_apparent)
        assert np.array_equal(_elder_merges(ends, apparent, skip), kills)
        assert np.array_equal(_elder_merges(dual, dual_apparent, dual_skip), killed)
        # Why the masks are exact: every edge merges in exactly one pass.
        assert np.array_equal(kills >= 0, killed[::-1] < 0)

    def test_mask_covers_most_loop_edges(self):
        # A chunk of terrain at the benchmark's roughness; a dropped mask
        # would still give the right diagram, but loop over every edge.
        grid = HeightGrid.from_array(synth_terrain(65, 0.4, 0).values[:64, :64])
        for ends, apparent, skip in grid_passes(grid):
            assert np.count_nonzero(skip & ~apparent) >= 0.9 * np.count_nonzero(~apparent)


class TestCoboundary:
    @pytest.mark.parametrize("n", [6, 75])
    def test_lists_cofaces_ascending(self, n):
        # At n = 75 the face ids need more than 16 bits, so the sort is not a radix sort.
        cx = build_flag_complex(gen_er(n, 3), 2)
        assert len(cx) == (6 + 15 + 20 if n == 6 else 70_375)
        ptr, faces = cx.indptr.tolist(), cx.indices.tolist()
        cofaces = [[] for _ in range(len(cx))]
        for i in range(len(cx)):
            for f in faces[ptr[i]:ptr[i + 1]]:
                cofaces[f].append(i)
        indptr, indices = _coboundary(cx)
        assert indptr.tolist() == np.cumsum([0] + [len(c) for c in cofaces]).tolist()
        assert indices.tolist() == [i for c in cofaces for i in c]


class TestPersistentBetti:
    def test_four_cycle_grid(self):
        cx = four_cycle()
        assert persistent_betti(cx, 1.0, 1.0, 1) == 1
        assert persistent_betti(cx, 1.0, 2.0, 1) == 0
        assert persistent_betti(cx, 0.0, 0.0, 0) == 4
        assert persistent_betti(cx, 0.0, 1.0, 0) == 1
        assert persistent_betti(cx, 2.0, 2.0, 0) == 1

    def test_rejects_bad_arguments(self):
        cx = four_cycle()
        with pytest.raises(ValueError):
            persistent_betti(cx, 2.0, 1.0, 0)
        with pytest.raises(ValueError):
            persistent_betti(cx, 0.0, 1.0, -1)

    def test_matches_diagram_on_random_complexes(self):
        for seed in range(8):
            cx = build_flag_complex(gen_er(5, 100 + seed), 2)
            d = compute_persistence(cx)
            values = sorted(set(cx.values.tolist()))
            for k in (0, 1):
                for i, a in enumerate(values):
                    for b in values[i:]:
                        assert diagram_betti_count(d, a, b, k) == \
                            persistent_betti(cx, a, b, k)

    def test_matches_diagram_on_rips(self):
        cx = build_rips_complex(sample_cube(7, 5), 2, 1.0)
        d = compute_persistence(cx)
        values = sorted(set(cx.values.tolist()))
        for k in (0, 1):
            for i, a in enumerate(values):
                for b in values[i:]:
                    assert diagram_betti_count(d, a, b, k) == \
                        persistent_betti(cx, a, b, k)


class TestPersistenceDiagram:
    def test_rejects_degenerate_point(self):
        with pytest.raises(ValueError):
            PersistenceDiagram(((1.0, 1.0, 0),))

    def test_restrict(self):
        d = PersistenceDiagram(((0.0, 1.0, 0), (0.5, 2.0, 1)))
        assert np.array_equal(d.restrict(1).points, [(0.5, 2.0, 1)])

    def test_total_persistence_finite(self):
        d = compute_persistence(build_flag_complex(gen_er(10, 3), 2))
        total = sum(death - b for b, death, _ in d.points)
        assert np.isfinite(total)
