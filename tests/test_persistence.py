import numpy as np
import pytest

from topocorr.complexes import build_flag_complex, build_rips_complex
from topocorr.models import gen_er, sample_cube
from topocorr.persistence import (
    PersistenceDiagram,
    compute_persistence,
    diagram_betti_count,
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
        assert d.pairs() == [(1.0, 2.0)]
        assert d.essential == (False,)

    def test_four_cycle_h0(self):
        d = compute_persistence(four_cycle()).restrict(0)
        # Three merges at 1 plus the essential component capped at 2.
        assert sorted(d.pairs()) == [(0.0, 1.0)] * 3 + [(0.0, 2.0)]
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
        d = compute_persistence(four_cycle(), degrees={1})
        assert d.degrees() == [1]

    def test_cap_override(self):
        d = compute_persistence(four_cycle(), cap=5.0)
        assert d.cap == 5.0
        assert (0.0, 5.0, 0) in d.points

    def test_cap_below_max_rejected(self):
        with pytest.raises(ValueError):
            compute_persistence(four_cycle(), cap=1.5)

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
            assert d1.points == d2.points

    def test_zero_persistence_dropped(self):
        cx = build_flag_complex(weights_from_edges(
            3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]), 2)
        d = compute_persistence(cx)
        assert all(b < death for b, death, _ in d.points)


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
        assert d.restrict(1).points == ((0.5, 2.0, 1),)

    def test_total_persistence_finite(self):
        d = compute_persistence(build_flag_complex(gen_er(10, 3), 2))
        total = sum(death - b for b, death, _ in d.points)
        assert np.isfinite(total)
