import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from topocorr.complexes import (
    DirectedWeightedGraph,
    FilteredComplex,
    HeightGrid,
    WeightedGraph,
    build_cubical_complex,
    build_directed_flag_complex,
    build_flag_complex,
    build_rips_complex,
)
from topocorr.errors import ParseError
from topocorr.models import gen_er, sample_cube
from tests.oracles import reference_cubical_text, reference_flag_text


def weights_from_edges(n, edges):
    w = np.zeros((n, n))
    for u, v, weight in edges:
        w[u, v] = w[v, u] = weight
    return WeightedGraph(n, w)


class TestWeightedGraph:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, np.zeros((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, np.array([[0.0, np.nan], [np.nan, 0.0]]))


class TestFlagComplex:
    def test_triangle_counts_and_values(self):
        g = weights_from_edges(3, [(0, 1, 0.2), (0, 2, 0.5), (1, 2, 0.9)])
        cx = build_flag_complex(g, 2).validate()
        dims = cx.dims.tolist()
        assert dims.count(0) == 3 and dims.count(1) == 3 and dims.count(2) == 1
        # The 2-cell enters at the largest of its edge weights.
        assert cx.values[cx.dims == 2].tolist() == [0.9]
        assert all(cx.values[cx.dims == 0] == 0.0)

    def test_faces_precede_cofaces(self):
        cx = build_flag_complex(gen_er(7, 11), 2)
        cx.validate()

    def test_max_dim_truncates(self):
        cx = build_flag_complex(gen_er(5, 3), 1)
        assert cx.dims.max() == 1

    def test_deterministic(self):
        g = gen_er(6, 5)
        assert build_flag_complex(g, 2).to_text() == build_flag_complex(g, 2).to_text()


class TestDirectedFlagComplex:
    def test_reciprocal_edges_are_distinct_cells(self):
        g = DirectedWeightedGraph.from_edges(2, [(0, 1, 0.3), (1, 0, 0.7)])
        cx = build_directed_flag_complex(g, 2).validate()
        edges = sorted(cx.values[cx.dims == 1].tolist())
        assert edges == [0.3, 0.7]

    def test_complete_digraph_triangle_count(self):
        # Every ordering of 3 vertices has all forward edges present.
        w = np.ones((3, 3))
        cx = build_directed_flag_complex(DirectedWeightedGraph(3, w), 2)
        assert np.count_nonzero(cx.dims == 2) == 6

    def test_acyclic_orientation_single_triangle(self):
        g = DirectedWeightedGraph.from_edges(
            3, [(0, 1, 0.1), (0, 2, 0.2), (1, 2, 0.3)])
        cx = build_directed_flag_complex(g, 2).validate()
        two = cx.values[cx.dims == 2]
        assert len(two) == 1 and two[0] == 0.3


class TestRipsComplex:
    def test_edge_cutoff(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        cx = build_rips_complex(pts, 2, 1.5).validate()
        assert sorted(cx.values[cx.dims == 1].tolist()) == [1.0]
        assert not any(cx.dims == 2)

    def test_triangle_value_is_diameter(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        cx = build_rips_complex(pts, 2, 10.0).validate()
        two = cx.values[cx.dims == 2]
        assert len(two) == 1
        assert two[0] == pytest.approx(np.sqrt(5.0))

    def test_random_cloud_validates(self):
        build_rips_complex(sample_cube(12, 2), 2, 0.8).validate()


class TestCubicalComplex:
    def test_single_cell(self):
        cx = build_cubical_complex(HeightGrid.from_array([[2.5]])).validate()
        dims = cx.dims.tolist()
        assert dims.count(0) == 4 and dims.count(1) == 4 and dims.count(2) == 1
        assert all(cx.values == 2.5)

    def test_euler_characteristic_is_one(self):
        grid = HeightGrid.from_array(np.arange(12.0).reshape(3, 4))
        cx = build_cubical_complex(grid).validate()
        chi = sum((-1) ** d for d in cx.dims.tolist())
        assert chi == 1

    def test_lower_cells_inherit_min(self):
        grid = HeightGrid.from_array([[1.0, 3.0]])
        cx = build_cubical_complex(grid).validate()
        # The shared interior edge enters with the lower square.
        edge_values = sorted(cx.values[cx.dims == 1].tolist())
        assert edge_values == [1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0]
        vertex_values = sorted(cx.values[cx.dims == 0].tolist())
        assert vertex_values == [1.0, 1.0, 1.0, 1.0, 3.0, 3.0]


class TestSerialization:
    def test_text_roundtrip(self):
        cx = build_flag_complex(gen_er(5, 9), 2)
        assert FilteredComplex.from_text(cx.to_text()).to_text() == cx.to_text()

    def test_malformed_line(self):
        with pytest.raises(ParseError) as err:
            FilteredComplex.from_text("0 0.0\nbogus line here\n")
        assert err.value.line == 2

    def test_face_ordering_enforced(self):
        bad = FilteredComplex(dims=[0, 1], values=[0.0, 0.5], indptr=[0, 0, 2], indices=[0, 5])
        with pytest.raises(ValueError):
            bad.validate()

    def test_face_value_monotonicity_enforced(self):
        bad = FilteredComplex(dims=[0, 0, 1], values=[1.0, 1.0, 0.5],
                              indptr=[0, 0, 0, 2], indices=[0, 1])
        with pytest.raises(ValueError):
            bad.validate()


# Fixed examples, so every run of the suite checks the same inputs.  Small
# integer values give many ties, which the construction keys must break.
checked = settings(derandomize=True, deadline=None, max_examples=60, database=None)
ties = st.integers(0, 3).map(float)
max_dims = st.integers(1, 3)


def square(draw, n, elements):
    return np.array(draw(st.lists(elements, min_size=n * n, max_size=n * n))).reshape(n, n)


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 6))
    return n, square(draw, n, ties), square(draw, n, st.booleans())


class TestAgainstReference:
    @checked
    @given(graph=digraphs(), max_dim=max_dims)
    @example(graph=(1, np.zeros((1, 1)), np.ones((1, 1), dtype=bool)), max_dim=1)
    def test_flag(self, graph, max_dim):
        n, w, _ = graph
        w = np.triu(w, 1) + np.triu(w, 1).T
        cx = build_flag_complex(WeightedGraph(n, w), max_dim)
        assert cx.to_text() == reference_flag_text(w, ~np.eye(n, dtype=bool), max_dim)

    @checked
    @given(graph=digraphs(), max_dim=max_dims)
    @example(graph=(1, np.zeros((1, 1)), np.ones((1, 1), dtype=bool)), max_dim=1)
    def test_directed_flag(self, graph, max_dim):
        n, w, present = graph
        cx = build_directed_flag_complex(DirectedWeightedGraph(n, w, present), max_dim)
        present = present & ~np.eye(n, dtype=bool)
        assert cx.to_text() == reference_flag_text(w, present, max_dim, ordered=True)

    @checked
    @given(points=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
                           max_size=7),
           max_dim=max_dims, radius=st.integers(1, 4))
    def test_rips(self, points, max_dim, radius):
        pts = np.array(points, dtype=float)
        dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=-1))
        cx = build_rips_complex(pts, max_dim, radius)
        assert cx.to_text() == reference_flag_text(dist, dist <= radius, max_dim)

    @checked
    @given(grid=st.integers(1, 4).flatmap(lambda rows: st.lists(
        st.lists(ties, min_size=rows, max_size=rows), min_size=1, max_size=4)))
    @example(grid=[[2.0]])
    def test_cubical(self, grid):
        cx = build_cubical_complex(HeightGrid.from_array(grid))
        assert cx.to_text() == reference_cubical_text(grid)
