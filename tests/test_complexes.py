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
    _clique_complex,
    _clique_skeleton,
    _flag_skeleton,
)
from topocorr.errors import ParseError
from topocorr.metrics import DistanceMatrix
from topocorr.models import gen_directed_er, gen_er, sample_cube
from topocorr.negtype import NegTypeVerdict
from tests.oracles import reference_cubical_text, reference_flag_text


def weights_from_edges(n, edges):
    w = np.zeros((n, n))
    for u, v, weight in edges:
        w[u, v] = w[v, u] = weight
    return WeightedGraph(w)


class TestWeightedGraph:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            WeightedGraph(np.zeros((3, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            WeightedGraph(np.array([[0.0, np.nan], [np.nan, 0.0]]))


# Each input type holds only its array, and reads its size from the shape.
square_types = {"graph": WeightedGraph, "digraph": DirectedWeightedGraph,
                "distance-matrix": lambda e: DistanceMatrix(e, "d")}
array_types = {**square_types, "grid": HeightGrid}


@pytest.mark.parametrize("make", array_types.values(), ids=array_types)
@pytest.mark.parametrize("values", [np.zeros(3), np.zeros((0, 0)), np.zeros((2, 0))],
                         ids=["1-d", "empty", "no-columns"])
def test_rejects_arrays_that_are_not_2d_and_nonempty(make, values):
    with pytest.raises(ValueError):
        make(values)


@pytest.mark.parametrize("make", square_types.values(), ids=square_types)
def test_square_types_reject_non_square(make):
    with pytest.raises(ValueError):
        make(np.zeros((2, 3)))


@pytest.mark.parametrize("make", square_types.values(), ids=square_types)
def test_n_is_the_shape(make):
    assert make(np.zeros((4, 4))).n == 4


def test_grid_sizes_are_the_shape():
    grid = HeightGrid(np.zeros((2, 5)))
    assert (grid.rows, grid.cols) == (2, 5)
    assert HeightGrid.from_array(grid.values).values.shape == (2, 5)


# Array-holding types compare and hash by identity, not by their arrays.
identity_types = {**array_types, "negtype-verdict": lambda w: NegTypeVerdict(False, w[0], 1.0)}


@pytest.mark.parametrize("make", identity_types.values(), ids=identity_types)
def test_equality_is_identity(make):
    a, b = make(np.zeros((3, 3))), make(np.zeros((3, 3)))
    assert a == a and a != b
    assert a in [b, a] and b not in [a]
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


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


def signed_zero_graph(n, seed, weights=(2.0, 1.0, 0.0, -0.0)):
    """A complete graph whose weights are drawn from ``weights`` (by default
    2, 1, 0.0 and -0.0), symmetric bit for bit."""
    upper = np.random.default_rng(seed).choice(weights, n * (n - 1) // 2)
    w, (a, b) = np.zeros((n, n)), np.triu_indices(n, 1)
    w[a, b] = w[b, a] = upper
    return WeightedGraph(w)


class TestFlagSkeleton:
    """``build_flag_complex`` and ``build_directed_flag_complex`` filter one
    cached skeleton per (n, max_dim); the Rips builder builds its own on every
    call."""

    @pytest.mark.parametrize("max_dim", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_cached_equals_uncached(self, n, max_dim):
        g = signed_zero_graph(n, 10 * n + max_dim)
        complete = np.triu(np.ones((n, n), dtype=bool), 1)
        cached = build_flag_complex(g, max_dim)
        uncached = _clique_complex(g.weights, _clique_skeleton(complete, max_dim))
        for name in ("dims", "indptr", "indices"):
            assert np.array_equal(getattr(cached, name), getattr(uncached, name))
        # Bit for bit, so a -0.0 stays a -0.0.
        assert cached.values.tobytes() == uncached.values.tobytes()
        assert cached.dims.max() == min(n - 1, max_dim)  # levels above n - 1 are empty

    def test_signed_zeros_reach_the_values(self):
        values = build_flag_complex(signed_zero_graph(9, 93), 3).values
        assert np.signbit(values[values == 0]).any() and not np.signbit(values[0])

    def test_signed_zero_ties_at_max_dim_9(self):
        # A 10-vertex clique adds 9 edges to its facet; numpy's max over 9 or
        # more columns does not keep the last of 0.0 and -0.0.
        for seed in range(20):
            g = signed_zero_graph(10, seed, weights=(0.0, -0.0))
            assert build_flag_complex(g, 9).to_text() == \
                reference_flag_text(g.weights, ~np.eye(10, dtype=bool), 9)

    def test_cached_arrays_are_read_only(self):
        for directed in (False, True):
            codes, dims, levels = _flag_skeleton(6, 2, directed)
            arrays = [codes, dims, *(array for level in levels for array in level)]
            assert len(arrays) == 8 and not any(array.flags.writeable for array in arrays)
            with pytest.raises(ValueError):
                codes[0] = 1
        assert build_flag_complex(gen_er(6, 1), 2).values.flags.writeable
        assert build_directed_flag_complex(gen_directed_er(6, 1), 2).values.flags.writeable

    def test_alternating_keys(self):
        graphs = {n: gen_er(n, n) for n in (5, 7)}
        for n, max_dim in ((5, 2), (7, 2), (5, 3), (5, 2), (7, 1), (7, 2), (5, 2)):
            g = graphs[n]
            assert build_flag_complex(g, max_dim).to_text() == \
                reference_flag_text(g.weights, ~np.eye(n, dtype=bool), max_dim)


class TestDirectedFlagComplex:
    def test_reciprocal_edges_are_distinct_cells(self):
        g = DirectedWeightedGraph([[0.0, 0.3], [0.7, 0.0]])
        cx = build_directed_flag_complex(g, 2).validate()
        edges = sorted(cx.values[cx.dims == 1].tolist())
        assert edges == [0.3, 0.7]

    def test_complete_digraph_triangle_count(self):
        # Every ordering of 3 vertices has all forward edges present.
        w = np.ones((3, 3))
        cx = build_directed_flag_complex(DirectedWeightedGraph(w), 2)
        assert np.count_nonzero(cx.dims == 2) == 6


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_the_cell(self, value):
        with pytest.raises(ValueError, match=f"cell 1: value {value} is not finite"):
            FilteredComplex.from_text(f"0 0\n0 {value}\n")

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
# integer values give many ties, which the construction keys must break;
# -0.0 ties with 0.0, and the oracles must keep the zero the builders keep.
checked = settings(derandomize=True, deadline=None, max_examples=60, database=None)
ties = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0])
max_dims = st.integers(1, 3)


def square(draw, n, elements):
    return np.array(draw(st.lists(elements, min_size=n * n, max_size=n * n))).reshape(n, n)


@st.composite
def digraphs(draw):
    """The weights of a complete digraph: its orientations of a pair differ."""
    n = draw(st.integers(1, 6))
    return n, square(draw, n, ties)


# Zero weights but edge (1, 2)'s -0.0, which the triangle (0, 1, 2) keeps.
signed_zero_triangle = (3, np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -0.0], [0.0, -0.0, 0.0]]))


class TestAgainstReference:
    @checked
    @given(graph=digraphs(), max_dim=max_dims)
    @example(graph=(1, np.zeros((1, 1))), max_dim=1)
    @example(graph=signed_zero_triangle, max_dim=2)
    def test_flag(self, graph, max_dim):
        n, w = graph
        # Mirrored bit for bit: adding the zeros of np.triu would turn -0.0 into 0.0.
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        w = np.where(upper, w, np.where(upper.T, w.T, 0.0))
        cx = build_flag_complex(WeightedGraph(w), max_dim)
        assert cx.to_text() == reference_flag_text(w, ~np.eye(n, dtype=bool), max_dim)

    @checked
    @given(graph=digraphs(), max_dim=max_dims)
    @example(graph=(1, np.zeros((1, 1))), max_dim=1)
    @example(graph=signed_zero_triangle, max_dim=2)
    def test_directed_flag(self, graph, max_dim):
        n, w = graph
        cx = build_directed_flag_complex(DirectedWeightedGraph(w), max_dim)
        assert cx.to_text() == reference_flag_text(w, ~np.eye(n, dtype=bool), max_dim,
                                                   ordered=True)

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
