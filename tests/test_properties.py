"""Property tests of the distances, the diagrams and the diagram CSV on float
inputs, of the persistence pairing against the boundary-matrix reduction, and
of grid diagrams against those of the cubical complex and of the reference one."""

import math

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
from topocorr.dem import synth_terrain
from topocorr.experiment import DEFAULT_METRICS, summary_for
from topocorr.metrics import landscape_row, pairwise_matrix, parse_metric_spec, pss_kernel
from topocorr.persistence import PersistenceDiagram, _persistence_pairs, compute_persistence
from topocorr.serialize import diagram_from_csv, diagram_to_csv
from topocorr.summaries import (
    betti_curve,
    euler_curve,
    landscape_from_diagram,
    simplex_count_curve,
)
from tests.oracles import (
    bar_count_distance,
    bottleneck_binary_search,
    bottleneck_pair,
    brute_bottleneck,
    brute_wasserstein,
    euler_from_betti,
    reduce_columns,
    reference_cubical_text,
    sup_landscape_distance,
)
from tests.test_metrics import (
    FAMILY_PASSES,
    PAIR_BODIES,
    assert_entries_equal_pair_bodies,
    assert_pass_equals_one_spec_at_a_time,
)

# Fixed examples, so every run of the suite checks the same diagrams.
checked = settings(derandomize=True, deadline=None, max_examples=60, database=None)

ends = st.floats(0.0, 10.0)
bars = st.tuples(ends, ends, st.integers(0, 2)).filter(lambda bar: bar[0] != bar[1])
diagrams = st.lists(bars, max_size=8).map(lambda bs: PersistenceDiagram(
    tuple((min(b, d), max(b, d), k) for b, d, k in bs)))


def distance(spec, d1, d2):
    """``spec``'s distance between the degree-1 summaries of two diagrams."""
    metric = parse_metric_spec(spec)
    a, b = (summary_for(metric.summary_kind, d, 1) for d in (d1, d2))
    return metric.distance(a, b)


def degree_1(points):
    """The diagram of (birth, death) ``points``, all in degree 1."""
    return PersistenceDiagram([(b, d, 1) for b, d in points])


SPECS = [*DEFAULT_METRICS, "sw"]
# Sums over the two diagrams' points in an order that depends on which comes
# first; every other metric is exactly symmetric.
SYMMETRY_REL = {"wasserstein": 1e-12, "pss": 1e-12}


@pytest.mark.parametrize("spec", SPECS)
@checked
@given(d1=diagrams, d2=diagrams)
# Points an ulp apart: at p = 2, pairing them crosswise costs less than the
# rounding of their diagonal costs, so the gains cannot tell the pairings apart.
@example(d1=degree_1([(0.0, 1.0), (0.0, 1.0000000000000002)]), d2=PersistenceDiagram(()))
def test_symmetric_and_zero_on_self(spec, d1, d2):
    rel = SYMMETRY_REL.get(parse_metric_spec(spec).name, 0.0)
    assert distance(spec, d1, d2) == pytest.approx(distance(spec, d2, d1), rel=rel, abs=0.0)
    assert distance(spec, d1, d1) == 0.0


@pytest.mark.parametrize("spec", SPECS)
@checked
@given(d1=diagrams, d2=diagrams, d3=diagrams)
def test_triangle_inequality(spec, d1, d2, d3):
    ab, bc = distance(spec, d1, d2), distance(spec, d2, d3)
    assert distance(spec, d1, d3) <= ab + bc + 1e-12 * (ab + bc) + 1e-12


# Pairs of diagrams of 0-6 float points, drawn mostly from a shared pool so
# that points repeat within and across the two diagrams.
points = st.tuples(ends, ends).filter(lambda bd: bd[0] != bd[1]).map(sorted)


def diagram_pair(pool):
    side = st.lists(st.sampled_from(pool) | points, max_size=6).map(degree_1)
    return st.tuples(side, side)


diagram_pairs = st.lists(points, min_size=1, max_size=6).flatmap(diagram_pair)


@pytest.mark.parametrize("p", [1, 2, 3.5])
@checked
@given(pair=diagram_pairs)
def test_wasserstein_matches_exhaustive_matching(p, pair):
    assert distance(f"wasserstein:p={p}", *pair) == pytest.approx(
        brute_wasserstein(*pair, p), rel=1e-12)


@checked
@given(pair=diagram_pairs)
# The lower bound is the answer: each point's cheapest match is available.
@example(pair=(degree_1([(0.0, 4.0), (1.0, 2.0)]), degree_1([(0.5, 4.25)])))
# Strictly above the lower bound: both points are nearest to (0, 4), which
# only one of them can take, so the other pays more than its cheapest match.
@example(pair=(degree_1([(0.0, 3.0), (0.25, 3.5)]), degree_1([(0.0, 4.0)])))
def test_bottleneck_matches_exhaustive_matching(pair):
    assert distance("bottleneck", *pair) == brute_bottleneck(*pair)


# Rows of 2-4 diagrams of 0-6 points with integer ends in [0, 6], so that
# costs tie at lb, inside (lb, ub] and at ub.
int_points = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
    lambda bd: bd[0] != bd[1]).map(sorted)
int_rows = st.lists(st.lists(int_points, max_size=6).map(degree_1), min_size=2, max_size=4)


@checked
@given(row=int_rows)
@example(row=[degree_1([(0, 2), (1, 5)]), degree_1([])])
@example(row=[degree_1([]), degree_1([])])
@example(row=[degree_1([(0, 2), (1, 5), (1, 5)])] * 2)
def test_bottleneck_on_tied_costs(row):
    assert distance("bottleneck", row[0], row[1]) == brute_bottleneck(row[0], row[1])
    assert distance("bottleneck", row[0], row[1]) == bottleneck_binary_search(row[0], row[1])
    entries = pairwise_matrix(row, parse_metric_spec("bottleneck")).entries
    for j in range(1, len(row)):
        assert entries[0, j] == bottleneck_pair(row[0], row[j])


def diagram_row(pool):
    side = st.lists(st.sampled_from(pool) | points, max_size=6).map(degree_1)
    return st.lists(side, min_size=2, max_size=5)


# Rows of 2-5 diagrams of 0-6 float points, drawn mostly from a shared pool,
# so that bars and breakpoints repeat within and across the diagrams.
diagram_rows = st.lists(points, min_size=1, max_size=6).flatmap(diagram_row)


@pytest.mark.parametrize("p", [1, 2, 3.5, math.inf])
@checked
@given(row=diagram_rows)
# Empty landscapes on either side, and rows of different level counts.
@example(row=[degree_1([]), degree_1([(0.0, 4.0), (1.0, 3.0)]), degree_1([])])
@example(row=[degree_1([(0.0, 4.0), (1.0, 3.0), (2.0, 5.0)]), degree_1([]),
              degree_1([(0.0, 2.0)]), degree_1([(0.0, 4.0), (1.0, 3.0)])])
# One landscape of the row ends where the next begins: no slope across them.
@example(row=[degree_1([(0.0, 2.0)]), degree_1([(0.0, 1.0)]), degree_1([(1.0, 2.0)])])
# A tent of height 1e-8: a feature far below the unit scale keeps its breakpoints.
@example(row=[degree_1([(0.0, 2e-8)]), degree_1([])])
def test_landscape_row_matches_sup_definition(p, row):
    lans = [landscape_from_diagram(d) for d in row]
    got = landscape_row(lans[0], lans[1:], [p])[0]
    assert got.shape == (len(row) - 1,)
    for d, value in zip(row[1:], got):
        assert value == pytest.approx(sup_landscape_distance(row[0], d, p), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("family", ["landscape", "betti", "euler"])
@checked
@given(row=diagram_rows)
# Empty diagrams, and identical samples.
@example(row=[degree_1([]), degree_1([(0.0, 4.0), (1.0, 3.0)]), degree_1([])])
@example(row=[degree_1([]), degree_1([])])
@example(row=[degree_1([(0.0, 2.0), (1.0, 3.0)])] * 3)
def test_family_pass_equals_one_spec_at_a_time(family, row):
    assert_pass_equals_one_spec_at_a_time(
        FAMILY_PASSES[family], [summary_for(family, d, 1) for d in row])


# Ends of 0 or at least 2^-900, so that scaling by 2^-60 stays normal.
scalable_ends = st.just(0.0) | st.floats(2.0 ** -900, 10.0)
scalable_diagrams = st.lists(st.tuples(scalable_ends, scalable_ends).filter(
    lambda bd: bd[0] != bd[1]).map(sorted), max_size=8).map(degree_1)


@checked
@given(d=scalable_diagrams, k=st.integers(-60, 60))
@example(d=degree_1([(0.0, 4.0), (1.0, 3.0), (2.0, 5.0)]), k=-40)
def test_landscape_scales_with_its_diagram(d, k):
    # Landscapes have no unit: scaling the diagram by 2^k scales t and value
    # by 2^k, exactly, and keeps every breakpoint.
    scaled = PersistenceDiagram(d.points * (2.0 ** k, 2.0 ** k, 1.0))
    expected = landscape_from_diagram(d).knots * (2.0 ** k, 2.0 ** k, 1.0)
    assert np.array_equal(landscape_from_diagram(scaled).knots, expected)


@pytest.mark.parametrize("sigma", [1e-5, 0.01, 1.0])
@checked
@given(row=diagram_rows)
def test_pss_gram_matrix_is_positive_semidefinite(sigma, row):
    # The kernel is positive definite (Reininghaus et al., CVPR 2015), so a
    # distance's radicand is a squared norm; rounding is all that can make it negative.
    gram = np.array([[pss_kernel(f, g, sigma) for g in row] for f in row])
    eigenvalues = np.linalg.eigvalsh(gram)
    assert eigenvalues.min() >= -1e-9 * np.abs(eigenvalues).max()


@pytest.mark.parametrize("spec", PAIR_BODIES)
@checked
@given(row=diagram_rows)
# Empty diagrams, single points and identical diagrams.
@example(row=[degree_1([]), degree_1([(0.1, 0.7)]), degree_1([]), degree_1([(0.1, 0.7)])])
@example(row=[degree_1([(2.0, 9.3)]), degree_1([(0.3, 1.0), (2.0, 9.3)]), degree_1([(0.3, 1.0)])])
def test_rows_equal_pair_bodies(spec, row):
    kind = parse_metric_spec(spec).summary_kind
    assert_entries_equal_pair_bodies(spec, [summary_for(kind, d, 1) for d in row])


@checked
@given(d1=diagrams, d2=diagrams)
def test_landscape_stability(d1, d2):
    # Bubenik (JMLR 2015): the sup distance of landscapes is at most the
    # bottleneck distance of their diagrams.
    assert distance("landscape:p=inf", d1, d2) <= distance("bottleneck", d1, d2) + 1e-12


@pytest.mark.parametrize("spec, p, degree", [("betti:p=1", 1, 1), ("betti:p=2", 2, 1),
                                             ("euler:p=1", 1, None)])
@checked
@given(d1=diagrams, d2=diagrams)
def test_curve_distance_matches_bar_counts(spec, p, degree, d1, d2):
    assert distance(spec, d1, d2) == pytest.approx(
        bar_count_distance(d1, d2, p, degree), rel=1e-12)


# Degrees 0-3 and ends that often tie, within a degree and across degrees.
tied_ends = st.sampled_from([0.0, 0.5, 1.0, 2.5]) | ends
tied_diagrams = st.lists(st.tuples(tied_ends, tied_ends, st.integers(0, 3)).filter(
    lambda bar: bar[0] != bar[1]), max_size=10).map(lambda bs: PersistenceDiagram(
        tuple((min(b, d), max(b, d), k) for b, d, k in bs)))


@checked
@given(d=tied_diagrams)
@example(d=PersistenceDiagram(()))
@example(d=PersistenceDiagram([(0.0, 1.0, 2), (0.0, 1.0, 2), (1.0, 2.5, 2)]))
# An H0 and an H1 bar cancel; an H3 bar starts where they end.
@example(d=PersistenceDiagram([(0.0, 1.0, 0), (0.0, 1.0, 1), (1.0, 2.5, 3)]))
def test_euler_curve_is_alternating_betti_sum(d):
    chi = euler_curve(d)
    expected = euler_from_betti([betti_curve(d, k) for k in range(4)])
    assert chi.breakpoints.tolist() == expected.breakpoints.tolist()
    assert chi.values.tolist() == expected.values.tolist()


def perturbed_pair(shape):
    """Two float arrays of ``shape`` with entries in [0, 10], the second the
    first moved by at most 1 in each entry."""
    size = math.prod(shape)

    def pair(f, delta):
        f = np.reshape(f, shape)
        return f, np.clip(f + np.reshape(delta, shape), 0.0, 10.0)

    return st.builds(pair, st.lists(ends, min_size=size, max_size=size),
                     st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))


def assert_bottleneck_stable(cx_f, cx_g, sup_distance):
    # Cohen-Steiner, Edelsbrunner and Harer (DCG 2007): in each degree, the
    # bottleneck distance of the diagrams of two filtrations of one complex
    # is at most the sup distance of the filtrations.
    df, dg = compute_persistence(cx_f), compute_persistence(cx_g)
    for k in range(3):
        bottleneck = parse_metric_spec("bottleneck").distance(df.restrict(k), dg.restrict(k))
        assert bottleneck <= sup_distance + 1e-12


@checked
@given(pair=st.integers(1, 6).flatmap(lambda n: perturbed_pair((n, n))))
def test_bottleneck_stability_flag(pair):
    f, g = (np.triu(w, 1) + np.triu(w, 1).T for w in pair)
    assert_bottleneck_stable(build_flag_complex(WeightedGraph(f), 2),
                             build_flag_complex(WeightedGraph(g), 2),
                             np.abs(f - g).max())


@checked
@given(pair=st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(perturbed_pair))
def test_bottleneck_stability_cubical(pair):
    f, g = pair
    assert_bottleneck_stable(build_cubical_complex(HeightGrid.from_array(f)),
                             build_cubical_complex(HeightGrid.from_array(g)),
                             np.abs(f - g).max())


@checked
@given(d=diagrams, data=st.data())
def test_diagram_csv_roundtrip(d, data):
    flags = data.draw(st.lists(st.booleans(), min_size=len(d), max_size=len(d)))
    d = PersistenceDiagram(d.points, essential=flags)
    back = diagram_from_csv(diagram_to_csv(d))
    assert np.array_equal(back.points, d.points)
    assert np.array_equal(back.essential, d.essential)


# Filtration values 0-3, so that many cells tie, and max_dim 1-3, so that the
# cohomology pass runs in degrees 1 and 2.
levels = st.integers(0, 3).map(float)
max_dims = st.integers(1, 3)


def arrays(shape, elements=levels):
    size = math.prod(shape)
    return st.lists(elements, min_size=size, max_size=size).map(
        lambda xs: np.reshape(xs, shape))


flag_complexes = st.integers(1, 6).flatmap(lambda n: st.builds(
    lambda w, k: build_flag_complex(WeightedGraph(np.maximum(w, w.T)), k),
    arrays((n, n)), max_dims))
directed_flag_complexes = st.integers(1, 5).flatmap(lambda n: st.builds(
    lambda w, k: build_directed_flag_complex(DirectedWeightedGraph(w), k),
    arrays((n, n)), max_dims))
rips_complexes = st.integers(1, 6).flatmap(lambda n: st.builds(
    build_rips_complex, arrays((n, 2)), max_dims, st.sampled_from([1.0, 1.5, 2.5, 5.0])))
cubical_complexes = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: arrays(shape).map(lambda v: build_cubical_complex(HeightGrid.from_array(v))))


@settings(checked, max_examples=240)
@given(cx=st.one_of(flag_complexes, directed_flag_complexes, rips_complexes, cubical_complexes))
# A single vertex; three vertices and no edges, each with an essential H0 bar.
@example(cx=build_flag_complex(WeightedGraph([[0.0]]), 1))
@example(cx=build_rips_complex([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]], 2, 1.0))
# A triangle whose faces the file lists out of order.
@example(cx=FilteredComplex.from_text(
    "0 0\n0 0\n0 0\n0 0\n1 0 0 3\n1 0 1 3\n1 0 2 3\n1 1 0 1\n1 2 1 2\n1 3 0 2\n2 4 8 9 7\n"))
def test_pairing_matches_boundary_reduction(cx):
    births, deaths, unpaired = _persistence_pairs(cx)
    pairs, creators = reduce_columns(cx)
    assert sorted(zip(births.tolist(), deaths.tolist())) == sorted(pairs)
    assert unpaired.tolist() == sorted(creators)


def assert_same_bytes(d1, d2):
    assert d1.points.tobytes() == d2.points.tobytes()
    assert d1.essential.tobytes() == d2.essential.tobytes()


# Few distinct heights, so that many cells tie, and both signed zeros, which
# compare equal but differ in their bytes.
tied_grids = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
    lambda shape: arrays(shape, st.sampled_from([-0.0, 0.0, 1.0, -1.0])))


@settings(checked, max_examples=240)
@given(values=tied_grids)
@example(values=np.array([[-0.0]]))
@example(values=np.array([[0.0, -0.0]]))
# The essential bar ends at the first maximal cell, so its end takes that
# cell's sign: -0.0 here, then 0.0.
@example(values=np.array([[-1.0, 0.0, -0.0]]))
@example(values=np.array([[-1.0, -0.0, 0.0]]))
@example(values=np.full((3, 4), 2.0))
@example(values=np.array([[0.0, -0.0, 1.0, -0.0, 0.0, 2.0, -1.5]]))
# A ring of 1s around a 5: the hole is one finite H1 bar, (1, 5).
@example(values=np.array([[1.0, 1.0, 1.0], [1.0, 5.0, 1.0], [1.0, 1.0, 1.0]]))
def test_grid_diagram_matches_cubical_complex(values):
    grid = HeightGrid.from_array(values)
    assert_same_bytes(compute_persistence(grid), compute_persistence(build_cubical_complex(grid)))


@settings(checked, max_examples=240)
@given(values=tied_grids)
@example(values=np.array([[-1.0, 0.0, -0.0]]))
@example(values=np.array([[1.0, 1.0, 1.0], [1.0, 5.0, 1.0], [1.0, 1.0, 1.0]]))
def test_grid_diagram_matches_reference_complex(values):
    # The reference lists every cell of the lattice one by one, apart from the
    # walk that both the grid pairing and build_cubical_complex read.
    reference = FilteredComplex.from_text(reference_cubical_text(values.tolist()))
    assert_same_bytes(compute_persistence(HeightGrid.from_array(values)),
                      compute_persistence(reference))


@settings(checked, max_examples=240)
@given(values=tied_grids)
@example(values=np.array([[-0.0]]))
@example(values=np.array([[0.0, -0.0], [-0.0, 0.0]]))
@example(values=np.array([[-1.0, 0.0, -0.0]]))
def test_grid_count_curves_match_cubical_complex(values):
    # A grid's cells are read from its lattice walk, a complex's from its
    # filtration order: equal curves, the sign of a zero breakpoint aside.
    grid = HeightGrid.from_array(values)
    for dim in range(4):
        got, want = (simplex_count_curve(source, dim)
                     for source in (grid, build_cubical_complex(grid)))
        assert np.array_equal(got.breakpoints, want.breakpoints)
        assert np.array_equal(got.values, want.values)


def test_wide_ranks_match_cubical_complex():
    # 257 x 257 squares: their ranks need more than 16 bits, so the rank
    # sorts are not radix sorts.
    grid = synth_terrain(257, 0.4, 0)
    assert grid.rows * grid.cols > np.iinfo(np.uint16).max
    assert_same_bytes(compute_persistence(grid), compute_persistence(build_cubical_complex(grid)))
