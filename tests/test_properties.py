"""Property tests of the distances, the diagrams and the diagram CSV on float
inputs, and of the persistence pairing against the boundary-matrix reduction."""

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
from topocorr.experiment import DEFAULT_METRICS, summary_for
from topocorr.metrics import bottleneck, landscape_distance, parse_metric_spec, wasserstein
from topocorr.persistence import PersistenceDiagram, _persistence_pairs, compute_persistence
from topocorr.serialize import diagram_from_csv, diagram_to_csv
from topocorr.summaries import landscape_from_diagram
from tests.oracles import (
    bar_count_distance,
    brute_bottleneck,
    brute_wasserstein,
    reduce_columns,
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
    assert wasserstein(*pair, p) == pytest.approx(brute_wasserstein(*pair, p), rel=1e-12)


@checked
@given(pair=diagram_pairs)
# The lower bound is the answer: each point's cheapest match is available.
@example(pair=(degree_1([(0.0, 4.0), (1.0, 2.0)]), degree_1([(0.5, 4.25)])))
# Strictly above the lower bound: both points are nearest to (0, 4), which
# only one of them can take, so the other pays more than its cheapest match.
@example(pair=(degree_1([(0.0, 3.0), (0.25, 3.5)]), degree_1([(0.0, 4.0)])))
def test_bottleneck_matches_exhaustive_matching(pair):
    assert bottleneck(*pair) == brute_bottleneck(*pair)


@checked
@given(d1=diagrams, d2=diagrams)
def test_landscape_stability(d1, d2):
    # Bubenik (JMLR 2015): the sup distance of landscapes is at most the
    # bottleneck distance of their diagrams.
    a, b = d1.restrict(1), d2.restrict(1)
    assert landscape_distance(landscape_from_diagram(a), landscape_from_diagram(b),
                              math.inf) <= bottleneck(a, b) + 1e-12


@pytest.mark.parametrize("spec, p, degree", [("betti:p=1", 1, 1), ("betti:p=2", 2, 1),
                                             ("euler:p=1", 1, None)])
@checked
@given(d1=diagrams, d2=diagrams)
def test_curve_distance_matches_bar_counts(spec, p, degree, d1, d2):
    assert distance(spec, d1, d2) == pytest.approx(
        bar_count_distance(d1, d2, p, degree), rel=1e-12)


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
        assert bottleneck(df.restrict(k), dg.restrict(k)) <= sup_distance + 1e-12


@checked
@given(pair=st.integers(1, 6).flatmap(lambda n: perturbed_pair((n, n))))
def test_bottleneck_stability_flag(pair):
    f, g = (np.triu(w, 1) + np.triu(w, 1).T for w in pair)
    assert_bottleneck_stable(build_flag_complex(WeightedGraph(len(f), f), 2),
                             build_flag_complex(WeightedGraph(len(g), g), 2),
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
    lambda w, k: build_flag_complex(WeightedGraph(n, np.maximum(w, w.T)), k),
    arrays((n, n)), max_dims))
# Random edge masks leave several components.
directed_flag_complexes = st.integers(1, 5).flatmap(lambda n: st.builds(
    lambda w, present, k: build_directed_flag_complex(DirectedWeightedGraph(n, w, present), k),
    arrays((n, n)), arrays((n, n), st.booleans()), max_dims))
rips_complexes = st.integers(1, 6).flatmap(lambda n: st.builds(
    build_rips_complex, arrays((n, 2)), max_dims, st.sampled_from([1.0, 1.5, 2.5, 5.0])))
cubical_complexes = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: arrays(shape).map(lambda v: build_cubical_complex(HeightGrid.from_array(v))))


@settings(checked, max_examples=240)
@given(cx=st.one_of(flag_complexes, directed_flag_complexes, rips_complexes, cubical_complexes))
# A single vertex; three vertices and no edges; two components, each with an
# essential H0 bar.
@example(cx=build_flag_complex(WeightedGraph(1, [[0.0]]), 1))
@example(cx=build_rips_complex([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]], 2, 1.0))
@example(cx=build_directed_flag_complex(DirectedWeightedGraph.from_edges(
    4, [(0, 1, 1.0), (2, 3, 1.0)]), 2))
# A triangle whose faces the file lists out of order.
@example(cx=FilteredComplex.from_text(
    "0 0\n0 0\n0 0\n0 0\n1 0 0 3\n1 0 1 3\n1 0 2 3\n1 1 0 1\n1 2 1 2\n1 3 0 2\n2 4 8 9 7\n"))
def test_pairing_matches_boundary_reduction(cx):
    births, deaths, unpaired = _persistence_pairs(cx)
    pairs, creators = reduce_columns(cx)
    assert sorted(zip(births.tolist(), deaths.tolist())) == sorted(pairs)
    assert unpaired.tolist() == sorted(creators)
