"""Property tests of the landscape and step-curve distances on float diagrams."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from topocorr.experiment import summary_for
from topocorr.metrics import bottleneck, landscape_distance, parse_metric_spec
from topocorr.persistence import PersistenceDiagram
from topocorr.summaries import landscape_from_diagram
from tests.oracles import bar_count_distance

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


@pytest.mark.parametrize("spec", ["landscape:p=1", "landscape:p=2", "landscape:p=inf",
                                  "betti:p=1", "betti:p=2", "euler:p=1"])
@checked
@given(d1=diagrams, d2=diagrams)
def test_symmetric_and_zero_on_self(spec, d1, d2):
    assert distance(spec, d1, d2) == distance(spec, d2, d1)
    assert distance(spec, d1, d1) == 0.0


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
