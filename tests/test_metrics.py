import functools
import math

import numpy as np
import pytest

from topocorr import metrics
from topocorr.errors import ConfigurationError, NumericalFailure
from topocorr.metrics import (
    DistanceMatrix,
    diagram_prepare,
    landscape_row,
    pairwise_matrix,
    parse_metric_spec,
    pss_kernel,
    sw_prepare,
)
from topocorr.persistence import PersistenceDiagram
from topocorr.summaries import StepCurve, betti_curve, landscape_from_diagram
from topocorr.experiment import build_complex, compute_bundle
from topocorr.models import ModelSpec, derive_seed, generate
from tests.oracles import (
    bottleneck_binary_search,
    bottleneck_pair,
    brute_bottleneck,
    brute_wasserstein,
    curve_distance_pair,
    sliced_wasserstein_pair,
    sup_landscape_distance,
    sw_kernel_distance_pair,
    wasserstein_pair,
)
from tests.test_summaries import diagram


def random_diagram(rng, max_points=5):
    count = int(rng.integers(0, max_points + 1))
    pts = []
    for _ in range(count):
        b = float(rng.uniform(0, 5))
        pts.append((b, b + float(rng.uniform(0.05, 3))))
    return diagram(*pts) if pts else PersistenceDiagram(())


@functools.cache
def er_bundles(seed, count=20):
    """Degree-1 diagrams, landscapes, Betti and Euler curves and 1-cell counts
    of the first ``count`` ER n=25 samples of ``seed``."""
    metrics = tuple(parse_metric_spec(m) for m in
                    ("bottleneck", "landscape:p=1", "betti:p=1", "euler:p=1", "count1:p=1"))
    spec = ModelSpec("er", 25, seed=seed)
    return tuple(compute_bundle(build_complex("er", generate(spec, k), 2), 1, metrics)
                 for k in range(count))


def er_diagrams(seed, count=20):
    """Degree-1 diagrams of the first ``count`` ER n=25 samples of ``seed``."""
    return tuple(bundle["diagram"] for bundle in er_bundles(seed, count))


def distance(spec, a, b):
    """``spec``'s distance between two summaries, by the prepares and row of
    its matrix entries."""
    return parse_metric_spec(spec).distance(a, b)


# The per-pair bodies that each metric's row replaced.
PAIR_BODIES = {
    "wasserstein:p=1": lambda a, b: wasserstein_pair(a, b, 1.0),
    "wasserstein:p=2": lambda a, b: wasserstein_pair(a, b, 2.0),
    "bottleneck": bottleneck_pair,
    "sw": sliced_wasserstein_pair,
    "sw:lines=3": lambda a, b: sliced_wasserstein_pair(a, b, 3),
    "swk:sigma=1": lambda a, b: sw_kernel_distance_pair(a, b, 1.0),
    "swk:sigma=0.01": lambda a, b: sw_kernel_distance_pair(a, b, 0.01),
    "betti:p=1": lambda a, b: curve_distance_pair(a, b, 1.0),
    "betti:p=2": lambda a, b: curve_distance_pair(a, b, 2.0),
    "euler:p=1": lambda a, b: curve_distance_pair(a, b, 1.0),
    "euler:p=2": lambda a, b: curve_distance_pair(a, b, 2.0),
}


def assert_entries_equal_pair_bodies(spec, samples):
    """Every entry of ``spec``'s matrix over ``samples`` equals the pair's old body."""
    entries = pairwise_matrix(samples, parse_metric_spec(spec)).entries
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            assert entries[i, j] == entries[j, i] == PAIR_BODIES[spec](samples[i], samples[j])


def counted_certificates(monkeypatch):
    """A list that gains the outcome of each feasibility test (a perfect
    matching within a rank) that ``bottleneck`` runs."""
    calls, within = [], metrics._within

    def counting(rank, r):
        calls.append(within(rank, r))
        return calls[-1]

    monkeypatch.setattr("topocorr.metrics._within", counting)
    return calls


class TestRows:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("spec", PAIR_BODIES)
    def test_equal_pair_bodies_on_er_samples(self, seed, spec):
        kind = parse_metric_spec(spec).summary_kind
        assert_entries_equal_pair_bodies(spec, [bundle[kind] for bundle in er_bundles(seed)])

    @pytest.mark.parametrize("spec", ["wasserstein:p=1", "wasserstein:p=3.5", "bottleneck"])
    @pytest.mark.parametrize("limit", [1, 30, None])
    def test_entries_do_not_depend_on_blocks(self, monkeypatch, spec, limit):
        # Each pair a block of its own, a few pairs per block, or the default.
        if limit is not None:
            monkeypatch.setattr("topocorr.metrics._BLOCK_ENTRIES", limit)
        rng = np.random.default_rng(8)
        diagrams = [diagram((0, 2.5), (0.5, 1.25), (1, 4), (3, 3.5))]
        diagrams += [random_diagram(rng, 6) for _ in range(9)]
        sizes = [len(diagrams[0].points) * len(d.points) for d in diagrams[1:]]
        blocks = list(metrics._blocks(diagrams[1:], sizes, metrics._BLOCK_ENTRIES))
        assert len(blocks) >= (3 if limit else 1)
        entries = pairwise_matrix(diagrams, parse_metric_spec(spec)).entries
        p = parse_metric_spec(spec).params.get("p")
        for j, d in enumerate(diagrams[1:], 1):
            if p is None:
                assert entries[0, j] == bottleneck_pair(diagrams[0], d)
            else:
                assert entries[0, j] == wasserstein_pair(diagrams[0], d, p)

    def test_blocks_cover_the_row_in_order(self):
        assert list(metrics._blocks("abcde", [3, 1, 4, 1, 5], 5)) == [
            ["a", "b"], ["c", "d"], ["e"]]
        assert list(metrics._blocks("ab", [9, 9], 5)) == [["a"], ["b"]]
        assert list(metrics._blocks("", [], 5)) == []

    def test_identical_overflowing_pair_is_zero(self):
        # (1e200)^2 overflows, but a diagram is at 0 from itself first.
        d = diagram((0, 1e200), (1, 2))
        assert distance("wasserstein:p=2", d, d) == 0.0
        entries = pairwise_matrix([d, d, d], parse_metric_spec("wasserstein:p=2")).entries
        assert not entries.any()

    def test_overflowing_pair_in_a_row_is_numerical_failure(self):
        samples = [diagram((0, 1)), diagram((0, 1e200)), diagram((0, 2e200))]
        with pytest.raises(NumericalFailure,
                           match="^wasserstein:p=2: powered transport costs overflow$"):
            pairwise_matrix(samples, parse_metric_spec("wasserstein:p=2"))

    def test_overflowing_pairing_cost_alone_is_numerical_failure(self):
        # Both points lie near the diagonal, so only the cost of pairing them overflows.
        samples = [diagram((0, 1)), diagram((1.2e154, 1.2e154 + 1e140))]
        with pytest.raises(NumericalFailure,
                           match="^wasserstein:p=2: powered transport costs overflow$"):
            pairwise_matrix(samples, parse_metric_spec("wasserstein:p=2"))

    @pytest.mark.parametrize("spec", ["wasserstein:p=500", "landscape:p=300"])
    def test_underflowing_pair_is_numerical_failure(self, spec):
        # Every powered total of these diagrams, or of some pairs, underflows
        # to 0, so the distance would read 0.0 at a bottleneck of up to 0.12.
        metric = parse_metric_spec(spec)
        samples = [bundle[metric.summary_kind] for bundle in er_bundles(1)[:6]]
        with pytest.raises(NumericalFailure, match=f"^{spec}: powered [a-z ]+ underflows$"):
            pairwise_matrix(samples, metric)
        assert metric.distance(samples[0], samples[0]) == 0.0


# Specs that differ only in p, one family pass each.
FAMILY_PASSES = {
    "landscape": ("landscape:p=1", "landscape:p=2", "landscape:p=2.5", "landscape:p=inf"),
    "betti": ("betti:p=1", "betti:p=2"),
    "euler": ("euler:p=1", "euler:p=2"),
    "count1": ("count1:p=1", "count1:p=2"),
}


def pass_of(samples, labels):
    """The matrices of one ``pairwise_matrix`` pass of ``labels``, in order."""
    first, *others = (parse_metric_spec(label) for label in labels)
    found = {}
    mat = pairwise_matrix(samples, first, others, found)
    assert list(found) == [spec.label for spec in others]
    return [mat, *found.values()]


def assert_pass_equals_one_spec_at_a_time(labels, samples):
    """The family pass of ``labels`` over ``samples`` gives each spec the
    matrix that ``pairwise_matrix`` gives it alone."""
    mats = pass_of(samples, labels)
    assert [m.label for m in mats] == list(labels)
    for mat, label in zip(mats, labels):
        assert np.array_equal(mat.entries,
                              pairwise_matrix(samples, parse_metric_spec(label)).entries)


# For each METRICS family, the specs of one pass: a spec of its own, or for
# a shared family, several that differ only in p.
PASS_OF_FAMILY = {
    "wasserstein": ("wasserstein:p=1",), "bottleneck": ("bottleneck",),
    "pss": ("pss:sigma=1",), "sw": ("sw",), "swk": ("swk:sigma=1",),
    "landscape": ("landscape:p=1", "landscape:p=2", "landscape:p=inf"),
    "betti": FAMILY_PASSES["betti"], "euler": FAMILY_PASSES["euler"],
    "count<d>": FAMILY_PASSES["count1"],
}


class TestFamilyPass:
    @pytest.mark.parametrize("family", metrics.METRICS)
    def test_row_has_one_line_per_spec_of_its_pass(self, family):
        # (1, n) for a spec alone, (k, n) for a pass of k; each distance is its entry.
        labels = PASS_OF_FAMILY[family]
        assert (len(labels) > 1) == metrics.METRICS[family][5]
        specs = [parse_metric_spec(label) for label in labels]
        samples = [bundle[specs[0].summary_kind] for bundle in er_bundles(1)[:5]]
        prepared = [specs[0].prepare(sample) for sample in samples]
        assert specs[0].row(prepared[0], prepared[1:], specs[1:]).shape == (len(specs), 4)
        for spec, mat in zip(specs, pass_of(samples, labels)):
            assert spec.row(prepared[0], prepared[1:]).shape == (1, 4)
            for i in range(5):
                for j in range(i + 1, 5):
                    assert spec.distance(samples[i], samples[j]) == mat.entries[i, j]

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("family", FAMILY_PASSES)
    def test_equals_one_spec_at_a_time_on_er_samples(self, seed, family):
        key = parse_metric_spec(FAMILY_PASSES[family][0]).summary_kind
        assert_pass_equals_one_spec_at_a_time(
            FAMILY_PASSES[family], [bundle[key] for bundle in er_bundles(seed)])

    @pytest.mark.parametrize("limit", [1, 300])
    def test_landscape_pass_over_blocks(self, monkeypatch, limit):
        # Each pair a block of its own, or a few pairs per block.
        monkeypatch.setattr("topocorr.metrics._BLOCK_POINTS", limit)
        assert_pass_equals_one_spec_at_a_time(
            FAMILY_PASSES["landscape"], [bundle["landscape"] for bundle in er_bundles(1)])

    def test_order_of_specs_is_kept(self):
        labels = ("landscape:p=inf", "landscape:p=1", "landscape:p=2")
        assert_pass_equals_one_spec_at_a_time(
            labels, [bundle["landscape"] for bundle in er_bundles(1)[:8]])

    @pytest.mark.parametrize("first", [True, False])
    def test_underflow_names_its_spec(self, first):
        samples = [bundle["landscape"] for bundle in er_bundles(1)[:6]]
        pairwise_matrix(samples, parse_metric_spec("landscape:p=1"))  # fine alone
        labels = ["landscape:p=300", "landscape:p=1"][::1 if first else -1]
        with pytest.raises(NumericalFailure,
                           match=r"^landscape:p=300: powered landscape integral underflows$"):
            pass_of(samples, labels)

    def test_distance_that_is_not_finite_names_its_spec(self):
        # Betti curves 2 apart over a length of 1e300: 2^30 * 1e300 overflows.
        samples = [betti_curve(diagram((0, 1e300), (0, 1e300)), 1),
                   betti_curve(diagram(), 1), betti_curve(diagram(), 1)]
        pairwise_matrix(samples, parse_metric_spec("betti:p=1"))  # fine alone
        with pytest.raises(NumericalFailure, match=r"^betti:p=30: a distance is not finite$"):
            pass_of(samples, ["betti:p=1", "betti:p=30"])

    @pytest.mark.parametrize("labels, kind", [
        (FAMILY_PASSES["landscape"], "diagram"), (FAMILY_PASSES["landscape"], "betti"),
        (FAMILY_PASSES["betti"], "diagram"), (FAMILY_PASSES["euler"], "landscape")])
    def test_rejects_samples_of_another_kind(self, labels, kind):
        d = diagram((0, 2), (1, 3))
        sample = {"diagram": d, "betti": betti_curve(d, 1),
                  "landscape": landscape_from_diagram(d)}[kind]
        with pytest.raises(ValueError, match=f"^metric {labels[0]!r} does not fit samples$"):
            pass_of([sample, sample, sample], labels)

    @pytest.mark.parametrize("labels", [("wasserstein:p=1", "wasserstein:p=2"),
                                        ("landscape:p=1", "betti:p=1"),
                                        ("count1:p=1", "count2:p=1")])
    def test_rejects_specs_of_different_passes(self, labels):
        samples = [bundle["diagram"] for bundle in er_bundles(1)[:3]]
        with pytest.raises(ValueError, match="differ only in p"):
            pass_of(samples, labels)

    def test_pairwise_matrix_returns_the_others_in_found(self):
        samples = [bundle["betti"] for bundle in er_bundles(1)[:5]]
        first, *others = (parse_metric_spec(label) for label in FAMILY_PASSES["betti"])
        found = {}
        mat = pairwise_matrix(samples, first, others, found)
        assert mat.label == "betti:p=1" and list(found) == ["betti:p=2"]
        assert np.array_equal(found["betti:p=2"].entries,
                              pairwise_matrix(samples, others[0]).entries)


class TestDistanceMatrix:
    def test_validates(self):
        DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), "d")

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.1, 1.0], [1.0, 0.0]]), "d")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]), "d")


class TestDiagonalDistance:
    def test_values(self):
        # diagram_prepare's costs: L^p distances to the diagonal, to the power p.
        d = diagram((0.0, 2.0))
        assert diagram_prepare(d, 1)[1].tolist() == [2.0]
        assert diagram_prepare(d, 2)[1] == pytest.approx([math.sqrt(2) ** 2])
        assert diagram_prepare(d, math.inf)[1].tolist() == [1.0]


class TestWasserstein:
    def test_identical_diagrams(self):
        d = diagram((0, 1), (2, 5))
        assert distance("wasserstein:p=2", d, d) == 0.0

    def test_single_point_vs_empty(self):
        d = diagram((0, 2))
        empty = PersistenceDiagram(())
        assert distance("wasserstein:p=1", d, empty) == pytest.approx(2.0)
        assert distance("wasserstein:p=2", d, empty) == pytest.approx(math.sqrt(2))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            d1, d2 = random_diagram(rng), random_diagram(rng)
            for p in (1.0, 2.0, 3.0):
                assert distance(f"wasserstein:p={p}", d1, d2) == pytest.approx(
                    brute_wasserstein(d1, d2, p), abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a, b, c = (random_diagram(rng) for _ in range(3))
            for p in (1.0, 2.0):
                spec = f"wasserstein:p={p}"
                assert distance(spec, a, c) <= distance(spec, a, b) + distance(spec, b, c) + 1e-9

    def test_same_points_in_other_degrees_are_at_zero(self):
        # The points match in another order: a total of 0.0 is no underflow.
        x = PersistenceDiagram([(0, 1, 0), (2, 3, 1)])
        y = PersistenceDiagram([(2, 3, 0), (0, 1, 1)])
        assert distance("wasserstein:p=1", x, y) == 0.0


class TestBottleneck:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            d1, d2 = random_diagram(rng), random_diagram(rng)
            assert distance("bottleneck", d1, d2) == pytest.approx(
                brute_bottleneck(d1, d2), abs=1e-12)

    def test_shifted_point(self):
        assert distance("bottleneck", diagram((0, 4)), diagram((1, 4))) == 1.0

    def test_point_to_diagonal(self):
        assert distance("bottleneck", diagram((0, 4)), PersistenceDiagram(())) == 2.0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_equals_binary_search_on_er_diagrams(self, seed):
        diagrams = er_diagrams(seed)
        for i, d1 in enumerate(diagrams):
            for d2 in diagrams[i + 1:]:
                assert distance("bottleneck", d1, d2) == bottleneck_binary_search(d1, d2)

    def test_ends_at_lb_without_a_matching(self, monkeypatch):
        # The point's cheapest match, 1, is lb, and the assignment uses only it.
        calls = counted_certificates(monkeypatch)
        assert distance("bottleneck", diagram((0, 4)), diagram((1, 4))) == 1.0
        # No cost between lb and ub: lb, 2, is the all-to-diagonal cost.
        assert distance("bottleneck", diagram((0, 4)), diagram((0, 2))) == brute_bottleneck(
            diagram((0, 4)), diagram((0, 2))) == 2.0
        assert calls == []

    def test_falls_back_to_binary_search(self, monkeypatch):
        # lb is 2 and the candidates above it are 3 (rank 1) and 3.5 (rank 2).
        # The bottleneck plan pays 3 twice, (6, 9)-(5, 12) and (4, 10) to the
        # diagonal, and pairs (6, 12)-(6, 13) at 1.  The cheapest-sum plan
        # pays 3.5 once instead, (5, 12) to the diagonal, since 2^1.8 < 2 * 2^0.9.
        # So the matching at rank 1 succeeds and the search below it runs.
        d1, d2 = diagram((6, 9), (6, 12)), diagram((4, 10), (5, 12), (6, 13))
        calls = counted_certificates(monkeypatch)
        assert distance("bottleneck", d1, d2) == bottleneck_binary_search(d1, d2) == 3.0
        assert brute_bottleneck(d1, d2) == 3.0
        assert calls == [True, False]

    def test_one_certificate_per_er_pair(self, monkeypatch):
        # The weighted plan's top rank is the answer on every pair: at most
        # one feasibility test, which fails, and never the search below it.
        calls = counted_certificates(monkeypatch)
        diagrams = er_diagrams(1)
        for i, d1 in enumerate(diagrams):
            for d2 in diagrams[i + 1:]:
                calls.clear()
                distance("bottleneck", d1, d2)
                assert calls in ([], [False])


class TestLandscapeDistance:
    def test_disjoint_tents_l1(self):
        # Two unit tents, each of area 1/4.
        l1 = landscape_from_diagram(diagram((0, 1)))
        l2 = landscape_from_diagram(diagram((5, 6)))
        assert distance("landscape:p=1", l1, l2) == pytest.approx(0.5)

    def test_linf_is_max_gap(self):
        l1 = landscape_from_diagram(diagram((0, 2)))
        l2 = landscape_from_diagram(diagram((0, 4)))
        # The tents differ most at t = 2: heights 0 and 2.
        assert distance("landscape:p=inf", l1, l2) == pytest.approx(2.0)

    def test_l2_single_tent(self):
        # Integral of the tent squared over [0, 2] is 2/3... distance to zero.
        l1 = landscape_from_diagram(diagram((0, 2)))
        l2 = landscape_from_diagram(PersistenceDiagram(()))
        assert distance("landscape:p=2", l1, l2) == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_quadrature_free_crossing(self):
        # Difference changes sign; the closed-form split must stay exact.
        l1 = landscape_from_diagram(diagram((0, 2)))
        l2 = landscape_from_diagram(diagram((1, 3)))
        # |f - g| integrates to 1/2 + 1/4 + 1/4 + 1/2 over [0, 3].
        assert distance("landscape:p=1", l1, l2) == pytest.approx(1.5)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_matches_sup_definition_on_float_diagrams(self, p):
        rng = np.random.default_rng(31)
        for _ in range(40):
            d1, d2 = random_diagram(rng, 6), random_diagram(rng, 6)
            got = distance(f"landscape:p={p}", *map(landscape_from_diagram, (d1, d2)))
            assert got == pytest.approx(sup_landscape_distance(d1, d2, p), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_segment_end_below_rounding_of_the_other(self, p):
        # After the short tent ends, the difference runs from 2e-17 up to 1:
        # the lower end is below the rounding of the upper one.
        d1, d2 = diagram((0, 2)), diagram((0, 2e-17))
        got = distance(f"landscape:p={p}", *map(landscape_from_diagram, (d1, d2)))
        assert got == pytest.approx(sup_landscape_distance(d1, d2, p), rel=1e-9)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_matches_sup_definition_on_er_pair(self, p):
        # Samples 0 and 37 of ER n=25: many nearly parallel level differences.
        metrics = (parse_metric_spec(f"landscape:p={p}"),)
        bundles = [compute_bundle(build_complex("er", generate(
            ModelSpec("er", 25, seed=derive_seed(1010, 0)), k), 2), 1, metrics, 2)
            for k in (0, 37)]
        got = metrics[0].distance(bundles[0]["landscape"], bundles[1]["landscape"])
        assert got == pytest.approx(sup_landscape_distance(
            bundles[0]["diagram"], bundles[1]["diagram"], p), rel=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b, c = (landscape_from_diagram(random_diagram(rng)) for _ in range(3))
            for p in (1.0, 2.0, math.inf):
                spec = f"landscape:p={p}"
                assert distance(spec, a, c) <= distance(spec, a, b) + distance(spec, b, c) + 1e-9

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, math.inf])
    @pytest.mark.parametrize("block_points", [1, 40, None])
    def test_matrix_entries_equal_pair_distances(self, monkeypatch, p, block_points):
        # A pair's value does not depend on which landscapes share its row,
        # whether each pair is a block of its own, a few share one, or all do.
        if block_points is not None:
            monkeypatch.setattr("topocorr.metrics._BLOCK_POINTS", block_points)
        rng = np.random.default_rng(5)
        lans = [landscape_from_diagram(random_diagram(rng, 6)) for _ in range(8)]
        entries = pairwise_matrix(lans, parse_metric_spec(f"landscape:p={p}")).entries
        for i in range(8):
            for j in range(i + 1, 8):
                assert entries[i, j] == entries[j, i] == distance(
                    f"landscape:p={p}", lans[i], lans[j])

    def test_row_of_nothing_and_of_empty_landscapes(self):
        lan, empty = landscape_from_diagram(diagram((0, 2))), landscape_from_diagram(diagram())
        assert landscape_row(lan, [], [1]).shape == (1, 0)
        assert landscape_row(empty, [empty, empty], [2]).tolist() == [[0.0, 0.0]]
        assert landscape_row(empty, [lan], [math.inf]).tolist() == [[1.0]]

    @pytest.mark.parametrize("d1, d2, p", [
        (diagram((0, 40), (1, 30)), diagram((0, 10)), 400.0),
        (diagram((0, 40), (1, 30)), diagram((0, 1e200)), 2.0),
    ])
    def test_powered_integral_overflow_is_numerical_failure(self, d1, d2, p):
        with pytest.raises(NumericalFailure, match=f"p={p}"):
            distance(f"landscape:p={p}", *map(landscape_from_diagram, (d1, d2)))


class TestCurveDistance:
    def test_l1(self):
        c1 = StepCurve((0.0, 2.0), (2,))
        c2 = StepCurve((1.0, 3.0), (1,))
        assert distance("betti:p=1", c1, c2) == pytest.approx(2.0 + 1.0 + 1.0)

    def test_l2(self):
        c1 = StepCurve((0.0, 1.0), (3,))
        c2 = StepCurve((0.0, 1.0), (1,))
        assert distance("betti:p=2", c1, c2) == pytest.approx(2.0)

    def test_powered_integral_overflow_is_numerical_failure(self):
        # 2^2000 overflows; the curves differ by 2 on [1, 2).
        c1, c2 = StepCurve((0.0, 1.0, 2.0), (1, 2)), StepCurve((0.0, 1.0), (1,))
        with pytest.raises(NumericalFailure, match="p=2000"):
            distance("betti:p=2000", c1, c2)


class TestPSS:
    def test_kernel_symmetry(self):
        d1, d2 = diagram((0, 1), (1, 3)), diagram((0.5, 2))
        assert pss_kernel(d1, d2, 0.5) == pytest.approx(pss_kernel(d2, d1, 0.5))

    def test_self_distance_zero(self):
        d = diagram((0, 1), (1, 3))
        assert distance("pss:sigma=1", d, d) == 0.0

    def test_kernel_positive_for_near_diagrams(self):
        assert pss_kernel(diagram((0, 2)), diagram((0.1, 2.1)), 1.0) > 0.0

    def test_distance_positive_for_distinct(self):
        assert distance("pss:sigma=1", diagram((0, 2)), diagram((3, 5))) > 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b, c = (random_diagram(rng) for _ in range(3))
            assert distance("pss:sigma=1", a, c) <= \
                distance("pss:sigma=1", a, b) + distance("pss:sigma=1", b, c) + 1e-9

    @pytest.mark.parametrize("sigma", [0.01, 1.0])
    def test_matrix_entries_equal_three_kernels_per_pair(self, sigma):
        # Self-kernels prepared once per sample give each pair's value bit for bit.
        diagrams = er_diagrams(1)
        entries = pairwise_matrix(diagrams, parse_metric_spec(f"pss:sigma={sigma}")).entries
        for i, f in enumerate(diagrams):
            for j in range(i + 1, len(diagrams)):
                g = diagrams[j]
                radicand = (pss_kernel(f, f, sigma) + pss_kernel(g, g, sigma)
                            - 2.0 * pss_kernel(f, g, sigma))
                assert entries[i, j] == entries[j, i] == math.sqrt(max(radicand, 0.0))


class TestSlicedWasserstein:
    def test_identical_zero(self):
        d = diagram((0, 1), (2, 4))
        assert distance("sw", d, d) == 0.0

    def test_symmetry(self):
        d1, d2 = diagram((0, 1)), diagram((1, 3), (0, 2))
        assert distance("sw", d1, d2) == pytest.approx(distance("sw", d2, d1))

    def test_matches_per_line_transport(self):
        # The mean over lines of the sorted 1-D transport cost, line by line.
        d1, d2 = diagram((0, 1), (2, 5), (1, 1.5)), diagram((1, 3), (0.5, 4))
        side1 = np.concatenate([d1.pairs(), np.repeat(d2.pairs().mean(axis=1), 2).reshape(-1, 2)])
        side2 = np.concatenate([d2.pairs(), np.repeat(d1.pairs().mean(axis=1), 2).reshape(-1, 2)])
        costs = []
        for i in range(7):
            direction = np.array([math.cos(i * math.pi / 7), math.sin(i * math.pi / 7)])
            costs.append(np.abs(np.sort(side1 @ direction) - np.sort(side2 @ direction)).sum())
        assert distance("sw:lines=7", d1, d2) == pytest.approx(sum(costs) / 7, rel=1e-15)

    def test_point_projects_alike_alone_and_in_a_diagram(self):
        # Elementwise x cos + y sin: no BLAS kernel chosen by the side's size.
        rng = np.random.default_rng(4)
        d = diagram(*(sorted(rng.uniform(0, 5, 2)) for _ in range(9)))
        whole = sw_prepare(d, lines=7)
        for k, pt in enumerate(d.pairs()):
            alone = sw_prepare(diagram(pt), lines=7)
            assert np.array_equal(alone[0][:, 0], whole[0][:, k])
            assert np.array_equal(alone[1][:, 0], whole[1][:, k])

    def test_line_count_stability(self):
        # The average over equidistributed lines converges; 10 vs 500 lines
        # should already agree to a few percent.
        d1, d2 = diagram((0, 1), (2, 5)), diagram((1, 3))
        a = distance("sw:lines=10", d1, d2)
        b = distance("sw:lines=500", d1, d2)
        assert abs(a - b) / b < 0.05

    def test_kernel_distance_range(self):
        d1, d2 = diagram((0, 1)), diagram((4, 9))
        dist = distance("swk:sigma=1", d1, d2)
        assert 0.0 < dist < math.sqrt(2.0)

    def test_kernel_distance_sigma_squared_underflows(self):
        # sigma * sigma is 0.0: the sigma -> 0 limit, sqrt(2) apart and 0 on self.
        d1, d2 = diagram((0, 5), (1, 3)), diagram((0.5, 4))
        assert distance("swk:sigma=1e-200", d1, d2) == math.sqrt(2.0)
        assert distance("swk:sigma=1e-200", d1, d1) == 0.0


class TestMetricSpecs:
    def test_parse_wasserstein(self):
        spec = parse_metric_spec("wasserstein:p=2")
        assert spec.name == "wasserstein" and spec.params == {"p": 2.0}
        assert spec.summary_kind == "diagram"

    def test_parse_inf(self):
        assert parse_metric_spec("landscape:p=inf").params["p"] == math.inf

    def test_parse_swk(self):
        spec = parse_metric_spec("swk:sigma=0.01,lines=20")
        assert spec.params == {"sigma": 0.01, "lines": 20}

    def test_parse_count(self):
        spec = parse_metric_spec("count2:p=1")
        assert spec.cell_dim == 2 and spec.summary_kind == "count2"
        c1, c2 = StepCurve((0.0, 2.0), (2,)), StepCurve((1.0, 3.0), (1,))
        assert spec.distance(c1, c2) == distance("betti:p=1", c1, c2) == 4.0

    def test_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            parse_metric_spec("frobnicate:p=1")

    def test_rejects_missing_parameter(self):
        with pytest.raises(ConfigurationError):
            parse_metric_spec("wasserstein")

    @pytest.mark.parametrize("spec, key", [
        ("wasserstein:p=1,p=2", "p"), ("swk:sigma=1,lines=3,sigma=1", "sigma")])
    def test_rejects_parameter_given_twice(self, spec, key):
        # The last value used to win, under a label naming the first.
        with pytest.raises(ConfigurationError, match=f"^{key} is given twice"):
            parse_metric_spec(spec)

    def test_rejects_p_below_one(self):
        with pytest.raises(ConfigurationError):
            parse_metric_spec("wasserstein:p=0.5")

    @pytest.mark.parametrize("spec", [
        "wasserstein:p=abc", "wasserstein:p=inf", "betti:p=nan", "euler:p=inf",
        "swk:sigma=1,lines=2.5", "swk:sigma=0", "sw:lines=0", "pss:sigma=-1",
        "bottleneck:p=1", "landscape:p=1,q=2", "landscape:p", "count:p=1", "countx:p=1",
        "count<d>:p=1",
    ])
    def test_rejects_malformed_spec(self, spec):
        with pytest.raises(ConfigurationError):
            parse_metric_spec(spec)

    @pytest.mark.parametrize("spec", [
        "wasserstein:p=1", "bottleneck", "pss:sigma=1", "sw:lines=3", "swk:sigma=0.01,lines=3",
        "landscape:p=1", "landscape:p=inf", "betti:p=2", "euler:p=1", "count1:p=1"])
    def test_distance_is_the_matrix_entry(self, spec):
        # One prepare and one row give both a pair's distance and its entry.
        metric = parse_metric_spec(spec)
        samples = [bundle[metric.summary_kind] for bundle in er_bundles(1)[:8]]
        entries = pairwise_matrix(samples, metric).entries
        for i in range(8):
            for j in range(i + 1, 8):
                assert metric.distance(samples[i], samples[j]) == entries[i, j]

    def test_pairwise_matrix(self):
        rng = np.random.default_rng(1)
        diagrams = [random_diagram(rng) for _ in range(4)]
        mat = pairwise_matrix(diagrams, parse_metric_spec("wasserstein:p=1"))
        assert mat.n == 4 and mat.label == "wasserstein:p=1"
        assert mat.entries[1, 2] == pytest.approx(
            distance("wasserstein:p=1", diagrams[1], diagrams[2]))

    @pytest.mark.parametrize("spec, kind", [("landscape:p=1", "diagram"),
                                            ("landscape:p=inf", "betti"),
                                            ("wasserstein:p=1", "landscape"),
                                            ("bottleneck", "betti"),
                                            ("pss:sigma=1", "landscape"),
                                            ("sw", "landscape"),
                                            ("swk:sigma=1", "betti"),
                                            ("betti:p=1", "diagram"),
                                            ("euler:p=2", "landscape")])
    def test_pairwise_matrix_rejects_samples_of_another_kind(self, spec, kind):
        # Every prepare and every row gives the same error.
        d = diagram((0, 2), (1, 3))
        sample = {"diagram": d, "betti": betti_curve(d, 1),
                  "landscape": landscape_from_diagram(d)}[kind]
        with pytest.raises(ValueError, match="does not fit samples"):
            pairwise_matrix([sample, sample, sample], parse_metric_spec(spec))
