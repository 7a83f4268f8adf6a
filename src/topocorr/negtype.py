"""Negative-type quadratic form, finite-sample violation checks, the
executable counterexample fixtures and the suite that checks their claims.

Fixture coordinates are scaled so that every square has unit side, making
within-group transport costs come out as exact powers 2^(1/p), 3^(1/p) and
4^(1/p); each fixture keeps all points far enough above the diagonal that the
optimal matchings never route through it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from topocorr.errors import NumericalFailure
from topocorr.metrics import DistanceMatrix, pairwise_matrix, parse_metric_spec
from topocorr.persistence import PersistenceDiagram
from topocorr.summaries import landscape_from_diagram


def quadratic_form(d: DistanceMatrix, weights) -> float:
    """Sum over i,j of w_i w_j d(x_i, x_j) for zero-sum point ``weights``;
    positive certifies a violation.  The sum must vanish to 1e-12 of the
    weights' absolute sum, so the check does not depend on their scale."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (d.n,):
        raise ValueError("one weight per sample required")
    if abs(w.sum()) > 1e-12 * np.abs(w).sum():
        raise ValueError("weights must sum to zero")
    return float(w @ d.entries @ w)


@dataclass(frozen=True, eq=False)
class NegTypeVerdict:
    negative_type: bool
    witness: np.ndarray | None
    worst_value: float  # largest eigenvalue of the centered matrix


def negtype_check(d: DistanceMatrix) -> NegTypeVerdict:
    """Finite-sample negative-type check via the centered spectrum.

    The matrix is of negative type iff J D J is negative semidefinite on
    centered vectors (J the centering projector).  The top eigenvalue yields
    a violation when it exceeds 1e-9 times the largest |eigenvalue|, so
    the verdict does not change when the distances are scaled; its
    eigenvector is the witness weights.
    """
    n = d.n
    j = np.eye(n) - np.ones((n, n)) / n
    with np.errstate(over="ignore", invalid="ignore"):
        centered = j @ d.entries @ j
        centered = centered / 2.0 + centered.T / 2.0  # finite wherever J D J is
    if not np.isfinite(centered).all():
        raise NumericalFailure("centered distances overflow")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(centered)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigensolver failed to converge") from exc
    worst = float(eigenvalues[-1])
    if worst > 1e-9 * np.abs(eigenvalues).max():
        return NegTypeVerdict(False, j @ eigenvectors[:, -1], worst)
    return NegTypeVerdict(True, None, worst)


def _diagram(*points) -> PersistenceDiagram:
    return PersistenceDiagram([(b, d, 1) for b, d in points])


# Unit squares above the diagonal; corners named as in the derivation notes.
_SQ1 = {"a1": (0, 4), "b1": (1, 4), "c1": (0, 3), "d1": (1, 3)}
_SQ2 = {"a2": (4, 8), "b2": (5, 8), "c2": (4, 7), "d2": (5, 7)}
_E1 = (0.5, 3.5)
_E2 = (4.5, 7.5)
# Second pair of unit squares, well separated from the first and the diagonal.
_USQ1 = {"A1": (-4, 0), "B1": (-3, 0), "C1": (-4, -1), "D1": (-3, -1)}
_USQ2 = {"A2": (-8, -4), "B2": (-7, -4), "C2": (-8, -5), "D2": (-7, -5)}
_UE1 = (-3.5, -0.5)
_UE2 = (-7.5, -4.5)


def fixture_small_p():
    """16 diagrams (x1..x8, y1..y8) and their +-1 weights.

    Each diagram pairs an edge of one unit square with a diagonal of the
    other; the family violates negative type for W_p exactly when
    p < ln(2)/ln(4/3).
    """
    edges1 = [("a1", "b1"), ("a1", "c1"), ("b1", "d1"), ("c1", "d1")]
    diag2 = [("a2", "d2"), ("b2", "c2")]
    diag1 = [("a1", "d1"), ("b1", "c1")]
    edges2 = [("a2", "b2"), ("a2", "c2"), ("b2", "d2"), ("c2", "d2")]
    pts = {**_SQ1, **_SQ2}
    diagrams = []
    # x group: square-1 edge with square-2 diagonal (order: diag-major).
    for d2 in diag2:
        for e1 in edges1:
            diagrams.append(_diagram(*(pts[k] for k in e1 + d2)))
    # y group: square-1 diagonal with square-2 edge.
    for d1 in diag1:
        for e2 in edges2:
            diagrams.append(_diagram(*(pts[k] for k in d1 + e2)))
    weights = np.array([1.0] * 8 + [-1.0] * 8)
    return diagrams, weights


def fixture_large_p():
    """32 diagrams (16 in X, 16 in Y) and +-1 weights.

    X pairs one corner from each upper-case square with the lower-case
    centers; Y pairs one corner from each lower-case square with the
    upper-case centers.  Violates negative type for p >= 2.4 and bottleneck.
    """
    diagrams = []
    for k1, k2 in itertools.product(sorted(_USQ1), sorted(_USQ2)):
        diagrams.append(_diagram(_USQ1[k1], _USQ2[k2], _E1, _E2))
    for k1, k2 in itertools.product(sorted(_SQ1), sorted(_SQ2)):
        diagrams.append(_diagram(_SQ1[k1], _SQ2[k2], _UE1, _UE2))
    weights = np.array([1.0] * 16 + [-1.0] * 16)
    return diagrams, weights


def fixture_landscape_l1():
    """Four barcodes whose L^1-landscape quadratic form is exactly zero."""
    x1 = _diagram((0, 1), (3, 4))
    x2 = _diagram((1, 2), (2, 3))
    y1 = _diagram((0, 1), (1, 2))
    y2 = _diagram((2, 3), (3, 4))
    return [x1, x2, y1, y2], np.array([1.0, 1.0, -1.0, -1.0])


def fixture_landscape_linf():
    """Six barcodes with within-group L^inf distance 1 and cross distance 0.5."""
    x1 = _diagram((0, 2), (6.5, 7.5), (8.5, 9.5), (10.5, 11.5))
    x2 = _diagram((2, 4), (6.5, 7.5), (8.5, 9.5), (10.5, 11.5))
    x3 = _diagram((4, 6), (6.5, 7.5), (8.5, 9.5), (10.5, 11.5))
    y1 = _diagram((0.5, 1.5), (2.5, 3.5), (4.5, 5.5), (6, 8))
    y2 = _diagram((0.5, 1.5), (2.5, 3.5), (4.5, 5.5), (8, 10))
    y3 = _diagram((0.5, 1.5), (2.5, 3.5), (4.5, 5.5), (10, 12))
    return [x1, x2, x3, y1, y2, y3], np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])


_SMALLP_THRESHOLD = math.log(2) / math.log(4.0 / 3.0)


def _transport(p):
    return "bottleneck" if p == math.inf else f"wasserstein:p={p!r}"


def run_negtype_suite() -> list[dict]:
    """Evaluate every counterexample fixture and compare signs to the claims:
    one case per (fixture, p, metric spec, diagrams and weights, sign)."""
    small, large = fixture_small_p(), fixture_large_p()
    cases = [("small_p", p, _transport(p), small, "+" if p < _SMALLP_THRESHOLD else "-")
             for p in (1.0, 2.0, 2.4, 2.41, 3.0, math.inf)]
    cases += [("large_p", p, _transport(p), large, "+") for p in (2.4, 2.41, 3.0, 10.0, math.inf)]
    cases += [("landscape_l1", 1.0, "landscape:p=1", fixture_landscape_l1(), "0"),
              ("landscape_linf", math.inf, "landscape:p=inf", fixture_landscape_linf(), "+")]
    results = []
    for fixture, p, spec, (diagrams, weights), expected in cases:
        metric = parse_metric_spec(spec)
        # Every fixture point is a degree-1 bar, so a diagram is its own sample.
        samples = [landscape_from_diagram(d) for d in diagrams] \
            if metric.summary_kind == "landscape" else diagrams
        form = quadratic_form(pairwise_matrix(samples, metric), weights)
        sign = "0" if abs(form) < 1e-12 else "+" if form > 0 else "-"
        results.append({"fixture": fixture, "p": p, "form": form,
                        "expected_sign": expected, "pass": sign == expected})
    return results


def format_negtype_report(results) -> str:
    lines = []
    for r in results:
        p = "inf" if r["p"] == math.inf else r["p"]
        status = "PASS" if r["pass"] else "FAIL"
        lines.append(f"{status} {r['fixture']} p={p} form={r['form']:+.9g}"
                     f" expected_sign={r['expected_sign']}")
    return "\n".join(lines) + "\n"
