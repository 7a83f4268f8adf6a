"""Exact distances between topological summaries and pairwise distance matrices.

p-Wasserstein is one m x n assignment (Jonker-Volgenant) of the gains
G = min(c - dx - dy, 0), with c the powered L^p cost of pairing x_i with y_j
and dx, dy the powered costs of sending them to the diagonal; a powered cost
that overflows raises NumericalFailure.  All G <= 0, so a full assignment is
optimal, and its own cost is returned: c for pairs with G < 0, the diagonal
cost for every other point.  G ties pairings whose costs lie below the
rounding of dx + dy, so a diagram is at 0 from itself by an equality test.
Bottleneck binary-searches the costs between each point's cheapest match at
the worst point (probed first) and the all-to-diagonal cost; a threshold is
feasible when the costs within it, on the (m+n) square where
diagonal-to-diagonal moves are free, admit a perfect matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from topocorr.errors import ConfigurationError, NumericalFailure
from topocorr.persistence import PersistenceDiagram
from topocorr.summaries import PersistenceLandscape, StepCurve


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric non-negative matrix of pairwise distances with a metric label."""

    n: int
    entries: np.ndarray
    label: str

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", e)
        if e.shape != (self.n, self.n):
            raise ValueError(f"entries must be {self.n}x{self.n}")
        if not np.all(np.isfinite(e)):
            raise ValueError("entries must be finite")
        if np.any(e < 0):
            raise ValueError("entries must be non-negative")
        if np.any(np.diag(e) != 0):
            raise ValueError("diagonal must be zero")
        if not np.array_equal(e, e.T):
            raise ValueError("entries must be symmetric")


def diagonal_distance(points, p):
    """L^p distances to the diagonal of the (birth, death) rows of ``points``."""
    points = np.asarray(points, dtype=float)
    if not np.all(points[..., 0] < points[..., 1]):
        raise ValueError("birth must precede death")
    if p != math.inf and p < 1:
        raise ValueError("p must be >= 1")
    if p == math.inf:
        return (points[..., 1] - points[..., 0]) / 2.0
    return 2.0 ** (1.0 / p - 1.0) * (points[..., 1] - points[..., 0])


def wasserstein(d1: PersistenceDiagram, d2: PersistenceDiagram, p) -> float:
    """Exact p-Wasserstein distance with L^p ground metric (q = p)."""
    if p == math.inf or p < 1:
        raise ValueError("p must be finite and >= 1")
    xs, ys = d1.pairs(), d2.pairs()
    if np.array_equal(xs, ys):  # gains cannot break ties (module docstring)
        return 0.0
    with np.errstate(over="ignore"):
        cost = (np.abs(xs[:, None, 0] - ys[None, :, 0]) ** p
                + np.abs(xs[:, None, 1] - ys[None, :, 1]) ** p)
        to_x, to_y = diagonal_distance(xs, p) ** p, diagonal_distance(ys, p) ** p
    if not (np.isfinite(cost).all() and np.isfinite(to_x.sum() + to_y.sum())):
        raise NumericalFailure(f"powered transport costs overflow at p={p}")
    gain = np.minimum(cost - to_x[:, None] - to_y[None, :], 0.0)
    rows, cols = linear_sum_assignment(gain)
    paired = gain[rows, cols] < 0
    x_cost, y_left = to_x.copy(), np.ones(len(ys), dtype=bool)
    x_cost[rows[paired]], y_left[cols[paired]] = cost[rows, cols][paired], False
    return float(np.concatenate([x_cost, to_y[y_left]]).sum() ** (1.0 / p))


def bottleneck(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Exact bottleneck distance via binary search over candidate costs."""
    xs, ys = d1.pairs(), d2.pairs()
    m, n = len(xs), len(ys)
    cost = np.zeros((m + n, m + n))
    cost[:m, :n] = np.maximum(np.abs(xs[:, None, 0] - ys[None, :, 0]),
                              np.abs(xs[:, None, 1] - ys[None, :, 1]))
    cost[:m, n:] = diagonal_distance(xs, math.inf)[:, None]
    cost[m:, :n] = diagonal_distance(ys, math.inf)[None, :]
    lb = max(cost[:m].min(axis=1, initial=math.inf).max(initial=0.0),
             cost[:, :n].min(axis=0, initial=math.inf).max(initial=0.0))
    ub = max(cost[:m, n:].max(initial=0.0), cost[m:, :n].max(initial=0.0))
    # lb is a cost (or 0 for two empty diagrams), so it heads the candidates.
    candidates = np.union1d(cost[(cost > lb) & (cost <= ub)], lb)

    def feasible(threshold):
        within = cost <= threshold  # CSR from arrays: half the cost of csr_matrix(within)
        indptr = np.concatenate([[0], np.cumsum(within.sum(axis=1))]).astype(np.int32)
        graph = csr_matrix((np.ones(indptr[-1], dtype=bool),
                            within.nonzero()[1].astype(np.int32), indptr), shape=cost.shape)
        matching = maximum_bipartite_matching(graph, perm_type="column")
        return int((matching >= 0).sum()) == cost.shape[0]

    lo, hi = (0, 0) if feasible(lb) else (1, len(candidates) - 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def _lp_integral(ts, f, p):
    """Exact integral of |f|^p, with f linear between its values at ``ts``.

    On a segment of length h whose end values a, b differ in sign, f crosses
    zero and the integral is h (|a|^(p+1) + |b|^(p+1)) / ((p+1)(|a| + |b|)).
    Otherwise, with lo <= hi the end magnitudes, it is
    h (hi^(p+1) - lo^(p+1)) / ((p+1)(hi - lo)).  That quotient divides two
    rounding-level differences when lo is close to hi, so it is evaluated as
    h hi^p expm1((p+1) log1p(x)) / ((p+1) x) with x = (lo - hi) / hi; at
    x = -1 (lo = 0, or lo below hi's rounding) log1p gives -inf and the
    quotient its limit h hi^p / (p+1).
    """
    h = np.diff(ts)
    a, b = np.abs(f[:-1]), np.abs(f[1:])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (lo - hi) / hi
        one_sign = hi ** p * np.where(lo == hi, 1.0,
                                      np.expm1((p + 1) * np.log1p(x)) / ((p + 1) * x))
        crossing = (a ** (p + 1) + b ** (p + 1)) / ((p + 1) * (a + b))
    return float(np.sum(h * np.where(f[:-1] * f[1:] < 0, crossing, one_sign)))


def landscape_distance(l1: PersistenceLandscape, l2: PersistenceLandscape, p) -> float:
    """Exact L^p distance between landscapes (levelwise, then p-summed).

    Each pair of levels is compared on the union of their breakpoints, where
    their difference is linear between consecutive points.
    """
    if p != math.inf and p < 1:
        raise ValueError("p must be >= 1 or infinity")
    total = 0.0
    for k in range(1, max(l1.level_count(), l2.level_count()) + 1):
        ts = np.union1d(l1.level(k)[:, 0], l2.level(k)[:, 0])
        diff = l1.evaluate(k, ts) - l2.evaluate(k, ts)
        if p == math.inf:
            total = max(total, float(np.abs(diff).max()))
        else:
            total += _lp_integral(ts, diff, p)
    return total if p == math.inf else total ** (1.0 / p)


def curve_distance(c1: StepCurve, c2: StepCurve, p) -> float:
    """Exact L^p distance between step curves (integral over the breakpoint union)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    ts = np.union1d(c1.breakpoints, c2.breakpoints)
    diff = np.abs(c1.evaluate(ts[:-1]) - c2.evaluate(ts[:-1]))
    return float(np.sum(diff ** p * np.diff(ts))) ** (1.0 / p)


def pss_kernel(f: PersistenceDiagram, g: PersistenceDiagram, sigma: float) -> float:
    """Persistence scale space kernel (closed form of the heat solution).

    Both exponentials decay; the mirrored term subtracts the reflected mass.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    fa, ga = f.pairs(), g.pairs()
    direct = ((fa[:, None, 0] - ga[None, :, 0]) ** 2
              + (fa[:, None, 1] - ga[None, :, 1]) ** 2)
    mirrored = ((fa[:, None, 0] - ga[None, :, 1]) ** 2
                + (fa[:, None, 1] - ga[None, :, 0]) ** 2)
    s = np.exp(-direct / (8.0 * sigma)) - np.exp(-mirrored / (8.0 * sigma))
    return float(s.sum() / (8.0 * math.pi * sigma))


def pss_distance(f: PersistenceDiagram, g: PersistenceDiagram, sigma: float) -> float:
    """Kernel-induced L^2 distance for the scale space kernel."""
    radicand = pss_kernel(f, f, sigma) + pss_kernel(g, g, sigma) - 2.0 * pss_kernel(f, g, sigma)
    if radicand < -1e-12:
        raise NumericalFailure(f"kernel distance radicand {radicand} below tolerance")
    return math.sqrt(max(radicand, 0.0))


def sliced_wasserstein(d1: PersistenceDiagram, d2: PersistenceDiagram, lines: int = 10) -> float:
    """Sliced Wasserstein distance, averaged over equidistributed lines.

    The mean over angles i*pi/lines equals the circle average because
    antipodal directions give identical 1-D transport costs.
    """
    if lines < 1:
        raise ValueError("lines must be >= 1")
    p1, p2 = d1.pairs(), d2.pairs()
    diag1 = np.repeat(p1.mean(axis=1, keepdims=True), 2, axis=1)
    diag2 = np.repeat(p2.mean(axis=1, keepdims=True), 2, axis=1)
    side1 = np.concatenate([p1, diag2])
    side2 = np.concatenate([p2, diag1])
    total = 0.0
    for i in range(lines):
        theta = i * math.pi / lines
        direction = np.array([math.cos(theta), math.sin(theta)])
        a = np.sort(side1 @ direction)
        b = np.sort(side2 @ direction)
        total += float(np.abs(a - b).sum())
    return total / lines


def sw_kernel_distance(d1: PersistenceDiagram, d2: PersistenceDiagram,
                       sigma: float, lines: int = 10) -> float:
    """Distance induced by the Gaussian sliced Wasserstein kernel."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    sw = sliced_wasserstein(d1, d2, lines)
    # A sigma whose square underflows to 0 takes the sigma -> 0 limit.
    two_var = 2.0 * sigma * sigma
    radicand = 2.0 - 2.0 * (math.exp(-sw / two_var) if two_var > 0 else float(sw == 0))
    if radicand < -1e-12:
        raise NumericalFailure(f"kernel distance radicand {radicand} below tolerance")
    return math.sqrt(max(radicand, 0.0))


# A metric parameter type: (conversion from text, validity test, the rule
# that error messages state).
_FINITE_P = (float, lambda v: 1 <= v < math.inf, "a finite number >= 1")
_P = (float, lambda v: v >= 1, "a number >= 1 or inf")
_POSITIVE = (float, lambda v: 0 < v < math.inf, "a finite number > 0")
_LINES = (int, lambda v: v >= 1, "an integer >= 1")

# Metric name -> (summary kind, required parameters, optional parameters,
# distance).  Parameters map their names to their types; the distance takes
# two summaries of the kind and the parameters as keywords.  "count<d>"
# stands for count0, count1, ...: L^p between cumulative counts of d-cells.
METRICS = {
    "wasserstein": ("diagram", {"p": _FINITE_P}, {}, wasserstein),
    "bottleneck": ("diagram", {}, {}, bottleneck),
    "pss": ("diagram", {"sigma": _POSITIVE}, {}, pss_distance),
    "sw": ("diagram", {}, {"lines": _LINES}, sliced_wasserstein),
    "swk": ("diagram", {"sigma": _POSITIVE}, {"lines": _LINES}, sw_kernel_distance),
    "landscape": ("landscape", {"p": _P}, {}, landscape_distance),
    "betti": ("betti", {"p": _FINITE_P}, {}, curve_distance),
    "euler": ("euler", {"p": _FINITE_P}, {}, curve_distance),
    "count<d>": ("count", {"p": _FINITE_P}, {}, curve_distance),
}


@dataclass(frozen=True)
class MetricSpec:
    """Parsed metric spec string; ``family`` is its key in :data:`METRICS`.

    ``family`` is the name itself, or ``count<d>`` for a name ``count2``,
    whose cell dimension is then ``cell_dim`` (None for every other metric).
    """

    name: str
    params: dict
    spec: str
    family: str
    cell_dim: int | None

    @property
    def summary_kind(self):
        return METRICS[self.family][0]

    @property
    def bundle_key(self):
        """Key of the summary this metric compares in a sample bundle."""
        return self.summary_kind if self.cell_dim is None else self.name

    @property
    def label(self):
        return self.spec

    def distance(self, a, b):
        return METRICS[self.family][3](a, b, **self.params)


def _typed(text, ptype, what):
    """``text`` converted by a parameter type; ConfigurationError if it does not fit."""
    convert, valid, rule = ptype
    try:
        value = convert(text)
    except ValueError:
        value = None
    if value is None or not valid(value):
        raise ConfigurationError(f"{what} must be {rule}")
    return value


def parse_metric_spec(spec: str) -> MetricSpec:
    """Parse strings like ``wasserstein:p=1`` or ``swk:sigma=1,lines=10``."""
    spec = spec.strip()
    name, _, rest = spec.partition(":")
    name = name.strip()
    family, cell_dim = name, None
    if name.startswith("count") and name[5:].isdecimal():
        family, cell_dim = "count<d>", int(name[5:])
    if family not in METRICS or name == "count<d>":
        raise ConfigurationError(f"unknown metric {name!r}")
    _, required, optional, _ = METRICS[family]
    types = {**required, **optional}
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq:
                raise ConfigurationError(f"bad metric parameter {item!r} in {spec!r}")
            if key not in types:
                raise ConfigurationError(f"{name} takes no parameter {key!r}")
            params[key] = _typed(value.strip(), types[key], f"{key} in {spec!r}")
    for key in required:
        if key not in params:
            raise ConfigurationError(f"{name} needs {key}=")
    return MetricSpec(name, params, spec, family, cell_dim)


def pairwise_matrix(samples, metric: MetricSpec) -> DistanceMatrix:
    """Symmetric matrix of the chosen metric over a homogeneous sample list."""
    n = len(samples)
    if n < 2:
        raise ValueError("need at least 2 samples")
    entries = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            try:
                d = metric.distance(samples[i], samples[j])
            except (AttributeError, TypeError) as exc:
                raise ValueError(f"metric {metric.label!r} does not fit samples") from exc
            entries[i, j] = entries[j, i] = d
    return DistanceMatrix(n, entries, metric.label)
