"""Exact distances between topological summaries and pairwise distance matrices.

p-Wasserstein is one m x n assignment (Jonker-Volgenant) of the gains
G = min(c - dx - dy, 0), with c the powered L^p cost of pairing x_i with y_j
and dx, dy the powered costs of sending them to the diagonal; a powered cost
that overflows raises NumericalFailure.  All G <= 0, so a full assignment is
optimal, and its own cost is returned: c for pairs with G < 0, the diagonal
cost for every other point.  G ties pairings whose costs lie below the
rounding of dx + dy, so a diagram is at 0 from itself by an equality test.
Bottleneck ranks the costs from lb, each point's cheapest match at the worst
point, to ub, the all-to-diagonal cost, on the (m+n) square with free
diagonal-to-diagonal moves.  One assignment of the weights 0 at lb, 2^(0.9
rank) above (rank clipped at 1,000) and inf above ub is a perfect matching
within some rank top; one bipartite matching at rank top - 1 certifies top or
starts a binary search below it (after Gabow and Tarjan, J. Algorithms 1988).

A landscape row compares one landscape A with a list B_0, B_1, ... in one
fixed set of array calls per block of the list: as many pairs as fit in
4,096 breakpoints (A counted once per pair), and at least one.  Every
breakpoint of a block gets the exact integer key (pair·K + level)·R + rank,
with K the most levels of any landscape in the block, R the number of
distinct t values and rank the position of its t among them; A's breakpoints
are repeated once per pair.  The merged grid is the sorted unique keys.  Each
side is evaluated there with one searchsorted and np.interp's slope formula,
0 outside its own level's support, and each grid segment inside one pair's
level is integrated exactly; the pieces are summed per pair in grid order, so
a pair's value does not depend on the rest of its block.  A powered integral
that overflows raises NumericalFailure.
"""

from __future__ import annotations

import bisect
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
    """Exact bottleneck distance from one assignment and bipartite matchings."""
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
    candidates = np.union1d(cost[(cost > lb) & (cost <= ub)], lb)  # lb (a cost, or 0) heads them
    rank = np.searchsorted(candidates, cost)  # 0 at or below lb, len(candidates) above ub
    levels = 2.0 ** (0.9 * np.minimum(np.arange(1, len(candidates)), 1000))
    weight = np.r_[0.0, levels, math.inf][rank]

    def feasible(r):
        within = rank <= r  # CSR from arrays: half the cost of csr_matrix(within)
        indptr = np.concatenate([[0], np.cumsum(within.sum(axis=1))]).astype(np.int32)
        graph = csr_matrix((np.ones(indptr[-1], dtype=bool),
                            within.nonzero()[1].astype(np.int32), indptr), shape=cost.shape)
        return (maximum_bipartite_matching(graph, perm_type="column") >= 0).all()

    top = int(rank[linear_sum_assignment(weight)].max(initial=0))
    if top and feasible(top - 1):
        top = bisect.bisect_left(range(top - 1), True, key=feasible)
    return float(candidates[top])


def _lp_pieces(ts, f, p):
    """Exact integrals of |f|^p over each segment between consecutive ``ts``,
    with f linear between its values at ``ts``.

    On a segment of length h whose end values a, b differ in sign, f crosses
    zero and the integral is h (|a|^(p+1) + |b|^(p+1)) / ((p+1)(|a| + |b|)).
    Otherwise, with lo <= hi the end magnitudes, it is
    h (hi^(p+1) - lo^(p+1)) / ((p+1)(hi - lo)).  That quotient divides two
    rounding-level differences when lo is close to hi, so it is evaluated as
    h hi^p expm1((p+1) log1p(x)) / ((p+1) x) with x = (lo - hi) / hi; at
    x = -1 (lo = 0, or lo below hi's rounding) log1p gives -inf and the
    quotient its limit h hi^p / (p+1).  A power that overflows gives inf.
    """
    h = np.diff(ts)
    a, b = np.abs(f[:-1]), np.abs(f[1:])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = (lo - hi) / hi
        one_sign = hi ** p * np.where(lo == hi, 1.0,
                                      np.expm1((p + 1) * np.log1p(x)) / ((p + 1) * x))
        crossing = (a ** (p + 1) + b ** (p + 1)) / ((p + 1) * (a + b))
        return h * np.where(f[:-1] * f[1:] < 0, crossing, one_sign)


def _evaluate(keys, ts, values, grid, grid_t, R):
    """Values at the keys ``grid`` (times ``grid_t``) of the levels whose
    sorted breakpoint keys are ``keys``; a key's level is key // R.

    A grid point takes np.interp's slope formula from the last breakpoint at
    or before it, while the next breakpoint is on the same level.  Elsewhere
    it is 0: before a level, past its end, or on its last breakpoint, where
    a landscape level ends at 0.
    """
    if not len(keys):
        return np.zeros(len(grid))
    j = np.searchsorted(keys, grid, side="right") - 1  # -1 reads the last entry: not inside
    inside = np.append(keys[1:] // R == keys[:-1] // R, False)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.diff(values) / np.diff(ts)
    return np.where(inside[j], np.append(slope, 0.0)[j] * (grid_t - ts[j]) + values[j], 0.0)


# Bound on the breakpoints (both sides, every pair) that one block of a
# landscape row merges, so that its arrays stay near 32 kB each: whole rows
# of the ER experiment (about 35k points) raised its peak RSS by 5 MiB.
_BLOCK_POINTS = 1 << 12


def landscape_row(lan: PersistenceLandscape, others, p) -> np.ndarray:
    """Exact L^p distances from ``lan`` to each landscape of ``others``
    (levelwise, then p-summed), a block of ``others`` at a time."""
    if p != math.inf and p < 1:
        raise ValueError("p must be >= 1 or infinity")
    blocks, total = [[]], 0
    for other in others:
        size = len(lan.knots) + len(other.knots)
        if blocks[-1] and total + size > _BLOCK_POINTS:
            blocks.append([])
            total = 0
        blocks[-1].append(other)
        total += size
    return np.concatenate([_landscape_block(lan, block, p) for block in blocks])


def _landscape_block(lan, others, p):
    """landscape_row on one block, in one set of array calls (module docstring)."""
    n = len(others)
    knots = np.concatenate([lan.knots, *(other.knots for other in others)])
    if not len(knots):
        return np.zeros(n)
    owner = np.repeat(np.arange(n + 1), [len(lan.knots), *(len(other.knots) for other in others)])
    t, value, level = knots[:, 0], knots[:, 1], knots[:, 2].astype(np.int64)
    ts, rank = np.unique(t, return_inverse=True)
    R, K = len(ts), int(level.max()) + 1
    # Key (pair·K + level)·R + rank, sorted like the breakpoints; lan's
    # breakpoints take pair 0 here and are shifted to every pair below.
    keys = (np.maximum(owner - 1, 0) * K + level) * R + rank
    mine = owner == 0
    a_keys, b_keys = keys[mine], keys[~mine]
    # Two sorted runs, which a stable sort merges.
    span = K * R  # keys of one pair
    grid = np.sort(np.concatenate(
        [b_keys, (a_keys[None, :] + np.arange(n)[:, None] * span).ravel()]), kind="stable")
    grid = grid[np.diff(grid, prepend=-1) != 0]  # keys are >= 0
    pair, grid_t = grid // span, ts[grid % R]
    diff = (_evaluate(a_keys, t[mine], value[mine], grid % span, grid_t, R)
            - _evaluate(b_keys, t[~mine], value[~mine], grid, grid_t, R))
    if p == math.inf:
        out = np.zeros(n)
        np.maximum.at(out, pair, np.abs(diff))
        return out
    same = grid[1:] // R == grid[:-1] // R  # segments inside one pair's level
    totals = np.bincount(pair[1:][same], weights=_lp_pieces(grid_t, diff, p)[same], minlength=n)
    if not np.isfinite(totals).all():
        raise NumericalFailure(f"powered landscape integral overflows at p={p}")
    return totals ** (1.0 / p)


def landscape_distance(l1: PersistenceLandscape, l2: PersistenceLandscape, p) -> float:
    """Exact L^p distance between landscapes: the row kernel on ``[l2]``."""
    return float(landscape_row(l1, [l2], p)[0])


def curve_distance(c1: StepCurve, c2: StepCurve, p) -> float:
    """Exact L^p distance between step curves (integral over the breakpoint union)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    ts = np.union1d(c1.breakpoints, c2.breakpoints)
    diff = np.abs(c1.evaluate(ts[:-1]) - c2.evaluate(ts[:-1]))
    with np.errstate(over="ignore"):
        total = float(np.sum(diff ** p * np.diff(ts)))
    if not math.isfinite(total):
        raise NumericalFailure(f"powered curve integral overflows at p={p}")
    return total ** (1.0 / p)


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


def pss_prepare(f: PersistenceDiagram, sigma: float):
    """``f`` with its self-kernel k(f, f), as :func:`pss_row` takes it."""
    return f, pss_kernel(f, f, sigma)


def pss_row(prepared, others, sigma: float) -> np.ndarray:
    """Kernel-induced L^2 distances from one prepared diagram to each of ``others``."""
    f, kff = prepared
    radicand = np.array([kff + kgg - 2.0 * pss_kernel(f, g, sigma) for g, kgg in others])
    if (radicand < -1e-12).any():
        raise NumericalFailure(f"kernel distance radicand {radicand.min()} below tolerance")
    return np.sqrt(np.maximum(radicand, 0.0))


def pss_distance(f: PersistenceDiagram, g: PersistenceDiagram, sigma: float) -> float:
    """Kernel-induced L^2 distance for the scale space kernel: the row on ``[g]``."""
    return float(pss_row(pss_prepare(f, sigma), [pss_prepare(g, sigma)], sigma)[0])


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
    angles = [i * math.pi / lines for i in range(lines)]
    directions = np.array([[math.cos(theta), math.sin(theta)] for theta in angles])[:, :, None]
    # A stack of one matrix-vector product per line rounds like projecting
    # line by line; one (lines, m) matrix product does not.
    a = np.sort(np.matmul(side1, directions)[..., 0], axis=1)
    b = np.sort(np.matmul(side2, directions)[..., 0], axis=1)
    # The per-line costs, summed in line order.
    return float(np.cumsum(np.abs(a - b).sum(axis=1))[-1]) / lines


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
# distance, row, prepare).  Parameters map their names to their types; the
# distance takes two summaries of the kind and the parameters as keywords.
# The row, where there is one, takes a summary, a list of summaries and the
# parameters and returns the distances from the one to each; without one, a
# row maps the distance over the list.  The prepare, where there is one, runs
# once per sample and gives the row its summaries.  "count<d>" stands for
# count0, count1, ...: L^p between cumulative counts of d-cells.
METRICS = {
    "wasserstein": ("diagram", {"p": _FINITE_P}, {}, wasserstein, None, None),
    "bottleneck": ("diagram", {}, {}, bottleneck, None, None),
    "pss": ("diagram", {"sigma": _POSITIVE}, {}, pss_distance, pss_row, pss_prepare),
    "sw": ("diagram", {}, {"lines": _LINES}, sliced_wasserstein, None, None),
    "swk": ("diagram", {"sigma": _POSITIVE}, {"lines": _LINES}, sw_kernel_distance, None, None),
    "landscape": ("landscape", {"p": _P}, {}, landscape_distance, landscape_row, None),
    "betti": ("betti", {"p": _FINITE_P}, {}, curve_distance, None, None),
    "euler": ("euler", {"p": _FINITE_P}, {}, curve_distance, None, None),
    "count<d>": ("count", {"p": _FINITE_P}, {}, curve_distance, None, None),
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

    def row(self, a, others):
        """Distances from ``a`` to each summary of ``others`` (both prepared), as an array."""
        row = METRICS[self.family][4]
        if row is None:
            return np.array([self.distance(a, b) for b in others], dtype=float)
        return row(a, others, **self.params)


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
    required, optional = METRICS[family][1:3]
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
    prepare = METRICS[metric.family][5] or (lambda sample, **params: sample)
    try:
        prepared = [prepare(sample, **metric.params) for sample in samples]
        for i in range(n - 1):
            entries[i, i + 1:] = entries[i + 1:, i] = metric.row(prepared[i], prepared[i + 1:])
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"metric {metric.label!r} does not fit samples") from exc
    return DistanceMatrix(n, entries, metric.label)
