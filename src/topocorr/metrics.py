"""Exact distances between topological summaries and pairwise distance matrices.

A metric's row gives the distances from one summary to a list of others,
all prepared once per sample; a pair's distance, :meth:`MetricSpec.distance`,
is the row on a list of one.  :func:`parse_metric_spec` checks parameters
once and fills in optional defaults, so a default spelled out is the same
spec.  :meth:`MetricSpec.row` raises NumericalFailure naming the spec when a
distance is not finite or a row fails; prepares and rows let overflow reach
that check silently.  Diagram rows broadcast the costs to a block of the
list at a time (as many diagrams as fit 8,192 cross entries, and at least
one) and solve each pair's assignment apart.

p-Wasserstein is one m x n assignment (Jonker-Volgenant) of the gains
G = min(c - dx - dy, 0), with c the powered L^p cost of pairing x_i with y_j
and dx, dy the powered costs of sending them to the diagonal; a powered cost
that overflows raises NumericalFailure before the assignment, and so does a
powered total of differing diagrams under the smallest normal float.  All
G <= 0, so a full assignment is optimal, and its own cost is returned: c for
pairs with G < 0, the diagonal cost for every other point.  G ties pairings
whose costs lie below the rounding of dx + dy, so a diagram is at 0 from
itself by an equality test.
Bottleneck ranks the costs from lb, each point's cheapest match at the worst
point, to ub, the all-to-diagonal cost, on the (m+n) square with free
diagonal-to-diagonal moves; only the m x n block and the two diagonal vectors
that the square repeats are ranked, by one argsort of those in (lb, ub] (with
none, lb = ub).  One assignment of the weights 0 at lb, 2^(0.9 rank) above
(rank clipped at 1,000) and inf above ub is a perfect matching within some
rank top; a 0/1 assignment of rank > r totals 0 exactly when one exists
within rank r, and at r = top - 1 it certifies top or starts a binary search
below it (Gabow and Tarjan 1988).

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
of differing landscapes under the smallest normal float raises NumericalFailure.
A landscape row takes a list of p and builds the grid and the differences
once for all of them.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from topocorr.complexes import _finite_matrix
from topocorr.errors import ConfigurationError, NumericalFailure
from topocorr.persistence import PersistenceDiagram
from topocorr.summaries import PersistenceLandscape, StepCurve


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric non-negative matrix of pairwise distances with a metric label."""

    entries: np.ndarray
    label: str

    def __post_init__(self):
        e = _finite_matrix(self.entries, "entries")
        object.__setattr__(self, "entries", e)
        if np.any(e < 0):
            raise ValueError("entries must be non-negative")
        if np.any(np.diag(e) != 0):
            raise ValueError("diagonal must be zero")
        if not np.array_equal(e, e.T):
            raise ValueError("entries must be symmetric")

    @property
    def n(self):
        return len(self.entries)


# Bounds on one block of a row: the breakpoints a landscape block merges
# (both sides, every pair) and the entries of a diagram block's cost
# matrices.  Whole landscape rows raised the ER experiment's peak RSS by
# 5 MiB, whole diagram rows the gamma sweep's by 3 MiB (and 16,384-entry
# blocks by 1 MiB, 8,192-entry ones by 0.3 MiB, at the same speed).
_BLOCK_POINTS = 1 << 12
_BLOCK_ENTRIES = 1 << 13
_TINY = np.finfo(float).tiny  # the smallest normal float


def _blocks(items, sizes, limit):
    """Consecutive runs of ``items``: one item, or items whose ``sizes`` sum
    to at most ``limit``."""
    block, total = [], 0
    for item, size in zip(items, sizes):
        if block and total + size > limit:
            yield block
            block, total = [], 0
        block.append(item)
        total += size
    if block:
        yield block


def _cross(xs, others):
    """Each block of the prepared diagrams ``others``, with its diagonal costs,
    where each of its diagrams' columns start (then end), and the birth and
    death distances from the points ``xs`` to its points."""
    for block in _blocks(others, [len(xs) * len(ys) for ys, *_ in others], _BLOCK_ENTRIES):
        ys, to_ys = (np.concatenate([item[k] for item in block]) for k in (0, 1))
        yield (block, to_ys, np.cumsum([0] + [len(item[0]) for item in block]),
               np.abs(xs[:, None, 0] - ys[None, :, 0]), np.abs(xs[:, None, 1] - ys[None, :, 1]))


def diagram_prepare(d: PersistenceDiagram, p=math.inf):
    """``d``'s (birth, death) rows, their L^p distances to the diagonal,
    (death - birth) / 2 at p = inf and 2^(1/p - 1) (death - birth) otherwise,
    and the L^p norm of those, each raised to the power p when p is finite."""
    pairs = d.pairs()
    if p == math.inf:
        costs = (pairs[:, 1] - pairs[:, 0]) / 2.0
        return pairs, costs, costs.max(initial=0.0)
    costs = (2.0 ** (1.0 / p - 1.0) * (pairs[:, 1] - pairs[:, 0])) ** p
    return pairs, costs, costs.sum()


def wasserstein_row(prepared, others, p) -> np.ndarray:
    """Exact p-Wasserstein distances (L^p ground metric, q = p) from one
    prepared diagram to each of ``others``."""
    (xs, to_x, x_total), out = prepared, []
    for block, to_ys, starts, db, dd in _cross(xs, others):
        costs = db ** p + dd ** p
        gains = np.minimum(costs - to_x[:, None] - to_ys[None, :], 0.0)
        for (ys, to_y, total), s, e in zip(block, starts, starts[1:]):
            if np.array_equal(xs, ys):  # gains cannot break ties (module docstring)
                out.append(0.0)
                continue
            cost, gain = costs[:, s:e], gains[:, s:e]
            if not (np.isfinite(x_total + total) and np.isfinite(cost).all()):
                raise NumericalFailure("powered transport costs overflow")
            rows, cols = linear_sum_assignment(gain)
            paired = gain[rows, cols] < 0
            x_cost, y_left = to_x.copy(), np.ones(len(ys), dtype=bool)
            x_cost[rows[paired]], y_left[cols[paired]] = cost[rows, cols][paired], False
            powered = np.concatenate([x_cost, to_y[y_left]]).sum()
            # The points of diagrams of several degrees may match in another order.
            if powered < _TINY and not np.array_equal(
                    *(z[np.lexsort(z.T)] for z in (xs, ys))):
                raise NumericalFailure("powered transport total underflows")
            out.append(float(powered ** (1.0 / p)))
    return np.array(out)


_WEIGHTS = np.append(0.0, 2.0 ** (0.9 * np.arange(1, 1001)))  # by rank: 0 at lb, 2^(0.9 rank)


def _within(rank, r):
    """Whether the square ``rank`` holds a perfect matching of entries at
    most r: an assignment of the 0/1 costs rank > r that totals 0."""
    over = rank > r
    return not over[linear_sum_assignment(over)].any()


def bottleneck_row(prepared, others) -> np.ndarray:
    """Exact bottleneck distances from one prepared diagram to each of ``others``."""
    (xs, dx, x_max), m, out = prepared, len(prepared[0]), []
    for block, _, starts, db, dd in _cross(xs, others):
        whole = np.maximum(db, dd)
        for (_, dy, y_max), s, n in zip(block, starts, np.diff(starts)):
            pair = whole[:, s:s + n]
            lb = max(np.minimum(pair.min(axis=1, initial=math.inf), dx).max(initial=0.0),
                     np.minimum(pair.min(axis=0, initial=math.inf), dy).max(initial=0.0))
            costs = np.concatenate([pair.ravel(), dx, dy])  # the square's, but its 0s
            mid = np.flatnonzero((costs > lb) & (costs <= max(x_max, y_max)))
            if not len(mid):  # lb = ub: the all-to-diagonal matching is within lb
                out.append(lb)
                continue
            order = mid[costs[mid].argsort()]
            ranked = costs[order]  # the costs in (lb, ub], sorted
            # Dense ranks: 0 up to lb, from 1 in (lb, ub], and K, the candidate count, past ub.
            rank_of = np.cumsum(ranked > np.concatenate([[lb], ranked[:-1]]))
            K = int(rank_of[-1]) + 1
            ranks = np.where(costs > lb, K, 0)
            ranks[order] = rank_of
            rank = np.zeros((m + n, m + n), dtype=np.intp)
            rank[:m, :n], rank[:m, n:], rank[m:, :n] = (
                ranks[:m * n].reshape(m, n), ranks[m * n:m * n + m, None], ranks[m * n + m:])
            weight = np.append(_WEIGHTS[np.minimum(np.arange(K), 1000)], math.inf)[rank]
            top = int(rank[linear_sum_assignment(weight)].max(initial=0))
            if top and _within(rank, top - 1):
                top = bisect.bisect_left(range(top - 1), True, key=lambda r: _within(rank, r))
            out.append(float(ranked[rank_of.searchsorted(top)]) if top else lb)
    return np.array(out)


def _lp_pieces(ts, f, ps):
    """Exact integrals of |f|^p over each segment between consecutive ``ts``,
    with f linear between its values at ``ts``, for each p of ``ps``.

    On a segment of length h whose end values a, b differ in sign, f crosses
    zero and the integral is h (|a|^(p+1) + |b|^(p+1)) / ((p+1)(|a| + |b|)).
    Otherwise, with lo <= hi the end magnitudes, it is
    h (hi^(p+1) - lo^(p+1)) / ((p+1)(hi - lo)).  That quotient divides two
    rounding-level differences when lo is close to hi, so it is evaluated as
    h hi^p expm1((p+1) log1p(x)) / ((p+1) x) with x = (lo - hi) / hi; at
    x = -1 (lo = 0, or lo below hi's rounding) log1p gives -inf and the
    quotient its limit h hi^p / (p+1).  A power that overflows gives inf.
    Every part that does not read p is computed once.
    """
    h = np.diff(ts)
    a, b = np.abs(f[:-1]), np.abs(f[1:])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = (lo - hi) / hi
        log, even, crossed, ab = np.log1p(x), lo == hi, f[:-1] * f[1:] < 0, a + b
        pieces = []
        for p in ps:
            one_sign = hi ** p * np.where(even, 1.0, np.expm1((p + 1) * log) / ((p + 1) * x))
            crossing = (a ** (p + 1) + b ** (p + 1)) / ((p + 1) * ab)
            pieces.append(h * np.where(crossed, crossing, one_sign))
        return pieces


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


def landscape_row(lan: PersistenceLandscape, others, p):
    """Exact L^p distances from ``lan`` to each landscape of ``others``
    (levelwise, then p-summed), a block of ``others`` at a time: one array
    per value of the list ``p``."""
    sizes = [len(lan.knots) + len(other.knots) for other in others]
    blocks = (_landscape_block(lan, block, p) for block in _blocks(others, sizes, _BLOCK_POINTS))
    return np.concatenate([np.zeros((len(p), 0)), *blocks], axis=1)


def _landscape_block(lan, others, ps):
    """landscape_row at each p of ``ps`` on one block, in one set of array
    calls (module docstring)."""
    n = len(others)
    knots = np.concatenate([lan.knots, *(other.knots for other in others)])
    if not len(knots):
        return np.zeros((len(ps), n))
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
    rows, finite = {}, [p for p in ps if p < math.inf]
    if math.inf in ps:
        rows[math.inf] = np.zeros(n)
        np.maximum.at(rows[math.inf], pair, np.abs(diff))
    if finite:
        same = grid[1:] // R == grid[:-1] // R  # segments inside one pair's level
        for p, pieces in zip(finite, _lp_pieces(grid_t, diff, finite)):
            totals = np.bincount(pair[1:][same], weights=pieces[same], minlength=n)
            low = np.flatnonzero(totals < _TINY)
            if len(low) and np.isin(pair[diff != 0], low).any():  # landscapes that differ
                raise NumericalFailure("powered landscape integral underflows")
            rows[p] = totals ** (1.0 / p)
    return np.array([rows[p] for p in ps])


def curve_prepare(c: StepCurve, p):
    """``c``'s breakpoints with its values padded by a 0 on each side."""
    return c.breakpoints, np.concatenate(([0], c.values, [0]))


def curve_row(prepared, others, p):
    """Exact L^p distances from one prepared step curve to each of
    ``others``, integrated over the union of each pair's breakpoints: one
    array per value of the list ``p``."""
    (b1, v1), totals = prepared, []
    for b2, v2 in others:
        ts = np.concatenate([b1, b2])
        ts.sort()
        ts = np.concatenate([ts[:1], ts[1:][ts[1:] != ts[:-1]]])  # np.union1d, faster
        diff = np.abs(v1[b1.searchsorted(ts[:-1], "right")]
                      - v2[b2.searchsorted(ts[:-1], "right")])
        lengths = ts[1:] - ts[:-1]
        totals.append([float((diff ** q * lengths).sum()) for q in p])
    return [np.array([pair[k] ** (1.0 / q) for pair in totals]) for k, q in enumerate(p)]


def pss_kernel(f: PersistenceDiagram, g: PersistenceDiagram, sigma: float) -> float:
    """Persistence scale space kernel (closed form of the heat solution).

    Both exponentials decay; the mirrored term subtracts the reflected mass.
    """
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
    """Kernel-induced L^2 distances from one prepared diagram to each of
    ``others``; a negative radicand (a squared norm) is rounding, clipped to 0."""
    f, kff = prepared
    radicand = np.array([kff + kgg - 2.0 * pss_kernel(f, g, sigma) for g, kgg in others])
    return np.sqrt(np.maximum(radicand, 0.0))


def sw_prepare(d: PersistenceDiagram, lines: int):
    """Projections x cos(theta) + y sin(theta) of ``d``'s points (x, y) and
    of their diagonal images onto the lines at angles theta = i·pi/lines,
    elementwise, so a point projects alike in any diagram."""
    angles = [i * math.pi / lines for i in range(lines)]
    cos, sin = np.array([[math.cos(theta), math.sin(theta)] for theta in angles]).T[:, :, None]
    points, middles = d.pairs(), d.pairs().mean(axis=1)
    return points[:, 0] * cos + points[:, 1] * sin, middles * cos + middles * sin


def sw_row(prepared, others, lines: int) -> np.ndarray:
    """Sliced Wasserstein distances from one prepared diagram to each of
    ``others``: each diagram's points against the other's diagonal images,
    averaged over lines at angles i*pi/lines, which equals the circle
    average because antipodal directions give identical 1-D costs."""
    (p1, q1), totals = prepared, []
    for p2, q2 in others:
        a = np.sort(np.concatenate([p1, q2], axis=1), axis=1)
        b = np.sort(np.concatenate([p2, q1], axis=1), axis=1)
        totals.append(np.cumsum(np.abs(a - b).sum(axis=1))[-1])  # summed in line order
    return np.array(totals, dtype=float) / lines


def swk_row(prepared, others, sigma: float, lines: int) -> np.ndarray:
    """Distances induced by the Gaussian sliced Wasserstein kernel from one
    diagram prepared by :func:`sw_prepare` to each of ``others``."""
    two_var = 2.0 * sigma * sigma  # 0 when sigma's square underflows: the sigma -> 0 limit
    return np.sqrt([2.0 - 2.0 * (math.exp(-sw / two_var) if two_var > 0 else float(sw == 0))
                    for sw in sw_row(prepared, others, lines).tolist()])


# A metric parameter type: (conversion from text, validity test, the rule
# that error messages state).
_FINITE_P = (float, lambda v: 1 <= v < math.inf, "a finite number >= 1")
_P = (float, lambda v: v >= 1, "a number >= 1 or inf")
_POSITIVE = (float, lambda v: 0 < v < math.inf, "a finite number > 0")
_LINES = (int, lambda v: v >= 1, "an integer >= 1")
_SLICES = {"lines": (_LINES, 10)}  # sw and swk's optional parameter

# Metric name -> (summary kind, required parameters, optional parameters,
# row, prepare, shared).  Parameters map their names to their types, and
# optional ones to (type, default).  The prepare runs once per sample on a
# summary of the kind and the parameters; the row takes one prepared
# summary, a list of them and the parameters and returns the distances from
# the one to each.  A shared family's prepare does not read p, and its row
# always takes a list of p and returns one array per p, so its specs share
# one pass of :func:`pairwise_matrix`.  "count<d>" stands for count0,
# count1, ...: L^p between cumulative counts of d-cells, keyed by its name.
METRICS = {
    "wasserstein": ("diagram", {"p": _FINITE_P}, {}, wasserstein_row, diagram_prepare, False),
    "bottleneck": ("diagram", {}, {}, bottleneck_row, diagram_prepare, False),
    "pss": ("diagram", {"sigma": _POSITIVE}, {}, pss_row, pss_prepare, False),
    "sw": ("diagram", {}, _SLICES, sw_row, sw_prepare, False),
    "swk": ("diagram", {"sigma": _POSITIVE}, _SLICES, swk_row,
            lambda d, sigma, lines: sw_prepare(d, lines), False),
    "landscape": ("landscape", {"p": _P}, {}, landscape_row, lambda lan, p: lan, True),
    "betti": ("betti", {"p": _FINITE_P}, {}, curve_row, curve_prepare, True),
    "euler": ("euler", {"p": _FINITE_P}, {}, curve_row, curve_prepare, True),
    "count<d>": ("count", {"p": _FINITE_P}, {}, curve_row, curve_prepare, True),
}


@dataclass(frozen=True)
class MetricSpec:
    """Parsed metric spec string; ``family`` is its key in :data:`METRICS`.

    ``family`` is the name itself, or ``count<d>`` for a name ``count2``,
    whose cell dimension is then ``cell_dim`` (None for every other metric).
    """

    name: str
    params: dict
    label: str
    family: str
    cell_dim: int | None

    @property
    def summary_kind(self):
        """Key of the summary this metric compares in a sample bundle: the
        kind in :data:`METRICS`, or the name of a ``count<d>`` metric."""
        return METRICS[self.family][0] if self.cell_dim is None else self.name

    @property
    def pass_key(self):
        """Specs with one key share a pass: those of a shared family on one summary."""
        return (self.family, self.summary_kind) if METRICS[self.family][5] else self.label

    def prepare(self, summary):
        """``summary`` in the form :meth:`row` takes, computed once per sample."""
        with np.errstate(over="ignore", invalid="ignore"):
            return METRICS[self.family][4](summary, **self.params)

    def row(self, a, others, more=()):
        """Distances from ``a`` to each summary of ``others`` (both prepared):
        one row for this spec and one for each of ``more``, specs that share
        its pass, as a 2-D array; NumericalFailure naming this spec if a row
        fails or a distance is not finite."""
        shared = METRICS[self.family][5]  # a shared row takes the list of p
        params = {"p": [spec.params["p"] for spec in (self, *more)]} if shared else self.params
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                out = np.atleast_2d(METRICS[self.family][3](a, others, **params))
            if not np.isfinite(out).all():
                raise NumericalFailure("a distance is not finite")
        except NumericalFailure as exc:
            raise NumericalFailure(f"{self.label}: {exc}") from None
        return out

    def distance(self, a, b):
        """The distance between two summaries: the row on ``[b]``."""
        return float(self.row(self.prepare(a), [self.prepare(b)])[0, 0])


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
    types = {**required, **{key: ptype for key, (ptype, _) in optional.items()}}
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq:
                raise ConfigurationError(f"bad metric parameter {item!r} in {spec!r}")
            if key not in types:
                raise ConfigurationError(f"{name} takes no parameter {key!r}")
            if key in params:
                raise ConfigurationError(f"{key} is given twice in {spec!r}")
            params[key] = _typed(value.strip(), types[key], f"{key} in {spec!r}")
    for key in required:
        if key not in params:
            raise ConfigurationError(f"{name} needs {key}=")
    for key, (_, default) in optional.items():
        params.setdefault(key, default)
    return MetricSpec(name, params, spec, family, cell_dim)


def pairwise_matrix(samples, first: MetricSpec, others=(), found=None) -> DistanceMatrix:
    """Symmetric matrix of the metric ``first`` over a homogeneous sample
    list, from one prepare per sample and one row call per row.  The specs
    ``others`` share its pass key and so its pass; their matrices go into
    the dict ``found`` by label.  A failure names the first spec that fails
    alone."""
    specs, n = [first, *others], len(samples)
    if len({spec.pass_key for spec in specs}) > 1:
        raise ValueError("the specs of one pass must differ only in p")
    if n < 2:
        raise ValueError("need at least 2 samples")
    entries = np.zeros((len(specs), n, n))
    try:
        prepared = [first.prepare(sample) for sample in samples]
        for i in range(n - 1):
            entries[:, i, i + 1:] = entries[:, i + 1:, i] = first.row(
                prepared[i], prepared[i + 1:], others)
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"metric {first.label!r} does not fit samples") from exc
    except NumericalFailure:
        if others:  # rerun the specs one at a time: the first that fails raises
            for spec in specs:
                pairwise_matrix(samples, spec)
        raise
    mat, *rest = (DistanceMatrix(e, spec.label) for spec, e in zip(specs, entries))
    for other in rest:
        found[other.label] = other
    return mat
