"""Landscapes, Betti/Euler curves and simplex-count curves.

Landscapes are stored with exact breakpoints (no sampling grid); step curves
are right-continuous and zero outside their breakpoints.  Both hold numpy
arrays and evaluate whole arrays of points at once.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from topocorr.complexes import FilteredComplex
from topocorr.persistence import PersistenceDiagram


@dataclass(frozen=True, eq=False)
class PersistenceLandscape:
    """Levels λ_1 >= λ_2 >= ... as (m, 2) float arrays of sorted (t, value)
    breakpoints.

    Each level is zero outside its first/last breakpoint and piecewise linear
    with slopes in {-1, 0, +1} in between.
    """

    levels: tuple[np.ndarray, ...]

    def level_count(self):
        return len(self.levels)

    def level(self, k):
        """Breakpoints of λ_k (1-based); an empty (0, 2) array past the last level."""
        if k < 1:
            raise ValueError("levels are 1-based")
        return self.levels[k - 1] if k <= len(self.levels) else np.empty((0, 2))

    def evaluate(self, k, t):
        """Values of λ_k (1-based) at t, a number or an array of points."""
        level = self.level(k)
        if not len(level):
            return np.zeros(np.shape(t))
        return np.interp(t, level[:, 0], level[:, 1], left=0.0, right=0.0)

    def max_value(self):
        return max((float(level[:, 1].max()) for level in self.levels), default=0.0)


def _simplify(level):
    """Drop collinear interior breakpoints."""
    out = []
    for t, v in level:
        while len(out) >= 2:
            (t0, v0), (t1, v1) = out[-2], out[-1]
            if t1 == t0:
                break
            # Collinear iff (t1,v1) lies on the segment (t0,v0)-(t,v).
            if t != t0 and abs((v - v0) * (t1 - t0) - (v1 - v0) * (t - t0)) <= 1e-15 * max(1.0, abs(t - t0)):
                out.pop()
                continue
            break
        if out and out[-1] == (t, v):
            continue
        out.append((t, v))
    return tuple(out)


def landscape_from_diagram(d: PersistenceDiagram, k_max=None) -> PersistenceLandscape:
    """Exact persistence landscape: λ_k(t) is the k-th largest tent value.

    Uses the standard sweep that peels one level at a time, keeping leftover
    bar overlaps for the deeper levels.
    """
    if k_max is not None and k_max < 1:
        raise ValueError("k_max must be >= 1")
    bars = sorted(((b, -death) for b, death, _ in d.points))
    bars = [(b, -nd) for b, nd in bars]
    levels = []
    while bars and (k_max is None or len(levels) < k_max):
        b, death = bars.pop(0)
        level = [(b, 0.0), ((b + death) / 2.0, (death - b) / 2.0)]
        pos = 0
        while True:
            while pos < len(bars) and bars[pos][1] <= death:
                pos += 1
            if pos == len(bars):
                level.append((death, 0.0))
                break
            b2, d2 = bars.pop(pos)
            if b2 > death:
                level.append((death, 0.0))
                level.append((b2, 0.0))
            elif b2 == death:
                level.append((death, 0.0))
            else:
                level.append(((b2 + death) / 2.0, (death - b2) / 2.0))
                # The overlap (b2, death) survives to a deeper level.
                bisect.insort(bars, (b2, death), key=lambda bar: (bar[0], -bar[1]))
                pos += 1
            level.append(((b2 + d2) / 2.0, (d2 - b2) / 2.0))
            b, death = b2, d2
        levels.append(np.array(_simplify(level), dtype=float))
    return PersistenceLandscape(tuple(levels))


@dataclass(frozen=True, eq=False)
class StepCurve:
    """Right-continuous integer step function, zero outside its breakpoints.

    ``values[i]`` holds on [breakpoints[i], breakpoints[i+1]); there is one
    value per gap between consecutive breakpoints.  Breakpoints are a float
    array, values an integer array.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", np.asarray(self.breakpoints, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.int64))
        if len(self.breakpoints) and len(self.values) != len(self.breakpoints) - 1:
            raise ValueError("need one value per interval between breakpoints")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must be strictly increasing")

    def evaluate(self, a):
        """Values at a, a number or an array of points."""
        padded = np.concatenate(([0], self.values, [0]))
        return padded[np.searchsorted(self.breakpoints, a, side="right")]

    def l1_norm(self):
        return float(np.sum(np.abs(self.values) * np.diff(self.breakpoints)))


def _curve_from_events(positions, deltas):
    """The step curve that jumps by ``deltas[i]`` at ``positions[i]``; the
    deltas sum to zero, so the curve returns to zero after its last jump."""
    ts, slot = np.unique(np.asarray(positions, dtype=float), return_inverse=True)
    jumps = np.zeros(len(ts), dtype=np.int64)
    np.add.at(jumps, slot, deltas)
    nonzero = jumps != 0
    return StepCurve(ts[nonzero], np.cumsum(jumps[nonzero])[:-1])


def betti_curve(d: PersistenceDiagram, degree: int) -> StepCurve:
    """Number of degree-``degree`` bars containing each point."""
    bars = np.array([(b, death) for b, death, k in d.points if k == degree]).reshape(-1, 2)
    return _curve_from_events(bars.ravel(), np.tile([1, -1], len(bars)))


def euler_curve(curves) -> StepCurve:
    """Alternating sum of Betti curves, merged on the union of breakpoints."""
    positions, deltas = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    for k, curve in enumerate(curves):
        if len(curve.breakpoints):
            positions.append(curve.breakpoints)
            deltas.append((-1) ** k * np.diff(curve.values, prepend=0, append=0))
    return _curve_from_events(np.concatenate(positions), np.concatenate(deltas))


def simplex_count_curve(cx: FilteredComplex, dim: int) -> StepCurve:
    """Cumulative count of ``dim``-cells entering the filtration.

    The count never returns to zero on its own, so the support is closed by a
    terminal breakpoint one unit past the last jump.
    """
    times = cx.values[cx.dims == dim]
    if not len(times):
        return StepCurve((), ())
    return _curve_from_events(np.append(times, times.max() + 1.0),
                              np.append(np.ones(len(times), dtype=np.int64), -len(times)))
