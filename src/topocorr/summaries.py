"""Landscapes, Betti/Euler curves and simplex-count curves.

Landscapes keep every exact breakpoint their sweep finds, with no sampling
grid and no tolerance, as one (m, 3) array of (t, value, level) rows.  Step
curves are right-continuous, zero outside their breakpoints, and built in
one pass over their jumps: the bar ends of one degree (Betti) or of every
degree, signed by degree (Euler).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from topocorr.complexes import FilteredComplex, HeightGrid, square_lattice
from topocorr.persistence import PersistenceDiagram


@dataclass(frozen=True, eq=False)
class PersistenceLandscape:
    """Levels λ_1 >= λ_2 >= ... as one (m, 3) float array ``knots`` of
    (t, value, level) breakpoint rows, ordered by level (counted from 0) and
    then by t.

    Each level is zero outside its first/last breakpoint and piecewise linear
    with slopes in {-1, 0, +1} in between.
    """

    knots: np.ndarray

    @property
    def levels(self):
        """Per-level (t, value) views of ``knots``, λ_1 first."""
        cuts = np.flatnonzero(np.diff(self.knots[:, 2])) + 1
        return tuple(np.split(self.knots[:, :2], cuts)) if len(self.knots) else ()


def landscape_from_diagram(d: PersistenceDiagram) -> PersistenceLandscape:
    """Exact persistence landscape: λ_k(t) is the k-th largest tent value.

    Uses the standard sweep that peels one level at a time, keeping leftover
    bar overlaps for the deeper levels.
    """
    pairs = d.pairs()
    bars = pairs[np.lexsort((-pairs[:, 1], pairs[:, 0]))].tolist()
    knots, depth = [], 0
    while bars:
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
        knots += [(t, v, depth) for t, v in level]
        depth += 1
    return PersistenceLandscape(np.array(knots, dtype=float).reshape(-1, 3))


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
    bars = d.pairs()[d.points[:, 2] == degree]
    return _curve_from_events(bars.ravel(), np.tile([1, -1], len(bars)))


def euler_curve(d: PersistenceDiagram) -> StepCurve:
    """Alternating sum of the Betti curves of every degree, in one pass over
    the bars: each adds (-1)^degree from its birth to its death."""
    sign = 1 - 2 * (d.points[:, 2].astype(np.int64) % 2)
    return _curve_from_events(d.pairs().ravel(), np.outer(sign, [1, -1]).ravel())


def simplex_count_curve(source: FilteredComplex | HeightGrid, dim: int) -> StepCurve:
    """Cumulative count of ``dim``-cells entering a complex's filtration, or a grid's,
    read from the vertices, squares and edges that :func:`square_lattice` lists.

    The count never returns to zero on its own, so the support is closed by a
    terminal breakpoint one unit past the last jump (one float, where a unit rounds off).
    """
    times = (dict(zip((0, 2, 1), square_lattice(source.values))).get(dim, np.empty(0))
             if isinstance(source, HeightGrid) else source.values[source.dims == dim])
    if not len(times):
        return StepCurve((), ())
    end = max(times.max() + 1.0, np.nextafter(times.max(), np.inf))
    return _curve_from_events(np.append(times, end),
                              np.append(np.ones(len(times), dtype=np.int64), -len(times)))
