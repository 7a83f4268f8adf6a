"""Persistent homology over the two-element field.

Columns of the boundary matrix are stored as Python integers used as
bitmasks; column addition is XOR and the pivot is the highest set bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from topocorr.complexes import FilteredComplex


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death, degree) points with births strictly below deaths.

    ``cap`` records the filtration value used to close infinite intervals.
    ``essential`` flags, parallel to ``points``, mark intervals that were
    capped (their true death is +infinity); the capped interval is closed at
    the cap, finite intervals are half-open [birth, death).
    """

    points: tuple[tuple[float, float, int], ...]
    cap: float | None = None
    essential: tuple[bool, ...] = ()

    def __post_init__(self):
        if not self.essential:
            object.__setattr__(self, "essential", tuple(False for _ in self.points))
        if len(self.essential) != len(self.points):
            raise ValueError("essential flags must match points")
        for b, d, k in self.points:
            if not b < d:
                raise ValueError(f"birth must precede death, got ({b}, {d})")
            if k < 0:
                raise ValueError("degree must be non-negative")

    def __len__(self):
        return len(self.points)

    def degrees(self):
        return sorted({k for _, _, k in self.points})

    def restrict(self, degree):
        """Sub-diagram of a single homology degree."""
        keep = [(i, p) for i, p in enumerate(self.points) if p[2] == degree]
        return PersistenceDiagram(
            tuple(p for _, p in keep),
            cap=self.cap,
            essential=tuple(self.essential[i] for i, _ in keep),
        )

    def pairs(self):
        """Just the (birth, death) pairs, degree dropped."""
        return [(b, d) for b, d, _ in self.points]


def _columns(cx: FilteredComplex):
    """The boundary matrix column by column, each as a bitmask integer."""
    ptr, faces = cx.indptr.tolist(), cx.indices.tolist()
    for j in range(len(cx)):
        col = 0
        for f in faces[ptr[j]:ptr[j + 1]]:
            col ^= 1 << f
        yield col


def _reduce_columns(cx: FilteredComplex):
    """Standard column reduction; returns (pairs, unpaired creator indices)."""
    reduced = []
    low_owner = {}
    pairs = []
    creators = set()
    for j, col in enumerate(_columns(cx)):
        while col:
            low = col.bit_length() - 1
            owner = low_owner.get(low)
            if owner is None:
                break
            col ^= reduced[owner]
        reduced.append(col)
        if col:
            low = col.bit_length() - 1
            low_owner[low] = j
            pairs.append((low, j))
            creators.discard(low)
        else:
            creators.add(j)
    return pairs, creators


def compute_persistence(cx: FilteredComplex, degrees=None, cap=None) -> PersistenceDiagram:
    """Persistence diagram of a filtered complex.

    Pair (i, j) yields the interval [value(i), value(j)); unpaired cells are
    capped at ``cap`` (default: the maximum filtration value).  Zero-length
    intervals are dropped.
    """
    max_value = cx.max_value
    if cap is None:
        cap = max_value
    elif cap < max_value:
        raise ValueError(f"cap {cap} below maximum filtration value {max_value}")
    pairs, creators = _reduce_columns(cx)
    values, dims = cx.values.tolist(), cx.dims.tolist()
    points = []
    flags = []
    for i, j in pairs:
        birth, death = values[i], values[j]
        if birth < death:
            points.append((birth, death, dims[i]))
            flags.append(False)
    for i in sorted(creators):
        birth = values[i]
        if birth < cap:
            points.append((birth, cap, dims[i]))
            flags.append(True)
    degrees = None if degrees is None else set(degrees)
    kept = [i for i, p in enumerate(points) if degrees is None or p[2] in degrees]
    order = sorted(kept, key=lambda i: (points[i][2], points[i][0], points[i][1]))
    return PersistenceDiagram(
        tuple(points[i] for i in order),
        cap=cap,
        essential=tuple(flags[i] for i in order),
    )


def _rank(columns):
    """Rank over GF(2) of columns given as bitmask integers."""
    pivots = {}
    rank = 0
    for col in columns:
        while col:
            low = col.bit_length() - 1
            p = pivots.get(low)
            if p is None:
                pivots[low] = col
                rank += 1
                break
            col ^= p
    return rank


def persistent_betti(cx: FilteredComplex, a: float, b: float, k: int) -> int:
    """dim Z_k(K_a) - dim(B_k(K_b) ∩ Z_k(K_a)) by dense GF(2) rank computation.

    A brute-force oracle, intended for desk-scale complexes only.
    """
    if a > b:
        raise ValueError("need a <= b")
    if k < 0:
        raise ValueError("degree must be non-negative")
    columns = list(_columns(cx))
    dims, values = cx.dims, cx.values
    k_cells_a = np.flatnonzero((dims == k) & (values <= a)).tolist()
    rank_da = _rank([columns[j] for j in k_cells_a])
    z = len(k_cells_a) - rank_da

    cols_b = [columns[j] for j in np.flatnonzero((dims == k + 1) & (values <= b)).tolist()]
    # Boundaries landing inside K_a are exactly the kernel of the projection
    # onto rows outside K_a, so dim(B ∩ C_k(K_a)) = rank(D) - rank(proj D).
    mask_outside = 0
    for j in np.flatnonzero((dims == k) & (values > a)).tolist():
        mask_outside |= 1 << j
    rank_full = _rank(cols_b)
    rank_proj = _rank([col & mask_outside for col in cols_b])
    return z - (rank_full - rank_proj)


def diagram_betti_count(diagram: PersistenceDiagram, a: float, b: float, k: int) -> int:
    """Count diagram points of degree k alive on [a, b].

    Finite intervals are [birth, death); capped intervals are closed at the
    cap.  Matches :func:`persistent_betti` on the originating complex.
    """
    count = 0
    for (birth, death, deg), ess in zip(diagram.points, diagram.essential):
        if deg != k or birth > a:
            continue
        if death > b or (ess and death >= b):
            count += 1
    return count
