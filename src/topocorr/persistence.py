"""Persistent homology over the two-element field.

The persistence pairing comes from two passes.  Degree 0 is union-find over
the edges in filtration order: a merging edge kills the younger of the two
components (elder rule).  Higher degrees come from persistent cohomology with
clearing (de Silva, Morozov and Vejdemo-Johansson, "Dualities in persistent
(co)homology", Inverse Problems 2011; Bauer, "Ripser", J. Appl. Comput.
Topol. 2021): the coboundary columns of each degree are reduced in reverse
filtration order, and the cells that killed a class one degree down are
skipped, since their columns reduce to zero.  The pairing does not depend on
the method, so the diagram is the one the boundary-matrix reduction gives.
Columns are Python integers used as bitmasks; column addition is XOR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from topocorr.complexes import FilteredComplex


@dataclass(frozen=True, eq=False)
class PersistenceDiagram:
    """Multiset of (birth, death, degree) points with births strictly below deaths.

    ``points`` is an (m, 3) float array of (birth, death, degree) rows, kept in
    (degree, birth, death) order; rows with equal keys keep the order they
    were given in.  ``essential``, an (m,) bool array parallel to ``points``,
    marks intervals that were capped (their true death is +infinity) at
    ``cap``; the capped interval is closed at the cap, finite intervals are
    half-open [birth, death).
    """

    points: np.ndarray
    cap: float | None = None
    essential: np.ndarray = ()

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        essential = np.asarray(self.essential, dtype=bool)
        if not len(essential):
            essential = np.zeros(len(points), dtype=bool)
        if essential.shape != (len(points),):
            raise ValueError("essential flags must match points")
        bad = ~(points[:, 0] < points[:, 1])
        if bad.any():
            b, d = points[bad][0, :2]
            raise ValueError(f"birth must precede death, got ({b}, {d})")
        if np.any(points[:, 2] < 0):
            raise ValueError("degree must be non-negative")
        order = np.lexsort((points[:, 1], points[:, 0], points[:, 2]))
        object.__setattr__(self, "points", points[order])
        object.__setattr__(self, "essential", essential[order])

    def __len__(self):
        return len(self.points)

    def degrees(self):
        return np.unique(self.points[:, 2]).astype(int).tolist()

    def restrict(self, degree):
        """Sub-diagram of a single homology degree."""
        keep = self.points[:, 2] == degree
        return PersistenceDiagram(self.points[keep], self.cap, self.essential[keep])

    def pairs(self):
        """The (m, 2) array of (birth, death) pairs, degree dropped."""
        return self.points[:, :2]


def _columns(cx: FilteredComplex):
    """The boundary matrix column by column, each as a bitmask integer."""
    ptr, faces = cx.indptr.tolist(), cx.indices.tolist()
    for j in range(len(cx)):
        col = 0
        for f in faces[ptr[j]:ptr[j + 1]]:
            col ^= 1 << f
        yield col


def _coboundary(cx: FilteredComplex):
    """The transposed boundary matrix in CSR form: the cofaces of cell i are
    ``indices[indptr[i]:indptr[i + 1]]``, ascending."""
    owners = np.repeat(np.arange(len(cx)), np.diff(cx.indptr))
    counts = np.bincount(cx.indices, minlength=len(cx))
    return (np.concatenate(([0], np.cumsum(counts))),
            owners[np.argsort(cx.indices, kind="stable")])


def _persistence_pairs(cx: FilteredComplex):
    """The persistence pairing of ``cx``: the birth cells, the death cells
    they pair with, and the unpaired cells, as three index arrays."""
    dims, n = cx.dims, len(cx)
    births, deaths = [], []
    # H0 by union-find over the edges in filtration order.  Every root is its
    # component's oldest vertex, so a merging edge kills the younger root.
    root = list(range(n))
    edges = np.flatnonzero(dims == 1)
    first = cx.indptr[edges]
    for e, u, v in zip(edges.tolist(), cx.indices[first].tolist(),
                       cx.indices[first + 1].tolist()):
        while root[u] != u:  # path halving
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u != v:
            u, v = max(u, v), min(u, v)
            root[u] = v
            births.append(u)
            deaths.append(e)
    # Higher degrees by persistent cohomology with clearing: a cell that
    # killed a class one degree down has a coboundary that reduces to zero.
    paired = np.zeros(n, dtype=bool)
    paired[deaths] = True
    ptr, cofaces = _coboundary(cx)

    def column(i):
        # Coface k is bit n - 1 - k, so the pivot, the earliest coface, is the
        # highest set bit.
        return sum(1 << (n - 1 - k) for k in cofaces[ptr[i]:ptr[i + 1]].tolist())

    for d in range(1, int(dims.max(initial=0))):
        cells = np.flatnonzero((dims == d) & ~paired)
        cells = cells[ptr[cells] < ptr[cells + 1]]
        pivots = cofaces[ptr[cells]]
        # A cell that is the latest face of its pivot needs no reduction: no
        # later cell's column contains that pivot (an apparent pair).
        apparent = cx.indices[cx.indptr[pivots + 1] - 1] == cells
        owner = dict(zip(pivots[apparent].tolist(), cells[apparent].tolist()))
        reduced = {}
        for i in cells[~apparent][::-1].tolist():
            col = column(i)
            while col:
                k = n - col.bit_length()
                j = owner.get(k)
                if j is None:
                    owner[k] = i
                    reduced[i] = col
                    break
                col ^= reduced[j] if j in reduced else column(j)
        births.extend(owner.values())
        deaths.extend(owner)
        paired[list(owner)] = True
    paired[births] = True
    return (np.array(births, dtype=np.int64), np.array(deaths, dtype=np.int64),
            np.flatnonzero(~paired))


def compute_persistence(cx: FilteredComplex, cap=None) -> PersistenceDiagram:
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
    paired, killers, unpaired = _persistence_pairs(cx)
    # Finite bars go before capped ones: the diagram's stable sort then puts a
    # finite bar ahead of a capped bar with the same birth and death.
    cells = np.concatenate((paired, unpaired))
    essential = np.arange(len(cells)) >= len(paired)
    deaths = np.concatenate((cx.values[killers], np.full(len(unpaired), cap, dtype=float)))
    points = np.column_stack((cx.values[cells], deaths, cx.dims[cells]))
    keep = points[:, 0] < deaths
    return PersistenceDiagram(points[keep], cap=cap, essential=essential[keep])


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
    birth, death, degree = diagram.points.T
    alive = (degree == k) & (birth <= a) & ((death > b) | (diagram.essential & (death >= b)))
    return int(np.count_nonzero(alive))
