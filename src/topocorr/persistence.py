"""Persistent homology over the two-element field.

Degree 0 is elder-rule union-find (:func:`_elder_merges`): a merging edge
kills the younger of the two components.  One array step first links each
apparent pair, a vertex whose first edge finds it the younger end; a loop
runs over the rest.  Higher degrees come from persistent cohomology with
clearing (de Silva, Morozov and Vejdemo-Johansson, "Dualities in persistent
(co)homology", Inverse Problems 2011; Bauer, "Ripser", J. Appl. Comput.
Topol. 2021), with columns as integer bitmasks over a coboundary that one
stable sort of the face ids builds (a radix sort up to 16-bit ids).  A height
grid builds no complex: its top-cell filtration is planar, so H1 is H0 of the
dual, the squares plus one outside node over the edges in reverse order (Garin,
Heiss, Maggs, Bleile and Robins, "Duality in persistent homology of images",
arXiv:2005.04597; Kaji, Sudo and Ahara, "Cubical Ripser", arXiv:2005.12692),
and two union-find passes give the diagram.  The pairing is a bijection of
edges and squares, so every edge merges in exactly one pass; each loop skips
the edges the other pass links, since an edge that closes a cycle changes no
root.  The pairing does not depend on the method, so every diagram is the one
the boundary-matrix reduction gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from topocorr.complexes import FilteredComplex, HeightGrid, square_lattice


@dataclass(frozen=True, eq=False)
class PersistenceDiagram:
    """Multiset of (birth, death, degree) points with births strictly below deaths.

    ``points`` is an (m, 3) float array of (birth, death, degree) rows, kept in
    (degree, birth, death) order; rows with equal keys keep the order they
    were given in.  ``essential``, an (m,) bool array parallel to ``points``,
    marks intervals that were capped (their true death is +infinity); a
    capped interval is closed at its death, finite intervals are half-open
    [birth, death).
    """

    points: np.ndarray
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

    def restrict(self, degree):
        """Sub-diagram of a single homology degree."""
        keep = self.points[:, 2] == degree
        return PersistenceDiagram(self.points[keep], self.essential[keep])

    def pairs(self):
        """The (m, 2) array of (birth, death) pairs, degree dropped."""
        return self.points[:, :2]


def _coboundary(cx: FilteredComplex):
    """The transposed boundary matrix in CSR form: the cofaces of cell i are
    ``indices[indptr[i]:indptr[i + 1]]``, ascending.  A stable sort's order is
    unique, so face ids sort in their narrowest type: radix sort up to 16 bits."""
    owners = np.repeat(np.arange(len(cx)), np.diff(cx.indptr))
    counts = np.bincount(cx.indices, minlength=len(cx))
    faces = cx.indices.astype(np.min_scalar_type(len(cx)))
    return np.concatenate(([0], np.cumsum(counts))), owners[np.argsort(faces, kind="stable")]


def _apparent(ends):
    """Per edge of ``ends`` (see :func:`_elder_merges`), whether it is an
    apparent pair: the first edge among those of its younger end."""
    m, younger = len(ends), np.maximum(*ends.T)
    first = np.full(int(younger.max(initial=-1)) + 1, m)
    np.minimum.at(first, ends.ravel(), np.arange(m).repeat(2))
    return first[younger] == np.arange(m)


def _elder_merges(ends, apparent, skip=False):
    """Elder-rule union-find over ``ends``, an (m, 2) array of edges in
    processing order between nodes labelled by age (0 the oldest).

    Returns, per edge, the younger root it merges, or -1.  The ``apparent``
    pairs are linked in one array step: no earlier edge reaches the younger
    end or a node linked below it, so the loop over the rest finds the same
    roots.  It passes over the ``skip`` edges, which the caller knows close a cycle.
    """
    older, younger = np.minimum(*ends.T), np.maximum(*ends.T)
    root = np.arange(int(younger.max(initial=-1)) + 1)
    root[younger[apparent]] = older[apparent]
    kills, root, rest = np.where(apparent, younger, -1), root.tolist(), ~(apparent | skip)
    for e, u, v in zip(np.flatnonzero(rest).tolist(), older[rest].tolist(),
                       younger[rest].tolist()):
        while root[u] != u:  # path halving
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u != v:
            root[max(u, v)] = min(u, v)
            kills[e] = max(u, v)
    return kills


def _persistence_pairs(cx: FilteredComplex):
    """The persistence pairing of ``cx``: the birth cells, the death cells
    they pair with, and the unpaired cells, as three index arrays."""
    dims, n = cx.dims, len(cx)
    # H0: a vertex's age is its place in the filtration.
    edges = np.flatnonzero(dims == 1)
    ends = cx.indices[cx.indptr[edges, None] + [0, 1]]
    kills = _elder_merges(ends, _apparent(ends))
    merges = np.flatnonzero(kills >= 0)
    births, deaths = kills[merges].tolist(), edges[merges].tolist()
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


def _grid_pairs(grid: HeightGrid):
    """The pairing of ``build_cubical_complex(grid)``, without building it:
    the cell values and dimensions, sorted by (dim, value, key), and the
    birth, death and unpaired cells as indices into them.  A vertex or an edge
    ranks as its lowest square, so only the squares need a float sort; stable
    sorts of the ranks in their narrowest type (radix sorts up to 16 bits) keep
    equal ranks in key order.  The H1 pass ages the squares in reverse, under
    one outside node older than all; an edge that joins two pairs with the
    younger root.  The H0 loop skips the H1 pass's apparent pairs, and the H1
    loop every H0 merge.
    """
    vertices, squares, edges, ends, sides = square_lattice(grid.values)
    nv, ne, ns = len(vertices), len(edges), len(squares)
    order = np.argsort(squares, kind="stable")
    rising, rank = squares.take(order), np.empty(ns, dtype=np.min_scalar_type(ns))
    rank[order] = np.concatenate(([0], np.cumsum(rising[1:] != rising[:-1])))
    lowest, _, edge_rank = square_lattice(rank.reshape(grid.rows, grid.cols), ns)[:3]
    first, path = np.argsort(lowest, kind="stable"), np.argsort(edge_rank, kind="stable")
    # Vertex places in filtration order; square ages in the dual, the outside's 0.
    place, age = np.empty(nv, dtype=np.int64), np.zeros(ns + 1, dtype=np.int64)
    place[first], age[order] = np.arange(nv), np.arange(ns, 0, -1)
    ends, dual = place.take(ends.take(path, axis=0)), age.take(sides.take(path[::-1], axis=0))
    apparent, dual_apparent = _apparent(ends), _apparent(dual)
    # Each edge merges in exactly one pass: a merge of one is a cycle of the other.
    kills = _elder_merges(ends, apparent, dual_apparent[::-1])
    killed = _elder_merges(dual, dual_apparent, kills[::-1] >= 0)
    # Pairs come by edge, and H1 pairs by edge reversed, as _persistence_pairs
    # finds them.  It finds apparent pairs first, but here those have length
    # 0: an edge enters with its earliest square.
    merges, steps = np.flatnonzero(kills >= 0), np.flatnonzero(killed >= 0)
    return (np.concatenate((vertices.take(first), edges.take(path), rising)),
            np.repeat(np.arange(3), (nv, ne, ns)), (
        np.concatenate((kills[merges], nv + ne - 1 - steps)),
        np.concatenate((nv + merges, nv + ne + ns - killed[steps])), np.zeros(1, dtype=np.int64)))


def compute_persistence(source: FilteredComplex | HeightGrid) -> PersistenceDiagram:
    """Persistence diagram of a filtered complex, or of the top-cell cubical
    complex of a height grid (see :func:`_grid_pairs`).

    Pair (i, j) yields the interval [value(i), value(j)); unpaired cells are
    capped at the maximum filtration value.  Zero-length intervals are dropped.
    """
    values, dims, (paired, killers, unpaired) = (
        _grid_pairs(source) if isinstance(source, HeightGrid)
        else (source.values, source.dims, _persistence_pairs(source)))
    # The first maximal cell in the filtration, as the sign of a zero may differ.
    cap = values[values.argmax()] if len(values) else 0.0
    # Finite bars go before capped ones: the diagram's stable sort then puts a
    # finite bar ahead of a capped bar with the same birth and death.
    cells = np.concatenate((paired, unpaired))
    essential = np.arange(len(cells)) >= len(paired)
    deaths = np.concatenate((values[killers], np.full(len(unpaired), cap, dtype=float)))
    points = np.column_stack((values[cells], deaths, dims[cells]))
    keep = points[:, 0] < deaths
    return PersistenceDiagram(points[keep], essential[keep])


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
    # The boundary matrix column by column, each as a bitmask integer.
    ptr, faces = cx.indptr.tolist(), cx.indices.tolist()
    columns = [sum(1 << f for f in faces[ptr[j]:ptr[j + 1]]) for j in range(len(cx))]
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

    Finite intervals are [birth, death); capped intervals are closed at
    their death.  Matches :func:`persistent_betti` on the originating complex.
    """
    birth, death, degree = diagram.points.T
    alive = (degree == k) & (birth <= a) & ((death > b) | (diagram.essential & (death >= b)))
    return int(np.count_nonzero(alive))
