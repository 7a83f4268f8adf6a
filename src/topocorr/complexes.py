"""Filtered cell complexes from graphs, point clouds and height grids.

All builders produce a :class:`FilteredComplex` whose cells are totally
ordered by (filtration value, dimension, construction key), so faces always
precede cofaces and the order is deterministic for a given input.  A
construction key is encoded as one integer per cell: the base-n digits of a
vertex tuple, or ``r * 2 * (cols + 2) + 2 * c + orientation`` for the grid
cell at lattice position (r, c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WeightedGraph:
    """Complete undirected graph with symmetric edge weights (diagonal unused)."""

    n: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if self.n < 1 or w.shape != (self.n, self.n):
            raise ValueError(f"weights must be {self.n}x{self.n}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        off = ~np.eye(self.n, dtype=bool)
        if not np.allclose(w[off], w.T[off], rtol=0, atol=0):
            raise ValueError("weights must be symmetric")


@dataclass(frozen=True)
class DirectedWeightedGraph:
    """Directed graph, both orientations independent; ``present`` masks edges.

    The diagonal is ignored.  When ``present`` is omitted every off-diagonal
    edge exists (the complete directed graph).
    """

    n: int
    weights: np.ndarray
    present: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if self.n < 1 or w.shape != (self.n, self.n):
            raise ValueError(f"weights must be {self.n}x{self.n}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if self.present is None:
            mask = ~np.eye(self.n, dtype=bool)
        else:
            mask = np.asarray(self.present, dtype=bool).copy()
            if mask.shape != (self.n, self.n):
                raise ValueError("present mask has wrong shape")
            np.fill_diagonal(mask, False)
        object.__setattr__(self, "present", mask)

    @classmethod
    def from_edges(cls, n, edges):
        """Build from an iterable of ``(u, v, weight)`` directed edges."""
        w = np.zeros((n, n))
        mask = np.zeros((n, n), dtype=bool)
        for u, v, weight in edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            w[u, v] = weight
            mask[u, v] = True
        return cls(n, w, mask)


@dataclass(frozen=True)
class HeightGrid:
    """Rectangular elevation grid; values in arbitrary (finite) height units."""

    rows: int
    cols: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if self.rows < 1 or self.cols < 1 or v.shape != (self.rows, self.cols):
            raise ValueError(f"values must be {self.rows}x{self.cols}")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")

    @classmethod
    def from_array(cls, values):
        v = np.asarray(values, dtype=float)
        return cls(v.shape[0], v.shape[1], v)


@dataclass(frozen=True, eq=False)
class FilteredComplex:
    """Totally ordered cells; every face appears before its cofaces.

    Cell i has dimension ``dims[i]`` and enters at ``values[i]``; its faces
    are the order indices ``indices[indptr[i]:indptr[i + 1]]`` (a CSR
    boundary matrix, faces ascending).
    """

    dims: np.ndarray
    values: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        for name, dtype in (("dims", np.int64), ("values", float),
                            ("indptr", np.int64), ("indices", np.int64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len(self.indptr) != len(self.dims) + 1 or len(self.values) != len(self.dims):
            raise ValueError("dims, values and indptr lengths disagree")

    def __len__(self):
        return len(self.dims)

    @property
    def max_value(self):
        return max(self.values.tolist(), default=0.0)

    def validate(self):
        """Check face-before-coface ordering and filtration monotonicity."""
        dims, values = self.dims.tolist(), self.values.tolist()
        ptr, faces = self.indptr.tolist(), self.indices.tolist()
        for i in range(len(dims)):
            for f in faces[ptr[i]:ptr[i + 1]]:
                if not 0 <= f < i:
                    raise ValueError(f"cell {i}: face {f} does not precede it")
                if dims[f] != dims[i] - 1:
                    raise ValueError(f"cell {i}: face {f} has wrong dimension")
                if values[f] > values[i]:
                    raise ValueError(f"cell {i}: face {f} enters later")
            if i and (values[i], dims[i]) < (values[i - 1], dims[i - 1]):
                raise ValueError(f"cell {i}: ordering violated")
        return self

    def to_text(self):
        """One line per cell: ``dim value face_id*`` (ids are order indices)."""
        ptr, faces = self.indptr.tolist(), self.indices.tolist()
        lines = []
        for i, (dim, value) in enumerate(zip(self.dims.tolist(), self.values.tolist())):
            parts = [str(dim), repr(value)] + [str(f) for f in faces[ptr[i]:ptr[i + 1]]]
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        from topocorr.errors import ParseError

        dims, values, indptr, indices = [], [], [0], []
        for ln, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ParseError("expected 'dim value face_id*'", line=ln)
            try:
                dims.append(int(parts[0]))
                values.append(float(parts[1]))
                indices.extend(int(p) for p in parts[2:])
            except ValueError:
                raise ParseError("malformed cell line", line=ln) from None
            indptr.append(len(indices))
        try:
            cx = cls(dims, values, indptr, indices)
        except OverflowError:
            raise ParseError("cell dimension or face id out of range") from None
        return cx.validate()


def _assemble(levels):
    """One filtration from per-dimension ``(codes, values, face_codes)``.

    Level k lists the k-cells: ``codes`` order them as their construction
    keys do, and row i of ``face_codes`` names the faces of cell i by their
    codes among the (k-1)-cells (None for the vertices).  Cells are ordered
    by (value, dim, code).
    """
    codes, values, face_codes = zip(*levels)
    sizes = [len(c) for c in codes]
    starts = np.cumsum([0] + sizes)
    dims = np.repeat(np.arange(len(levels)), sizes)
    values = np.concatenate(values)
    order = np.lexsort((np.concatenate(codes), dims, values))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    widths = np.array([0] + [faces.shape[1] for faces in face_codes[1:]])
    indptr = np.concatenate(([0], np.cumsum(widths[dims[order]])))
    indices = np.empty(indptr[-1], dtype=np.int64)
    for k in range(1, len(levels)):
        sorter = np.argsort(codes[k - 1])
        local = sorter[np.searchsorted(codes[k - 1], face_codes[k], sorter=sorter)]
        slots = indptr[rank[starts[k]:starts[k + 1]], None] + np.arange(widths[k])
        indices[slots] = np.sort(rank[starts[k - 1] + local], axis=1)
    return FilteredComplex(dims[order], values[order], indptr, indices)


def _clique_complex(weights, present, max_dim):
    """Cliques of up to ``max_dim + 1`` vertices of the digraph ``present``.

    A clique is a vertex tuple with an edge from each vertex to every later
    one; it enters at the largest weight of those edges (vertices at 0).
    Cliques grow by appending a vertex that every member has an edge to, so
    an upper-triangular ``present`` yields the increasing tuples of a flag
    complex and a full one the ordered tuples of a directed flag complex.
    """
    if max_dim < 1:
        raise ValueError("max_dim must be >= 1")
    n = len(weights)
    if n ** (max_dim + 1) > np.iinfo(np.int64).max:
        raise ValueError(f"{n} vertices at max_dim {max_dim} overflow the simplex codes")
    cliques = np.arange(n)[:, None]
    values = np.zeros(n)
    common = present  # common[i, v]: every member of clique i has an edge to v
    levels = [(cliques[:, 0], values, None)]
    for k in range(1, max_dim + 1):
        rows, new = np.nonzero(common)
        if not len(rows):
            break
        values = np.maximum(values[rows], weights[cliques[rows], new[:, None]].max(axis=1))
        common = common[rows] & present[new]
        cliques = np.column_stack((cliques[rows], new))
        place = n ** np.arange(k, -1, -1)
        face_codes = np.column_stack([np.delete(cliques, i, axis=1) @ place[1:]
                                      for i in range(k + 1)])
        levels.append((cliques @ place, values, face_codes))
    return _assemble(levels)


def build_flag_complex(g: WeightedGraph, max_dim: int) -> FilteredComplex:
    """Flag complex of a complete weighted graph.

    Vertices enter at 0; each k-clique (k <= max_dim+1) enters at the maximum
    of its edge weights.
    """
    return _clique_complex(g.weights, np.triu(np.ones((g.n, g.n), dtype=bool), 1), max_dim)


def build_directed_flag_complex(g: DirectedWeightedGraph, max_dim: int) -> FilteredComplex:
    """Directed flag complex: ordered tuples (v0..vk) with all edges vi->vj, i<j.

    Reciprocal edge pairs yield two distinct 1-simplices; a simplex enters at
    the maximum of its constituent edge weights.
    """
    return _clique_complex(g.weights, g.present, max_dim)


def build_rips_complex(points, max_dim: int, max_radius: float) -> FilteredComplex:
    """Vietoris-Rips complex on a Euclidean point cloud.

    Edges enter at their length (those above ``max_radius`` are excluded) and
    higher simplices at the maximum of their edge lengths.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty list of vectors")
    if max_radius <= 0:
        raise ValueError("max_radius must be positive")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    return _clique_complex(dist, np.triu(dist <= max_radius, 1), max_dim)


def build_cubical_complex(grid: HeightGrid) -> FilteredComplex:
    """Top-cell cubical complex of a height grid.

    One 2-cell per grid entry at that height; every edge and vertex inherits
    the minimum over its incident 2-cells.  On the doubled lattice, where
    entry (r, c) is the square at (2r+1, 2c+1), the cell at (i, j) has
    dimension i % 2 + j % 2, its faces are its neighbours along its odd
    axes, and its key is (i // 2, j // 2, 1 if only i is odd else 0).
    """
    size = (2 * grid.rows + 1, 2 * grid.cols + 1)
    squares = np.full((size[0] + 2, size[1] + 2), np.inf)
    squares[2:-2:2, 2:-2:2] = grid.values
    lowest = np.min([squares[a:a + size[0], b:b + size[1]]
                     for a in range(3) for b in range(3)], axis=0)
    i, j = np.indices(size)
    codes = i // 2 * 2 * (grid.cols + 2) + j // 2 * 2 + i % 2 * (1 - j % 2)
    levels = []
    for k, steps in enumerate(([], [(-1, -1), (1, 1)], [(-1, 0), (1, 0), (0, -1), (0, 1)])):
        ii, jj = np.nonzero(i % 2 + j % 2 == k)
        faces = [codes[ii + a * (ii % 2), jj + b * (jj % 2)] for a, b in steps]
        levels.append((codes[ii, jj], lowest[ii, jj], np.column_stack(faces) if faces else None))
    return _assemble(levels)
