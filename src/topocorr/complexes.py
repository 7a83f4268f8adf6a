"""Filtered cell complexes from graphs, point clouds and height grids.

All builders produce a :class:`FilteredComplex` whose cells are totally
ordered by (filtration value, dimension, construction key), so faces always
precede cofaces and the order is deterministic for a given input.  A
construction key is encoded as one integer per cell: the base-n digits of a
vertex tuple, or ``r * 2 * (cols + 2) + 2 * c + orientation`` for the grid
cell at lattice position (r, c).  The clique builders filter a clique skeleton
by one weight matrix; flag complexes share a cached skeleton per (n, max_dim).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from topocorr.errors import ConfigurationError, ParseError


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
        if not np.array_equal(w, w.T):
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

    def validate(self):
        """Check that the cells form a filtered chain complex over GF(2).

        Faces precede their cofaces, one dimension down and entering no
        later; cells are in (value, dim) order; no cell lists a face twice;
        every edge has two vertices; every boundary's boundary is zero.
        """
        dims, values = self.dims.tolist(), self.values.tolist()
        ptr, faces = self.indptr.tolist(), self.indices.tolist()
        for i in range(len(dims)):
            own = faces[ptr[i]:ptr[i + 1]]
            if dims[i] < 0:
                raise ValueError(f"cell {i}: negative dimension")
            for f in own:
                if not 0 <= f < i:
                    raise ValueError(f"cell {i}: face {f} does not precede it")
                if dims[f] != dims[i] - 1:
                    raise ValueError(f"cell {i}: face {f} has wrong dimension")
                if values[f] > values[i]:
                    raise ValueError(f"cell {i}: face {f} enters later")
            if i and (values[i], dims[i]) < (values[i - 1], dims[i - 1]):
                raise ValueError(f"cell {i}: ordering violated")
            if len(set(own)) < len(own):
                raise ValueError(f"cell {i}: a face is listed twice")
            if dims[i] == 1 and len(own) != 2:
                raise ValueError(f"cell {i}: an edge needs exactly two vertices")
            odd = set()
            for f in own:
                odd ^= set(faces[ptr[f]:ptr[f + 1]])
            if odd:
                raise ValueError(f"cell {i}: the boundary of its boundary is not zero")
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
                # Sorted, since cells keep their faces ascending; a file
                # may list them in any order.
                indices.extend(sorted(int(p) for p in parts[2:]))
            except ValueError:
                raise ParseError("malformed cell line", line=ln) from None
            indptr.append(len(indices))
        try:
            cx = cls(dims, values, indptr, indices)
        except OverflowError:
            raise ParseError("cell dimension or face id out of range") from None
        return cx.validate()


def _assemble(codes, dims, values, faces):
    """One filtration from cells listed in any order.

    Cell i has construction key ``codes[i]``, dimension ``dims[i]`` and value
    ``values[i]``; row j of ``faces[k - 1]`` lists the cells (by that listing)
    that are faces of the j-th k-cell in it.  Cells are ordered by (value, dim, code).
    """
    order = np.lexsort((codes, dims, values))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    widths = np.array([0] + [f.shape[1] for f in faces])
    indptr = np.concatenate(([0], np.cumsum(widths[dims[order]])))
    indices = np.empty(indptr[-1], dtype=np.int64)
    for k, local in enumerate(faces, start=1):
        slots = indptr[rank[dims == k], None] + np.arange(widths[k])
        indices[slots] = np.sort(rank[local], axis=1)
    return FilteredComplex(dims[order], values[order], indptr, indices)


def _clique_skeleton(present, max_dim):
    """Cliques of up to ``max_dim + 1`` vertices of the digraph ``present``:
    their codes and dims, and per level k >= 1 the (k-1)-clique each grew
    from, the flat indices of its new edges and its faces for :func:`_assemble`.

    A clique is a vertex tuple with an edge from each vertex to every later
    one.  Cliques grow in code order by appending a vertex that every member
    has an edge to, so an upper-triangular ``present`` yields the increasing
    tuples of a flag complex and a full one the ordered tuples of a directed
    flag complex.
    """
    if max_dim < 1:
        raise ValueError("max_dim must be >= 1")
    n = len(present)
    if n ** (max_dim + 1) > np.iinfo(np.int64).max:
        raise ConfigurationError(f"{n} vertices at max_dim {max_dim} overflow the simplex codes")
    cliques = np.arange(n)[:, None]
    common = present  # common[i, v]: every member of clique i has an edge to v
    codes, levels, start = [cliques[:, 0]], [], 0
    for k in range(1, max_dim + 1):
        rows, new = np.nonzero(common)
        if not len(rows):
            break
        common = common[rows] & present[new]
        cliques = np.column_stack((cliques[rows], new))
        place = n ** np.arange(k, -1, -1)
        face_codes = np.column_stack([np.delete(cliques, i, axis=1) @ place[1:]
                                      for i in range(k + 1)])
        levels.append((rows, cliques[:, :-1] * n + cliques[:, -1:],
                       start + np.searchsorted(codes[-1], face_codes)))
        start += len(codes[-1])
        codes.append(cliques @ place)
    dims = np.repeat(np.arange(len(codes)), [len(c) for c in codes])
    return np.concatenate(codes), dims, tuple(levels)


@lru_cache(maxsize=1)
def _flag_skeleton(n, max_dim):
    """The clique skeleton of the complete graph on n vertices, read-only:
    every flag complex on n vertices shares it."""
    codes, dims, levels = _clique_skeleton(np.triu(np.ones((n, n), dtype=bool), 1), max_dim)
    for array in (codes, dims, *sum(levels, ())):
        array.flags.writeable = False
    return codes, dims, levels


def _clique_complex(weights, skeleton):
    """The filtration of a clique skeleton by one weight matrix: a clique
    enters at the largest weight of its edges (vertices at 0).  Of equal values
    (0.0 and -0.0), the np.maximum fold keeps the last of a vertex's 0.0, then
    the clique's edges ordered by (later member, earlier member)."""
    codes, dims, levels = skeleton
    values = [np.zeros(len(weights))]
    for rows, edges, _ in levels:
        values.append(np.maximum(values[-1][rows], reduce(np.maximum, weights.take(edges).T)))
    return _assemble(codes, dims, np.concatenate(values), [faces for _, _, faces in levels])


def build_flag_complex(g: WeightedGraph, max_dim: int) -> FilteredComplex:
    """Flag complex of a complete weighted graph.

    Vertices enter at 0; each k-clique (k <= max_dim+1) enters at the maximum
    of its edge weights.  Calls with one (n, max_dim) share a cached skeleton.
    """
    return _clique_complex(g.weights, _flag_skeleton(g.n, max_dim))


def build_directed_flag_complex(g: DirectedWeightedGraph, max_dim: int) -> FilteredComplex:
    """Directed flag complex: ordered tuples (v0..vk) with all edges vi->vj, i<j.

    Reciprocal edge pairs yield two distinct 1-simplices; a simplex enters at
    the maximum of its constituent edge weights.
    """
    return _clique_complex(g.weights, _clique_skeleton(g.present, max_dim))


def build_rips_complex(points, max_dim: int, max_radius: float) -> FilteredComplex:
    """Vietoris-Rips complex on a Euclidean point cloud.

    Edges enter at their length (those above ``max_radius`` are excluded) and
    higher simplices at the maximum of their edge lengths.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty list of vectors")
    if not max_radius > 0:
        raise ConfigurationError("max_radius must be positive")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    return _clique_complex(dist, _clique_skeleton(np.triu(dist <= max_radius, 1), max_dim))


def doubled_lattice(grid: HeightGrid):
    """The cells of the grid's top-cell complex, flat in raster order over the
    doubled lattice, where entry (r, c) is the square at (2r+1, 2c+1): each
    cell's value, construction key, position i, j and dimension i % 2 + j % 2.
    Every edge and vertex takes the minimum over its incident squares (of a
    0.0/-0.0 tie, the last in row-major order); the cell at (i, j) has key
    (i // 2, j // 2, 1 if only i is odd else 0)."""
    size = (2 * grid.rows + 1, 2 * grid.cols + 1)
    squares = np.full((size[0] + 2, size[1] + 2), np.inf)
    squares[2:-2:2, 2:-2:2] = grid.values
    lowest = np.min([squares[a:a + size[0], b:b + size[1]]
                     for a in range(3) for b in range(3)], axis=0)
    i, j = np.indices(size).reshape(2, -1)
    keys = i // 2 * 2 * (grid.cols + 2) + j // 2 * 2 + i % 2 * (1 - j % 2)
    return lowest.ravel(), keys, i, j, (i % 2 + j % 2).astype(np.int8)  # int8 sorts fastest


def build_cubical_complex(grid: HeightGrid) -> FilteredComplex:
    """Top-cell cubical complex of a height grid.

    One 2-cell per grid entry at that height; every edge and vertex inherits
    the minimum over its incident 2-cells.  A cell of :func:`doubled_lattice`
    has as faces its neighbours along its odd axes.
    """
    values, keys, i, j, dims = doubled_lattice(grid)
    # In the raster listing, the next cell along an odd i is a row further on.
    cell, down, right = np.arange(len(values)), i % 2 * (2 * grid.cols + 1), j % 2
    faces = [np.column_stack([cell + a * down + b * right for a, b in steps])[dims == k]
             for k, steps in ((1, [(-1, -1), (1, 1)]), (2, [(-1, 0), (1, 0), (0, -1), (0, 1)]))]
    return _assemble(keys, dims, values, faces)
