"""Filtered cell complexes from graphs, point clouds and height grids.

All builders produce a :class:`FilteredComplex` whose cells are totally
ordered by (filtration value, dimension, construction key), so faces always
precede cofaces and the order is deterministic for a given input.  A
construction key is encoded as one integer per cell: the base-n digits of a
vertex tuple, or a grid cell's place among those of its dimension in
(r, c, orientation) order.  The clique builders filter a clique skeleton by
one weight matrix; flag complexes share a cached skeleton per (n, max_dim), as
directed flag complexes do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from topocorr.errors import ConfigurationError, ParseError


def _finite_matrix(values, name, square=True):
    """``values`` as a non-empty 2-D float array, square unless ``square`` is
    false, whose entries are finite; else a ValueError naming ``name``."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or not a.size or (square and a.shape[0] != a.shape[1]):
        raise ValueError(f"{name} must be a non-empty {'square' if square else '2-D'} array")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


@dataclass(frozen=True, eq=False)
class DirectedWeightedGraph:
    """Complete digraph: the two orientations of a pair carry independent
    weights (diagonal unused)."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _finite_matrix(self.weights, "weights"))

    @property
    def n(self):
        return len(self.weights)


@dataclass(frozen=True, eq=False)
class WeightedGraph(DirectedWeightedGraph):
    """Complete undirected graph: a digraph whose two orientations of a pair
    carry one weight."""

    def __post_init__(self):
        super().__post_init__()
        if not np.array_equal(self.weights, self.weights.T):
            raise ValueError("weights must be symmetric")


@dataclass(frozen=True, eq=False)
class HeightGrid:
    """Rectangular elevation grid of finite heights; cells ``cellsize`` wide."""

    values: np.ndarray
    cellsize: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "values", _finite_matrix(self.values, "grid values", False))
        if not 0 < self.cellsize < np.inf:
            raise ValueError("cellsize must be positive and finite")

    @property
    def rows(self):
        return self.values.shape[0]

    @property
    def cols(self):
        return self.values.shape[1]

    @classmethod
    def from_array(cls, values):
        return cls(values)


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

        Values are finite; faces precede their cofaces, one dimension down
        and entering no later; cells are in (value, dim) order; no cell lists
        a face twice; every edge has two vertices; every boundary's boundary
        is zero.
        """
        dims, values = self.dims.tolist(), self.values.tolist()
        ptr, faces = self.indptr.tolist(), self.indices.tolist()
        for i in range(len(dims)):
            own = faces[ptr[i]:ptr[i + 1]]
            if dims[i] < 0:
                raise ValueError(f"cell {i}: negative dimension")
            if not math.isfinite(values[i]):
                raise ValueError(f"cell {i}: value {values[i]} is not finite")
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
def _flag_skeleton(n, max_dim, directed=False):
    """The clique skeleton of the complete graph on n vertices or, when
    ``directed``, of the complete digraph, read-only: every flag complex of
    that kind on n vertices shares it."""
    edges = ~np.eye(n, dtype=bool)
    codes, dims, levels = _clique_skeleton(edges if directed else np.triu(edges), max_dim)
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
    """Directed flag complex of a complete weighted digraph: every ordered
    tuple (v0..vk) of distinct vertices, k <= max_dim.

    Reciprocal edge pairs yield two distinct 1-simplices; a simplex enters at
    the maximum of its edge weights vi->vj, i<j.  Calls with one (n, max_dim)
    share a cached skeleton.
    """
    return _clique_complex(g.weights, _flag_skeleton(g.n, max_dim, True))


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


@lru_cache(maxsize=1)
def _lattice_edges(rows, cols):
    """Per edge of a rows x cols grid in key order, read-only: its two vertices,
    its two squares (rows * cols for the outside) and their places in the grid
    framed by the outside, row-major.  Cached: a DEM run's chunks share a shape."""
    r, c, down = np.indices((rows + 1, cols + 1, 2)).reshape(3, -1)
    keep = np.where(down, r < rows, c < cols)
    r, c, down = r[keep], c[keep], down[keep]
    ids = np.pad(np.arange(rows * cols).reshape(rows, cols), 1, constant_values=rows * cols)
    at = np.stack(((r + down) * (cols + 2) + c + 1 - down, (r + 1) * (cols + 2) + c + 1))
    ends = np.column_stack((r * (cols + 1) + c, (r + down) * (cols + 1) + c + 1 - down))
    cached = ends, ids.take(at.T), at
    for array in cached:
        array.flags.writeable = False
    return cached


def square_lattice(squares, outside=np.inf):
    """The cells of a grid's top-cell complex, flat in raster order: vertex
    and square values, then the edges in key order (r, c, right before down)
    with their values, vertices and squares (rows * cols for the outside, which
    holds ``outside``).  An edge or a vertex takes the minimum of its squares
    by np.minimum in row-major order, which keeps the last of equal values (0.0, -0.0)."""
    frame = np.full((squares.shape[0] + 2, squares.shape[1] + 2), outside, dtype=squares.dtype)
    frame[1:-1, 1:-1] = squares
    vertices = reduce(np.minimum, (frame[:-1, :-1], frame[:-1, 1:], frame[1:, :-1], frame[1:, 1:]))
    ends, sides, at = _lattice_edges(*squares.shape)
    return vertices.ravel(), squares.ravel(), np.minimum(*frame.take(at)), ends, sides


def build_cubical_complex(grid: HeightGrid) -> FilteredComplex:
    """Top-cell cubical complex of a height grid: one 2-cell per grid entry at
    that height; every edge and vertex at the lowest of its 2-cells.  Cells
    are keyed by their place in :func:`square_lattice`'s listing, and a
    square's faces are the four edges that list it.
    """
    vertices, squares, edges, ends, sides = square_lattice(grid.values)
    dims = np.repeat(np.arange(3), (len(vertices), len(edges), len(squares)))
    faces = np.argsort(sides.ravel(), kind="stable")[:4 * len(squares)] // 2
    return _assemble(np.arange(len(dims)), dims, np.concatenate((vertices, edges, squares)),
                     [ends, len(vertices) + faces.reshape(-1, 4)])
