"""Elevation-grid ingestion, chunking, terrain ruggedness and synthetic terrain."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from topocorr.complexes import HeightGrid
from topocorr.errors import ConfigurationError, ParseError
from topocorr.models import _rng, derive_seed


@dataclass(frozen=True)
class ChunkSpec:
    """Sliding-window extraction parameters; stride = chunk_size/2 gives 50% overlap."""

    chunk_size: int
    stride: int
    max_chunks: int | None = None

    def __post_init__(self):
        if not 1 <= self.stride <= self.chunk_size:
            raise ConfigurationError("need 1 <= stride <= chunk_size")
        if self.max_chunks is not None and self.max_chunks < 1:
            raise ConfigurationError("max_chunks must be positive when set")


def load_grid(source) -> HeightGrid:
    """Parse an ESRI-ASCII-grid-style file or a headerless CSV matrix.

    ``source`` is a path or a string of file contents.  NODATA cells are
    rejected.
    """
    import os

    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, os.PathLike) or os.path.exists(str(source)):
        with open(source) as fh:
            text = fh.read()
    else:
        text = str(source)
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if not lines:
        raise ParseError("empty grid file", line=1)

    header = {}
    body_start = 0
    nodata = None
    for idx, (ln, line) in enumerate(lines):
        parts = line.split()
        if len(parts) == 2 and parts[0].lower() in (
                "ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value"):
            try:
                header[parts[0].lower()] = float(parts[1])
            except ValueError:
                raise ParseError(f"bad header value {parts[1]!r}", line=ln) from None
            body_start = idx + 1
        else:
            break
    if header:
        if "ncols" not in header or "nrows" not in header:
            raise ParseError("ASCII grid header needs ncols and nrows", line=lines[0][0])
        ncols, nrows = int(header["ncols"]), int(header["nrows"])
        nodata = header.get("nodata_value")
        numbers = []
        for ln, line in lines[body_start:]:
            for tok in line.replace(",", " ").split():
                try:
                    numbers.append(float(tok))
                except ValueError:
                    raise ParseError(f"bad number {tok!r}", line=ln) from None
        if len(numbers) != nrows * ncols:
            raise ParseError(
                f"expected {nrows * ncols} values, got {len(numbers)}",
                line=lines[body_start][0] if body_start < len(lines) else lines[-1][0])
        values = np.array(numbers).reshape(nrows, ncols)
    else:
        rows = []
        width = None
        for ln, line in lines:
            try:
                row = [float(tok) for tok in line.replace(",", " ").split()]
            except ValueError:
                raise ParseError("bad number in row", line=ln) from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(f"ragged row: expected {width} columns, got {len(row)}",
                                 line=ln)
            rows.append(row)
        values = np.array(rows)
    if nodata is not None and np.any(values == nodata):
        ln = lines[body_start][0] if header else lines[0][0]
        raise ParseError("NODATA values present", line=ln)
    return HeightGrid.from_array(values)


def chunk_grid(g: HeightGrid, spec: ChunkSpec):
    """Row-major sliding blocks; returns (HeightGrid, (center_row, center_col)) pairs."""
    s, t = spec.chunk_size, spec.stride
    if s > min(g.rows, g.cols):
        raise ConfigurationError("chunk_size exceeds grid extent")
    chunks = []
    for r0 in range(0, g.rows - s + 1, t):
        for c0 in range(0, g.cols - s + 1, t):
            block = HeightGrid.from_array(g.values[r0:r0 + s, c0:c0 + s])
            center = (r0 + (s - 1) / 2.0, c0 + (s - 1) / 2.0)
            chunks.append((block, center))
            if spec.max_chunks is not None and len(chunks) == spec.max_chunks:
                return chunks
    return chunks


def tri(g: HeightGrid) -> float:
    """Mean terrain ruggedness index over interior pixels.

    Per pixel: root of the summed squared elevation differences to the 8
    neighbors (Riley's index).
    """
    if g.rows < 3 or g.cols < 3:
        raise ValueError("grid must be at least 3x3")
    v = g.values
    center = v[1:-1, 1:-1]
    total = np.zeros_like(center)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            neighbor = v[1 + dr:v.shape[0] - 1 + dr, 1 + dc:v.shape[1] - 1 + dc]
            total += (neighbor - center) ** 2
    return float(np.sqrt(total).mean())


def chunk_center_distance(c1, c2, resolution: float) -> float:
    """Planar distance of chunk centers in grid units times the resolution."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    return resolution * math.hypot(c1[0] - c2[0], c1[1] - c2[1])


def synth_terrain(size: int, roughness: float, seed: int) -> HeightGrid:
    """Diamond-square fractal terrain on a (2^k + 1) grid, deterministic per seed."""
    if size < 3 or (size - 1) & (size - 2) != 0:
        raise ConfigurationError("size must be 2^k + 1 for some k >= 1")
    if not 0.0 < roughness <= 1.0:
        raise ConfigurationError("roughness must lie in (0, 1]")
    rng = _rng(derive_seed(seed, 0))
    grid = np.zeros((size, size))
    for corner in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
        grid[corner] = rng.uniform(-1.0, 1.0)
    step = size - 1
    amplitude = 1.0
    while step > 1:
        half = step // 2
        # Diamond step: centers of squares.
        for r in range(half, size, step):
            for c in range(half, size, step):
                mean = (grid[r - half, c - half] + grid[r - half, c + half]
                        + grid[r + half, c - half] + grid[r + half, c + half]) / 4.0
                grid[r, c] = mean + rng.uniform(-amplitude, amplitude)
        # Square step: edge midpoints.
        for r in range(0, size, half):
            start = half if (r // half) % 2 == 0 else 0
            for c in range(start, size, step):
                acc = []
                if r - half >= 0:
                    acc.append(grid[r - half, c])
                if r + half < size:
                    acc.append(grid[r + half, c])
                if c - half >= 0:
                    acc.append(grid[r, c - half])
                if c + half < size:
                    acc.append(grid[r, c + half])
                grid[r, c] = sum(acc) / len(acc) + rng.uniform(-amplitude, amplitude)
        amplitude *= roughness
        step = half
    return HeightGrid.from_array(grid)
