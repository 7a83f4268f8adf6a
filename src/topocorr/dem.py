"""Elevation-grid ingestion, chunking, terrain ruggedness and synthetic terrain."""

from __future__ import annotations

import numpy as np

from topocorr.complexes import HeightGrid
from topocorr.errors import ConfigurationError, ParseError
from topocorr.models import _rng, derive_seed


_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "xllcenter", "yllcenter",
                "cellsize", "nodata_value")


def load_grid(text: str) -> HeightGrid:
    """Parse the text of an ESRI ASCII grid or of a headerless CSV matrix.

    Header lines come first; the body is rows of comma- or space-separated
    numbers.  An ESRI body may wrap its nrows x ncols values across lines;
    headerless rows must all have the same width.  NODATA cells are rejected.
    """
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if not lines:
        raise ParseError("empty grid file", line=1)
    header, body_start = {}, 0
    for ln, line in lines:
        parts = line.split()
        key = parts[0].lower()
        if len(parts) != 2 or key not in _HEADER_KEYS:
            break
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise ParseError(f"bad header value {parts[1]!r}", line=ln) from None
        if key in ("ncols", "nrows") and not (header[key] >= 1 and header[key].is_integer()):
            raise ParseError(f"{key} must be a positive whole number, got {parts[1]!r}", line=ln)
        body_start += 1
    if header and not {"ncols", "nrows"} <= header.keys():
        raise ParseError("ASCII grid header needs ncols and nrows", line=lines[0][0])
    rows = []
    for ln, line in lines[body_start:]:
        row = []
        for tok in line.replace(",", " ").split():
            try:
                row.append(float(tok))
            except ValueError:
                raise ParseError(f"bad number {tok!r}", line=ln) from None
        rows.append((ln, row))
    body_line = lines[min(body_start, len(lines) - 1)][0]
    if header:
        ncols, nrows = int(header["ncols"]), int(header["nrows"])
        numbers = [x for _, row in rows for x in row]
        if len(numbers) != nrows * ncols:
            raise ParseError(f"expected {nrows * ncols} values, got {len(numbers)}",
                             line=body_line)
        values = np.array(numbers).reshape(nrows, ncols)
    else:
        width = len(rows[0][1])
        for ln, row in rows:
            if len(row) != width:
                raise ParseError(f"ragged row: expected {width} columns, got {len(row)}", line=ln)
        values = np.array([row for _, row in rows])
    if "nodata_value" in header and np.any(values == header["nodata_value"]):
        raise ParseError("NODATA values present", line=body_line)
    return HeightGrid.from_array(values)


def chunk_grid(g: HeightGrid, chunk_size: int, stride: int, max_chunks: int | None = None):
    """Row-major sliding blocks, at most ``max_chunks`` of them; returns
    (HeightGrid, (center_row, center_col)) pairs.  stride = chunk_size/2
    gives 50% overlap."""
    s, t = chunk_size, stride
    if s < 3:
        raise ConfigurationError("chunk_size must be >= 3: tri needs an interior pixel")
    if not 1 <= t <= s:
        raise ConfigurationError("need 1 <= stride <= chunk_size")
    if max_chunks is not None and max_chunks < 1:
        raise ConfigurationError("max_chunks must be positive when set")
    if s > min(g.rows, g.cols):
        raise ConfigurationError("chunk_size exceeds grid extent")
    origins = [(r, c) for r in range(0, g.rows - s + 1, t) for c in range(0, g.cols - s + 1, t)]
    return [(HeightGrid.from_array(g.values[r:r + s, c:c + s]),
             (r + (s - 1) / 2.0, c + (s - 1) / 2.0)) for r, c in origins[:max_chunks]]


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


def synth_terrain(size: int, roughness: float, seed: int) -> HeightGrid:
    """Diamond-square fractal terrain on a (2^k + 1) grid, deterministic per seed.

    Each pass sets square centres, then edge midpoints, to the mean of their
    on-grid neighbours plus one uniform draw per point, in row-major order."""
    if size < 3 or (size - 1) & (size - 2) != 0:
        raise ConfigurationError("size must be 2^k + 1 for some k >= 1")
    if not 0.0 < roughness <= 1.0:
        raise ConfigurationError("roughness must lie in (0, 1]")
    rng = _rng(derive_seed(seed, 0))
    grid = np.zeros((size, size))
    grid[::size - 1, ::size - 1] = rng.uniform(-1.0, 1.0, (2, 2))
    step, amplitude = size - 1, 1.0
    while step > 1:
        half, k = step // 2, (size - 1) // step
        corners = grid[::step, ::step]
        grid[half::step, half::step] = (
            (corners[:-1, :-1] + corners[:-1, 1:] + corners[1:, :-1] + corners[1:, 1:])
            / 4.0 + rng.uniform(-amplitude, amplitude, (k, k)))
        # k squares per side: k edge midpoints per corner row, k + 1 per centre
        # row.  Sums run 0 + up + down + left + right; off-grid neighbours are 0.
        pad = np.zeros((k + 2, k + 2))
        pad[1:-1, 1:-1] = grid[half::step, half::step]
        counts = np.r_[3.0, np.full(k - 1, 4.0), 3.0]
        noise = rng.uniform(-amplitude, amplitude, 2 * k * (k + 1))
        paired = noise[:k * (2 * k + 1)].reshape(k, 2 * k + 1)
        grid[::step, half::step] = (
            (0.0 + pad[:-1, 1:-1] + pad[1:, 1:-1] + corners[:, :-1] + corners[:, 1:])
            / counts[:, None] + np.vstack([paired[:, :k], noise[-k:]]))
        grid[half::step, ::step] = (
            (0.0 + corners[:-1] + corners[1:] + pad[1:-1, :-1] + pad[1:-1, 1:])
            / counts + paired[:, k:])
        amplitude *= roughness
        step = half
    return HeightGrid.from_array(grid)
