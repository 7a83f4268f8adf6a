"""Text and CSV formats for diagrams, landscapes, curves and matrices, and the
SVG heatmap of a dCor table: one reader of input files, one CSV writer."""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from topocorr.errors import ConfigurationError, ParseError
from topocorr.metrics import DistanceMatrix
from topocorr.persistence import PersistenceDiagram
from topocorr.summaries import PersistenceLandscape, StepCurve


def rows_to_csv(header, rows) -> str:
    """CSV text of a ``header`` row and ``rows``, as every CSV the package writes:
    CRLF records from one ``csv.writer``, each field as ``str`` gives it (``repr``
    for a Python float), quoted if it holds a comma."""
    out = io.StringIO()
    csv.writer(out).writerows([str(field) for field in row] for row in (header, *rows))
    return out.getvalue()


def parse_file(path, parse):
    """``parse`` applied to the text of the file at ``path``, the one reader of
    every input file; an unreadable file, or one that ``parse`` rejects with a
    ValueError, is a ConfigurationError."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except (ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _csv_rows(text):
    """The rows of CSV ``text`` that hold a non-blank field, as (file line,
    row) pairs."""
    reader = csv.reader(io.StringIO(text))
    return [(reader.line_num, r) for r in reader if any(cell.strip() for cell in r)]


def diagram_to_csv(d: PersistenceDiagram) -> str:
    """Rows of ``degree,birth,death,essential``; essential is 1 for a capped bar."""
    return rows_to_csv(["degree", "birth", "death", "essential"],
                       ([int(k), b, death, int(essential)] for (b, death, k), essential
                        in zip(d.points.tolist(), d.essential.tolist())))


def diagram_from_csv(text: str) -> PersistenceDiagram:
    """Diagram from :func:`diagram_to_csv` text; the ``essential`` column may be
    absent."""
    rows = _csv_rows(text)
    if not rows:
        raise ParseError("empty diagram CSV", line=1)
    header = [c.strip().lower() for c in rows[0][1]]
    if header[:3] != ["degree", "birth", "death"]:
        raise ParseError("expected header degree,birth,death", line=rows[0][0])
    has_flags = header[3:4] == ["essential"]
    points, flags = [], []
    for ln, row in rows[1:]:
        try:
            birth, death, degree = float(row[1]), float(row[2]), int(row[0])
            essential = int(row[3]) if has_flags else 0
        except (ValueError, IndexError):
            raise ParseError("malformed diagram row", line=ln) from None
        if not (math.isfinite(birth) and math.isfinite(death)):
            raise ParseError("birth and death must be finite", line=ln)
        if essential not in (0, 1):
            raise ParseError("essential must be 0 or 1", line=ln)
        points.append((birth, death, degree))
        flags.append(essential == 1)
    return PersistenceDiagram(points, flags)


def landscape_to_text(l: PersistenceLandscape) -> str:
    """One line per level: alternating t and value fields."""
    lines = []
    for level in l.levels:
        fields = []
        for t, v in level.tolist():
            fields.append(repr(t))
            fields.append(repr(v))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def curve_to_csv(c: StepCurve) -> str:
    """Rows of ``breakpoint,value``; the final breakpoint carries the exit value 0."""
    return rows_to_csv(["breakpoint", "value"], zip(c.breakpoints.tolist(), c.values.tolist() + [0]))


def matrix_to_csv(m: DistanceMatrix) -> str:
    return rows_to_csv([m.label] * m.n, m.entries.tolist())


def matrix_from_csv(text: str) -> DistanceMatrix:
    rows = _csv_rows(text)
    if len(rows) < 2:
        raise ParseError("matrix CSV needs a label header and entries", line=1)
    label = rows[0][1][0]
    entries = []
    for ln, row in rows[1:]:
        try:
            entries.append([float(x) for x in row])
        except ValueError:
            raise ParseError("malformed matrix row", line=ln) from None
        if len(row) != len(rows) - 1:
            raise ParseError("matrix is not square", line=ln)
    return DistanceMatrix(np.array(entries), label)


def labeled_matrix_to_csv(matrix: np.ndarray, labels) -> str:
    """Square matrix with a label header row and label column (dCor output)."""
    return rows_to_csv(["", *labels], ([label, *row] for label, row
                                       in zip(labels, np.asarray(matrix, dtype=float).tolist())))


def _heat_color(value, flagged):
    if flagged:
        return "#c51b8a"
    v = min(max(value, 0.0), 1.0)
    r = int(round(255 + (8 - 255) * v))
    g = int(round(255 + (72 - 255) * v))
    b = int(round(255 + (135 - 255) * v))
    return f"#{r:02x}{g:02x}{b:02x}"


def render_heatmap(matrix, labels, flags) -> str:
    """Standalone SVG heatmap with a fixed [0, 1] color scale.

    Negative-flagged entries get a sentinel color instead of the scale.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n) or len(labels) != n:
        raise ValueError("labels must match a square matrix")
    cell = 56
    margin = 170
    width = margin + n * cell + 10
    height = margin + n * cell + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        '<style>text{font-family:monospace;font-size:11px;}</style>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i, label in enumerate(labels):
        y = margin + i * cell + cell / 2 + 4
        parts.append(f'<text x="4" y="{y}">{label}</text>')
        x = margin + i * cell + cell / 2
        parts.append(
            f'<text x="{x}" y="{margin - 8}" transform="rotate(-60 {x} {margin - 8})">{label}</text>')
    for i in range(n):
        for j in range(n):
            flagged = bool(flags[i][j])
            color = _heat_color(matrix[i, j], flagged)
            x = margin + j * cell
            y = margin + i * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                         f'fill="{color}" stroke="#999"/>')
            text_fill = "white" if (matrix[i, j] > 0.6 and not flagged) else "black"
            parts.append(f'<text x="{x + cell / 2}" y="{y + cell / 2 + 4}" '
                         f'text-anchor="middle" fill="{text_fill}">{matrix[i, j]:.2f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
