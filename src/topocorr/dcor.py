"""Sample distance covariance/correlation and the permutation independence test.

The estimator is the plug-in V-statistic: double-center both distance
matrices, then average the entrywise product over all n^2 index pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from topocorr.errors import NumericalFailure
from topocorr.metrics import DistanceMatrix
from topocorr.models import derive_seed


@dataclass(frozen=True)
class DcorReport:
    """Signed dcov/dvar/dcor together with their square-rooted conventions.

    ``negative_flag`` is raised when dcov < 0, which can only happen for
    metrics that are not of negative type.
    """

    dcov: float
    dvar_x: float
    dvar_y: float
    dcor: float
    dCov: float
    dVar_x: float
    dVar_y: float
    dCor: float
    negative_flag: bool

    def to_text(self):
        return "".join(f"{f.name}={getattr(self, f.name)!r}\n" for f in fields(self))


def double_center(d: DistanceMatrix) -> np.ndarray:
    """A_{k,l} = a_{k,l} - rowmean_k - colmean_l + grandmean, whose rows and
    columns sum to zero; ValueError below 2 samples, NumericalFailure unless
    the squares of A have a finite sum (Cauchy-Schwarz)."""
    if d.n < 2:
        raise ValueError("need at least 2 samples")
    a = d.entries
    with np.errstate(over="ignore", invalid="ignore"):
        centered = a - a.mean(axis=1, keepdims=True) - a.mean(axis=0, keepdims=True) + a.mean()
        finite = np.isfinite(np.vdot(centered, centered))
    if not finite:
        raise NumericalFailure("centered distances overflow: their squares have no finite sum")
    return centered


def sample_dcov(a: np.ndarray, b: np.ndarray) -> float:
    """V-statistic distance covariance of two centered matrices; may be
    negative off negative-type spaces."""
    if a.shape != b.shape:
        raise ValueError("centered matrices must have equal size")
    return float((a * b).sum() / a.size)


def _report(dcov, dvar_x, dvar_y) -> DcorReport:
    """The report of one dcov and the two dvars it is normalised by."""
    if not np.isfinite(dvar_x * dvar_y):
        raise NumericalFailure("dvar_x * dvar_y overflows")
    # Zero dvar is a single-point distribution: no information.
    informative = dvar_x > 0 and dvar_y > 0
    dcor = dcov / np.sqrt(dvar_x * dvar_y) if informative else 0.0
    return DcorReport(
        dcov=dcov,
        dvar_x=dvar_x,
        dvar_y=dvar_y,
        dcor=float(dcor),
        dCov=float(np.sqrt(max(dcov, 0.0))),
        dVar_x=float(np.sqrt(dvar_x)),
        dVar_y=float(np.sqrt(dvar_y)),
        dCor=float(np.sqrt(max(dcor, 0.0))),
        negative_flag=bool(informative and dcov < 0),
    )


def sample_dcor(dx: DistanceMatrix, dy: DistanceMatrix) -> DcorReport:
    """Full distance correlation report between two distance matrices: the
    1x1 case of :func:`dcor_matrix`."""
    if dx.n != dy.n:
        raise ValueError("distance matrices must have equal size")
    a, b = double_center(dx), double_center(dy)
    return _report(sample_dcov(a, b), sample_dcov(a, a), sample_dcov(b, b))


def dcor_matrix(xs, ys=None) -> tuple[np.ndarray, list[list[bool]]]:
    """dCor of every distance matrix in ``xs`` against every one in ``ys``
    (default: ``xs`` itself) and the negative-dcov flags, len(xs) x len(ys).
    Each matrix is centred once; entry (i, j) equals sample_dcor(xs[i], ys[j])."""
    cx = [double_center(m) for m in xs]
    cy = cx if ys is None else [double_center(m) for m in ys]
    var_x = [sample_dcov(a, a) for a in cx]
    var_y = var_x if ys is None else [sample_dcov(b, b) for b in cy]
    reports = [[_report(sample_dcov(a, b), vx, vy) for b, vy in zip(cy, var_y)]
               for a, vx in zip(cx, var_x)]
    return (np.array([[r.dCor for r in row] for row in reports]).reshape(len(cx), len(cy)),
            [[r.negative_flag for r in row] for row in reports])


def permutation_test(dx: DistanceMatrix, dy: DistanceMatrix,
                     permutations: int, seed: int) -> float:
    """Permutation p-value for independence based on dcov.

    Labels of ``dy`` are permuted (simultaneous row/column permutation) and
    dcov recomputed; p = (1 + #{permuted >= observed}) / (permutations + 1).
    """
    if permutations < 1:
        raise ValueError("need at least one permutation")
    a = double_center(dx)
    b = double_center(dy)
    observed = sample_dcov(a, b)
    n = dx.n
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 0)))
    exceed = 0
    # Centering commutes with relabeling, so each round writes
    # a * b[perm][:, perm] into ``products`` 64 rows at a time, each block
    # gathered and multiplied while in cache. Blocks change only when an
    # entry is written, not its value or place, so the one ``.sum()`` adds
    # the same products in the same C order as sample_dcov on the permuted
    # matrix, and every statistic equals sample_dcov's bit for bit.
    # mode="wrap" keeps ``take`` from buffering ``out``.
    products, rows = np.empty((n, n)), np.empty((min(64, n), n))
    for _ in range(permutations):
        perm = rng.permutation(n)
        for start in range(0, n, 64):
            block, part = products[start:start + 64], perm[start:start + 64]
            gathered = rows[:len(part)]
            b.take(part, axis=0, out=gathered, mode="wrap")
            gathered.take(perm, axis=1, out=block, mode="wrap")
            np.multiply(a[start:start + 64], block, out=block)
        stat = float(products.sum() / (n * n))
        exceed += stat >= observed
    return (1 + exceed) / (permutations + 1)
