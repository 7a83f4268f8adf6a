"""Reference computations the benchmark checks the program's outputs against.

Each function works from the defining formula on plain numpy arrays and
shares no code with ``topocorr``.  Diagrams are ``(m, 2)`` float arrays of
``(birth, death)`` rows.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog


def transport_wasserstein(xs, ys, p):
    """Certified bounds (low, high) on the p-Wasserstein distance (L^p ground
    metric), from a transportation LP.

    Supply nodes are the points of ``xs`` (mass 1 each) plus one diagonal
    node of mass ``len(ys)``; demand nodes are the points of ``ys`` plus a
    diagonal node of mass ``len(xs)``.  Moving a point to the diagonal costs
    the p-th power of its L^p distance to its orthogonal projection,
    ``2 * ((death - birth) / 2) ** p``; diagonal to diagonal is free.  The
    solver's tolerances do not enter the bounds: ``high`` is the exact cost
    of its (integral) plan, ``low`` the exact value of its dual solution made
    feasible by lowering the column potentials.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    ys = np.asarray(ys, dtype=float).reshape(-1, 2)
    m, n = len(xs), len(ys)
    if m == 0 and n == 0:
        return 0.0, 0.0
    cost = np.zeros((m + 1, n + 1))
    cost[:m, :n] = (np.abs(xs[:, None, 0] - ys[None, :, 0]) ** p
                    + np.abs(xs[:, None, 1] - ys[None, :, 1]) ** p)
    cost[:m, n] = 2.0 * ((xs[:, 1] - xs[:, 0]) / 2.0) ** p
    cost[m, :n] = 2.0 * ((ys[:, 1] - ys[:, 0]) / 2.0) ** p
    supply = np.append(np.ones(m), n)
    demand = np.append(np.ones(n), m)
    rows, cols = m + 1, n + 1
    a_eq = np.zeros((rows + cols, rows * cols))
    for i in range(rows):
        a_eq[i, i * cols:(i + 1) * cols] = 1.0
    for j in range(cols):
        a_eq[rows + j, j::cols] = 1.0
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([supply, demand]),
                  bounds=(0, None), method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    # A basic solution of a transportation problem with integral masses is
    # integral; the rounded plan must still move every mass exactly.
    plan = np.rint(res.x).reshape(rows, cols)
    if not (np.array_equal(plan.sum(axis=1), supply) and np.array_equal(plan.sum(axis=0), demand)
            and plan.min() >= 0):
        raise RuntimeError("transport LP returned a fractional plan")
    u = res.eqlin.marginals[:rows]
    v = (cost - u[:, None]).min(axis=0)
    low = max(float(supply @ u + demand @ v), 0.0)
    high = float((plan * cost).sum())
    return low ** (1.0 / p), high ** (1.0 / p)


def _landscape_kinks(d):
    """Every t where some landscape level of ``d`` can change slope.

    Tents rise with slope +1 from each birth and fall with slope -1 to each
    death, so two tents cross only where a rising edge meets a falling one.
    """
    b, e = d[:, 0], d[:, 1]
    return np.concatenate([b, e, ((b[:, None] + e[None, :]) / 2.0).ravel()])


def _landscape_levels(d, ts, depth):
    """lambda_k(t) for k = 1..depth at each t: the k-th largest tent value."""
    tents = np.maximum(0.0, np.minimum(ts[:, None] - d[None, :, 0], d[None, :, 1] - ts[:, None]))
    tents = -np.sort(-tents, axis=1)
    out = np.zeros((len(ts), depth))
    out[:, :tents.shape[1]] = tents
    return out


def landscape_distance(d1, d2, p):
    """L^p distance between the landscapes of two diagrams (p = 1, 2 or inf).

    Levels come straight from the sup definition, evaluated at the union of
    both diagrams' kinks; in between, every level difference is linear, so
    the integrals below are exact.
    """
    d1 = np.asarray(d1, dtype=float).reshape(-1, 2)
    d2 = np.asarray(d2, dtype=float).reshape(-1, 2)
    depth = max(len(d1), len(d2))
    if depth == 0:
        return 0.0
    ts = np.unique(np.concatenate([_landscape_kinks(d1), _landscape_kinks(d2)]))
    diff = _landscape_levels(d1, ts, depth) - _landscape_levels(d2, ts, depth)
    if p == math.inf:
        return float(np.abs(diff).max())
    h = np.diff(ts)[:, None]
    v0, v1 = diff[:-1], diff[1:]
    if p == 1:
        a0, a1 = np.abs(v0), np.abs(v1)
        same = v0 * v1 >= 0
        # With a sign change the segment splits at its root into two triangles.
        denom = np.where(same, 1.0, a0 + a1)
        area = np.where(same, h * (a0 + a1) / 2.0, h * (v0 * v0 + v1 * v1) / (2.0 * denom))
        return float(area.sum())
    if p == 2:
        return math.sqrt(float((h * (v0 * v0 + v0 * v1 + v1 * v1) / 3.0).sum()))
    raise ValueError("landscape oracle handles p = 1, 2 and inf")


def _step_lp(ts, f, g, p):
    """(integral |f - g|^p)^(1/p) of step functions given on [ts[i], ts[i+1])."""
    return float((np.abs(f - g)[:-1] ** p * np.diff(ts)).sum() ** (1.0 / p))


def betti_distance(d1, d2, p):
    """L^p distance of Betti curves: beta(t) = #{bars with birth <= t < death}."""
    d1 = np.asarray(d1, dtype=float).reshape(-1, 2)
    d2 = np.asarray(d2, dtype=float).reshape(-1, 2)
    ts = np.unique(np.concatenate([d1.ravel(), d2.ravel()]))
    if len(ts) == 0:
        return 0.0

    def beta(d):
        return (np.searchsorted(np.sort(d[:, 0]), ts, side="right")
                - np.searchsorted(np.sort(d[:, 1]), ts, side="right"))

    return _step_lp(ts, beta(d1), beta(d2), p)


def flag_cell_values(weights):
    """Entry values of the vertices, edges and triangles of a flag complex."""
    n = weights.shape[0]
    iu = np.triu_indices(n, k=1)
    tri = np.array(list(itertools.combinations(range(n), 3)))
    tri_values = np.maximum.reduce([weights[tri[:, 0], tri[:, 1]],
                                    weights[tri[:, 0], tri[:, 2]],
                                    weights[tri[:, 1], tri[:, 2]]])
    return np.zeros(n), np.sort(weights[iu]), np.sort(tri_values)


def euler_distance(w1, w2, p):
    """L^p distance of the Euler curves of two flag complexes (cells up to
    dimension 2), from the alternating sum of cell counts in each sublevel
    set.  As in the program, the curve is closed at the largest filtration
    value, where every capped bar ends."""
    cells1, cells2 = flag_cell_values(w1), flag_cell_values(w2)
    ts = np.unique(np.concatenate(cells1 + cells2))

    def chi(cells):
        value = sum((-1) ** k * np.searchsorted(c, ts, side="right")
                    for k, c in enumerate(cells))
        return np.where(ts < max(c.max() for c in cells), value, 0)

    return _step_lp(ts, chi(cells1), chi(cells2), p)


def pss_distance(f, g, sigma):
    """Kernel distance of the persistence scale-space kernel,
    k(F, G) = 1/(8 pi sigma) sum_{x in F, y in G}
    [exp(-|x - y|^2 / (8 sigma)) - exp(-|x - ybar|^2 / (8 sigma))],
    with ybar the mirror image of y in the diagonal."""

    def kernel(a, b):
        total = 0.0
        for xb, xd in a:
            for yb, yd in b:
                total += (math.exp(-((xb - yb) ** 2 + (xd - yd) ** 2) / (8.0 * sigma))
                          - math.exp(-((xb - yd) ** 2 + (xd - yb) ** 2) / (8.0 * sigma)))
        return total / (8.0 * math.pi * sigma)

    f, g = [tuple(x) for x in f], [tuple(x) for x in g]
    return math.sqrt(max(kernel(f, f) + kernel(g, g) - 2.0 * kernel(f, g), 0.0))


def _w1_line(a, b):
    """1-D Wasserstein-1 distance of two equal-size point sets, as the
    integral of the difference of their counting functions."""
    ts = np.unique(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), ts, side="right")
    fb = np.searchsorted(np.sort(b), ts, side="right")
    return float((np.abs(fa - fb)[:-1] * np.diff(ts)).sum())


def swk_distance(d1, d2, sigma, lines):
    """Distance of the Gaussian sliced-Wasserstein kernel, sqrt(2 - 2 k).

    Each diagram is completed with the diagonal projections of the other's
    points; the sliced distance is the mean 1-D transport cost over the
    directions at angles i pi / lines.
    """
    d1 = np.asarray(d1, dtype=float).reshape(-1, 2)
    d2 = np.asarray(d2, dtype=float).reshape(-1, 2)
    side1 = np.concatenate([d1, np.repeat(d2.mean(axis=1), 2).reshape(-1, 2)])
    side2 = np.concatenate([d2, np.repeat(d1.mean(axis=1), 2).reshape(-1, 2)])
    if len(side1) == 0:
        sw = 0.0
    else:
        sw = sum(_w1_line(side1 @ u, side2 @ u)
                 for u in ((math.cos(i * math.pi / lines), math.sin(i * math.pi / lines))
                           for i in range(lines))) / lines
    return math.sqrt(max(2.0 - 2.0 * math.exp(-sw / (2.0 * sigma * sigma)), 0.0))


def centered(a):
    """J a J with J = I - 11^T / n."""
    n = a.shape[0]
    j = np.eye(n) - np.full((n, n), 1.0 / n)
    return j @ a @ j


def dcor_table(mats):
    """dCor between every pair of distance matrices, and dcov < 0 flags,
    from plain double centering."""
    cs = [centered(np.asarray(m, dtype=float)) for m in mats]
    n2 = cs[0].shape[0] ** 2
    cov = np.array([[float((x * y).sum()) / n2 for y in cs] for x in cs])
    var = np.diag(cov)
    with np.errstate(divide="ignore", invalid="ignore"):
        dcor = np.where(np.outer(var, var) > 0, cov / np.sqrt(np.outer(var, var)), 0.0)
    return np.sqrt(np.maximum(dcor, 0.0)), cov


def dcor_value(a, b):
    """dCor of two distance matrices."""
    table, _ = dcor_table([a, b])
    return float(table[0, 1])


def vstat_dcov(a, b):
    """Distance covariance V-statistic without centering:
    S1 + S2 - 2 S3 (Szekely, Rizzo and Bakirov 2007)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s1 = float((a * b).mean())
    s2 = float(a.mean() * b.mean())
    s3 = float((a.mean(axis=1) * b.mean(axis=1)).mean())
    return s1 + s2 - 2.0 * s3


def tri_loop(values):
    """Mean terrain ruggedness index, one interior pixel at a time."""
    rows, cols = len(values), len(values[0])
    total = 0.0
    for r in range(1, rows - 1):
        for c in range(1, cols - 1):
            centre = values[r][c]
            acc = 0.0
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr or dc:
                        acc += (values[r + dr][c + dc] - centre) ** 2
            total += math.sqrt(acc)
    return total / ((rows - 2) * (cols - 2))


def window_count(size, chunk, stride):
    """Number of chunk x chunk windows at the given stride in a size x size grid."""
    per_axis = (size - chunk) // stride + 1
    return per_axis * per_axis
