"""Independent brute-force reference implementations used only by tests.

These are written straight from the defining formulas, with no shared code
paths with the package implementations they check.  The ``*_pair``
functions are the per-pair bodies that the metric rows replaced, and
``permutation_p_value`` the unblocked permutation loop, kept as references
that the package must equal bit for bit.
"""

import bisect
import functools
import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from topocorr.dcor import double_center, sample_dcov
from topocorr.errors import NumericalFailure
from topocorr.models import derive_seed
from topocorr.summaries import StepCurve


def brute_wasserstein(d1, d2, p):
    """p-Wasserstein by enumerating every augmented partial matching.

    Each point of d1 is matched to a point of d2 or to its diagonal
    projection; unmatched d2 points go to the diagonal.  Matched pairs cost
    |db|^p + |dd|^p, diagonal assignments cost (2^{1/p-1}(death-birth))^p.
    """
    xs, ys = d1.pairs(), d2.pairs()

    def diag_cost(pt):
        return (2.0 ** (1.0 / p - 1.0) * (pt[1] - pt[0])) ** p

    def pair_cost(x, y):
        return abs(x[0] - y[0]) ** p + abs(x[1] - y[1]) ** p

    best = [math.inf]

    def recurse(i, used, acc):
        if acc >= best[0]:
            return
        if i == len(xs):
            total = acc + sum(diag_cost(y) for j, y in enumerate(ys) if j not in used)
            best[0] = min(best[0], total)
            return
        recurse(i + 1, used, acc + diag_cost(xs[i]))
        for j, y in enumerate(ys):
            if j not in used:
                recurse(i + 1, used | {j}, acc + pair_cost(xs[i], y))

    recurse(0, frozenset(), 0.0)
    return best[0] ** (1.0 / p)


def brute_bottleneck(d1, d2):
    """Bottleneck distance by enumerating every augmented partial matching."""
    xs, ys = d1.pairs(), d2.pairs()

    def diag_cost(pt):
        return (pt[1] - pt[0]) / 2.0

    def pair_cost(x, y):
        return max(abs(x[0] - y[0]), abs(x[1] - y[1]))

    best = [math.inf]

    def recurse(i, used, worst):
        if worst >= best[0]:
            return
        if i == len(xs):
            rest = [diag_cost(y) for j, y in enumerate(ys) if j not in used]
            best[0] = min(best[0], max([worst] + rest))
            return
        recurse(i + 1, used, max(worst, diag_cost(xs[i])))
        for j, y in enumerate(ys):
            if j not in used:
                recurse(i + 1, used | {j}, max(worst, pair_cost(xs[i], y)))

    recurse(0, frozenset(), 0.0)
    return best[0]


def _bottleneck_square(d1, d2):
    """The (m+n) square of L^inf costs where diagonal-to-diagonal moves are
    free, lb (each point's cheapest match at the worst point) and the
    candidate costs: those in (lb, ub], ub the all-to-diagonal cost, and lb."""
    xs, ys = d1.pairs(), d2.pairs()
    m, n = len(xs), len(ys)
    cost = np.zeros((m + n, m + n))
    cost[:m, :n] = np.maximum(np.abs(xs[:, None, 0] - ys[None, :, 0]),
                              np.abs(xs[:, None, 1] - ys[None, :, 1]))
    cost[:m, n:] = ((xs[:, 1] - xs[:, 0]) / 2.0)[:, None]
    cost[m:, :n] = ((ys[:, 1] - ys[:, 0]) / 2.0)[None, :]
    lb = max(cost[:m].min(axis=1, initial=math.inf).max(initial=0.0),
             cost[:, :n].min(axis=0, initial=math.inf).max(initial=0.0))
    ub = max(cost[:m, n:].max(initial=0.0), cost[m:, :n].max(initial=0.0))
    return cost, lb, np.union1d(cost[(cost > lb) & (cost <= ub)], lb)


def _perfect(within):
    """Whether the boolean square ``within`` holds a perfect matching."""
    indptr = np.concatenate([[0], np.cumsum(within.sum(axis=1))]).astype(np.int32)
    graph = csr_matrix((np.ones(indptr[-1], dtype=bool),
                        within.nonzero()[1].astype(np.int32), indptr), shape=within.shape)
    return (maximum_bipartite_matching(graph, perm_type="column") >= 0).all()


def bottleneck_binary_search(d1, d2):
    """Bottleneck distance by binary search over the candidate costs, each
    step one bipartite matching: a threshold is feasible when the costs
    within it admit a perfect matching; lb is probed first."""
    cost, lb, candidates = _bottleneck_square(d1, d2)
    lo, hi = (0, 0) if _perfect(cost <= lb) else (1, len(candidates) - 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if _perfect(cost <= candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def wasserstein_pair(d1, d2, p):
    """p-Wasserstein distance of one pair as one m x n assignment of the
    gains min(c - dx - dy, 0), returning the plan's own cost; 0 for equal
    diagrams, NumericalFailure when a powered cost overflows."""
    xs, ys = d1.pairs(), d2.pairs()
    if np.array_equal(xs, ys):
        return 0.0
    with np.errstate(over="ignore"):
        cost = (np.abs(xs[:, None, 0] - ys[None, :, 0]) ** p
                + np.abs(xs[:, None, 1] - ys[None, :, 1]) ** p)
        to_x = (2.0 ** (1.0 / p - 1.0) * (xs[:, 1] - xs[:, 0])) ** p
        to_y = (2.0 ** (1.0 / p - 1.0) * (ys[:, 1] - ys[:, 0])) ** p
    if not (np.isfinite(cost).all() and np.isfinite(to_x.sum() + to_y.sum())):
        raise NumericalFailure(f"powered transport costs overflow at p={p}")
    gain = np.minimum(cost - to_x[:, None] - to_y[None, :], 0.0)
    rows, cols = linear_sum_assignment(gain)
    paired = gain[rows, cols] < 0
    x_cost, y_left = to_x.copy(), np.ones(len(ys), dtype=bool)
    x_cost[rows[paired]], y_left[cols[paired]] = cost[rows, cols][paired], False
    return float(np.concatenate([x_cost, to_y[y_left]]).sum() ** (1.0 / p))


def bottleneck_pair(d1, d2):
    """Bottleneck distance of one pair from one assignment of rank weights
    on the whole (m+n) square and a certifying matching, as
    ``topocorr.metrics`` describes, with every cost of the square ranked."""
    cost, _, candidates = _bottleneck_square(d1, d2)
    rank = np.searchsorted(candidates, cost)
    levels = 2.0 ** (0.9 * np.minimum(np.arange(1, len(candidates)), 1000))
    weight = np.r_[0.0, levels, math.inf][rank]
    top = int(rank[linear_sum_assignment(weight)].max(initial=0))
    if top and _perfect(rank <= top - 1):
        top = bisect.bisect_left(range(top - 1), True, key=lambda r: _perfect(rank <= r))
    return float(candidates[top])


def sliced_wasserstein_pair(d1, d2, lines=10):
    """Sliced Wasserstein distance of one pair: both sides projected onto
    each line as x cos + y sin, point by point, and sorted."""
    p1, p2 = d1.pairs(), d2.pairs()
    diag1 = np.repeat(p1.mean(axis=1, keepdims=True), 2, axis=1)
    diag2 = np.repeat(p2.mean(axis=1, keepdims=True), 2, axis=1)
    side1 = np.concatenate([p1, diag2])
    side2 = np.concatenate([p2, diag1])
    total = 0.0
    for i in range(lines):
        c, s = math.cos(i * math.pi / lines), math.sin(i * math.pi / lines)
        a = np.sort(side1[:, 0] * c + side1[:, 1] * s)
        b = np.sort(side2[:, 0] * c + side2[:, 1] * s)
        total += np.abs(a - b).sum()
    return float(total) / lines


def sw_kernel_distance_pair(d1, d2, sigma, lines=10):
    """Gaussian sliced Wasserstein kernel distance of one pair."""
    sw = sliced_wasserstein_pair(d1, d2, lines)
    two_var = 2.0 * sigma * sigma
    radicand = 2.0 - 2.0 * (math.exp(-sw / two_var) if two_var > 0 else float(sw == 0))
    return math.sqrt(max(radicand, 0.0))


def curve_distance_pair(c1, c2, p):
    """L^p distance of two step curves on the union of their breakpoints."""
    ts = np.union1d(c1.breakpoints, c2.breakpoints)

    def values(c):
        padded = np.concatenate(([0], c.values, [0]))
        return padded[np.searchsorted(c.breakpoints, ts[:-1], side="right")]

    with np.errstate(over="ignore"):
        total = float(np.sum(np.abs(values(c1) - values(c2)) ** p * np.diff(ts)))
    if not math.isfinite(total):
        raise NumericalFailure(f"powered curve integral overflows at p={p}")
    return total ** (1.0 / p)


def _tent_values(diagram, t, depth):
    """The first ``depth`` landscape levels at t, straight from the
    definition: the tent values max(0, min(t - birth, death - t)) of all
    bars, largest first, padded with zeros."""
    tents = sorted((max(0.0, min(t - b, d - t)) for b, d in diagram.pairs()),
                   reverse=True)
    return tents[:depth] + [0.0] * (depth - len(tents))


def sup_landscape_value(diagram, k, t):
    """k-th landscape level at t: the k-th largest tent value."""
    return _tent_values(diagram, t, k)[k - 1]


def _landscape_kinks(diagram):
    """Every t at which a landscape level of ``diagram`` can bend: the bar
    ends, and the points (b + d) / 2 where a rising tent side t - b meets a
    falling one d - t."""
    births = {b for b, _ in diagram.pairs()}
    deaths = {d for _, d in diagram.pairs()}
    return births | deaths | {(b + d) / 2 for b in births for d in deaths}


def sup_landscape_distance(d1, d2, p):
    """L^p distance (p >= 1 or inf) between the landscapes of two diagrams,
    with every level value taken from the sup definition.

    Between consecutive kinks of either diagram each level difference is
    linear, so its sup is at a kink.  Split at its zero, |difference|^p is
    |x|^p for a linear x of one sign.  Gauss-Legendre quadrature on n nodes
    integrates polynomials of degree 2n - 1 exactly: n = (p + 1) / 2 nodes,
    rounded up, for an integer p, and 16 nodes otherwise, which leaves a
    relative error below 1e-10 (the worst case is a zero at a piece's end).
    """
    depth = max(len(d1.pairs()), len(d2.pairs()))
    ts = sorted(_landscape_kinks(d1) | _landscape_kinks(d2))

    @functools.cache
    def diff(t):
        return [a - b for a, b in zip(_tent_values(d1, t, depth), _tent_values(d2, t, depth))]

    if p == math.inf:
        return max((abs(v) for t in ts for v in diff(t)), default=0.0)
    nodes, weights = np.polynomial.legendre.leggauss(math.ceil((p + 1) / 2) if p == int(p) else 16)
    total = 0.0
    for t0, t1 in zip(ts, ts[1:]):
        for k in range(depth):
            v0, v1 = diff(t0)[k], diff(t1)[k]
            cuts = [t0, t1]
            if v0 * v1 < 0:
                cuts.insert(1, t0 + (t1 - t0) * v0 / (v0 - v1))
            for a, b in zip(cuts, cuts[1:]):
                total += (b - a) / 2 * sum(
                    w * abs(diff((a + b) / 2 + (b - a) / 2 * x)[k]) ** p
                    for x, w in zip(nodes.tolist(), weights.tolist()))
    return total ** (1.0 / p)


def bar_count_distance(d1, d2, p, degree=None):
    """L^p distance between the degree-``degree`` Betti curves of two
    diagrams or, with no degree, their Euler curves.

    On each interval between sorted bar ends the same bars are alive
    (birth <= t < death); each counts 1, or (-1)^degree for the Euler curve.
    """
    ends = sorted({x for d in (d1, d2) for b, e, _ in d.points for x in (b, e)})

    def count(d, t):
        return sum(1 if degree is not None else (-1) ** k
                   for b, e, k in d.points if b <= t < e and degree in (None, k))

    total = 0.0
    for t0, t1 in zip(ends, ends[1:]):
        total += abs(count(d1, t0) - count(d2, t0)) ** p * (t1 - t0)
    return total ** (1.0 / p)


def euler_from_betti(curves):
    """Alternating sum of Betti curves, degree 0 first, from their values on
    the union of their breakpoints; a breakpoint where the sum does not jump
    is dropped."""
    ts = sorted({t for c in curves for t in c.breakpoints.tolist()})

    def value(c, t):  # right-continuous, zero outside the breakpoints
        i = bisect.bisect_right(c.breakpoints.tolist(), t) - 1
        return int(c.values[i]) if 0 <= i < len(c.values) else 0

    sums = [sum((-1) ** k * value(c, t) for k, c in enumerate(curves)) for t in ts]
    jumps = [i for i, s in enumerate(sums) if s != (sums[i - 1] if i else 0)]
    return StepCurve([ts[i] for i in jumps], [sums[i] for i in jumps][:-1])


def _complex_text(cells):
    """``FilteredComplex.to_text()`` of cells given as ``(key, dim, value,
    face_keys)``: sorted by the tuple (value, dim, key), each face found
    through a dict from keys to positions."""
    cells = sorted(cells, key=lambda cell: (cell[2], cell[1], cell[0]))
    index = {cell[0]: i for i, cell in enumerate(cells)}
    lines = []
    for _, dim, value, face_keys in cells:
        faces = sorted(index[key] for key in face_keys)
        lines.append(" ".join([str(dim), repr(float(value))] + [str(f) for f in faces]))
    return "\n".join(lines) + "\n"


def reference_flag_text(weights, present, max_dim, ordered=False):
    """Text of the flag complex of the edges ``present[a][b]``: every vertex
    set of at most max_dim + 1 vertices with all pairs joined or, when
    ``ordered``, every vertex tuple with an edge from each vertex to every
    later one (the directed flag complex).  A simplex enters at the largest
    weight of those edges, a vertex at 0; of equal values, such as 0.0 and
    -0.0, the last in (later member, earlier member) order, after a 0.0."""
    n = len(weights)
    tuples = itertools.permutations if ordered else itertools.combinations
    cells = []
    for k in range(max_dim + 1):
        for simplex in tuples(range(n), k + 1):
            edges = [(simplex[i], simplex[j]) for j in range(k + 1) for i in range(j)]
            if all(present[a][b] for a, b in edges):
                # max keeps the first of equal values: reversed, the last.
                value = max(reversed([0.0] + [weights[a][b] for a, b in edges]))
                faces = [simplex[:i] + simplex[i + 1:] for i in range(k + 1)] if k else []
                cells.append((simplex, k, value, faces))
    return _complex_text(cells)


def reference_cubical_text(values):
    """Text of the cubical complex of a height grid: a square per entry at
    its height, every edge and vertex at the lowest incident square (the
    last in row-major order of equal values, such as 0.0 and -0.0).  Keys
    are (dim, r, c, orientation) on the vertex lattice; orientation 0 is
    the edge (r, c)-(r, c+1), orientation 1 the edge (r, c)-(r+1, c)."""
    rows, cols = len(values), len(values[0])

    def lowest(squares):
        return min(reversed([values[r][c] for r, c in squares if 0 <= r < rows and 0 <= c < cols]))

    cells = []
    for r in range(rows + 1):
        for c in range(cols + 1):
            cells.append(((0, r, c, 0), 0,
                          lowest([(r - 1, c - 1), (r - 1, c), (r, c - 1), (r, c)]), []))
            if c < cols:
                cells.append(((1, r, c, 0), 1, lowest([(r - 1, c), (r, c)]),
                              [(0, r, c, 0), (0, r, c + 1, 0)]))
            if r < rows:
                cells.append(((1, r, c, 1), 1, lowest([(r, c - 1), (r, c)]),
                              [(0, r, c, 0), (0, r + 1, c, 0)]))
            if r < rows and c < cols:
                cells.append(((2, r, c, 0), 2, values[r][c],
                              [(1, r, c, 0), (1, r + 1, c, 0), (1, r, c, 1), (1, r, c + 1, 1)]))
    return _complex_text(cells)


def reduce_columns(cx):
    """The persistence pairing by the standard column reduction of the
    boundary matrix, in filtration order, without clearing.

    Each column is a bitmask integer over its faces; adding a column is XOR
    and a column's pivot is its highest set bit, the latest face.  A column
    that keeps a non-zero pivot pairs (pivot, column); the cells that are
    neither pivots nor non-zero columns are unpaired.  Returns (pairs,
    unpaired cells).
    """
    ptr, faces = cx.indptr.tolist(), cx.indices.tolist()
    owner = {}
    pairs = []
    creators = set()
    for j in range(len(ptr) - 1):
        col = 0
        for f in faces[ptr[j]:ptr[j + 1]]:
            col ^= 1 << f
        while col and col.bit_length() - 1 in owner:
            col ^= owner[col.bit_length() - 1]
        if col:
            low = col.bit_length() - 1
            owner[low] = col
            pairs.append((low, j))
            creators.discard(low)
        else:
            creators.add(j)
    return pairs, creators


def diamond_square_loop(size, roughness, rng):
    """Diamond-square terrain set one point at a time, drawing one uniform
    from ``rng`` per point in the order the points are visited.

    The four corners come first.  Each pass of step s (half h) then sets the
    square centres row by row from their four corners, and the edge midpoints
    row by row (rows 0, h, 2h, ...) from the mean of the neighbours at
    distance h that lie on the grid.  The noise amplitude starts at 1 and
    shrinks by ``roughness`` per pass.
    """
    grid = np.zeros((size, size))
    for corner in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
        grid[corner] = rng.uniform(-1.0, 1.0)
    step = size - 1
    amplitude = 1.0
    while step > 1:
        half = step // 2
        for r in range(half, size, step):
            for c in range(half, size, step):
                mean = (grid[r - half, c - half] + grid[r - half, c + half]
                        + grid[r + half, c - half] + grid[r + half, c + half]) / 4.0
                grid[r, c] = mean + rng.uniform(-amplitude, amplitude)
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
    return grid


def permutation_p_value(dx, dy, permutations, seed):
    """The dcov permutation p-value, one full relabeled matrix per round.

    Each matrix is centred once; round r draws the r-th permutation of the
    ``PCG64(derive_seed(seed, 0))`` stream and takes sample_dcov of ``a``
    against ``b`` with rows and columns relabeled together.  p = (1 +
    #{permuted >= observed}) / (permutations + 1).
    """
    a, b = double_center(dx), double_center(dy)
    observed = sample_dcov(a, b)
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 0)))
    exceed = 0
    for _ in range(permutations):
        perm = rng.permutation(dx.n)
        exceed += sample_dcov(a, b[np.ix_(perm, perm)]) >= observed
    return (1 + exceed) / (permutations + 1)
