"""Independent brute-force reference implementations used only by tests.

These are written straight from the defining formulas, with no shared code
paths with the package implementations they check.
"""

import functools
import itertools
import math


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
    """L^p distance (p = 1 or 2) between the landscapes of two diagrams,
    with every level value taken from the sup definition.

    Between consecutive kinks of either diagram each level difference is
    linear; split at its zero, |difference|^p is a polynomial of degree p,
    which Simpson's rule integrates exactly.
    """
    depth = max(len(d1.pairs()), len(d2.pairs()))
    ts = sorted(_landscape_kinks(d1) | _landscape_kinks(d2))

    @functools.cache
    def diff(t):
        return [a - b for a, b in zip(_tent_values(d1, t, depth), _tent_values(d2, t, depth))]

    total = 0.0
    for t0, t1 in zip(ts, ts[1:]):
        for k in range(depth):
            v0, v1 = diff(t0)[k], diff(t1)[k]
            cuts = [t0, t1]
            if v0 * v1 < 0:
                cuts.insert(1, t0 + (t1 - t0) * v0 / (v0 - v1))
            for a, b in zip(cuts, cuts[1:]):
                total += (b - a) / 6 * (abs(diff(a)[k]) ** p
                                        + 4 * abs(diff((a + b) / 2)[k]) ** p
                                        + abs(diff(b)[k]) ** p)
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
    weight of those edges, a vertex at 0."""
    n = len(weights)
    tuples = itertools.permutations if ordered else itertools.combinations
    cells = []
    for k in range(max_dim + 1):
        for simplex in tuples(range(n), k + 1):
            edges = list(itertools.combinations(simplex, 2))
            if all(present[a][b] for a, b in edges):
                value = max((weights[a][b] for a, b in edges), default=0.0)
                faces = [simplex[:i] + simplex[i + 1:] for i in range(k + 1)] if k else []
                cells.append((simplex, k, value, faces))
    return _complex_text(cells)


def reference_cubical_text(values):
    """Text of the cubical complex of a height grid: a square per entry at
    its height, every edge and vertex at the lowest incident square.  Keys
    are (dim, r, c, orientation) on the vertex lattice; orientation 0 is
    the edge (r, c)-(r, c+1), orientation 1 the edge (r, c)-(r+1, c)."""
    rows, cols = len(values), len(values[0])

    def lowest(squares):
        return min(values[r][c] for r, c in squares if 0 <= r < rows and 0 <= c < cols)

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
