"""The benchmark's workloads: inputs from a seed, one timed operation, and
checks of the operation's outputs against ``oracles``.

Importing this module imports ``topocorr``; ``worker.py`` puts the
checkout's ``src`` first on ``sys.path`` before it does.
"""

from __future__ import annotations

import csv
import math

import numpy as np

import oracles
from topocorr import dcor, experiment
from topocorr.complexes import HeightGrid, build_cubical_complex
from topocorr.dem import synth_terrain
from topocorr.metrics import parse_metric_spec
from topocorr.models import ModelSpec, derive_seed, generate
from topocorr.persistence import diagram_betti_count, persistent_betti
from topocorr.serialize import matrix_from_csv

RTOL = 1e-9  # program against oracle; the known landscape fault is >= 1e-4


def close(value, reference, rtol=RTOL, atol=1e-12):
    return abs(value - reference) <= atol + rtol * abs(reference)


def within(value, low, high):
    """``value`` in [low, high] up to RTOL, and the interval no wider than RTOL."""
    tol = 1e-12 + RTOL * abs(high)
    return high - low <= tol and low - tol <= value <= high + tol


class Workload:
    """One workload.  ``call`` is the timed operation.  ``check`` runs after
    the timed region on the first call's output and returns the problems it
    found as (operation, message) pairs; the operation is None for a problem
    outside every operation.  ``ops`` names the operations one call makes."""

    ops = ("call",)
    captures = ()  # (module, attribute) pairs whose results ``check`` reads

    def __init__(self, seed, params, workdir):
        self.seed = seed
        self.params = params

    def call(self):
        raise NotImplementedError

    def check(self, output, captured):
        raise NotImplementedError

    def same(self, first, other):
        """Whether a later call returned what the first one did."""
        raise NotImplementedError


def _diagram_from_csv_file(path):
    """(birth, death) rows of a written degree,birth,death diagram CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([(float(r[1]), float(r[2])) for r in rows]).reshape(-1, 2)


def _pairs_array(diagram):
    return np.array(diagram.pairs(), dtype=float).reshape(-1, 2)


# Pairs of samples the ER checks recompute: fixed, whatever the seed.
ER_PAIRS = ((0, 1), (0, 37), (1, 2), (3, 48), (5, 20), (7, 33), (10, 11), (12, 40),
            (15, 29), (18, 44), (21, 22), (24, 49), (26, 31), (30, 45), (35, 36), (41, 47))

# Reference pair on which the landscape L^1/L^2 fault was measured: ER n=25,
# seed derive_seed(1010, 0), samples 0 and 37.  It is checked on every run,
# so the outcome of each metric's check does not depend on --seed.
REFERENCE_SEED = derive_seed(1010, 0)
REFERENCE_SAMPLES = (0, 37)


class ErExperiment(Workload):
    """run_experiment: ER graphs, every default metric, artifacts on disk."""

    def __init__(self, seed, params, workdir):
        super().__init__(seed, params, workdir)
        self.cfg = experiment.RunConfig(
            model=ModelSpec("er", params["n"], seed=seed),
            repetitions=params["samples"], degree=1,
            metrics=tuple(parse_metric_spec(m) for m in params["metrics"]),
            out=workdir / "er", seed=seed, max_dim=2)
        self.ops = tuple(params["metrics"])

    def call(self):
        return experiment.run_experiment(self.cfg, threads=1)

    def same(self, first, other):
        return (all(np.array_equal(a.entries, b.entries)
                    for a, b in zip(first["matrices"], other["matrices"]))
                and np.array_equal(first["dcor"], other["dcor"])
                and first["flags"] == other["flags"])

    def _samples(self):
        """The pairs to check; for each sample they use, the written degree-1
        diagram and the edge weights; and, for the reference pair, the
        weights and the program's summaries."""
        out, cfg = self.cfg.out, self.cfg
        count = cfg.repetitions
        pairs = [(i, j) for i, j in ER_PAIRS if j < count] or [(0, 1)]
        used = sorted({k for pair in pairs for k in pair})
        diagrams = {k: _diagram_from_csv_file(out / "diagrams" / f"sample_{k:04d}.csv")
                    for k in used}
        weights = {k: generate(cfg.model, k).weights for k in used}
        # The reference pair, through the program's own pipeline.
        ref = []
        for k in REFERENCE_SAMPLES:
            raw = generate(ModelSpec("er", 25, seed=REFERENCE_SEED), k)
            ref.append((raw.weights, experiment.compute_bundle(
                experiment.build_complex("er", raw, 2), 1, cfg.metrics, 2)))
        return pairs, diagrams, weights, ref

    @staticmethod
    def _oracle(metric, d1, d2, w1, w2):
        """The oracle's value as a (low, high) interval; None for bottleneck."""
        name, p = metric.name, metric.params
        if name == "wasserstein":
            return oracles.transport_wasserstein(d1, d2, p["p"])
        value = ErExperiment._oracle_value(metric, d1, d2, w1, w2)
        return None if value is None else (value, value)

    @staticmethod
    def _oracle_value(metric, d1, d2, w1, w2):
        name, p = metric.name, metric.params
        if name == "landscape":
            return oracles.landscape_distance(d1, d2, p["p"])
        if name == "pss":
            return oracles.pss_distance(d1, d2, p["sigma"])
        if name == "swk":
            return oracles.swk_distance(d1, d2, p["sigma"], p.get("lines", 10))
        if name == "betti":
            return oracles.betti_distance(d1, d2, p["p"])
        if name == "euler":
            return oracles.euler_distance(w1, w2, p["p"])
        return None  # bottleneck: checked by the inequality chain

    def check(self, output, captured):
        problems = []
        mats = {m.label: m for m in output["matrices"]}
        pairs, diagrams, weights, ((rw0, rb0), (rw1, rb1)) = self._samples()
        for metric in self.cfg.metrics:
            label = metric.label
            cases = [(float(mats[label].entries[i, j]), diagrams[i], diagrams[j], weights[i], weights[j],
                      f"pair ({i},{j})") for i, j in pairs]
            kind = metric.summary_kind
            cases.append((metric.distance(rb0[kind], rb1[kind]),
                          _pairs_array(rb0["diagram"]), _pairs_array(rb1["diagram"]),
                          rw0, rw1, "reference pair"))
            for value, d1, d2, w1, w2, where in cases:
                expect = self._oracle(metric, d1, d2, w1, w2)
                if expect is not None and not within(value, *expect):
                    problems.append((label, f"{where}: program {value!r}, oracle {expect!r}"))
                    break
        # Landscape stability and norm monotonicity, entrywise:
        # |lambda - lambda'|_inf <= bottleneck <= W2 <= W1.
        chain = ["landscape:p=inf", "bottleneck", "wasserstein:p=2", "wasserstein:p=1"]
        if all(c in mats for c in chain):
            for lo, hi in zip(chain, chain[1:]):
                a, b = mats[lo].entries, mats[hi].entries
                if np.any(a > b * (1 + 1e-12) + 1e-15):
                    problems.append(("bottleneck", f"{lo} exceeds {hi}"))
        # dCor from plain double centering.
        labels = output["labels"]
        expect, cov = oracles.dcor_table([mats[label].entries for label in labels])
        if not np.allclose(output["dcor"], expect, rtol=RTOL, atol=1e-12):
            problems.append((None, "dcor matrix differs from plain double centering"))
        scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
        clear = np.abs(cov) > 1e-9 * scale
        if np.any(clear & ((cov < 0) != np.array(output["flags"]))):
            problems.append((None, "negative-dcov flags differ from the sign of dcov"))
        # Written matrices read back equal to the ones in memory.
        files = sorted((self.cfg.out / "matrices").glob("*.csv"))
        if len(files) != len(mats):
            problems.append((None, f"{len(files)} matrix files for {len(mats)} metrics"))
        for path in files:
            back = matrix_from_csv(path.read_text())
            if back.label not in mats or not np.array_equal(back.entries,
                                                            mats[back.label].entries):
                problems.append((None, f"{path.name} does not read back equal"))
        return problems


class GammaSweep(Workload):
    """run_parameter_correlation: one interpolated sample per gamma value."""

    captures = ((experiment, "pairwise_matrix"),)

    def __init__(self, seed, params, workdir):
        super().__init__(seed, params, workdir)
        self.cfg = experiment.RunConfig(
            model=ModelSpec("interpolated", params["n"], gamma=0.0, seed=seed),
            repetitions=2, degree=1,
            metrics=tuple(parse_metric_spec(m) for m in params["metrics"]),
            out=workdir / "sweep", seed=seed, max_dim=2,
            sweep=tuple(np.linspace(0.0, 1.0, params["gammas"])))

    def call(self):
        return experiment.run_parameter_correlation(self.cfg)

    def same(self, first, other):
        return first == other

    def check(self, output, captured):
        problems = []
        mats = {m.label: m for m in captured[(experiment, "pairwise_matrix")]}
        gammas = np.array(self.cfg.sweep)
        gamma_dist = np.abs(gammas[:, None] - gammas[None, :])
        if sorted(mats) != sorted(m.label for m in self.cfg.metrics):
            problems.append(f"matrices for {sorted(mats)}")
        for label, value, _ in output:
            expect = oracles.dcor_value(mats[label].entries, gamma_dist)
            if not close(value, expect):
                problems.append(f"{label}: dCor {value!r}, recomputed {expect!r}")
        if [v for _, v, _ in output] != sorted((v for _, v, _ in output), reverse=True):
            problems.append("rows are not sorted by dCor")
        return [("call", message) for message in problems]


class DemTerrain(Workload):
    """run_dem_pipeline: diamond-square terrain cut into overlapping chunks."""

    captures = ((experiment, "compute_persistence"),)

    def __init__(self, seed, params, workdir):
        super().__init__(seed, params, workdir)
        self.metrics = [parse_metric_spec(m) for m in params["metrics"]]

    def call(self):
        p = self.params
        return experiment.run_dem_pipeline(p["size"], p["roughness"], self.seed,
                                           p["chunk"], p["stride"], self.metrics)

    def same(self, first, other):
        return (first["rows"] == other["rows"] and first["tri"] == other["tri"]
                and all(np.array_equal(a.entries, b.entries)
                        for a, b in zip(first["matrices"], other["matrices"])))

    def _blocks(self):
        """Chunks in row-major order, cut here from the synthetic grid."""
        p = self.params
        grid = synth_terrain(p["size"], p["roughness"], self.seed).values
        size, chunk, stride = p["size"], p["chunk"], p["stride"]
        return [(grid[r:r + chunk, c:c + chunk], (r + (chunk - 1) / 2, c + (chunk - 1) / 2))
                for r in range(0, size - chunk + 1, stride)
                for c in range(0, size - chunk + 1, stride)]

    def check(self, output, captured):
        problems = []
        p = self.params
        diagrams = captured[(experiment, "compute_persistence")]
        blocks = self._blocks()
        expect_count = oracles.window_count(p["size"], p["chunk"], p["stride"])
        if not len(blocks) == len(output["tri"]) == len(diagrams) == expect_count:
            problems.append(f"{len(output['tri'])} chunks, {len(diagrams)} diagrams, "
                            f"sliding-window formula gives {expect_count}")
        for k, d in enumerate(diagrams):
            essential_h0 = sum(1 for (_, _, deg), ess in zip(d.points, d.essential)
                               if deg == 0 and ess)
            if essential_h0 != 1:
                problems.append(f"chunk {k}: {essential_h0} essential H0 bars")
        for k, ((block, _), value) in enumerate(zip(blocks, output["tri"])):
            expect = oracles.tri_loop(block.tolist())
            if not close(value, expect):
                problems.append(f"chunk {k}: tri {value!r}, per-pixel loop {expect!r}")
        for k in sorted({0, len(blocks) // 2, len(blocks) - 1}):
            block = blocks[k][0]
            cx = build_cubical_complex(HeightGrid.from_array(block))
            q = np.quantile(block, [0.2, 0.4, 0.6, 0.8])
            for deg in (0, 1):
                for a, b in ((q[0], q[1]), (q[1], q[3]), (q[2], q[2])):
                    rank = persistent_betti(cx, a, b, deg)
                    count = diagram_betti_count(diagrams[k], a, b, deg)
                    if rank != count:
                        problems.append(f"chunk {k}: persistent_betti {rank}, "
                                        f"diagram {count} at ({a}, {b}), H{deg}")
        centres = np.array([centre for _, centre in blocks])
        geo = 10.0 * np.hypot(centres[:, None, 0] - centres[None, :, 0],
                              centres[:, None, 1] - centres[None, :, 1])
        if not np.allclose(output["geo_matrix"].entries, geo, rtol=RTOL, atol=0):
            problems.append("chunk-centre distances differ")
        for mat, (label, to_tri, to_geo) in zip(output["matrices"], output["rows"]):
            for value, other in ((to_tri, output["tri_matrix"].entries), (to_geo, geo)):
                expect = oracles.dcor_value(mat.entries, other)
                if not close(value, expect):
                    problems.append(f"{label}: dCor {value!r}, recomputed {expect!r}")
        return [("call", message) for message in problems]


class PermTest(Workload):
    """permutation_test on two independent parameter matrices."""

    captures = ((dcor, "sample_dcov"),)

    def __init__(self, seed, params, workdir):
        super().__init__(seed, params, workdir)
        rng = np.random.Generator(np.random.PCG64(seed))
        self.x = experiment.parameter_matrix(rng.random(params["n"]), "x")
        self.y = experiment.parameter_matrix(rng.random(params["n"]), "y")

    def call(self):
        return dcor.permutation_test(self.x, self.y, self.params["permutations"], self.seed)

    def same(self, first, other):
        return first == other

    def check(self, output, captured):
        problems = []
        perms = self.params["permutations"]
        if not 1 / (perms + 1) <= output <= 1 or not math.isclose(
                output * (perms + 1), round(output * (perms + 1))):
            problems.append(f"p-value {output!r} is not k/{perms + 1}")
        observed = captured[(dcor, "sample_dcov")][0]
        expect = oracles.vstat_dcov(self.x.entries, self.y.entries)
        if not close(observed, expect, atol=1e-15):
            problems.append(f"observed dcov {observed!r}, V-statistic {expect!r}")
        dependent = dcor.permutation_test(self.x, self.x, perms, self.seed)
        if dependent != 1 / (perms + 1):
            problems.append(f"y = x gives p = {dependent!r}")
        return [("call", message) for message in problems]


WORKLOADS = {
    "er-experiment": (ErExperiment, {"n": 25, "samples": 50,
                                     "metrics": experiment.DEFAULT_METRICS}),
    "gamma-sweep": (GammaSweep, {"n": 25, "gammas": 100,
                                 "metrics": ("wasserstein:p=1", "betti:p=1", "swk:sigma=0.01")}),
    "dem-terrain": (DemTerrain, {"size": 257, "roughness": 0.4, "chunk": 64, "stride": 32,
                                 "metrics": ("wasserstein:p=2", "betti:p=1")}),
    "permtest": (PermTest, {"n": 500, "permutations": 999}),
}
