"""Seeded random generators for the experiment families.

Randomness contract: every generator is a pure function of (spec, seed).
Batch sample i uses the PCG64 stream seeded with splitmix64(seed XOR
i * 0x9E3779B97F4A7C15); uniforms on [0, 1) come from numpy's 53-bit
``Generator.random``.  The constants below are the splitmix64 finalizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(seed: int, index: int) -> int:
    """Mix a base seed with a sample index through splitmix64."""
    z = (seed ^ (index * _GOLDEN)) & _MASK64
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class ModelSpec:
    """One of the random model families, fully determined together with a seed."""

    kind: str
    n: int
    gamma: float | None = None
    seed: int = 0

    KINDS = ("er", "directed_er", "torus", "cube", "interpolated")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if (self.kind == "interpolated") != (self.gamma is not None):
            raise ValueError("gamma must be present exactly for the interpolated model")
        if self.gamma is not None and not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")


def gen_er(n: int, seed: int):
    """Complete graph with i.i.d. uniform [0,1) edge weights."""
    from topocorr.complexes import WeightedGraph

    rng = _rng(seed)
    w = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    w[iu] = rng.random(len(iu[0]))
    w = w + w.T
    return WeightedGraph(n, w)


def gen_directed_er(n: int, seed: int):
    """Complete digraph with n(n-1) independent uniform weights."""
    from topocorr.complexes import DirectedWeightedGraph

    rng = _rng(seed)
    w = rng.random((n, n))
    np.fill_diagonal(w, 0.0)
    return DirectedWeightedGraph(n, w)


def sample_torus(n: int, seed: int) -> np.ndarray:
    """n points on the flat torus in R^4: (s,t) -> (cos s, sin s, cos t, sin t)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _rng(seed)
    angles = rng.random((n, 2)) * 2.0 * np.pi
    return np.column_stack([np.cos(angles[:, 0]), np.sin(angles[:, 0]),
                            np.cos(angles[:, 1]), np.sin(angles[:, 1])])


def sample_cube(n: int, seed: int) -> np.ndarray:
    """n points uniform in the unit cube [0,1)^3."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _rng(seed).random((n, 3))


def gen_interpolated(n: int, gamma: float, seed: int):
    """Edge weights drawn from uniform noise with probability gamma, else
    from pairwise distances of a fresh uniform point cloud in the unit cube."""
    from topocorr.complexes import WeightedGraph

    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    rng = _rng(seed)
    points = rng.random((n, 3))
    geom = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))
    noise = np.zeros((n, n))
    pick = np.zeros((n, n), dtype=bool)
    iu = np.triu_indices(n, k=1)
    noise[iu] = rng.random(len(iu[0]))
    pick[iu] = rng.random(len(iu[0])) < gamma
    w = np.where(pick, noise, geom)
    w = np.triu(w, k=1)
    w = w + w.T
    return WeightedGraph(n, w)


def generate(spec: ModelSpec, index: int = 0):
    """Draw sample ``index`` of a model spec; returns a graph or a point cloud."""
    seed = derive_seed(spec.seed, index)
    if spec.kind == "er":
        return gen_er(spec.n, seed)
    if spec.kind == "directed_er":
        return gen_directed_er(spec.n, seed)
    if spec.kind == "torus":
        return sample_torus(spec.n, seed)
    if spec.kind == "cube":
        return sample_cube(spec.n, seed)
    return gen_interpolated(spec.n, spec.gamma, seed)
