"""Topological summaries of filtered complexes and distance correlation between them."""

from topocorr.complexes import (
    DirectedWeightedGraph,
    FilteredComplex,
    HeightGrid,
    WeightedGraph,
    build_cubical_complex,
    build_directed_flag_complex,
    build_flag_complex,
    build_rips_complex,
)
from topocorr.persistence import PersistenceDiagram, compute_persistence
from topocorr.summaries import (
    PersistenceLandscape,
    StepCurve,
    betti_curve,
    euler_curve,
    landscape_from_diagram,
    simplex_count_curve,
)

__version__ = "0.1.0"

__all__ = [
    "WeightedGraph",
    "DirectedWeightedGraph",
    "HeightGrid",
    "FilteredComplex",
    "build_flag_complex",
    "build_directed_flag_complex",
    "build_rips_complex",
    "build_cubical_complex",
    "PersistenceDiagram",
    "compute_persistence",
    "PersistenceLandscape",
    "StepCurve",
    "landscape_from_diagram",
    "betti_curve",
    "euler_curve",
    "simplex_count_curve",
]
