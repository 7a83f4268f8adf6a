"""Topological summaries of filtered complexes and distance correlation between them."""

__version__ = "0.1.0"
