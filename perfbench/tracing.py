"""Spans and counters recorded around the calls into each layer.

The benchmark does not change the program: it replaces, for the length of a
run, the functions that ``topocorr.experiment`` imports with wrappers that
record a span (name, start, end, parent) and the layer's work counts.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


def metric_slug(spec):
    """``swk:sigma=1,lines=10`` -> ``swk-sigma1-lines10``."""
    return spec.replace(":", "-").replace(",", "-").replace("=", "")


def _length(args, result):
    return len(result)


def _landscape_breakpoints(args, result):
    return sum(len(level) for level in result.levels)


def _pairs(args, result):
    return result.n * (result.n - 1) // 2


def _bytes(args, result):
    return len(result.encode())


# Function name -> (span name, counter, amount counted for one call).  The
# names are those topocorr.experiment imports, plus the permutation test the
# permtest workload calls.  pairwise_matrix spans are named per metric spec.
LAYERS = {
    "generate": ("models.generate", "models.samples", lambda args, result: 1),
    "build_flag_complex": ("complexes.build", "complexes.cells", _length),
    "build_cubical_complex": ("complexes.build", "complexes.cells", _length),
    "compute_persistence": ("persistence.compute", "persistence.points", _length),
    "landscape_from_diagram": ("summaries.landscape", "summaries.landscape_breakpoints",
                               _landscape_breakpoints),
    "betti_curve": ("summaries.betti", None, None),
    "euler_curve": ("summaries.euler", None, None),
    "pairwise_matrix": (None, "metrics.pairs", _pairs),
    "dcor_matrix": ("dcor.dcor_matrix", None, None),
    "sample_dcor": ("dcor.sample_dcor", None, None),
    "synth_terrain": ("dem.synth_terrain", None, None),
    "chunk_grid": ("dem.chunk_grid", "dem.chunks", _length),
    "tri": ("dem.tri", None, None),
    "diagram_to_csv": ("serialize.write", "serialize.bytes", _bytes),
    "matrix_to_csv": ("serialize.write", "serialize.bytes", _bytes),
    "labeled_matrix_to_csv": ("serialize.write", "serialize.bytes", _bytes),
    "permutation_test": ("dcor.permutation_test", "dcor.permutations",
                         lambda args, result: args[2]),
}


class Tracer:
    """In-memory span log.  Spans nest through a stack: one thread only."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"id": sid, "name": name, "parent": parent,
                  "start": time.perf_counter() - self.origin, "end": None}
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self.origin

    def count(self, name, amount):
        self.counts[name] += amount

    def wrap(self, attr, fn):
        name, counter, measure = LAYERS[attr]

        def traced(*args, **kwargs):
            # pairwise_matrix(samples, metric): one span name per metric spec.
            with self.span(name or "metrics." + metric_slug(args[1].label)):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.count(counter, measure(args, result))
            return result

        return traced

    def self_times(self):
        """Span name -> summed self time (duration minus time in child spans)."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts)}) + "\n")


@contextmanager
def patched(module, replacements):
    """Set module attributes for the duration of the block."""
    saved = {attr: getattr(module, attr) for attr in replacements}
    for attr, value in replacements.items():
        setattr(module, attr, value)
    try:
        yield
    finally:
        for attr, value in saved.items():
            setattr(module, attr, value)


def traced_layers(tracer, module, attrs=LAYERS):
    """Traced wrappers for the layer functions ``module`` holds."""
    return {attr: tracer.wrap(attr, getattr(module, attr))
            for attr in attrs if hasattr(module, attr)}


def capturing(fn, sink):
    """Wrapper that keeps each result of ``fn`` for the output checks."""

    def capture(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(result)
        return result

    return capture

