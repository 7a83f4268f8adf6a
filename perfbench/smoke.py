"""Fast self-test of the benchmark's own code (a few seconds).

    python3 perfbench/smoke.py

Checks the oracles on hand-computed values, the span arithmetic, every
workload at toy sizes with tracing on, that the output checks catch a
perturbed result, and that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys

import numpy as np

import oracles
import worker
from tracing import Tracer, metric_slug

TOY = {
    "er-experiment": {"n": 8, "samples": 6},
    "gamma-sweep": {"n": 8, "gammas": 6},
    "dem-terrain": {"size": 33, "chunk": 16, "stride": 8},
    "permtest": {"n": 30, "permutations": 99},
}


def check_oracles():
    bar, empty = np.array([[0.0, 2.0]]), np.zeros((0, 2))
    for p in (1, 2, 3):
        for bound in oracles.transport_wasserstein(bar, empty, p):
            assert math.isclose(bound, 2.0 ** (1 / p))
    # Tent of height 1 on [0, 2]: area 1, integral of its square 2/3.
    assert math.isclose(oracles.landscape_distance(bar, empty, 1), 1.0)
    assert math.isclose(oracles.landscape_distance(bar, empty, 2), math.sqrt(2 / 3))
    assert oracles.landscape_distance(bar, empty, math.inf) == 1.0
    # Tents on [0, 2] and [1, 3] against the first alone: level 1 differs by
    # 1/4 on [1.5, 2] and 1/2 on [2, 3]; level 2 is a tent of area 1/4.
    two = np.array([[0.0, 2.0], [1.0, 3.0]])
    assert math.isclose(oracles.landscape_distance(two, bar, 1), 0.25 + 0.5 + 0.25)
    assert oracles.betti_distance(bar, empty, 1) == 2.0
    assert oracles.window_count(257, 64, 32) == 49
    assert oracles.tri_loop([[1.0] * 4] * 4) == 0.0
    rng = np.random.default_rng(0)
    x, y = rng.random(12), rng.random(12)
    a, b = np.abs(x[:, None] - x), np.abs(y[:, None] - y)
    assert math.isclose(oracles.vstat_dcov(a, b),
                        float((oracles.centered(a) * oracles.centered(b)).mean()))


def check_tracing():
    assert metric_slug("swk:sigma=1,lines=10") == "swk-sigma1-lines10"
    assert metric_slug("landscape:p=inf") == "landscape-pinf"
    assert metric_slug("pss:sigma=0.01") == "pss-sigma0.01"
    tracer = Tracer()
    with tracer.span("experiment"):
        with tracer.span("metrics.bottleneck"):
            pass
    root, child = tracer.spans
    assert child["parent"] == root["id"] and root["parent"] is None
    times = tracer.self_times()
    total = root["end"] - root["start"]
    assert math.isclose(times["experiment"] + times["metrics.bottleneck"], total)


def check_workloads():
    import workloads

    for name, toy in TOY.items():
        cls, params = workloads.WORKLOADS[name]
        workdir = worker.ROOT / ".perfbench_work" / f"smoke-{name}"
        try:
            workload = cls(3, {**params, **toy}, workdir)
            trace_path = worker.ROOT / ".perfbench_out" / f"smoke-{name}.json"
            result = worker.measure(workload, 0.0, 1, trace_path)
            assert result["correct"], (name, result)
            calls = result["attempted"] // len(workload.ops)
            # The landscape L^1 and L^2 fault fails on the reference pair.
            expect_failed = 2 * calls if name == "er-experiment" else 0
            assert result["failed"] == expect_failed, (name, result)
            assert result["metrics"]["experiment.self_s"] > 0, name
            if name == "er-experiment":
                assert result["metrics"]["serialize.bytes"] > 0, result
                check_perturbed(workload)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"smoke: {name} ok", flush=True)


def check_perturbed(workload):
    """A result 1e-6 off in one matrix entry must fail that metric's check."""
    output = workload.call()
    matrices = []
    for m in output["matrices"]:
        if m.label == "wasserstein:p=1":
            entries = m.entries.copy()
            entries[0, 1] *= 1 + 1e-6
            entries[1, 0] = entries[0, 1]
            m = dataclasses.replace(m, entries=entries)
        matrices.append(m)
    problems = workload.check({**output, "matrices": matrices}, {})
    assert "wasserstein:p=1" in {op for op, _ in problems}, problems


def check_refuses_without_sources():
    bare = worker.ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(worker.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(worker.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "permtest",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    worker.import_program()
    check_oracles()
    check_tracing()
    check_refuses_without_sources()
    check_workloads()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
