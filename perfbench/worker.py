"""Runs one workload in this process and prints its result as a JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--probe]

It prints ``ready`` once its inputs are built (``--probe`` exits there), then
repeats the workload's operation for up to ``--seconds`` (at least once) and
checks the first call's outputs.  ``run.py`` starts it; see there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import ExitStack, nullcontext
from pathlib import Path

from tracing import Tracer, capturing, patched, traced_layers

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Put the checkout's ``src`` first on the path; never fall back to an
    installed copy."""
    src = ROOT / "src"
    if not (src / "topocorr" / "__init__.py").is_file():
        sys.exit(f"perfbench: no topocorr package under {src}")
    sys.path.insert(0, str(src))
    import topocorr

    if Path(topocorr.__file__).resolve().parent != src / "topocorr":
        sys.exit(f"perfbench: imported topocorr from {topocorr.__file__}, not {src}")


class Run:
    """Repeated calls of one workload, with the first call's output kept."""

    def __init__(self, workload):
        self.workload = workload
        self.sinks = {key: [] for key in workload.captures}
        self.calls = 0
        self.mismatches = 0
        self.first = None

    def patches(self, tracer):
        """Module -> replacement attributes for one phase of the run."""
        from topocorr import dcor, experiment

        tables = {}
        if tracer is not None:
            tables[experiment] = traced_layers(tracer, experiment)
            tables[dcor] = traced_layers(tracer, dcor, ("permutation_test",))
        for (module, attr), sink in self.sinks.items():
            table = tables.setdefault(module, {})
            table[attr] = capturing(table.get(attr, getattr(module, attr)), sink)
        return tables

    def timed(self, seconds, tracer=None):
        """Wall time of each call.  Calls go on while the next one, taking the
        median time so far, would end within ``seconds``; there is at least
        one."""
        times = []
        deadline = time.perf_counter() + seconds
        with ExitStack() as stack:
            for module, table in self.patches(tracer).items():
                stack.enter_context(patched(module, table))
            while True:
                start = time.perf_counter()
                with tracer.span("experiment") if tracer is not None else nullcontext():
                    output = self.workload.call()
                end = time.perf_counter()
                times.append(end - start)
                self._keep(output)
                if end + statistics.median(times) > deadline:
                    return times

    def _keep(self, output):
        captured = {key: list(sink) for key, sink in self.sinks.items()}
        for sink in self.sinks.values():
            sink.clear()
        self.calls += 1
        if self.first is None:
            self.first = (output, captured)
        elif not self.workload.same(self.first[0], output):
            self.mismatches += 1

    def verdict(self):
        """(correct, attempted, failed) over every call made."""
        problems = self.workload.check(*self.first)
        failed_ops = {op for op, _ in problems if op is not None}
        for op, message in problems:
            print(f"perfbench: {op or 'check'}: {message}", file=sys.stderr)
        if self.mismatches:
            print(f"perfbench: {self.mismatches} calls differ from the first", file=sys.stderr)
        correct = self.mismatches == 0 and all(op is not None for op, _ in problems)
        ops = self.workload.ops
        return correct, self.calls * len(ops), self.calls * len(failed_ops & set(ops))


def layer_metrics(tracer, traced, untraced):
    """Per-call self time of each span name and per-call counts."""
    calls = len(traced)
    out = {}
    for name, seconds in tracer.self_times().items():
        key = "experiment.self_s" if name == "experiment" else f"{name}_s"
        out[key] = seconds / calls
    for name, total in tracer.counts.items():
        out[name] = total / calls
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return out


def measure(workload, seconds, trace, trace_path):
    """A traced run spends half its time on untraced calls, half on traced."""
    run = Run(workload)
    untraced = run.timed(seconds / 2 if trace else seconds)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        tracer = Tracer()
        traced = run.timed(seconds / 2, tracer)
        tracer.write(trace_path)
        metrics = layer_metrics(tracer, traced, untraced)
    else:
        metrics = {"op_s": statistics.median(untraced), "peak_rss_mib": peak_mib}
    correct, attempted, failed = run.verdict()
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="exit once set up")
    args = parser.parse_args(argv)

    import_program()
    import workloads

    cls, params = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = cls(args.seed, params, workdir)
        print("ready", flush=True)
        if args.probe:
            return 0
        trace_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        result = measure(workload, args.seconds, args.trace, trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
