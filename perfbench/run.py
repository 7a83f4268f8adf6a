"""topocorr benchmark: one workload per run, or every workload with ``all``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

A run measures set-up time with fresh processes that import topocorr, build
the workload's inputs and stop, two before and two after the measured
process (``setup_s`` is the median of these four and the measured process
itself).  The workload runs in a fresh process of its own, so its peak
memory is its own.  The last line printed is
the JSON result: ``correct``, ``attempted``, ``failed`` and the metrics
``BENCHMARK.json`` lists, end-to-end ones with ``--trace 0`` and per-layer
ones with ``--trace 1``.  ``all`` prints both kinds for every workload as a
table instead.  Exit code 0 means the result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("er-experiment", "gamma-sweep", "dem-terrain", "permtest")
PROBES = 4
TIME_LIMIT_S = 170.0  # one run, all processes included
# BLAS and OpenMP pools pinned to one thread: the pipeline runs with threads=1.
PINNED_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class RunFailed(Exception):
    pass


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def start_worker(args, deadline):
    """Run the worker; return (seconds until it printed ``ready``, last line)."""
    env = {**os.environ, **PINNED_ENV}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    killer.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - start
            elif line.strip():
                last = line
    finally:
        proc.stdout.close()
        killer.cancel()
        code = proc.wait()
    if code != 0 or ready is None:
        raise RunFailed(f"worker {' '.join(args)} exited with code {code}")
    return ready, last


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns the result object to print."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]

    def probes(count):
        return [start_worker(common + ["--seconds", "0", "--probe"], deadline)[0]
                for _ in range(0 if trace else count)]

    # Half the probes run before the measured process and half after it, so
    # that setup_s samples the machine at two moments of the run.
    setup = probes(PROBES // 2)
    ready, last = start_worker(common + ["--seconds", str(seconds), "--trace", str(trace)],
                               deadline)
    setup += [ready] + probes(PROBES - PROBES // 2)
    try:
        result = json.loads(last)
    except (TypeError, json.JSONDecodeError) as exc:
        raise RunFailed(f"worker printed no result: {last!r}") from exc
    measured = {**result["metrics"], "setup_s": statistics.median(setup)}
    wanted = spec()["per_layer" if trace else "end_to_end"]
    result["metrics"] = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
                         for m in wanted}
    return result


def environment():
    from importlib import metadata

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            **PINNED_ENV}


def run_all(seed, seconds):
    print(" ".join(f"{k}={v}" for k, v in environment().items()))
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_once(workload, seed, seconds, trace)
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
        sys.stdout.flush()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "topocorr" / "__init__.py").is_file():
        print(f"perfbench: no topocorr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    try:
        if args.workload == "all":
            run_all(args.seed, seconds)
        else:
            print(json.dumps(run_once(args.workload, args.seed, seconds, args.trace)))
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
