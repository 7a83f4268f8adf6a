"""Steadiness check: two sets of runs of every workload, one seed per run.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Set A runs every workload with seeds ``first-seed`` .. ``first-seed+runs-1``,
then set B with the next ``runs`` seeds, each run at ``BENCHMARK.json``'s
``run_seconds``.  For each set, workload and end-to-end metric it prints the
median and the spread, the distance between the first and third quartiles
(``statistics.quantiles`` with n=4) as a share of the median, marked ``wide``
above a third of the metric's bound.  For each workload and metric it prints
how much worse set B's median is than set A's, as a share of set A's, marked
``worse`` above the bound.  The share of failed operations must be the same
in every run.  Raw results go to ``.perfbench_out/steady-<workload>.json``.
Exit code 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction

from run import ROOT, WORKLOADS, spec


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_one(workload, seed):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = {"seed": seed, **json.loads(proc.stdout.strip().splitlines()[-1])}
    print(f"  {workload} seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                                 for k, v in result["metrics"].items()),
          flush=True)
    return result


def worse_by(metric, before, after):
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def report(workload, sets, metrics):
    runs = [r for results in sets for r in results]
    shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
    correct = all(r["correct"] for r in runs)
    print(f"{workload}: correct={correct} failed share={sorted(map(str, shares))}")
    ok = correct and len(shares) == 1
    for m in metrics:
        medians = []
        line = f"  {m['name']:14s}"
        for tag, results in zip("AB", sets):
            values = [r["metrics"][m["name"]]["value"] for r in results]
            s = spread(values)
            wide = s >= m["bound"] / 3
            ok &= not wide
            medians.append(statistics.median(values))
            line += (f" {tag}: median {medians[-1]:9.4f} spread {s:6.2%}"
                     f"{' wide' if wide else '     '}")
        change = worse_by(m, *medians)
        ok &= change <= m["bound"]
        print(f"{line}  B worse by {change:+7.2%}  bound {m['bound']:.0%}"
              f"{'  worse' if change > m['bound'] else ''}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    metrics = spec()["end_to_end"]
    first = args.first_seed
    seed_sets = (range(first, first + args.runs),
                 range(first + args.runs, first + 2 * args.runs))
    results = {w: [] for w in WORKLOADS}
    for tag, seeds in zip("AB", seed_sets):
        print(f"set {tag}: seeds {seeds.start}-{seeds.stop - 1}", flush=True)
        for workload in WORKLOADS:
            results[workload].append([run_one(workload, seed) for seed in seeds])
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    ok = True
    for workload, sets in results.items():
        (out_dir / f"steady-{workload}.json").write_text(json.dumps(sets, indent=1) + "\n")
        ok &= report(workload, sets, metrics)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
