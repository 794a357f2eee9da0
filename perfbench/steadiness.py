#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs the benchmark command `--runs` times per workload (one seed per
run, counting up from `--seed`), in `--sets` sets, then for every
end-to-end metric prints

- the spread of each set: the distance between the first and third
  quartiles (statistics.quantiles(values, n=4)) as a share of the median;
- the drift of each later set's median against the first set's, in the
  metric's worse direction, as a share of the first median.

It fails (exit 1) when any spread or drift exceeds the metric's bound,
or when a run is incorrect.
Spreads above a third of the bound are flagged as "loose".

Run from the repository root, e.g.

    python3 perfbench/steadiness.py --sets 2 --runs 10
    python3 perfbench/steadiness.py --sets 1 --runs 5 --workloads tco_grid

Needs only the Python standard library.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}\n{out.stderr}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"# {workload} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
          file=sys.stderr, flush=True)
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def drift(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    worse = later - first if better == "lower" else first - later
    return worse / abs(first)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    # values[workload][set][metric] -> list of per-run values
    values = {w: [] for w in workloads}
    for s in range(args.sets):
        for w in workloads:
            runs = [run_once(bench, w, args.seed + i) for i in range(args.runs)]
            values[w].append({m["name"]: [r[m["name"]] for r in runs] for m in metrics})
            print(f"# set {s + 1} {w}: {args.runs} runs done", file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':<18} {'metric':<22} {'bound':>6} {'median(s)':>30} "
          f"{'spread(s)':>20} {'drift':>8}")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [v[name] for v in values[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            drifts = [drift(medians[0], med, m["better"]) for med in medians[1:]]
            worst_drift = max(drifts, default=0.0)
            bad = worst_drift > bound or max(spreads) > bound
            loose = max(spreads) > bound / 3
            ok &= not bad
            flag = "FAIL" if bad else ("loose" if loose else "ok")
            print(f"{w:<18} {name:<22} {bound:>6} "
                  f"{' '.join(f'{x:.6g}' for x in medians):>30} "
                  f"{' '.join(f'{x:.3f}' for x in spreads):>20} {worst_drift:>8.3f} {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
