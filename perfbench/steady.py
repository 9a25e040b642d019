"""Steadiness check: two sets of runs of the same code must agree.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10

Runs ``run.py`` once per seed ``1..runs`` for every workload of
``BENCHMARK.json``, for ``run_seconds`` each, as set A, then the same
again as set B.  For every end-to-end metric and workload it prints
both sets' medians and quartiles, the spread (interquartile distance
over the median) of each set, and whether the sets agree within the
metric's bound from ``BENCHMARK.json``: B's median no worse than A's by
more than the bound, and every spread within the bound (``setup_s`` is
exempt from the spread rule).  It also compares the failed-op share of
the two sets, and prints the spread of the unscaled (raw) time figures
next to the scaled ones.  Exits 0 when the sets agree everywhere.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = next((json.loads(line[4:]) for line in lines
                if line.startswith("raw ")), {})
    return {"result": result, "raw": raw, "wall": wall}


def quartiles(values):
    return statistics.quantiles(values, n=4)


def spread(values) -> float:
    q1, _q2, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.runs + 1))
    runs = {}
    for label in ("A", "B"):
        for workload in workloads:
            for seed in seeds:
                run = one_run(workload, seed, spec["run_seconds"])
                runs[(label, workload, seed)] = run
                print(f"# set {label} {workload} seed {seed}: "
                      f"{run['wall']:.1f} s wall, "
                      f"{run['result']['attempted']} ops, "
                      f"{run['result']['failed']} failed", flush=True)

    walls = [run["wall"] for run in runs.values()]
    print(f"# {len(walls)} runs, wall per run {min(walls):.1f}.."
          f"{max(walls):.1f} s, mean {statistics.fmean(walls):.1f} s")
    ok = True
    print(f"{'workload':<13} {'metric':<18} {'A median':>11} "
          f"{'A q1..q3':>23} {'B median':>11} {'B q1..q3':>23} "
          f"{'A sprd':>7} {'B sprd':>7} {'raw sprd':>8} {'bound':>6}  "
          f"agree")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([runs[(label, workload, s)]["result"]["metrics"][name]
                     ["value"] for s in seeds] for label in ("A", "B"))
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = ((med_b - med_a) / med_a if metric["better"] == "lower"
                     else (med_a - med_b) / med_a)
            spreads = (spread(a), spread(b))
            agree = worse <= bound and (name == "setup_s" or
                                        max(spreads) <= bound)
            ok &= agree
            raw_values = [runs[("A", workload, s)]["raw"].get(name)
                          for s in seeds]
            raw_spread = (f"{spread(raw_values):8.3f}"
                          if None not in raw_values else f"{'':>8}")
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:<13} {name:<18} {med_a:11.4g} "
                  f"{qa[0]:11.4g}..{qa[2]:<10.4g} {med_b:11.4g} "
                  f"{qb[0]:11.4g}..{qb[2]:<10.4g} {spreads[0]:7.3f} "
                  f"{spreads[1]:7.3f} {raw_spread} {bound:6.2f}  "
                  f"{'yes' if agree else 'NO'}")
        shares = []
        for label in ("A", "B"):
            results = [runs[(label, workload, s)]["result"] for s in seeds]
            shares.append((sum(r["failed"] for r in results),
                           sum(r["attempted"] for r in results)))
        same = shares[0][0] * shares[1][1] == shares[1][0] * shares[0][1]
        ok &= same
        print(f"{workload:<13} failed share A {shares[0][0]}/{shares[0][1]}"
              f", B {shares[1][0]}/{shares[1][1]}: "
              f"{'same' if same else 'DIFFERENT'}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
