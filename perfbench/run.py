"""Benchmark of the compile, Table 2 and defect-yield paths.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile_cells --seed 1 \\
        --seconds 15 --trace 0

Ops run in one process with ``jobs=1``, default program settings and
a fresh empty store root per process.  The program is imported from ``src/`` next to this
directory; without it the command fails before printing a result.

Set-up (imports, input generation and one warm-up op that fills the
program's lazy caches) is timed from the start of this script to the
first timed op, less the benchmark's own work in between (reference
passes, the checks' oracle tables, the warm-up op's check), and scaled
by the host-speed reference.  ``SETUP_RUNS - 1`` child processes
(``--setup-only``) each time one more cold set-up after the run's own,
and ``setup_s`` is the median of the three.  The timed phase then runs
whole rounds of ops for ``--seconds`` (and at least the workload's
``MIN_ROUNDS``), times each op, scales it by the host-speed reference
(``hostref.py``) timed right before it, and checks every output with
``checks.py``.  An op that raises or fails a check counts as failed
and makes ``correct`` false.

With ``--trace 0`` the last line of stdout carries the end-to-end
metrics; the line before it (``raw ...``) has the unscaled figures.
With ``--trace 1`` rounds alternate between traced and untraced, and
the last line carries the per-layer metrics of the traced rounds plus
the tracing overhead measured against the untraced ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Cold set-ups timed per run, each in its own process; setup_s is
#: their median.
SETUP_RUNS = 3

#: Program counters read around every op: metric name -> counters.
COUNTERS = {
    "store.misses": ("store.miss",),
    "store.hits": ("store.hit_mem", "store.hit_disk"),
    "taut.memo_hit": ("taut.memo_hit",),
    "taut.memo_miss": ("taut.memo_miss",),
    "arena.pairs": ("eval.batch.pairs",),
    "arena.vectors": ("eval.batch.vectors",),
    "fpga.place_moves": ("fpga.place.moves_evaluated",),
    "fpga.route_iterations": ("fpga.route.iterations",),
    "fpga.overflow_segments": ("fpga.route.overflow_segments",),
}

#: Per-layer time metrics: metric -> span layers summed.
LAYER_TIMES = {
    "repair.self_ms": ("repair",),
    "arena.eval_ms": ("arena.eval",),
    "arena.pack_ms": ("arena.pack",),
    "yield.self_ms": ("yield",),
    "defects.sample_ms": ("defects.sample",),
    "espresso.self_ms": ("espresso", "espresso.expand",
                         "espresso.irredundant", "espresso.reduce",
                         "espresso.essential"),
    "espresso.expand_ms": ("espresso.expand",),
    "espresso.irredundant_ms": ("espresso.irredundant",),
    "espresso.reduce_ms": ("espresso.reduce",),
    "espresso.essential_ms": ("espresso.essential",),
    "store.cold_ms": ("store",),
    "mapping.map_ms": ("mapping.map",),
    "mapping.partition_ms": ("mapping.partition",),
    "fpga.flow_ms": ("fpga.flow",),
    "fpga.netlist_ms": ("fpga.netlist",),
    "fpga.place_ms": ("fpga.place",),
    "fpga.route_ms": ("fpga.route",),
    "fpga.timing_ms": ("fpga.timing",),
    "op.unclaimed_ms": ("op",),
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _delta(before: dict, after: dict, names) -> int:
    return sum(after.get(n, 0) - before.get(n, 0) for n in names)


def _percentile(values, pct: float) -> float:
    import numpy as np
    return float(np.percentile(values, pct))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a child that times one more cold set-up for setup_s, then exits
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    # default program settings: no inherited knobs
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    import hostref
    import spans
    import workloads
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        _fail(f"imported repro from {repro.__file__}, not from src/")
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})")

    work = Path(tempfile.mkdtemp(prefix=".store-", dir=HERE))
    os.environ["REPRO_CACHE_DIR"] = str(work)
    try:
        setup = set_up(args, hostref, spans, workloads,
                       checked=not args.setup_only)
        if args.setup_only:
            result = setup["figures"]
        else:
            result = bench(args, setup, spans, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def set_up(args, hostref, spans, workloads, checked: bool) -> dict:
    """Set up the run and time it.

    Program work is timed from the start of this script; the
    benchmark's own work in between (``aside``: reference passes, the
    checks' oracle tables and the warm-up op's check) is timed apart
    and left out.  Unless ``checked``, oracles and the check are
    skipped.
    """
    imports_s = time.perf_counter() - T0
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    mark = time.perf_counter()
    ref = hostref.Reference(args.workload)
    setup_factor = ref.setup_factor()
    wl.install(spans.rebind)
    aside = time.perf_counter() - mark
    item = wl.warmup_input()
    raised = None
    mark = time.perf_counter()
    try:
        output = wl.run(item)
    except Exception:
        output = None
        raised = "warm-up op raised: " + traceback.format_exc(
            limit=4).strip().splitlines()[-1]
    warmup_s = time.perf_counter() - mark
    # the oracles run after the warm-up op: they call the program (the
    # benchmark function, the trained classifier) and would otherwise
    # fill caches the warm-up op is meant to pay for
    mark = time.perf_counter()
    problems = wl.oracles() if checked else []
    if raised:
        problems.append(raised)
    elif checked:
        problems += wl.check(item, output)
    aside += time.perf_counter() - mark
    setup_raw = time.perf_counter() - T0 - aside
    return {"workload": wl, "reference": ref,
            "problems": [f"set-up: {p}" for p in problems],
            "figures": {"setup_s": setup_raw / setup_factor,
                        "setup_raw_s": setup_raw, "aside_s": aside,
                        "factor": setup_factor,
                        "imports_s": imports_s, "warmup_s": warmup_s}}


def _child_setups(args) -> list:
    """Figures of ``SETUP_RUNS - 1`` more cold set-ups, each in its own
    process, run one after the other."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-only"]
    figures = []
    for _ in range(SETUP_RUNS - 1):
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            _fail(f"set-up child exited {proc.returncode}: "
                  f"{proc.stderr.strip()[-500:]}")
        figures.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return figures


def bench(args, setup, spans, workloads) -> dict:
    from repro import perf

    def counters() -> dict:
        return perf.snapshot()["counters"]

    wl, ref = setup["workload"], setup["reference"]
    cls = type(wl)
    run_problems = setup["problems"]
    # traced runs report no setup_s
    setups = [setup["figures"]] + ([] if args.trace else _child_setups(args))

    # ------------------------------------------------------------------
    # timed rounds
    # ------------------------------------------------------------------
    tracer = spans.Tracer() if args.trace else None
    ops = []          # dicts: round, raw_s, ref, factor, ok, traced
    qor_values = []   # QoR figures of the first MIN_ROUNDS rounds' ops
    counts = {name: 0 for name in COUNTERS}
    statuses = {"clean": 0, "remapped": 0, "reminimized": 0, "degraded": 0}
    samples = 0
    correct = True
    started = time.perf_counter()
    round_index = 0
    while True:
        items = wl.round_inputs(round_index)
        traced = bool(tracer) and round_index % 2 == 0
        if traced:
            tracer.install()
        for item in items:
            gc.collect()
            ref_before = ref.measure()
            before = counters()
            if traced:
                tracer.op_id = len(ops)
                root = tracer.open("op")
            t = time.perf_counter()
            try:
                output, error = wl.run(item), None
            except Exception:
                output, error = None, traceback.format_exc(limit=4)
            raw_s = time.perf_counter() - t
            if traced:
                tracer.close(root)
            after = counters()
            if error is not None:
                problems = [f"raised: {error.strip().splitlines()[-1]}"]
            else:
                problems = wl.check(item, output)
            if _delta(before, after, COUNTERS["store.hits"]):
                problems.append("store hit in a cold run")
            if problems:
                correct = False
                print(f"op failed ({args.workload} round {round_index}): "
                      f"{problems[:3]}", file=sys.stderr)
            ops.append({"round": round_index, "raw_s": raw_s,
                        "ref": ref_before, "ok": not problems,
                        "traced": traced})
            if traced:
                for name, keys in COUNTERS.items():
                    counts[name] += _delta(before, after, keys)
                if error is None and cls.name.startswith("yield"):
                    report = output[0]
                    samples += report.samples
                    for status, n in report.status_counts.items():
                        statuses[status] += n
            if round_index < wl.MIN_ROUNDS and error is None:
                qor_values.append(wl.qor_values(output))
            output = None
        if traced:
            tracer.uninstall()
        run_problems += wl.check_round()
        round_index += 1
        if round_index == wl.MIN_ROUNDS:
            # the high-water mark of the rounds every run completes, so
            # that it does not grow with how many rounds fit in the run
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - started >= args.seconds and \
                round_index >= max(wl.MIN_ROUNDS, 2 if tracer else 1):
            break
    ref.measure()  # closes the last op's bracket
    for op in ops:
        op["factor"] = ref.factor_between(op["ref"])
    if run_problems:
        correct = False
        print(f"run check failed: {run_problems[:3]}", file=sys.stderr)

    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    result = {"correct": correct, "attempted": attempted, "failed": failed}
    if tracer:
        result["metrics"] = layer_metrics(ops, tracer, counts, statuses,
                                          samples, ref)
        coverage = result["metrics"]["trace.coverage_pct"]["value"]
        print(f"layer self times cover {coverage:.1f} % of op time "
              f"(floor 90 %: {'ok' if coverage >= 90 else 'BELOW'})",
              file=sys.stderr)
        return result

    scaled_ms = [1e3 * op["raw_s"] / op["factor"] for op in ops]
    raw_ms = [1e3 * op["raw_s"] for op in ops]
    qor = wl.qor(qor_values)
    metrics = {
        "setup_s": (statistics.median(f["setup_s"] for f in setups), "s"),
        "ops_per_s": (attempted / (sum(scaled_ms) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(scaled_ms), "ms"),
        "op_tail_ms": (_percentile(scaled_ms, wl.TAIL_PCT), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for name, unit in workloads.QOR_UNITS.items():
        metrics[name] = (qor.get(name, 1.0), unit)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    raw = {"setup_s": statistics.median(f["setup_raw_s"] for f in setups),
           "setups": setups,
           "ops_per_s": attempted / (sum(raw_ms) / 1e3),
           "op_p50_ms": statistics.median(raw_ms),
           "op_tail_ms": _percentile(raw_ms, wl.TAIL_PCT),
           "tail_pct": wl.TAIL_PCT, "rounds": round_index,
           "host.ref_ms": ref.raw_ms(),
           "slowness_min": min(op["factor"] for op in ops),
           "slowness_max": max(op["factor"] for op in ops)}
    print("raw " + json.dumps(raw))
    return result


def layer_metrics(ops, tracer, counts, statuses, samples, ref) -> dict:
    """Per-layer figures of the traced rounds: scaled ms per op, counts
    per run, coverage of op time by layer self times, and overhead."""
    traced = [i for i, op in enumerate(ops) if op["traced"]]
    plain = [i for i, op in enumerate(ops) if not op["traced"]]
    self_times = tracer.self_times(set(traced))
    metrics = {}
    for name, layers in LAYER_TIMES.items():
        total = sum(self_times.get(i, {}).get(layer, 0.0) / ops[i]["factor"]
                    for i in traced for layer in layers)
        metrics[name] = (1e3 * total / len(traced), "ms")
    op_total = sum(ops[i]["raw_s"] for i in traced)
    unclaimed = sum(self_times.get(i, {}).get("op", 0.0) for i in traced)
    metrics["trace.coverage_pct"] = (100.0 * (1 - unclaimed / op_total), "%")

    def mean_scaled(idx):
        return statistics.fmean(ops[i]["raw_s"] / ops[i]["factor"]
                                for i in idx)
    metrics["trace.overhead_pct"] = (
        100.0 * (mean_scaled(traced) / mean_scaled(plain) - 1), "%")
    for name, value in counts.items():
        metrics[name] = (value, "count")
    metrics["repair.samples"] = (samples, "count")
    for status, value in statuses.items():
        metrics[f"repair.{status}"] = (value, "count")
    metrics["espresso.calls"] = (tracer.espresso_calls, "count")
    metrics["espresso.cubes_out"] = (tracer.cubes_out, "count")
    metrics["host.ref_ms"] = (ref.raw_ms(), "ms")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
