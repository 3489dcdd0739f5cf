#!/usr/bin/env python3
"""priceopt benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-100k --seed 1 --seconds 20 --trace 0

A run sets up the workload (import priceopt, write the untimed inputs) five
times, then runs timed passes through ``priceopt.cli.run`` in this process
until the next pass would end after ``--seconds``, with at least three passes
so that outputs can be compared across passes.  Each time is scaled by the
machine's speed while it ran (see probe.py), and the medians are reported.
Every pass's outputs are checked.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Human-readable lines above it name every metric
with its unit.  A result file with the
environment record, and with ``--trace 1`` the spans, go to perfbench/out/.

With ``--trace 1`` untraced and traced passes alternate; the per-layer
metrics come from the traced ones and the tracing overhead is the difference
of the two scaled medians.  End-to-end numbers always come from untraced passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is repeated this many times and its median reported.
SETUP_REPS = 5
# Three passes at least: outputs are compared across passes, and the median
# of three is not swayed by one odd pass.
MIN_PASSES = 3

# One thread for BLAS and OpenMP, at or below nproc: the workloads are one
# single-threaded process, and on a small shared machine extra threads would
# measure the scheduler rather than the program.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Times `import priceopt` in a fresh interpreter, with a speed probe of its own.
_TIME_IMPORT = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from probe import SpeedProbe
with SpeedProbe() as probe:
    t = time.perf_counter()
    import priceopt
    took = time.perf_counter() - t
print(took, took * probe.scale())
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> tuple[float, float]:
    """Raw and scaled seconds of `import priceopt` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _TIME_IMPORT, str(SRC), str(HERE)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    raw, scaled = map(float, done.stdout.split())
    return raw, scaled


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # the build record's layout varies across numpy versions
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def guarded(ops, label, fn, *args) -> None:
    """Run a check step; an exception in it is a failed check."""
    try:
        fn(*args)
    except Exception:
        ops.check(label, False, traceback.format_exc())


def report_metrics(metrics: dict, wanted: list[dict]) -> dict:
    """The JSON metrics, in BENCHMARK.json's order; any mismatch is a bug here."""
    names = [w["name"] for w in wanted]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(names) ^ set(metrics))}")
    for w in wanted:
        if metrics[w["name"]][1] != w["unit"]:
            raise RuntimeError(f"unit of {w['name']} differs from BENCHMARK.json")
    return {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "priceopt" / "__init__.py").is_file():
        print(f"error: no priceopt sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SOLVER_SEED", None)  # the workload seed arrives by argv only
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        ops, metrics, record = measure(args, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = ops.failed == 0 and bool(metrics)
    if metrics:
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = report_metrics(metrics, wanted)
    record.update(environment=environment(), correct=correct, errors=ops.errors)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for err in ops.errors:
        print(err, file=sys.stderr)
    result = {"correct": correct, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


def measure(args, workload):
    """Set up, run the passes, check the outputs; returns (ops, metrics, record)."""
    from probe import SpeedProbe
    from tracing import Tracer
    from workloads import OpFailed, Ops

    # Each time is kept raw and scaled by the machine's speed meanwhile.
    setup: list[tuple[float, float]] = []
    for _ in range(SETUP_REPS):
        imported, imported_scaled = import_seconds()
        with SpeedProbe() as probe:
            t0 = perf_counter()
            workload.prepare()
            inputs = perf_counter() - t0
        setup.append((imported + inputs, imported_scaled + inputs * probe.scale()))

    ops = Ops()
    tracer = Tracer() if args.trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    scaled: dict[bool, list[float]] = {False: [], True: []}
    window_start = perf_counter()
    last = None
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        out = workload.work / f"pass{i}"
        out.mkdir()
        ops.tracer = tracer if traced else None
        gc.collect()
        if traced:
            tracer.install()
        with SpeedProbe() as probe:
            t0 = perf_counter()
            try:
                workload.run_pass(ops, out)
                ok = True
            except OpFailed:
                ok = False
            finally:
                wall = perf_counter() - t0
                if traced:
                    tracer.restore()
        if ok:
            walls[traced].append(wall)
            scaled[traced].append(wall * probe.scale())
            guarded(ops, f"pass {i} checks ran", workload.check_pass, ops, out)
        if last is not None:
            shutil.rmtree(last)
        last, i = out, i + 1
        if not ok:
            break
        typical = statistics.median(walls[False] + walls[True])
        if i >= MIN_PASSES and perf_counter() - window_start + typical > args.seconds:
            break

    # Peak memory of the workload itself, before the costlier final checks.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if ops.failed == 0:
        guarded(ops, "final checks ran", workload.check_final, ops, last)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s": {"raw": [t for t, _ in setup], "scaled": [t for _, t in setup]},
        "passes_s": {"untraced": walls[False], "traced": walls[True]},
        "scaled_passes_s": {"untraced": scaled[False], "traced": scaled[True]},
    }
    if not walls[False] or (tracer is not None and not walls[True]):
        return ops, {}, record

    # Medians of the times scaled to the probe's nominal machine speed; the
    # median also discards a pass in which the probe misread the speed.
    e2e = {
        "wall_s": (statistics.median(scaled[False]), "s"),
        "setup_s": (statistics.median(t for _, t in setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    quality = {
        name: (workload.quality.get(name), unit)
        for name, unit in (("uplift_pct", "%"), ("stationary_frac", "ratio"))
    }
    shown = {
        **e2e,
        "raw_wall_s": (statistics.median(walls[False]), "s"),
        "raw_setup_s": (statistics.median(t for t, _ in setup), "s"),
        **quality,
        "failed_frac": (ops.failed / ops.attempted, "ratio"),
    }
    record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}

    n_passes = len(walls[False]) + len(walls[True])
    print(
        f"{workload.name} seed {args.seed}: {n_passes} passes, "
        f"{ops.attempted} operations, {ops.failed} failed"
    )
    for name, (value, unit) in shown.items():
        print(f"  {name:<18} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    if tracer is None:
        return ops, e2e, record

    layers, note = tracer.layer_metrics()
    traced_s = statistics.median(scaled[True])
    layers["trace.wall_s"] = (traced_s, "s")
    layers["trace.overhead_s"] = (traced_s - e2e["wall_s"][0], "s")
    record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    record["percentiles"] = note
    print("  per layer, per traced pass:")
    for name, (value, unit) in layers.items():
        print(f"    {name:<44} {value:.6g} {unit}")
    print(f"    {note}")
    tracer.write_spans(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
    return ops, layers, record


if __name__ == "__main__":
    sys.exit(main())
