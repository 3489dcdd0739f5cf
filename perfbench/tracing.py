"""Outside-in tracing of priceopt: spans around calls into each module.

The wrappers are installed at the names the callers look up at call time
(module globals and class attributes), so nothing in ``src/`` changes, and
they are removed again after every traced pass.  Spans stay in memory;
``Tracer.write_spans`` writes them out once the benchmark ends.

A span records its name, start, end, parent span and the request id of the
operation (one CLI command, or one LP parse/evaluation call) it belongs to.
Self time is a span's duration minus the durations of its direct children;
calls are single threaded, so the children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from collections import defaultdict
from time import perf_counter

from priceopt import cli, generator, lpformat, projection, solver, storage
from priceopt.instance import Instance
from priceopt.solver import Partition

MB = 1e6

# The tail percentile of the start times is the highest decile that leaves at
# least this many of one pass's starts beyond it.
TAIL_SAMPLES = 10


def _count_gpa(tracer, name, args, kwargs, report) -> None:
    tracer.count["solver.iterations"] += report.iterations
    tracer.count["solver.stationary"] += int(report.stationary)


def _count_refine(tracer, name, args, kwargs, result) -> None:
    tracer.count["solver.refine.iterations"] += result.iterations
    tracer.count["solver.refine.converged"] += int(result.converged)


def _count_matvec(tracer, name, args, kwargs, result) -> None:
    # Only tallies the call; flops and bytes are computed once per instance
    # when the pass ends (Tracer.restore), so the hook, whose time falls to
    # the caller's span, stays cheap.  Holding the instance keeps its id unique.
    inst = args[0]
    seen = tracer.matvec.get(id(inst))
    if seen is None:
        tracer.matvec[id(inst)] = [inst, result.itemsize, 1]
    else:
        seen[2] += 1


def _matvec_work(inst, itemsize: int) -> tuple[int, int]:
    """Computed flops and bytes of one S p = D p + D^T p, ignoring cache misses.

    Two CSR products (2 nnz flops each) plus one vector add (n flops).  Bytes
    are one pass over the CSR arrays of D and D^T, and the vector reads and
    writes (p read twice, two partial products written, read and added, the
    sum written).
    """
    D, DT = inst.D, inst.DT
    n, nnz = inst.n, int(D.indptr[-1])
    csr_bytes = sum(
        nnz * (A.data.itemsize + A.indices.itemsize) + (n + 1) * A.indptr.itemsize for A in (D, DT)
    )
    return 4 * nnz + n, csr_bytes + 7 * n * itemsize


def _bytes_of_arg(index: int, key: str):
    """Hook counting the size of the file named by one argument."""

    def count(tracer, name, args, kwargs, result):
        path = args[index] if len(args) > index else kwargs[key]
        tracer.count[f"bytes:{name}"] += os.path.getsize(path)

    return count


# (owner, attribute, span name, counter hook).  The span name is
# <defining module>.<function>; the owner is the namespace its callers use.
TARGETS = [
    (cli, "run", "cli.run", None),
    (generator, "generate", "generator.generate", None),
    (storage, "write_instance", "storage.write_instance", _bytes_of_arg(1, "path")),
    (storage, "read_instance", "storage.read_instance", _bytes_of_arg(0, "path")),
    (storage, "write_report", "storage.write_report", None),
    (lpformat, "export_mip_lp", "lpformat.export_mip_lp", _bytes_of_arg(1, "path")),
    (lpformat, "parse_lp", "lpformat.parse_lp", _bytes_of_arg(0, "path")),
    (lpformat, "validate_lp_file", "lpformat.validate_lp_file", None),
    (lpformat, "eval_lp_objective", "lpformat.eval_lp_objective", None),
    (Instance, "s_matvec", "instance.Instance.s_matvec", _count_matvec),
    (Instance, "__post_init__", "instance.Instance.__post_init__", None),
    (solver, "value_and_gradient", "instance.value_and_gradient", None),
    (solver, "spectral_bounds", "instance.spectral_bounds", None),
    (cli, "with_k", "instance.with_k", None),
    (projection, "score", "projection.score", None),
    (solver, "project_feasible", "projection.project_feasible", None),
    (solver, "is_feasible", "projection.is_feasible", None),
    (cli, "multi_start", "solver.multi_start", None),
    (solver, "gpa_solve", "solver.gpa_solve", _count_gpa),
    (cli, "gpa_solve", "solver.gpa_solve", _count_gpa),
    (Partition, "from_status", "solver.Partition.from_status", None),
    (solver, "refine_on_partition", "solver.refine_on_partition", _count_refine),
    (solver, "minimize", "solver.refine.lbfgs", None),
    (solver, "certify_stationary", "solver.certify_stationary", None),
]


class Tracer:
    """Records nested spans and counters while its wrappers are installed."""

    def __init__(self):
        self.epoch = perf_counter()
        # [name, start, end, parent index, request id, child seconds]
        self.spans: list[list] = []
        self.count: defaultdict[str, float] = defaultdict(float)
        self.request = 0
        self.passes = 0
        # id(instance) -> [instance, vector itemsize, s_matvec calls] this pass
        self.matvec: dict[int, list] = {}
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def new_request(self) -> None:
        self.request += 1

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, perf_counter(), 0.0, parent, self.request, 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[index]
                span[2] = end
                if parent >= 0:
                    spans[parent][5] += end - span[1]
            if hook is not None:
                hook(self, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target with a span-recording wrapper."""
        for owner, attr, name, hook in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, hook))
            else:
                wrapped = self._wrap(name, original, hook)
            setattr(owner, attr, wrapped)
        self.passes += 1

    def restore(self) -> None:
        """Put back the originals, in reverse order of installation."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        for inst, itemsize, n_calls in self.matvec.values():
            flops, nbytes = _matvec_work(inst, itemsize)
            self.count["matvec.flops"] += n_calls * flops
            self.count["matvec.bytes"] += n_calls * nbytes
        self.matvec.clear()

    def write_spans(self, path) -> None:
        """One JSON object per line; times in seconds from the tracer's start."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request, _) in enumerate(self.spans):
                row = {
                    "id": i,
                    "parent": parent,
                    "request": request,
                    "name": name,
                    "start": start - self.epoch,
                    "end": end - self.epoch,
                }
                fh.write(json.dumps(row) + "\n")

    # -- per-layer metrics -----------------------------------------------------

    def layer_metrics(self) -> tuple[dict, str]:
        """Per-pass averages over the traced passes, as {name: (value, unit)}.

        A layer that did not run reports 0 calls and 0 seconds, and its rates
        and ratios read 0.  Also returns a note on the start-time percentiles.
        """
        per = max(1, self.passes)
        calls: defaultdict[str, int] = defaultdict(int)
        total: defaultdict[str, float] = defaultdict(float)
        self_s: defaultdict[str, float] = defaultdict(float)
        starts: list[float] = []
        for name, start, end, _, _, child in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child
            if name == "solver.gpa_solve":
                starts.append((end - start) * 1e3)

        def ratio(a, b):
            return a / b if b else 0.0

        m: dict[str, tuple[float, str]] = {}
        stat_value = {
            "calls": lambda name: (calls[name] / per, "count"),
            "total_s": lambda name: (total[name] / per, "s"),
            "self_s": lambda name: (self_s[name] / per, "s"),
            "mb_per_s": lambda name: (ratio(self.count[f"bytes:{name}"] / MB, total[name]), "MB/s"),
        }

        def layer(name, *stats):
            for stat in stats:
                m[f"{name}.{stat}"] = stat_value[stat](name)

        layer("cli.run", "self_s")
        layer("generator.generate", "calls", "total_s", "self_s")
        for name in ("storage.write_instance", "storage.read_instance"):
            layer(name, "calls", "total_s", "self_s", "mb_per_s")
        layer("storage.write_report", "total_s")
        for name in ("lpformat.export_mip_lp", "lpformat.parse_lp"):
            layer(name, "calls", "total_s", "self_s", "mb_per_s")
        layer("lpformat.validate_lp_file", "self_s")
        layer("lpformat.eval_lp_objective", "total_s")

        matvec = "instance.Instance.s_matvec"
        layer(matvec, "calls", "total_s")
        m[f"{matvec}.gflops"] = (ratio(self.count["matvec.flops"] / 1e9, total[matvec]), "GFLOP/s")
        m[f"{matvec}.flop_per_byte"] = (
            ratio(self.count["matvec.flops"], self.count["matvec.bytes"]),
            "flop/B",
        )
        layer("instance.value_and_gradient", "calls", "total_s", "self_s")
        layer("instance.spectral_bounds", "total_s")
        layer("instance.with_k", "total_s")
        layer("instance.Instance.__post_init__", "calls", "total_s")
        for name in ("projection.score", "projection.project_feasible", "projection.is_feasible"):
            layer(name, "calls", "total_s", "self_s")

        layer("solver.multi_start", "total_s")
        layer("solver.gpa_solve", "calls", "self_s")
        per_pass = calls["solver.gpa_solve"] / per
        q = tail_percentile(per_pass)
        m["solver.gpa_solve.p50_ms"] = (statistics.median(starts) if starts else 0.0, "ms")
        m["solver.gpa_solve.tail_ms"] = (percentile(starts, q) if starts else 0.0, "ms")
        for name in ("solver.Partition.from_status", "solver.refine_on_partition"):
            layer(name, "calls", "total_s", "self_s")
        layer("solver.refine.lbfgs", "calls", "total_s")
        layer("solver.certify_stationary", "calls", "total_s", "self_s")
        refines = calls["solver.refine_on_partition"]
        m["solver.iterations"] = (self.count["solver.iterations"] / per, "count")
        m["solver.refine.iterations"] = (self.count["solver.refine.iterations"] / per, "count")
        m["solver.refine.fallback_ratio"] = (ratio(calls["solver.refine.lbfgs"], refines), "ratio")
        m["solver.refine.converged_ratio"] = (
            ratio(self.count["solver.refine.converged"], refines),
            "ratio",
        )
        m["solver.stationary_ratio"] = (
            ratio(self.count["solver.stationary"], calls["solver.gpa_solve"]),
            "ratio",
        )
        m["trace.spans"] = (len(self.spans) / per, "count")

        if not starts:
            note = "no solver starts ran (p50 and tail read 0)"
        elif q > 50:
            note = f"{per_pass:g} starts per pass; tail_ms is p{q}, the highest decile with {TAIL_SAMPLES} starts beyond it"
        else:
            note = f"{per_pass:g} starts per pass, too few for a tail; tail_ms is the median"
        return m, f"solver.gpa_solve: {note}"


def tail_percentile(count: float) -> int:
    """The highest decile with at least TAIL_SAMPLES of ``count`` samples beyond it, else 50."""
    if count <= 0:
        return 50
    return max(50, 10 * int(10 * (1 - TAIL_SAMPLES / count)))


def percentile(values: list[float], q: int) -> float:
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
