"""The benchmark's workloads: untimed inputs, one timed pass, output checks.

Every pass drives priceopt the way a user does, through ``priceopt.cli.run``
with a generated argv, in this process and one command at a time.  The
workload seed reaches the program only through that argv and the input
files written in set-up.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import statistics
import traceback
from pathlib import Path

from priceopt import cli, generator, lpformat, storage
from priceopt.instance import profit_z


class OpFailed(Exception):
    """An operation of a pass failed; the rest of that pass is skipped."""


class Ops:
    """Runs the operations of a pass and counts attempts and failures.

    An operation is one CLI command, one library call the benchmark makes on
    the program's output, or one output check.
    """

    def __init__(self):
        self.tracer = None  # set for traced passes, to number the requests
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def cli(self, *argv) -> None:
        argv = [str(a) for a in argv]
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.new_request()
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.run(argv)
        except Exception:
            self._fail(f"priceopt {' '.join(argv)} raised:\n{traceback.format_exc()}")
            raise OpFailed from None
        if code != 0:
            self._fail(f"priceopt {' '.join(argv)} exited {code}:\n{out.getvalue()}")
            raise OpFailed

    def call(self, label: str, fn, *args):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.new_request()
        try:
            return fn(*args)
        except Exception:
            self._fail(f"{label} raised:\n{traceback.format_exc()}")
            raise OpFailed from None

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self._fail(f"check failed: {label} {detail}".rstrip())


def digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_report(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def best_row(rows: list[dict]) -> dict:
    """The row multi_start keeps: highest profit, then the lowest start id."""
    return max(rows, key=lambda r: (float(r["final_profit"]), -int(r["start_id"])))


def stationary_frac(rows: list[dict]) -> float:
    return sum(r["stationary"] == "1" for r in rows) / len(rows)


class Workload:
    """One workload; subclasses fill in the inputs, the pass and the checks."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self._first: dict[str, str] = {}
        self.quality: dict[str, float] = {}

    def prepare(self) -> None:
        """Write the untimed input files (timed as part of set-up)."""

    def run_pass(self, ops: Ops, out: Path) -> None:
        raise NotImplementedError

    def check_pass(self, ops: Ops, out: Path) -> None:
        """Cheap checks of one pass's outputs, run after every pass."""

    def check_final(self, ops: Ops, out: Path) -> None:
        """Costly checks on the last pass's outputs, run once at the end."""

    def same_as_first(self, ops: Ops, label: str, path) -> None:
        """Check that a pass's output file is byte-identical to the first pass's."""
        seen = digest(path)
        first = self._first.setdefault(label, seen)
        ops.check(f"{label} byte-identical across passes", seen == first)


class Pipeline(Workload):
    """gen -> write -> read -> five-start solve -> report at n = 100,000."""

    name = "pipeline-100k"
    n = 100_000
    starts = 5

    def run_pass(self, ops, out):
        ops.cli("gen", "--n", self.n, "--seed", self.seed, "--out", out / "instance.txt")
        ops.cli(
            "solve", "--instance", out / "instance.txt",
            "--starts", self.starts, "--report", out / "report.csv",
        )

    def check_pass(self, ops, out):
        self.same_as_first(ops, "instance file", out / "instance.txt")
        self.same_as_first(ops, "report", out / "report.csv")
        rows = read_report(out / "report.csv")
        ops.check("report has one row per start", len(rows) == self.starts, f"(got {len(rows)})")
        if rows:
            best = best_row(rows)
            ops.check("best row is stationary", best["stationary"] == "1")
            self.quality = {
                "uplift_pct": float(best["improvement_pct_vs_base"]),
                "stationary_frac": stationary_frac(rows),
            }

    def check_final(self, ops, out):
        expected = generator.generate(generator.GenConfig(n=self.n, seed=self.seed))
        got = storage.read_instance(str(out / "instance.txt"))
        ops.check("gen wrote the seed's instance", got.same_data(expected))


class DeskSuite(Workload):
    """The desk grid: 24 configs, n in {200, 1000, 5000}, 120 starts."""

    name = "desk-suite"
    expected_rows = 120

    def run_pass(self, ops, out):
        ops.cli("suite", "--scale", "desk", "--seed", self.seed, "--out-dir", out / "suite")

    def check_pass(self, ops, out):
        results = out / "suite" / "results.csv"
        self.same_as_first(ops, "results.csv", results)
        rows = read_report(results)
        ops.check("results.csv has one row per start", len(rows) == self.expected_rows, f"(got {len(rows)})")
        by_instance: dict[str, list[dict]] = {}
        for r in rows:
            by_instance.setdefault(r["instance_id"], []).append(r)
        if rows:
            self.quality = {
                "uplift_pct": statistics.fmean(
                    float(best_row(rs)["improvement_pct_vs_base"]) for rs in by_instance.values()
                ),
                "stationary_frac": stationary_frac(rows),
            }


class SweepIllcond(Workload):
    """sweep over the default k-list on an ill-conditioned n = 5,000 instance."""

    name = "sweep-illcond"
    config = dict(n=5_000, diag_range=(0.01, 10.0), offdiag_rel_mag=0.9)
    budgets = 6  # entries in the CLI's default --k-list
    # Profits are recomputed from prices, so a warm-started budget may read
    # lower than the previous one by rounding alone, never by more.
    rounding = 1e-12

    def prepare(self):
        inst = generator.generate(generator.GenConfig(seed=self.seed, **self.config))
        storage.write_instance(inst, str(self.inputs / "illcond.txt"))

    def run_pass(self, ops, out):
        ops.cli("sweep", "--instance", self.inputs / "illcond.txt", "--out", out / "sweep.csv")

    def check_pass(self, ops, out):
        self.same_as_first(ops, "sweep report", out / "sweep.csv")
        rows = read_report(out / "sweep.csv")
        ops.check("sweep report has one row per budget", len(rows) == self.budgets, f"(got {len(rows)})")
        profits = [float(r["final_profit"]) for r in rows]
        for k, (lo, hi) in enumerate(zip(profits, profits[1:]), start=1):
            ok = hi >= lo - self.rounding * abs(lo)
            ops.check(f"best profit non-decreasing in k (row {k + 1})", ok, f"({lo!r} -> {hi!r})")
        if rows:
            self.quality = {
                "uplift_pct": statistics.fmean(float(r["improvement_pct_vs_base"]) for r in rows),
                "stationary_frac": stationary_frac(rows),
            }


class LpRoundtrip(Workload):
    """export-mip of an n = 20,000 instance, then validate and evaluate the LP."""

    name = "lp-roundtrip"
    n = 20_000
    rel_tol = 1e-9

    def prepare(self):
        inst = generator.generate(generator.GenConfig(n=self.n, seed=self.seed))
        storage.write_instance(inst, str(self.inputs / "instance.txt"))
        # The baseline: every price at p0, every product in its "unchanged" branch.
        assignment = {}
        for i, p in enumerate(inst.p0.tolist(), start=1):
            assignment.update({f"p_{i}": p, f"zP_{i}": 1.0, f"zL_{i}": 0.0, f"zR_{i}": 0.0})
        self.assignment = assignment
        self.const = float(inst.c @ inst.a)
        self.expected = profit_z(inst, inst.p0)

    def run_pass(self, ops, out):
        lp = out / "model.lp"
        ops.cli("export-mip", "--instance", self.inputs / "instance.txt", "--out", lp)
        model = ops.call("validate_lp_file", lpformat.validate_lp_file, str(lp))
        self.value = ops.call("eval_lp_objective", lpformat.eval_lp_objective, model, self.assignment)

    def check_pass(self, ops, out):
        self.same_as_first(ops, "LP file", out / "model.lp")
        z = self.value - self.const
        ok = abs(z - self.expected) <= self.rel_tol * abs(self.expected)
        ops.check("LP objective at the baseline equals profit_z(p0)", ok, f"({z!r} vs {self.expected!r})")


WORKLOADS = {w.name: w for w in (Pipeline, DeskSuite, SweepIllcond, LpRoundtrip)}
