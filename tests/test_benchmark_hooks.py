"""The benchmark's tracer wraps priceopt at fixed names; this keeps them resolvable.

``perfbench/tracing.py`` replaces functions and methods by name (module
globals, class attributes) and reads ``Instance.DT`` when a traced pass ends.
A rename that breaks one of those names fails here instead of in a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

from priceopt import GenConfig, generate
from priceopt.cli import run
from priceopt.storage import write_instance

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_solver_spans(tmp_path):
    path = tmp_path / "inst.txt"
    write_instance(generate(GenConfig(n=50, seed=5)), str(path))
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = run(["solve", "--instance", str(path), "--starts", "2",
                    "--report", str(tmp_path / "report.csv")])
    finally:
        tracer.restore()
    assert code == 0
    names = {span[0] for span in tracer.spans}
    for name in ("solver.gpa_solve", "instance.Instance.s_matvec", "solver.Partition.from_status"):
        assert name in names
    assert tracer.count["matvec.flops"] > 0
