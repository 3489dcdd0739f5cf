"""The benchmark's tracer wraps priceopt at fixed names; this keeps them resolvable.

``perfbench/tracing.py`` replaces functions and methods by name (module
globals, class attributes) and reads ``Instance.DT`` when a traced pass ends.
A rename that breaks one of those names fails here instead of in a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

from priceopt import GenConfig, generate, lpformat
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
    # the refinement's own products are on S_CC, not counted as matvecs; its
    # iterations still reach the tracer through RefineResult
    assert tracer.count["solver.refine.iterations"] > 0
    assert "solver.certify_stationary" in names
    # the GPA step projects without going through score; its span still sits
    # under the run that called it
    assert any(
        name == "projection.project_feasible" and parent >= 0 and tracer.spans[parent][0] == "solver.gpa_solve"
        for name, _, _, parent, *_ in tracer.spans
    )
    # the certificate takes its gains from _gains and computes the 1-D
    # distances only where they count: it never runs the full-length score
    assert not any(
        name == "projection.score" and parent >= 0 and tracer.spans[parent][0] == "solver.certify_stationary"
        for name, _, _, parent, *_ in tracer.spans
    )


def test_tracer_records_lp_spans(tmp_path):
    # lp-roundtrip's per-layer metrics come from these spans: the parse must
    # stay a call of the module's parse_lp, made by validate_lp_file.
    path, lp = tmp_path / "inst.txt", tmp_path / "model.lp"
    write_instance(generate(GenConfig(n=30, seed=5)), str(path))
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = run(["export-mip", "--instance", str(path), "--out", str(lp)])
        model = lpformat.validate_lp_file(str(lp))
        lpformat.eval_lp_objective(model, {})
    finally:
        tracer.restore()
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"lpformat.export_mip_lp", "lpformat.eval_lp_objective"} <= names
    assert any(
        name == "lpformat.parse_lp" and parent >= 0 and tracer.spans[parent][0] == "lpformat.validate_lp_file"
        for name, _, _, parent, *_ in tracer.spans
    )
