"""Start-up cost: importing priceopt loads only what its commands run.

``scipy.optimize`` (about 0.25 s) is never needed, and ``scipy.sparse.linalg``
(about 0.08 s) only by the CG solve behind ``unconstrained_minimizer``, the
large-n ``validate`` and ``spectral_bounds(want_lambda_min=True)``.  Each
check runs in a fresh interpreter, since this process may have loaded either.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from priceopt import solver

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.optimize", "scipy.sparse.linalg")


def _loaded_after(code: str, tmp_path) -> list[str]:
    """The HEAVY modules loaded once ``code`` has run in a fresh interpreter."""
    script = (
        f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_import_leaves_optimize_and_linalg_unloaded(tmp_path):
    assert _loaded_after("import priceopt, priceopt.cli", tmp_path) == []


def test_cg_solver_loads_on_first_use(tmp_path):
    code = (
        "from priceopt import GenConfig, generate, unconstrained_minimizer\n"
        "unconstrained_minimizer(generate(GenConfig(n=20, seed=0)))"
    )
    assert _loaded_after(code, tmp_path) == ["scipy.sparse.linalg"]


def test_minimize_shim_forwards_to_scipy():
    result = solver.minimize(lambda x: float(np.sum((x - 1.0) ** 2)), np.zeros(2), method="BFGS")
    assert np.allclose(result.x, 1.0, atol=1e-5)
