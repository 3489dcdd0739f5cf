"""Start-up cost and module boundaries of priceopt.

Importing priceopt loads only what its commands run.

``scipy.optimize`` (about 0.25 s) is never needed, and ``scipy.sparse.linalg``
(about 0.08 s) only by the Lanczos estimates of ``spectral_bounds``
(``mode="power"`` or ``want_lambda_min=True``).  Systems in S are solved by
priceopt's own CG, so ``unconstrained_minimizer`` and the large-n
``validate`` that runs it load neither.  Each check runs in a fresh
interpreter, since this process may have loaded either.
"""

import ast
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


def test_cg_solver_loads_no_linalg(tmp_path):
    # n = 2500 is above the dense Cholesky limit, so validate runs the CG solve
    code = (
        "from priceopt import GenConfig, generate, unconstrained_minimizer, validate\n"
        "inst = generate(GenConfig(n=2500, seed=0))\n"
        "unconstrained_minimizer(inst)\n"
        "assert validate(inst).a1_positive_definite"
    )
    assert _loaded_after(code, tmp_path) == []


def test_lanczos_loads_linalg_on_first_use(tmp_path):
    code = (
        "from priceopt import GenConfig, generate, spectral_bounds\n"
        "spectral_bounds(generate(GenConfig(n=20, seed=0)), mode='power')"
    )
    assert _loaded_after(code, tmp_path) == ["scipy.sparse.linalg"]


def test_gershgorin_step_constant_loads_no_linalg(tmp_path):
    code = (
        "from priceopt import GenConfig, generate, spectral_bounds\n"
        "spectral_bounds(generate(GenConfig(n=20, seed=0)))"
    )
    assert _loaded_after(code, tmp_path) == []


def test_minimize_shim_forwards_to_scipy():
    result = solver.minimize(lambda x: float(np.sum((x - 1.0) ** 2)), np.zeros(2), method="BFGS")
    assert np.allclose(result.x, 1.0, atol=1e-5)


def test_no_module_imports_a_private_name_of_storage_or_numtext():
    found = []
    for path in sorted((SRC / "priceopt").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in ("storage", "numtext"):
                found += [(path.name, node.module, a.name) for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in ("storage", "numtext") and node.attr.startswith("_"):
                    found.append((path.name, node.value.id, node.attr))
    assert found == []


def test_numtext_imports_only_the_standard_library_and_numpy():
    tree = ast.parse((SRC / "priceopt" / "numtext.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not any(isinstance(node, ast.ImportFrom) and node.level > 0 for node in imports)
    modules = [a.name for node in imports if isinstance(node, ast.Import) for a in node.names]
    modules += [node.module for node in imports if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] not in (*sys.stdlib_module_names, "numpy")] == []


def test_file_layer_runs_on_instance_alone():
    # storage and lpformat import the solver for annotations only
    for name in ("storage", "lpformat"):
        tree = ast.parse((SRC / "priceopt" / f"{name}.py").read_text(encoding="utf-8"))
        relative = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level]
        modules = {node.module or a.name for node in relative for a in node.names}
        assert modules <= {"errors", "instance", "numtext", "storage"}, name
