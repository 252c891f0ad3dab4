"""The import graph of ``mollifit``: a process loads only what its commands run.

``scipy.optimize`` (and with it ``scipy.linalg`` and ``scipy.sparse``) is
used by two root-finds only, so it is imported inside them.  The check runs
a fresh interpreter, since this test process may already hold those modules.

The test references in ``tests/oracles.py`` stay outside the package and
import from it only public names that they do not check.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import mollifit
from mollifit import estimate, losses

SRC = Path(__file__).resolve().parent.parent / "src"
ORACLES = Path(__file__).resolve().parent / "oracles.py"

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import mollifit, mollifit.cli

print(sorted(m for m in ("scipy.optimize", "scipy.linalg", "scipy.sparse") if m in sys.modules))

import numpy as np
from mollifit.dgp import ErrorLaw, law_quantile
from mollifit.forecast import constant_predictor
from mollifit.losses import huber_loss

print(law_quantile(ErrorLaw.MIXED_NORMAL, 0.3).hex())
print(constant_predictor(np.tan(np.linspace(-1.4, 1.5, 101)), huber_loss(1.25)).hex())
"""


def test_import_loads_no_scipy_optimize_and_the_root_finds_stay_bitwise():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC)], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out[0] == "[]"
    # Both values as computed when scipy.optimize was imported at module level.
    assert out[1] == "-0x1.1b7d9f52551efp-1"
    assert out[2] == "0x1.1e2b76e1f3fedp-4"


def test_the_oracles_import_no_private_or_checked_name_from_the_package():
    tree = ast.parse(ORACLES.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "mollifit" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "mollifit":
            imported += [(node.module, a.name) for a in node.names]
    assert imported
    checked = (losses.mollified_eval, losses.mollified_grad, losses.mollified_hess,
               losses.gap_bound)
    for module, name in imported:
        assert not name.startswith("_"), (module, name)
        obj = getattr(importlib.import_module(module), name)
        assert not any(obj is c for c in checked), (module, name)
        assert getattr(obj, "__module__", module) != "mollifit.estimate", (module, name)
        assert module != "mollifit.estimate", (module, name)


def test_the_package_does_not_ship_the_test_references():
    for name in ("quadrature_oracle", "OracleResult", "quadratic_minimizer"):
        assert name not in mollifit.__all__
        for module in (mollifit, losses, estimate):
            assert not hasattr(module, name), (module.__name__, name)
