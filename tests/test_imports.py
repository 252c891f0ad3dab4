"""The import graph of ``mollifit``: a process loads only what its commands run.

``scipy.optimize`` (and with it ``scipy.linalg`` and ``scipy.sparse``) is
used by two root-finds only, so it is imported inside them.  The check runs
a fresh interpreter, since this test process may already hold those modules.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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
