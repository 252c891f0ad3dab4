"""Write ``bench/reference.json``: the fit workloads' estimates at this commit.

    python3 bench/make_reference.py

The traced pass of each fit workload refits the same inputs (the first pass
of the reference seed's first input set) and reports the largest absolute
deviation from these values as ``estimate.param_drift_max``.  Regenerate
only when a change of estimates is intended.
"""

import json
import os
import sys

import run

run.pin_blas(os.cpu_count() or 1)
sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402


def main():
    ref = {
        name: {key: est.tolist() for key, est in workloads.reference_estimates(name).items()}
        for name in workloads.FIT_WORKLOADS
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
