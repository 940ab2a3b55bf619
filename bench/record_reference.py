"""Record reference S-matrices of every case for the default seed.

    python3 bench/record_reference.py

Writes ``bench/reference_seed0.npz`` with the complex blocks of every
case (compared up to port-mode signs, see ``workloads.check_outcome``). Run it only
when the intended results change; the benchmark compares every result of
the default seed against this file (within alpha for adaptive cases,
within a tight fixed tolerance for uniform ones).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import workloads


def main() -> int:
    arrays = {"seed": np.array(workloads.DEFAULT_SEED)}
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=Path(__file__).resolve().parent.parent) as tmp:
            prepared = workloads.Workload(name, workloads.DEFAULT_SEED, Path(tmp), reference_file=None)
            for case in prepared.cases:
                outcome = prepared.run(case)
                for block, value in zip(workloads.BLOCKS, outcome.blocks):
                    arrays[workloads.reference_key(name, case, block)] = value
    np.savez_compressed(workloads.REFERENCE_FILE, **arrays)
    print(f"wrote {len(arrays) - 1} arrays to {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
