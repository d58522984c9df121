"""Run the todadual benchmark: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1].

The BLAS and OpenMP thread pools are pinned to one thread before numpy
loads: every matrix is at most 17 x 17, so extra threads only add
scheduler noise, and one thread fixes the order of reductions so the
accuracy figures repeat exactly.
"""

import os
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from harness import main  # noqa: E402  (numpy must load after the pinning)

if __name__ == "__main__":
    sys.exit(main())
