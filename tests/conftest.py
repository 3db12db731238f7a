"""Pin BLAS to one thread before numpy is imported.

The reports' ``[oracle]`` lines depend on how the BLAS splits its sums
across threads, so the goldens are pinned at one thread, as the benchmark
harness runs. pytest imports this file before any test module.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
