"""Steerable-needle tip-roll estimation and closed-loop steering workbench."""

import os

# One BLAS thread: a threaded product sums in another order, so a trained
# model's bits would follow the thread count. No effect once numpy is loaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

__version__ = "0.1.0"
