"""Process set-up shared by the benchmark's entry points: pin every BLAS and
OpenMP pool to one thread before numpy loads, make the checkout root the
working directory, and put its ``src/`` on the import path."""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def enter_checkout() -> bool:
    """chdir to the checkout root and import rirkit from its sources;
    False when the checkout holds no rirkit sources."""
    os.chdir(ROOT)
    if not (SRC / "rirkit" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True
