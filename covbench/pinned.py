"""Process settings every benchmark entry point imports before numpy.

OpenBLAS reads its thread count once, when numpy loads, so this module must
be imported first. One BLAS thread: the benchmark is one caller in a closed
loop, and on a 2-core machine two OpenBLAS threads made the soya fit about
2.8 times slower (5.3 s against 1.9 s) on the small matrices covglm uses.
``COVGLM_NUMBA=0`` keeps numba out of the process, so the kernel fallbacks
run whether or not numba is installed.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["COVGLM_NUMBA"] = "0"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
