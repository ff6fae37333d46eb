"""Process set-up shared by the benchmark's entry points.

Kept free of numpy so that the BLAS thread pin is in place before
numpy is first imported.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Every BLAS/OpenMP runtime numpy may load reads one of these at start.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def bootstrap():
    """Pin BLAS to one thread and make the checkout's `src` importable.

    Exits with code 2 when the checkout holds no `corestate` sources,
    rather than falling back to some other installed copy.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap() must run before numpy is imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "corestate" / "__init__.py").is_file():
        print(f"perfbench: no corestate sources under {SRC}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
