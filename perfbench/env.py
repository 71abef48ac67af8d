"""Process environment of the benchmark: call pin() before importing numpy.

Each workload runs in a process of its own. BLAS is held to one thread so the
workload's own thread count is the only parallelism: two Monte Carlo workers
each running a multi-threaded OpenBLAS would oversubscribe a 2-core machine.
CBI_NUM_THREADS is cleared so the library default cannot leak in.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin():
    """Fix the thread environment and make the checkout's src/ importable."""
    for var in _BLAS_VARS:
        os.environ[var] = "1"
    os.environ.pop("CBI_NUM_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))


def describe() -> dict:
    """nproc and the versions of Python, numpy, scipy and OpenBLAS."""
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
