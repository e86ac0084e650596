"""Process environment shared by the benchmark scripts.

Import this module, and call ``prepare()``, before numpy is imported
anywhere: the thread pins only take effect if they are set first.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One thread everywhere: the machine has 2 cores, and multi-threaded BLAS
# could also change the order of floating-point sums.
THREAD_PINS = {
    "BNECK_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class MissingSourceError(RuntimeError):
    pass


def prepare() -> None:
    """Pin thread counts and put this checkout's src/ first on sys.path."""
    os.environ.update(THREAD_PINS)
    if not (SRC / "bneck" / "__init__.py").is_file():
        raise MissingSourceError(f"no bneck package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return out.stdout.strip() or "unknown"


def record() -> dict:
    """Commit, cores, versions and thread pins, for every result file."""
    import numpy as np

    import bneck

    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bneck_from": str(Path(bneck.__file__).resolve().parent.relative_to(ROOT)),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }
