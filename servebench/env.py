"""Process preparation shared by the runner and the self-tests.

:func:`prepare` must run before numpy is imported: it caps BLAS/OpenMP
threads at the CPU count and puts the checkout's ``src/`` first on
``sys.path`` so the benchmark times the code next to it, never an
installed copy.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingSourceError(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def prepare() -> None:
    """Cap BLAS threads at ``nproc`` and make ``src/`` importable."""
    cap = nproc()
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, cap))
        except ValueError:
            want = cap
        os.environ[var] = str(max(1, min(want, cap)))
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSourceError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def host_stamp() -> dict:
    """What the timings depend on besides the code."""
    import numpy as np

    return {
        "nproc": nproc(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
