"""Locate and import galq from the ``src/`` tree of the checkout that holds
this benchmark, never from an installed copy.

BLAS is pinned to one thread before numpy loads: the workloads are closed
loops of small dense and sparse operations, where a second BLAS thread adds
start-up and scheduling noise but no speed (measured on a 2-core machine).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout has no galq source tree to benchmark."""


def pin_blas_threads():
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS


def import_galq():
    """Import galq from ``<root>/src`` and return the package."""
    init = SRC / "galq" / "__init__.py"
    if not init.is_file():
        raise MissingSource(f"no galq source at {init}")
    pin_blas_threads()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import galq

    if Path(galq.__file__).resolve() != init.resolve():
        raise MissingSource(f"galq imported from {galq.__file__}, not {init}")
    return galq
