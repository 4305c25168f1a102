"""The test run's OpenBLAS thread count follows `OPENBLAS_NUM_THREADS`,
which `conftest.py` sets to 1 unless it is set already."""
import ctypes
import os
from pathlib import Path

import numpy as np
import pytest


def loaded_openblas_threads():
    """Thread count of the OpenBLAS bundled with numpy, read as the
    benchmark reads it; skips where numpy links another BLAS."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    pytest.skip("numpy carries no OpenBLAS")


def test_openblas_threads_follow_the_environment():
    # OpenBLAS takes at most one thread per core it may run on
    wanted = int(os.environ["OPENBLAS_NUM_THREADS"])
    assert loaded_openblas_threads() == min(wanted, len(os.sched_getaffinity(0)))
