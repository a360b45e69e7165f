"""Numerical simulator for nonlinear Hodge heat flows of symplectic 2-forms
on the flat four-torus, with reduced models, diagnostics, and a CLI."""

import ctypes
import os

# A run uses one core: the short-axis derivatives are small matrix products,
# which a second BLAS thread made slower, at nearly twice the CPU time.
# Set before numpy loads; a value the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_KEEP_BYTES = 1 << 30


def _keep_freed_memory_on_heap() -> None:
    """Keep freed arrays of up to 1 GiB on the heap instead of returning them
    to the OS: otherwise every multi-MB temporary of the 4D flow is mapped and
    page-faulted in afresh on each call.  A threshold the user has set through
    MALLOC_*_THRESHOLD_ or GLIBC_TUNABLES is kept; without glibc's mallopt
    nothing changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    for param, name in ((_M_MMAP_THRESHOLD, "mmap_threshold"),
                        (_M_TRIM_THRESHOLD, "trim_threshold")):
        if (f"MALLOC_{name.upper()}_" not in os.environ
                and f"glibc.malloc.{name}" not in tunables):
            mallopt(param, _HEAP_KEEP_BYTES)


_keep_freed_memory_on_heap()

from .errors import (BadSeries, CohomologyMismatch, DegenerateForm,
                     FormatError, HodgeFlowError, NoConvergence,
                     NumericalBlowup)
from .forms import (ALL_SCHEMES, CONFORMAL, LINEAR, MATRIX_A1, MATRIX_A2,
                    MATRIX_B1, MATRIX_B2, MATRIX_BHALF, NORM_RATIO,
                    FlowScheme, TwoForm, scheme_from_name)
from .grid import PeriodicGrid, ScalarField

__all__ = [
    "ALL_SCHEMES", "CONFORMAL", "LINEAR", "MATRIX_A1", "MATRIX_A2",
    "MATRIX_B1", "MATRIX_B2", "MATRIX_BHALF", "NORM_RATIO",
    "BadSeries", "CohomologyMismatch", "DegenerateForm", "FlowScheme",
    "FormatError", "HodgeFlowError", "NoConvergence", "NumericalBlowup",
    "PeriodicGrid", "ScalarField", "TwoForm", "scheme_from_name",
]

__version__ = "0.1.0"
