"""Numerical simulator for nonlinear Hodge heat flows of symplectic 2-forms
on the flat four-torus, with reduced models, diagnostics, and a CLI."""

import os

# A run uses one core: the short-axis derivatives are small matrix products,
# which a second BLAS thread made slower, at nearly twice the CPU time.
# Set before numpy loads; a value the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
