"""Degree-two linear-recurrence and Pell-conic probable-prime tests.

The package provides the Lucas, double Lucas, matrix-sequence, Pell,
strong Pell and generalized Pell tests with Selfridge-style parameter
selection, plus a deterministic scan engine that reproduces pseudoprime
lists and counts over ranges and parameter grids.
"""

from .conic import ConicParams
from .primality import (
    Outcome,
    Verdict,
    double_lucas_test,
    lucas_test,
    matrix_test,
    strong_pell_test_param,
)
from .recurrence import LucasParams, MatrixParams
from .search import build_test
from .selectors import gen_pell_selfridge

__version__ = "0.1.0"

__all__ = [
    "ConicParams",
    "LucasParams",
    "MatrixParams",
    "Outcome",
    "Verdict",
    "build_test",
    "double_lucas_test",
    "gen_pell_selfridge",
    "grid_scan",
    "lucas_test",
    "matrix_test",
    "scan_range",
    "strong_pell_test_param",
]


def __getattr__(name: str):
    # The scan module loads at the first scan, not with the package.
    if name in ("grid_scan", "scan_range"):
        from . import scan
        return getattr(scan, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
