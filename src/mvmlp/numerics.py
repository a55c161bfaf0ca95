"""Uniform time grids, the grid floor, and dense linear-algebra helpers.

The grid quantizer here is the single canonical one: every piece of code
that needs to map a continuous time to a stored path row goes through
:func:`grid_floor_index`. It returns an *index*, never a time, so there is
no floating-point re-quantization downstream.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import expm


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def format_number(value) -> str:
    """str(value), or a power of ten for an integer too long for str()."""
    # str() refuses integers past 4,300 digits; 12,000 bits are 3,613 digits
    if not is_int(value) or int(value).bit_length() <= 12_000:
        return str(value)
    return f"{'-' if value < 0 else ''}10**{math.log10(abs(int(value))):.2f}"


def is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:   # an integer too large for a float
        return False


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid {0, T/K, 2T/K, ..., T}."""

    T: float
    K: int

    def __post_init__(self) -> None:
        if not (is_finite(self.T) and self.T > 0):
            raise ValueError(f"horizon T must be positive and finite, got "
                             f"{format_number(self.T)}")
        if not is_int(self.K) or self.K < 1:
            raise ValueError(f"K must be a positive integer, got {self.K!r}")
        if self.K > sys.float_info.max or self.T / self.K == 0:
            raise ValueError(f"K = 10**{math.log10(self.K):.2f} leaves no positive finite "
                             f"grid step T / K for T = {self.T}")

    @property
    def dt(self) -> float:
        return self.T / self.K

    def times(self) -> np.ndarray:
        """All grid times as a (K+1,) array."""
        return np.arange(self.K + 1) * (self.T / self.K)

    @cached_property
    def _floor_breaks(self) -> np.ndarray:
        # the grid times k T / K of 0 < k < K, rounded as the floor's bounds
        # are; built once per grid (a frozen dataclass still has a __dict__)
        return np.arange(1, self.K) * self.T / self.K


def grid_floor_index(t: float | np.ndarray, grid: TimeGrid) -> int | np.ndarray:
    """Index of the largest grid point strictly below t; 0 maps to 0.

    An exact grid point maps to the *previous* index (strict inequality),
    so t = T yields K-1. Takes a float (returns an int) or an array of
    times (returns an int array of the same shape).
    """
    ts = np.asarray(t, dtype=float)
    # a NaN fails both compares, as min and max propagate it
    if ts.size and not (0.0 <= ts.min() and ts.max() <= grid.T):
        outside = ~((0.0 <= ts) & (ts <= grid.T))
        raise ValueError(f"t = {ts[outside].flat[0]} outside [0, {grid.T}]")
    # k T/K < t <= (k+1) T/K exactly: the last grid time strictly below t
    # is the count of inner grid times below it; t = 0 counts none, and a
    # t above the rounded (K-1) T/K counts all K - 1
    k = np.searchsorted(grid._floor_breaks, ts, side="left")
    return int(k) if k.ndim == 0 else k


def _check_square(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix contains non-finite entries")
    return A


def mat_exp(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(A*t) via scaling-and-squaring (scipy's Pade kernel)."""
    A = _check_square(A)
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return expm(A * float(t))
