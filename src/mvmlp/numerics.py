"""Uniform time grids, the grid floor, and the matrix exponential.

The grid quantizer here is the single canonical one: every piece of code
that needs to map a continuous time to a stored path row goes through
:func:`grid_floor_index`. It returns an *index*, never a time, so there is
no floating-point re-quantization downstream.

:func:`mat_exp` is the scaling-and-squaring Pade method of Higham, "The
scaling and squaring method for the matrix exponential revisited", SIAM J.
Matrix Anal. Appl. 26(4), 2005, Algorithm 2.3, in numpy alone.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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


# Higham (2005), Table 2.3: the largest 1-norm of A t at which the degree-m
# Pade approximant's backward error stays below the unit roundoff 2**-53
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0,
               13: 5.371920351148152e0}
# coefficients b_0..b_m of the degree-m Pade numerator p(x) = sum b_k x^k;
# the denominator is p(-x)
_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}


def _pade_odd_even(M: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The odd part U and even part V of the degree-m Pade numerator at M."""
    b = _PADE_B[m]
    eye = np.eye(len(M))
    M2 = M @ M
    if m == 13:
        # Higham's scheme: three powers and three products, where the
        # powers up to M**12 alone would take six
        M4 = M2 @ M2
        M6 = M4 @ M2
        u = (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
             + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * eye)
        v = (M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
             + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * eye)
        return M @ u, v
    evens = [eye, M2]
    while len(evens) <= m // 2:
        evens.append(evens[-1] @ M2)
    u = sum(b[2 * k + 1] * P for k, P in enumerate(evens))
    v = sum(b[2 * k] * P for k, P in enumerate(evens))
    return M @ u, v


def mat_exp(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(A*t) by scaling and squaring (Higham 2005, Algorithm 2.3).

    The lowest Pade degree among 3, 5, 7 and 9 whose bound covers the
    1-norm of A*t is used as it is; past the degree-9 bound, A*t is halved
    s times to within the degree-13 bound and the result squared s times.
    A finite square A and a finite real t (not a bool) are required, and
    A*t must not overflow.
    """
    A = _check_square(A)
    if not is_real(t):
        raise ValueError(f"t must be a real number, got {t!r}")
    if not is_finite(t):
        raise ValueError(f"t must be finite, got {format_number(t)}")
    with np.errstate(over="ignore"):
        M = A * float(t)
        norm = float(np.abs(M).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        raise ValueError(f"A * t overflows for t = {t}")
    if norm == 0.0:
        return np.eye(len(M))
    m = next((m for m in (3, 5, 7, 9) if norm <= _PADE_THETA[m]), 13)
    s = max(0, math.ceil(math.log2(norm / _PADE_THETA[13])))
    u, v = _pade_odd_even(M / 2.0**s, m)
    R = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        R = R @ R
    return R
