"""Uniform time grids, the grid floor, the matrix exponential, and value checks.

:func:`real_array`, :func:`real_number` and :func:`integer` are the one
check for a value from outside the package (model parameters, an initial
value, Brownian increments, a config's numbers, sizes, seeds and
multi-index parts): each refuses a value that is not real and finite, or
not an integer in range, with one ValueError that names it.

The grid quantizer here is the single canonical one: every piece of code
that needs to map a continuous time to a stored path row goes through
:func:`grid_floor_index`. It returns an *index*, never a time, so there is
no floating-point re-quantization downstream.

:func:`mat_exp` is the degree-13 scaling-and-squaring Pade method of
Higham, "The scaling and squaring method for the matrix exponential
revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005, Algorithm 2.3, in
numpy alone; the one degree serves every norm.
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
    """str(value) of a real number, a power of ten for an integer too long for
    str(), and repr(value) of anything else, so a string "1" does not read as 1.
    """
    if not is_real(value):
        return repr(value)
    # str() refuses integers past 4,300 digits; 12,000 bits are 3,613 digits
    if not is_int(value) or int(value).bit_length() <= 12_000:
        return str(value)
    return f"{'-' if value < 0 else ''}10**{math.log10(abs(int(value))):.2f}"


def is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:   # an integer too large for a float
        return False


def real_number(value, name: str) -> None:
    """Refuse, naming `name`, a value that is not a finite real number (a bool is not one)."""
    if not is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not is_finite(value):
        raise ValueError(f"{name} must be finite, got {format_number(value)}")


def integer(value, name: str, low: int, high: int | None = None) -> int:
    """`value` as an int, else a ValueError naming `name`.

    An integer, not a bool, in [low, high) is taken; a `high` of None is no upper bound.
    """
    # the exact-int test spares a per-iteration caller is_int's ABC check
    if not (type(value) is int or is_int(value)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low or high is not None and value >= high:
        # a power-of-two bound prints as one: 2**64, not its 20 digits
        top = f"2**{high.bit_length() - 1}" if high and high & (high - 1) == 0 else high
        bound = f">= {low}" if high is None else f"in [{low}, {top})"
        raise ValueError(f"{name} must be {bound}, got {format_number(value)}")
    return int(value)


def real_array(value, name: str, shape: tuple | None = None) -> np.ndarray:
    """`value` as a finite float array (of `shape`, if given), else a ValueError naming `name`.

    A float array comes back as it is, not copied.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # numpy's message for a ragged sequence names no field
        raise ValueError(f"{name} is a ragged sequence, not an array of one shape") from None
    # a float conversion would read a complex as its real part, a bool as 0 or 1
    # and a numeric string as its number
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real, got dtype {arr.dtype}")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    # min and max propagate a NaN and reach any inf without the boolean mask
    # that isfinite(arr).all() would allocate for a (d, d, d) family
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ValueError(f"{name} contains non-finite entries")
    return arr.astype(float, copy=False)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid {0, T/K, 2T/K, ..., T}."""

    T: float
    K: int

    def __post_init__(self) -> None:
        if not (is_real(self.T) and is_finite(self.T) and self.T > 0):
            raise ValueError(f"horizon T must be positive and finite, got "
                             f"{format_number(self.T)}")
        integer(self.K, "K", 1)
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


# Higham (2005), Table 2.3: the largest 1-norm of A t at which the degree-13
# Pade approximant's backward error stays below the unit roundoff 2**-53
_THETA_13 = 5.371920351148152e0
# coefficients b_0..b_13 of the degree-13 Pade numerator p(x) = sum b_k x^k;
# the denominator is p(-x)
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
            16380.0, 182.0, 1.0)


def mat_exp(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(A*t) by scaling and squaring (Higham 2005, Algorithm 2.3).

    A*t is halved s times to within the degree-13 Pade bound, the degree-13
    approximant is taken there, and the result is squared s times; s is 0
    when the 1-norm of A*t is already within the bound. A finite square A
    of real numbers and a finite real t (not a bool) are required, and A*t
    must not overflow.
    """
    A = real_array(A, "matrix")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    real_number(t, "t")
    with np.errstate(over="ignore"):
        M = A * float(t)
        norm = float(np.abs(M).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        raise ValueError(f"A * t overflows for t = {t}")
    if norm == 0.0:
        return np.eye(len(M))
    s = max(0, math.ceil(math.log2(norm / _THETA_13)))
    M = M / 2.0**s
    b = _PADE_13
    # Higham's scheme: the odd part U and the even part V of the numerator
    # from three powers and three products, where the powers up to M**12
    # alone would take six
    M2 = M @ M
    M4 = M2 @ M2
    M6 = M4 @ M2
    eye = np.eye(len(M))
    U = M @ (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
             + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * eye)
    V = (M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
         + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * eye)
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R
