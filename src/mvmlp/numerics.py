"""Uniform time grids, discrete paths, and dense linear-algebra helpers.

The grid quantizer here is the single canonical one: every piece of code
that needs to map a continuous time to a stored path row goes through
:func:`grid_floor_index`. It returns an *index*, never a time, so there is
no floating-point re-quantization downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid {0, T/K, 2T/K, ..., T}."""

    T: float
    K: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"horizon T must be positive and finite, got {self.T}")
        if int(self.K) != self.K or self.K < 1:
            raise ValueError(f"K must be a positive integer, got {self.K}")

    @property
    def dt(self) -> float:
        return self.T / self.K

    def value(self, k: int) -> float:
        """Time of grid point k, i.e. k*T/K."""
        return k * self.T / self.K

    def times(self) -> np.ndarray:
        """All grid times as a (K+1,) array."""
        return np.arange(self.K + 1) * (self.T / self.K)


@dataclass(frozen=True)
class DiscretePath:
    """State values at the K+1 grid times, as a (K+1) x d array."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.grid.K + 1:
            raise ValueError(
                f"values must have shape (K+1, d) = ({self.grid.K + 1}, d), got {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ValueError("path contains non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return self.values.shape[1]


def grid_floor_index(t: float | np.ndarray, grid: TimeGrid) -> int | np.ndarray:
    """Index of the largest grid point strictly below t; 0 maps to 0.

    An exact grid point maps to the *previous* index (strict inequality),
    so t = T yields K-1. Takes a float (returns an int) or an array of
    times (returns an int array of the same shape).
    """
    ts = np.asarray(t, dtype=float)
    outside = ~((0.0 <= ts) & (ts <= grid.T))
    if outside.any():
        raise ValueError(f"t = {ts[outside].flat[0]} outside [0, {grid.T}]")
    K, T = grid.K, grid.T
    # value(k) < t <= value(k+1) exactly: the last grid value strictly below t
    k = np.searchsorted(np.arange(K + 1) * T / K, ts, side="left") - 1
    k = np.where(ts == 0.0, 0, np.minimum(k, K - 1))
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


def solve_linear_ode(
    A: np.ndarray,
    b: np.ndarray,
    grid: TimeGrid,
    substeps: int = 4,
) -> np.ndarray:
    """Integrate y' = A y + b, y(0) = 0, with classical RK4.

    Returns y at all grid points as a (K+1, d) array. Each grid step is
    split into `substeps` RK4 sub-intervals, so the error is
    O((dt/substeps)^4).
    """
    A = _check_square(A)
    b = np.asarray(b, dtype=float)
    d = A.shape[0]
    if b.shape != (d,):
        raise ValueError(f"b must have shape ({d},), got {b.shape}")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")

    h = grid.dt / substeps
    out = np.zeros((grid.K + 1, d))
    y = np.zeros(d)

    def f(y: np.ndarray) -> np.ndarray:
        return A @ y + b

    for j in range(grid.K):
        for _ in range(substeps):
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[j + 1] = y
    return out


def solve_lyapunov_ode(
    A: np.ndarray,
    Q: Callable[[float], np.ndarray],
    grid: TimeGrid,
    substeps: int = 4,
) -> Sequence[np.ndarray]:
    """Integrate C' = A C + C A^T + Q(t), C(0) = 0, with classical RK4.

    Q maps a time to a symmetric d x d matrix. The result at every grid
    point is re-symmetrized after each step, so the returned matrices are
    symmetric to machine precision.
    """
    A = _check_square(A)
    d = A.shape[0]
    if substeps < 1:
        raise ValueError("substeps must be >= 1")

    def q_at(s: float) -> np.ndarray:
        M = np.asarray(Q(s), dtype=float)
        if M.shape != (d, d):
            raise ValueError(f"Q({s}) has shape {M.shape}, expected ({d}, {d})")
        if not np.allclose(M, M.T, atol=1e-10, rtol=1e-10):
            raise ValueError(f"Q({s}) is not symmetric")
        return M

    h = grid.dt / substeps
    C = np.zeros((d, d))
    out = [C.copy()]

    def f(C: np.ndarray, s: float) -> np.ndarray:
        return A @ C + C @ A.T + q_at(s)

    for j in range(grid.K):
        t0 = grid.value(j)
        for i in range(substeps):
            s = t0 + i * h
            k1 = f(C, s)
            k2 = f(C + 0.5 * h * k1, s + 0.5 * h)
            k3 = f(C + 0.5 * h * k2, s + 0.5 * h)
            k4 = f(C + h * k3, s + h)
            C = C + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            C = 0.5 * (C + C.T)
        out.append(C.copy())
    return out
