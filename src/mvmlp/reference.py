"""Ground-truth solvers coupled to the estimator's Brownian increments.

The mean-field OU reference is pathwise: exact propagator per step, the
drift integral read off the exact mean, left-point diffusion in time. It
therefore consumes exactly the increments array later fed to the paired
estimator call, which is what the paired-error metric requires.
Each path function takes a cell's stacked increments (R, K, d), and a
run's values do not depend on R.

The Kuramoto reference applies its diffusion only to increments, so it
never forms sigma(X): sigma(X) dW = sum_j X_j G_j with G_j = dW Sigma[:, :, j]
is linear in the state. It steps one run at a time, and contracts the
run's increments against the (d, d, d) family once, in chunks of steps,
before stepping them. A step is then one d x d matrix-vector product.
"""

from __future__ import annotations

import numpy as np

from .models import KuramotoParams, OuParams, ou_diffusion
from .numerics import TimeGrid, mat_exp, real_array

# the Kuramoto reference contracts a run's increments one chunk of steps at
# a time, at most _RUN_DOUBLES doubles (or one step's d*d); the chunk
# follows from (K, d) alone, so it bounds the memory without moving a run's bits
_RUN_DOUBLES = 2**20


def _flow(A: np.ndarray, c: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """e^{A tau} and (int_0^tau e^{A u} du) c, from one exponential of [[A, c], [0, 0]]."""
    d = A.shape[0]
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = A
    aug[:d, d] = c
    E = mat_exp(aug, tau)
    return E[:d, :d], E[:d, d]


def _affine_flow(A: np.ndarray, c: np.ndarray, y0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Path (K+1, d) of y' = A y + c from y0, stepped exactly along the grid."""
    E, v = _flow(A, c, grid.dt)
    out = np.empty((grid.K + 1, A.shape[0]))
    out[0] = y = y0
    for j in range(grid.K):
        y = E @ y + v
        out[j + 1] = y
    return out


def ou_mean(p: OuParams, xi: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Mean path (K+1, d), stepped exactly by the A1+A2 flow and its a0 forcing."""
    xi = real_array(xi, "initial value", (p.d,))
    return _affine_flow(p.A1 + p.A2, p.a0, xi, grid)


def _check_increments(increments: np.ndarray, K: int, d: int) -> np.ndarray:
    incr = real_array(increments, "increments")
    if incr.ndim != 3 or incr.shape[1:] != (K, d):
        raise ValueError(f"increments must have shape (R, {K}, {d}), got {incr.shape}")
    return incr


def ou_exact_path(
    p: OuParams, xi: np.ndarray, grid: TimeGrid, increments: np.ndarray
) -> np.ndarray:
    """Pathwise OU reference: increments (R, K, d) -> values (R, K+1, d).

    Variation-of-constants stepping. The run-independent propagators are
    built once per call, so a cell passes all its runs' increments at once.
    The state contractions use einsum rather than BLAS, whose summation
    order can depend on the batch size: a run's row is bit-identical for
    any number of runs in the call.
    """
    d, K, dt = p.d, grid.K, grid.dt
    incr = _check_increments(increments, K, d)

    E = mat_exp(p.A1, dt)
    means = ou_mean(p, xi, grid)
    # the mean takes the same e^{A1 dt} step, so its exact drift integral is m_{j+1} - E m_j
    forcing = means[1:] - means[:-1] @ E.T

    # left-point diffusion time rule: sigma at the K left means, in one K-row product
    sigmas = ou_diffusion(p, means[:-1])

    out = np.zeros((len(incr), K + 1, d))
    out[:, 0] = means[0]
    X = out[:, 0].copy()

    for j in range(K):
        X = (np.einsum("ij,rj->ri", E, X) + forcing[j]
             + np.einsum("ik,rk->ri", sigmas[j], incr[:, j]))
        out[:, j + 1] = X
    return out


def kuramoto_moments(p: KuramotoParams, xi: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Componentwise variance path (K+1, d) of the linear moment ODE, stepped exactly."""
    xi = real_array(xi, "initial value", (p.d,))
    # A[i, j] = sum_k (sigma_k^{i,j})^2, with no (d, d, d) squared copy
    A = np.einsum("kij,kij->ij", p.Sigma, p.Sigma)
    return _affine_flow(A, A @ (xi**2), np.zeros_like(xi), grid)


def kuramoto_reference_path(
    p: KuramotoParams,
    xi: np.ndarray,
    grid: TimeGrid,
    increments: np.ndarray,
    variance: np.ndarray,
) -> np.ndarray:
    """Euler-Maruyama reference with moment-damped mean-field drift.

    Increments (R, K, d) -> values (R, K+1, d). The runs are stepped one
    after another, so a run's row does not depend on how many runs share
    the call. The diffusion term of step t is sum_j X_j G_j[t] with
    G_j = dW Sigma[:, :, j]; a run's G is made one chunk of steps at a
    time, as one BLAS (steps x d)(d x d) product per j, and each step is
    one matrix-vector product.
    """
    d, K, dt = p.d, grid.K, grid.dt
    xi = real_array(xi, "initial value", (d,))
    variance = real_array(variance, "variance", (K + 1, d))
    runs = _check_increments(increments, K, d)
    family = p.Sigma.transpose(2, 0, 1)     # [j, k, i]: a contiguous (d, d) block per j
    steps = max(1, min(K, _RUN_DOUBLES // (d * d)))

    out = np.empty((len(runs), K + 1, d))
    for incr, path in zip(runs, out):
        path[0] = X = xi
        for start in range(0, K, steps):
            G = np.matmul(incr[None, start:start + steps], family)
            for s in range(G.shape[1]):
                j = start + s
                drift = p.mu0 * (1.0 - 0.5 * variance[j]) * np.sin(X - xi)
                X = X + drift * dt + X @ G[:, s]
                path[j + 1] = X
            del G       # before the next chunk is made
    return out
