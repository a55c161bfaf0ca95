"""Ground-truth solvers coupled to the estimator's Brownian increments.

The mean-field OU reference is pathwise: exact propagator per step, the
drift integral read off the exact mean, left-point diffusion in time. It
therefore consumes exactly the increments array later fed to the paired
estimator call, which is what the paired-error metric requires.
Each path function takes one run's increments (K, d) or a cell's stacked
increments (R, K, d), and a run's values do not depend on R.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .models import (
    KuramotoParams,
    ModelSpec,
    OuParams,
    kuramoto_diffusion,
    ou_diffusion,
)
from .numerics import TimeGrid, mat_exp, solve_lyapunov_ode
from .randomness import RandomStream


def _transition(A: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """e^{A tau} and int_0^tau e^{A u} du via the augmented-matrix trick."""
    d = A.shape[0]
    aug = np.zeros((2 * d, 2 * d))
    aug[:d, :d] = A
    aug[:d, d:] = np.eye(d)
    E = mat_exp(aug, tau)
    return E[:d, :d], E[:d, d:]


def _affine_flow(A: np.ndarray, c: np.ndarray, y0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Path (K+1, d) of y' = A y + c from y0, stepped exactly along the grid."""
    E, V = _transition(A, grid.dt)
    out = np.empty((grid.K + 1, A.shape[0]))
    out[0] = y = np.asarray(y0, dtype=float)
    for j in range(grid.K):
        y = E @ y + V @ c
        out[j + 1] = y
    return out


def ou_mean(p: OuParams, xi: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Mean path (K+1, d), stepped exactly by the A1+A2 flow and its a0 forcing."""
    return _affine_flow(p.A1 + p.A2, p.a0, xi, grid)


def ou_marginal_cov(
    p: OuParams, xi: np.ndarray, grid: TimeGrid, substeps: int = 4
) -> list:
    """Marginal covariance path via the Lyapunov ODE driven by Q(t) = S S^T.

    S is the diffusion at the exact mean m(t); Q is cached per time, since
    consecutive RK4 stages share their end points.
    """
    A12 = p.A1 + p.A2
    xi = np.asarray(xi, dtype=float)

    @lru_cache(maxsize=None)
    def Q(s: float) -> np.ndarray:
        E, V = _transition(A12, s)
        S = ou_diffusion(p, E @ xi + V @ p.a0)
        return S @ S.T

    return solve_lyapunov_ode(p.A1, Q, grid, substeps)


def _check_increments(increments: np.ndarray, K: int, d: int) -> np.ndarray:
    incr = np.asarray(increments, dtype=float)
    if incr.ndim not in (2, 3) or incr.shape[-2:] != (K, d):
        raise ValueError(f"increments must have shape ({K}, {d}) or (R, {K}, {d}), "
                         f"got {incr.shape}")
    return incr


def ou_exact_path(
    p: OuParams, xi: np.ndarray, grid: TimeGrid, increments: np.ndarray
) -> np.ndarray:
    """Pathwise OU reference: increments (K, d) or (R, K, d) -> values (..., K+1, d).

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

    out = np.zeros(incr.shape[:-2] + (K + 1, d))
    out[..., 0, :] = means[0]
    X = out[..., 0, :].copy()

    for j in range(K):
        sigma = ou_diffusion(p, means[j])     # left-point diffusion time rule
        X = (np.einsum("ij,...j->...i", E, X) + forcing[j]
             + np.einsum("ik,...k->...i", sigma, incr[..., j, :]))
        out[..., j + 1, :] = X
    return out


def kuramoto_moments(p: KuramotoParams, xi: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Componentwise variance path (K+1, d) of the linear moment ODE, stepped exactly."""
    xi = np.asarray(xi, dtype=float)
    A = (p.Sigma**2).sum(axis=0)          # A[i, j] = sum_k (sigma_k^{i,j})^2
    return _affine_flow(A, A @ (xi**2), np.zeros_like(xi), grid)


def kuramoto_reference_path(
    p: KuramotoParams,
    xi: np.ndarray,
    grid: TimeGrid,
    increments: np.ndarray,
    variance: np.ndarray,
) -> np.ndarray:
    """Euler-Maruyama reference with moment-damped mean-field drift.

    Increments (K, d) or (R, K, d) -> values (..., K+1, d).
    """
    d, K, dt = p.d, grid.K, grid.dt
    xi = np.asarray(xi, dtype=float)
    incr = _check_increments(increments, K, d)

    out = np.zeros(incr.shape[:-2] + (K + 1, d))
    out[..., 0, :] = xi
    X = out[..., 0, :].copy()
    for j in range(K):
        damp = 1.0 - 0.5 * variance[j]
        drift = p.mu0 * damp * np.sin(X - xi)
        # a leading axis per run keeps one BLAS call per run, so a run's
        # row does not depend on how many runs share the call
        sigma = kuramoto_diffusion(p, X[..., None, :])[..., 0, :, :]
        X = X + drift * dt + np.einsum("...ik,...k->...i", sigma, incr[..., j, :])
        out[..., j + 1, :] = X
    return out


def _pairwise_partner_mean(fn, X: np.ndarray, partners: np.ndarray, chunk: int = 256):
    """(1/N) sum_m fn(x_i, X_m) for every row i, chunked over i."""
    N, d = partners.shape
    outs = []
    for start in range(0, X.shape[0], chunk):
        xs = X[start:start + chunk]                        # (c, d)
        # materialize both (c, N, d) arguments so the chunk axis survives
        # even when fn depends on only one of them
        xs_b = np.broadcast_to(xs[:, None, :], (xs.shape[0], N, d))
        ps_b = np.broadcast_to(partners[None, :, :], (xs.shape[0], N, d))
        vals = fn(xs_b, ps_b)                              # (c, N, ...)
        outs.append(vals.sum(axis=1) / N)
    return np.concatenate(outs, axis=0)


def particle_system_path(
    model: ModelSpec,
    N: int,
    grid: TimeGrid,
    stream: RandomStream,
) -> np.ndarray:
    """Euler-Maruyama for the N-particle system; (N, K+1, d) values.

    Each particle carries its own Brownian motion, drawn from a child
    stream indexed by the particle number, so the result is independent of
    scheduling.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    d, K, dt = model.d, grid.K, grid.dt

    incr = np.empty((N, K, d))
    for i in range(N):
        incr[i] = np.sqrt(dt) * stream.child(i).normals((K, d))

    drift_mean = model.drift_partner_mean or (
        lambda x, partners: _pairwise_partner_mean(model.drift, x, partners)
    )
    diffusion_mean = model.diffusion_partner_mean or (
        lambda x, partners: _pairwise_partner_mean(model.diffusion, x, partners)
    )

    out = np.zeros((N, K + 1, d))
    X = np.broadcast_to(model.initial_value, (N, d)).copy()
    out[:, 0, :] = X
    for j in range(K):
        mu = drift_mean(X, X)
        sigma = diffusion_mean(X, X)
        X = X + mu * dt + np.einsum("nik,nk->ni", sigma, incr[:, j, :])
        out[:, j + 1, :] = X
    return out
