"""Ground-truth solvers coupled to the estimator's Brownian increments.

The mean-field OU reference is pathwise: exact propagator per step,
Gauss-Legendre quadrature for the drift integral, left-point diffusion in
time. It therefore consumes exactly the increments array later fed to the
paired estimator call, which is what the paired-error metric requires.
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
from .numerics import TimeGrid, mat_exp, solve_linear_ode, solve_lyapunov_ode
from .randomness import RandomStream

# Gauss-Legendre 4-point nodes/weights on [-1, 1]
_GL_X = np.array([
    -0.8611363115940526, -0.3399810435848563,
    0.3399810435848563, 0.8611363115940526,
])
_GL_W = np.array([
    0.3478548451374538, 0.6521451548625461,
    0.6521451548625461, 0.3478548451374538,
])


def _transition(A: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """e^{A tau} and int_0^tau e^{A u} du via the augmented-matrix trick."""
    d = A.shape[0]
    aug = np.zeros((2 * d, 2 * d))
    aug[:d, :d] = A
    aug[:d, d:] = np.eye(d)
    E = mat_exp(aug, tau)
    return E[:d, :d], E[:d, d:]


def ou_mean(p: OuParams, xi: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Mean path (K+1, d), stepped exactly by the A1+A2 flow and its a0 forcing."""
    E12, V12 = _transition(p.A1 + p.A2, grid.dt)
    mean = np.asarray(xi, dtype=float)
    out = np.empty((grid.K + 1, p.d))
    out[0] = mean
    for j in range(grid.K):
        mean = E12 @ mean + V12 @ p.a0
        out[j + 1] = mean
    return out


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
    # quadrature nodes tau_i in (0, dt), propagators from node to step end
    taus = 0.5 * dt * (_GL_X + 1.0)
    weights = 0.5 * dt * _GL_W
    props = [mat_exp(p.A1, dt - tau) for tau in taus]
    A12 = p.A1 + p.A2
    node_flows = [_transition(A12, tau) for tau in taus]
    means = ou_mean(p, xi, grid)

    out = np.zeros(incr.shape[:-2] + (K + 1, d))
    out[..., 0, :] = means[0]
    X = out[..., 0, :].copy()

    for j in range(K):
        mean = means[j]
        # deterministic forcing over (t_j, t_{j+1}] by 4-point quadrature
        forcing = np.zeros(d)
        for w, P, (En, Vn) in zip(weights, props, node_flows):
            m_node = En @ mean + Vn @ p.a0
            forcing += w * (P @ (p.a0 + p.A2 @ m_node))
        sigma = ou_diffusion(p, mean)     # left-point diffusion time rule
        X = (np.einsum("ij,...j->...i", E, X) + forcing
             + np.einsum("ik,...k->...i", sigma, incr[..., j, :]))
        out[..., j + 1, :] = X
    return out


def kuramoto_moments(
    p: KuramotoParams, xi: np.ndarray, grid: TimeGrid, substeps: int = 4
) -> np.ndarray:
    """Componentwise variance path (K+1, d) from the linear moment ODE."""
    xi = np.asarray(xi, dtype=float)
    A = (p.Sigma**2).sum(axis=0)          # A[i, j] = sum_k (sigma_k^{i,j})^2
    return solve_linear_ode(A, A @ (xi**2), grid, substeps)


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
