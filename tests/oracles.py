"""Independent oracles the tests compare the package against.

None of this code runs in `mvmlp-bench`: a matrix-exponential series, a
classical RK4 stepper for the linear and Lyapunov ODEs, the OU marginal
covariance, the N-particle system whose empirical law approximates the
McKean-Vlasov law (propagation of chaos), the call classes of the
diffusion kernel's reuse rule, and the MLP recursion written out
evaluation by evaluation.
"""

from functools import lru_cache

import numpy as np

from mvmlp.models import (
    KuramotoParams,
    OuParams,
    kuramoto_diffusion,
    ou_diffusion,
    ou_drift,
)
from mvmlp.randomness import derive_stream
from mvmlp.reference import _flow


def taylor_expm(A: np.ndarray, t: float, terms: int = 50) -> np.ndarray:
    """Independent matrix-exponential oracle: scaled 50-term Taylor series."""
    M = np.asarray(A, dtype=float) * t
    norm = np.linalg.norm(M)
    squarings = max(0, int(np.ceil(np.log2(norm)))) if norm > 0.5 else 0
    M = M / 2**squarings
    d = M.shape[0]
    out = np.eye(d)
    term = np.eye(d)
    for k in range(1, terms + 1):
        term = term @ M / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def rk4(f, y0: np.ndarray, grid, substeps: int = 4) -> np.ndarray:
    """y' = f(t, y) from y0 by classical RK4; y at the K+1 grid points.

    Each grid step is split into `substeps` RK4 steps, so the error is
    O((dt/substeps)^4).
    """
    h = grid.dt / substeps
    y = np.asarray(y0, dtype=float)
    out = [y]
    for j in range(grid.K):
        for i in range(substeps):
            s = j * grid.T / grid.K + i * h
            k1 = f(s, y)
            k2 = f(s + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(s + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(s + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(y)
    return np.array(out)


def solve_linear_ode(A, b, grid, substeps: int = 4) -> np.ndarray:
    """y' = A y + b, y(0) = 0; (K+1, d)."""
    return rk4(lambda s, y: A @ y + b, np.zeros(len(b)), grid, substeps)


def solve_lyapunov_ode(A, Q, grid, substeps: int = 4) -> np.ndarray:
    """C' = A C + C A^T + Q(t), C(0) = 0; (K+1, d, d).

    C A^T is taken as (A C)^T, so C stays exactly symmetric for symmetric Q.
    """
    def f(s, C):
        AC = A @ C
        return AC + AC.T + Q(s)

    return rk4(f, np.zeros(np.shape(A)), grid, substeps)


def ou_marginal_cov(p: OuParams, xi, grid, substeps: int = 4) -> np.ndarray:
    """Marginal covariance path via the Lyapunov ODE driven by Q(t) = S S^T.

    S is the diffusion at the exact mean m(t); Q is cached per time, since
    consecutive RK4 stages share their end points.
    """
    A12 = p.A1 + p.A2
    xi = np.asarray(xi, dtype=float)

    @lru_cache(maxsize=None)
    def Q(s: float) -> np.ndarray:
        E, v = _flow(A12, p.a0, s)
        S = ou_diffusion(p, E @ xi + v)
        return S @ S.T

    return solve_lyapunov_ode(p.A1, Q, grid, substeps)


def partner_means(p):
    """O(N) forms of (1/N) sum_m f(x_i, X_m) for the drift and the diffusion."""
    if isinstance(p, OuParams):
        def drift(x, partners):
            return ou_drift(p, x, np.broadcast_to(partners.mean(axis=0), x.shape))

        def diffusion(x, partners):
            sig = ou_diffusion(p, partners.mean(axis=0))
            return np.broadcast_to(sig, x.shape[:-1] + (p.d, p.d))

        return drift, diffusion

    def drift(x, partners):
        # mean of sin(x - y) over partners y, via the angle-difference identity
        mean_cos = np.cos(partners).mean(axis=0)
        mean_sin = np.sin(partners).mean(axis=0)
        return p.mu0 * (np.sin(x) * mean_cos - np.cos(x) * mean_sin)

    def diffusion(x, partners):
        return kuramoto_diffusion(p, x)

    return drift, diffusion


def _pairwise_partner_mean(fn, X: np.ndarray, partners: np.ndarray, chunk: int = 256):
    """(1/N) sum_m fn(x_i, X_m) for every row i, chunked; checks `partner_means`."""
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


def particle_system_path(model, N: int, grid, stream) -> np.ndarray:
    """Euler-Maruyama for the N-particle system; (N, K+1, d) values.

    Particle i draws its Brownian motion from the stream at `stream.index + (i,)`,
    so the result is independent of scheduling.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    d, K, dt = model.d, grid.K, grid.dt
    incr = np.empty((N, K, d))
    for i in range(N):
        particle = derive_stream(stream.root_seed, stream.index + (i,))
        incr[i] = np.sqrt(dt) * particle.normals((K, d))

    drift_mean, diffusion_mean = partner_means(model.params)
    out = np.zeros((N, K + 1, d))
    X = np.broadcast_to(model.initial_value, (N, d)).copy()
    out[:, 0, :] = X
    for j in range(K):
        mu = drift_mean(X, X)
        sigma = diffusion_mean(X, X)
        X = X + mu * dt + np.einsum("nik,nk->ni", sigma, incr[:, j, :])
        out[:, j + 1, :] = X
    return out


def reuse_class(x: np.ndarray, xi: np.ndarray) -> str:
    """How the sigma kernel treats the (..., d) state rows x of one call.

    "zero": every row is zero, and the kernel returns sigma(0); "xi": every
    row equals xi, which Kuramoto returns as its known matrix and OU
    multiplies; "tail": the rows differ but the last is zero or xi;
    "general": the last row is neither. A "tail" or "general" call is one
    product of all its rows.
    """
    x = x.reshape(-1, x.shape[-1])
    if not x.any():
        return "zero"
    if (x == xi).all():
        return "xi"
    return "tail" if not x[-1].any() or (x[-1] == xi).all() else "general"


def literal_mlp(p, xi, n: int, m: int, grid, theta: tuple, root_seed: int, increments):
    """The level-n MLP path (K+1, d) as `mvmlp.mlp`'s docstring writes it, and its tallies.

    The same index convention and the same `derive_stream` draws as
    `mlp_estimate`, with every coefficient evaluated from the parameters
    of `p` (OuParams or KuramotoParams) one state at a time: sigma as a
    (d, d) matrix by einsum (column k = b_k + B_k x2, or Sigma_k x1), mu
    at each gathered row, and the Ito sum as a loop over grid steps. The
    tallies count what the cost model charges: one mu evaluation per
    gathered pair of paths (and per base call), one sigma evaluation per
    state pair, and one draw per scalar.
    """
    K, dt, d = grid.K, grid.dt, len(xi)
    times = grid.times()
    zero = np.zeros(d)
    tally = {"mu": 0, "sigma": 0, "draws": 0}

    def mu(x1, x2):
        if isinstance(p, KuramotoParams):
            return p.mu0 * np.sin(x1 - x2)
        return p.a0 + np.einsum("ij,j->i", p.A1, x1) + np.einsum("ij,j->i", p.A2, x2)

    def sigma(x1, x2):
        tally["sigma"] += 1
        if isinstance(p, KuramotoParams):
            return np.einsum("kij,j->ik", p.Sigma, x1)
        return p.b + np.einsum("kij,j->ik", p.B, x2)

    def floor(s):
        # the largest grid index strictly below s, and 0 for s = 0
        return max([i for i in range(K) if i * grid.T / K < s], default=0)

    def estimate(level, index, incr):
        if level == 0:
            return np.zeros((K + 1, d))
        mu_0, sigma_0 = mu(zero, zero), sigma(zero, zero)
        tally["mu"] += 1
        X = np.empty((K + 1, d))
        W = zero
        for j in range(K + 1):
            X[j] = xi + times[j] * mu_0 + sigma_0 @ W
            if j < K:
                W = W + incr[j]
        for l in range(1, level):
            fanout = m ** (level - l)
            for k in range(1, fanout + 1):
                block = index + (level, k, l)
                stream = derive_stream(root_seed, block + (0,))
                fresh = np.sqrt(dt) * stream.normals((K, d))
                tally["draws"] += K * d
                x1 = estimate(l, block + (1,), incr)
                x2 = estimate(l, block + (0,), fresh)
                x3 = estimate(l - 1, block + (2,), incr)
                x4 = estimate(l - 1, block + (0,), fresh)
                ito = zero
                for j in range(K):
                    hi = sigma(x1[j], x2[j]) @ incr[j]
                    lo = sigma(x3[j], x4[j]) @ incr[j]
                    ito = ito + (hi - lo) / fanout
                    X[j + 1] += ito
                u = stream.uniform()
                tally["draws"] += 1
                rows = [floor(t * u) for t in times]
                gap = [mu(x1[r], x2[r]) - mu(x3[r], x4[r]) for r in rows]
                tally["mu"] += 2
                for j in range(K + 1):
                    X[j] += times[j] / fanout * gap[j]
        return X

    return estimate(n, tuple(theta), np.asarray(increments, dtype=float)), tally
