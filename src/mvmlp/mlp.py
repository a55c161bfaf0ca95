"""Multilevel Picard estimator with instrumented and closed-form cost.

The recursion follows the four-call structure of the pseudocode form of
the scheme: at level n, for each inner level l and sample k, the caller
path is re-estimated per k (the cost recursion charges the preparation of
those processes inside the per-k sum, so cost fidelity requires
recomputation, not memoization).

Index convention: every recursive call owns a multi-index that addresses
all of its internal randomness. For the (n, k, l) iteration of a call with
index theta, the fresh Brownian increments and the uniform time draw come
from the stream at theta + (n, k, l, 0); the two caller-side recursive
calls use theta + (n, k, l, 1) and theta + (n, k, l, 2) as their identity,
while the two fresh-noise calls use theta + (n, k, l, 0) itself. All
appended blocks have length 4, so distinct call histories always produce
distinct indices.

Ito correction: the (n, k, l) iteration evaluates sigma(x1, x2) and
sigma(x3, x4) as two K-row diffusion calls, hi then lo, and contracts the
caller's increments with each block before the next is made; the lo step
is then subtracted from the hi step in place, so one (K, d, d) block is
live at a time and none survives into the next iteration's recursion.
Each call always has K rows, fixed by the cell; whether BLAS multiplies
them (and so its bits) depends only on the states, since the models
return a call whose rows are all zero (U_0 at l = 1: sigma(0), the view
of the operand's offset row for both models) or, for Kuramoto, all the
initial value (U_1 = xi) as a read-only view of one (d, d) matrix with a
zero leading stride, which makes no (K, d, d) block, and multiply every
row of any other call, with a ones column for the offset row, in one
product. A zero-stride half is contracted as one (K, d) x (d, d) product,
whose summation order is fixed by the cell; any other half row by row.

Drift correction: the (n, k, l) iteration draws one uniform time u and
adds t_j / m^(n-l) * (mu(x1, x2) - mu(x3, x4)) to row j, with the four
sub-estimates read at the grid floor of t_j * u (one array call of
:func:`grid_floor_index` per iteration); the scale t_j / m^(n-l) is made
once per level.

Base path: a Brownian path W carries two more columns, the grid times t
and 1, so a frame's base path t mu(0, 0) + xi + W sigma(0, 0)^T is one
(K+1, d+2) x (d+2, d) product against a block [sigma(0, 0)^T; mu(0, 0);
xi] that the call holds once and each frame fills with its two base
calls' results; the sums take xi and the drift term inside the product.

Arrays: the Brownian paths, the base path and the Ito and drift steps are
the estimator's own and are updated in place. It never writes into an
array a coefficient returned, which may be a read-only view.

Failure: the recursion runs with numpy's floating-point warnings off, in
the calling thread (numpy's error state is per thread), and checks its
path after each iteration; the first non-finite row raises
`NumericOverflowError`, whose `location` is (n, l, k, j). `run_cell`
reports it as a `ValueError` naming the cell and run.

Lifetime: a call holds no reference to its model, ledger or increments
once it returns or raises, so they are freed by reference counting and
calls made one after another never hold two models' coefficients at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import CostUnits, ModelSpec
from .numerics import TimeGrid, grid_floor_index, integer, real_array
from .randomness import MultiIndex, derive_stream, sample_brownian_increments, stream_address

# tags for the index blocks appended per (n, k, l) iteration
_FRESH = 0
_CALLER_HI = 1
_CALLER_LO = 2


class NumericOverflowError(RuntimeError):
    """A path row became non-finite during the recursion."""

    def __init__(self, n: int, level: int, sample: int, row: int):
        self.location = (n, level, sample, row)
        super().__init__(
            f"non-finite value at level n={n}, l={level}, k={sample}, row j={row}"
        )


@dataclass(frozen=True)
class MlpConfig:
    """Estimator configuration: depth n, fan-out base m, time grid."""

    n: int
    m: int
    grid: TimeGrid

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", integer(self.n, "n", 0))
        object.__setattr__(self, "m", integer(self.m, "m", 1))


@dataclass
class CostLedger:
    """Integer tallies of coefficient evaluations and scalar draws.

    A drift evaluation is one application of mu to a gathered pair of
    paths (the granularity the cost model charges); a diffusion evaluation
    is one application of sigma to a single pair of states.
    """

    mu_evals: int = 0
    sigma_evals: int = 0
    rv_draws: int = 0

    def weighted(self, units: CostUnits) -> int:
        return (
            self.mu_evals * units.cost_mu
            + self.sigma_evals * units.cost_sigma
            + self.rv_draws * units.cost_rv
        )


def mlp_estimate(
    model: ModelSpec,
    cfg: MlpConfig,
    theta: MultiIndex,
    root_seed: int,
    caller_increments: np.ndarray,
    ledger: CostLedger,
) -> np.ndarray:
    """One realization of the level-n estimator on the caller's increments.

    Returns the (K+1, d) path. `caller_increments` is the K x d
    Brownian-increment array of the calling scope; its cost is not charged
    here (the cost model assumes a prepared top-level Brownian path). Pure
    function of its arguments: the same (model, cfg, theta, root_seed,
    increments) give a bitwise identical path.
    """
    K, d, grid = cfg.grid.K, model.d, cfg.grid
    # checked here, not first where a frame derives a stream, which n < 2 never reaches
    root_seed, theta = stream_address(root_seed, theta)
    increments = real_array(caller_increments, "increments", (K, d))

    times = grid.times()
    times_col = times[:, None]
    dt = grid.dt
    zero = np.zeros(d)
    # rows d and d+1 of the base block: mu(0, 0), written per frame, and xi
    base = np.empty((d + 2, d))
    base[d + 1] = model.initial_value

    def brownian_path(incr: np.ndarray) -> np.ndarray:
        """[W | t | 1], (K+1, d+2): the path of `incr`, the grid times and ones."""
        W = np.empty((K + 1, d + 2))
        W[0, :d] = 0.0
        np.cumsum(incr, axis=0, out=W[1:, :d])
        W[:, d] = times
        W[:, d + 1] = 1.0
        return W

    def estimate(n: int, theta: MultiIndex, incr: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Level-n path on increments `incr`, whose `brownian_path` is `W`."""
        if n == 0:
            return np.zeros((K + 1, d))

        base[d] = model.drift(zero, zero)
        ledger.mu_evals += 1
        base[:d] = model.diffusion(zero, zero).T
        ledger.sigma_evals += 1
        X = W @ base
        _check_finite(X, n, 0, 0)

        for level in range(1, n):
            fanout = cfg.m ** (n - level)
            scale = times_col / fanout
            for k in range(1, fanout + 1):
                block = (n, k, level)
                child_stream = derive_stream(root_seed, theta + block + (_FRESH,))
                fresh = sample_brownian_increments(child_stream, K, d, dt)
                ledger.rv_draws += K * d
                W_fresh = brownian_path(fresh)

                x1 = estimate(level, theta + block + (_CALLER_HI,), incr, W)
                x2 = estimate(level, theta + block + (_FRESH,), fresh, W_fresh)
                x3 = estimate(level - 1, theta + block + (_CALLER_LO,), incr, W)
                x4 = estimate(level - 1, theta + block + (_FRESH,), fresh, W_fresh)

                # stochastic-integral correction: left-point Ito sum against
                # the caller's increments; each sigma half is one K-row call,
                # contracted before the other half's (K, d, d) block is made
                steps = _ito_contract(incr, model.diffusion(x1[:-1], x2[:-1]))
                steps -= _ito_contract(incr, model.diffusion(x3[:-1], x4[:-1]))
                ledger.sigma_evals += 2 * K
                steps /= fanout
                X[1:] += np.cumsum(steps, axis=0, out=steps)

                # drift correction: one uniform time draw per (n, k, l)
                u = child_stream.uniform()
                ledger.rv_draws += 1
                rows = grid_floor_index(times * u, grid)
                mu_hi = model.drift(x1.take(rows, 0), x2.take(rows, 0))
                mu_lo = model.drift(x3.take(rows, 0), x4.take(rows, 0))
                ledger.mu_evals += 2
                step = mu_hi - mu_lo
                step *= scale
                X += step
                _check_finite(X, n, level, k)
        return X

    try:
        # numpy's warnings would come before the failure _check_finite names
        with np.errstate(all="ignore"):
            return estimate(cfg.n, theta, increments, brownian_path(increments))
    finally:
        # estimate reaches itself through its closure cell, a cycle that holds
        # the model, the ledger and the increments until the cyclic gc runs;
        # dropping the name breaks it, so the call frees them on return
        del estimate


def _ito_contract(incr: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """[r, i] = sum_k sigma[r, i, k] incr[r, k] for a (K, d, d) diffusion result.

    A result with a zero leading stride is one (d, d) matrix over all K rows
    and is contracted as one (K, d) x (d, d) product; any other is
    contracted row by row, (1, d) x (d, d), on the contiguous [k, i] layout
    the coefficients write. The result is a new array.
    """
    if sigma.strides[0] == 0:
        return incr @ sigma[0].T
    return np.matmul(incr[:, None, :], sigma.swapaxes(-1, -2))[:, 0]


def _check_finite(X: np.ndarray, n: int, level: int, sample: int) -> None:
    if not np.isfinite(X).all():
        bad = int(np.where(~np.isfinite(X).all(axis=1))[0][0])
        raise NumericOverflowError(n, level, sample, bad)


def analytic_cost(n: int, m: int, K: int, d: int, units: CostUnits) -> int:
    """Closed-form cost of one level-n call, exact by definition.

    Evaluates the cost recursion with equality: the base pays one drift
    and one diffusion evaluation; each (l, k) iteration pays the two
    caller-side and two fresh-noise sub-estimates, K*d scalar draws for
    the fresh Brownian path, one uniform draw, two drift evaluations and
    2K diffusion evaluations. The sum over l < n of m**(n-l) times the
    iteration cost at l is carried from level to level as
    S_n = m (S_{n-1} + 2 c_{n-1} + 2 c_{n-2} + e), so one pass does it.
    """
    n, m, K, d = (integer(value, name, low)
                  for value, name, low in ((n, "n", 0), (m, "m", 1), (K, "K", 1), (d, "d", 1)))
    if n == 0:
        return 0
    base = units.cost_mu + units.cost_sigma
    e = K * d * units.cost_rv + units.cost_rv + 2 * units.cost_mu + 2 * K * units.cost_sigma
    total, prev, cost = 0, 0, base      # S_1, c_0, c_1
    for _ in range(2, n + 1):
        total = m * (total + 2 * cost + 2 * prev + e)
        prev, cost = cost, base + total
    return cost
