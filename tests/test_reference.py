import re
import tracemalloc

import numpy as np
import pytest

from mvmlp import reference
from mvmlp.models import (
    KuramotoParams,
    OuParams,
    kuramoto_diffusion,
    kuramoto_model,
    ou_model,
    random_params,
)
from mvmlp.numerics import TimeGrid, mat_exp
from mvmlp.randomness import derive_stream, sample_brownian_increments
from mvmlp.reference import (
    _affine_flow,
    _flow,
    kuramoto_moments,
    kuramoto_reference_path,
    ou_exact_path,
    ou_mean,
)
from oracles import (
    _pairwise_partner_mean,
    ou_marginal_cov,
    particle_system_path,
    partner_means,
)


def _ou(d, seed=0, scale=0.25):
    return random_params("ou", d, derive_stream(seed, (0,)), scale)


def _batch_increments(seed, N, K, d, dt):
    return np.stack(
        [np.sqrt(dt) * derive_stream(seed, (9, i)).normals((K, d)) for i in range(N)]
    )


def _doubled_flow(A, c, tau):
    """e^{A tau} and (int_0^tau e^{A u} du) c from the 2d-sized exponential."""
    d = A.shape[0]
    aug = np.zeros((2 * d, 2 * d))
    aug[:d, :d] = A
    aug[:d, d:] = np.eye(d)
    E = mat_exp(aug, tau)
    return E[:d, :d], E[:d, d:] @ c


class TestFlow:
    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_matches_the_doubled_form(self, d):
        ku = random_params("kuramoto", d, derive_stream(d, (0,)))
        A = np.einsum("kij,kij->ij", ku.Sigma, ku.Sigma)
        ou = _ou(d, seed=d)
        # the moment ODE, whose forcing is large (xi = 10), and the OU mean
        for A, c in ((A, A @ np.full(d, 100.0)), (ou.A1 + ou.A2, ou.a0)):
            for tau in (1 / 256, 1 / 27, 1.0):
                got, want = _flow(A, c, tau), _doubled_flow(A, c, tau)
                for g, w in zip(got, want):
                    assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w)), (d, tau)


class TestOuMean:
    def test_starts_at_initial_value(self):
        p = _ou(3)
        grid = TimeGrid(T=1.0, K=4)
        xi = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(ou_mean(p, xi, grid)[0], xi)

    def test_zero_generator(self):
        d = 2
        p = OuParams(a0=np.array([0.5, -0.5]), A1=np.zeros((d, d)), A2=np.zeros((d, d)),
                     b=np.zeros((d, d)), B=np.zeros((d, d, d)))
        grid = TimeGrid(T=2.0, K=8)
        xi = np.array([1.0, 1.0])
        got = ou_mean(p, xi, grid)
        want = xi + grid.times()[:, None] * p.a0
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_scalar_closed_form(self):
        a, a0, xi = 0.7, 0.4, 2.0
        p = OuParams(a0=np.array([a0]), A1=np.array([[a]]), A2=np.array([[0.0]]),
                     b=np.zeros((1, 1)), B=np.zeros((1, 1, 1)))
        grid = TimeGrid(T=1.0, K=10)
        got = ou_mean(p, np.array([xi]), grid)[:, 0]
        t = grid.times()
        want = np.exp(a * t) * xi + (a0 / a) * (np.exp(a * t) - 1)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_noiseless_exact_path_is_the_mean(self):
        # with zero increments the pathwise reference follows the mean flow,
        # mean-field coupling A2 included
        p = _ou(5, seed=18)
        assert np.linalg.norm(p.A2) > 0
        grid = TimeGrid(T=1.0, K=16)
        xi = np.full(5, 20.0)
        path = ou_exact_path(p, xi, grid, np.zeros((1, grid.K, 5)))[0]
        np.testing.assert_allclose(path, ou_mean(p, xi, grid), rtol=1e-12, atol=0)


class TestOuMarginalCov:
    def test_constant_forcing(self):
        d = 2
        b = np.array([[0.3, 0.0], [0.1, 0.2]])
        p = OuParams(a0=np.zeros(d), A1=np.zeros((d, d)), A2=np.zeros((d, d)),
                     b=b, B=np.zeros((d, d, d)))
        grid = TimeGrid(T=1.0, K=4)
        Q0 = b @ b.T
        Cs = ou_marginal_cov(p, np.ones(d), grid)
        for j, C in enumerate(Cs):
            np.testing.assert_allclose(C, grid.times()[j] * Q0, atol=1e-10)

    def test_scalar_closed_form(self):
        a, bb = -0.4, 0.6
        p = OuParams(a0=np.zeros(1), A1=np.array([[a]]), A2=np.zeros((1, 1)),
                     b=np.array([[bb]]), B=np.zeros((1, 1, 1)))
        grid = TimeGrid(T=1.0, K=10)
        Cs = ou_marginal_cov(p, np.zeros(1), grid, substeps=16)
        q = bb * bb
        for j, C in enumerate(Cs):
            want = (q / (2 * a)) * (np.exp(2 * a * grid.times()[j]) - 1)
            assert abs(C[0, 0] - want) < 1e-8

    def test_monte_carlo_validation(self):
        d, N, seed = 2, 10_000, 4
        p = _ou(d, seed=seed)
        xi = np.full(d, 20.0)
        grid = TimeGrid(T=1.0, K=8)
        C_T = ou_marginal_cov(p, xi, grid)[-1]
        incr = _batch_increments(seed, N, grid.K, d, grid.dt)
        vals = ou_exact_path(p, xi, grid, incr)[:, -1, :]
        centered = vals - vals.mean(axis=0)
        sample_cov = centered.T @ centered / (N - 1)
        # entrywise 5-standard-error band for a covariance estimate
        se = np.sqrt(
            (np.outer(np.diag(sample_cov), np.diag(sample_cov)) + sample_cov**2) / N
        )
        assert np.all(np.abs(sample_cov - C_T) <= 5 * se)


class TestOuExactPath:
    def test_pure_additive_noise(self):
        d = 2
        b = np.array([[0.5, 0.1], [0.0, 0.3]])
        p = OuParams(a0=np.zeros(d), A1=np.zeros((d, d)), A2=np.zeros((d, d)),
                     b=b, B=np.zeros((d, d, d)))
        grid = TimeGrid(T=1.0, K=5)
        inc = np.random.default_rng(0).normal(scale=np.sqrt(grid.dt), size=(5, d))
        xi = np.array([1.0, -1.0])
        path = ou_exact_path(p, xi, grid, inc[None])[0]
        W = np.vstack([np.zeros(d), np.cumsum(inc, axis=0)])
        np.testing.assert_allclose(path, xi + W @ b.T, atol=1e-12)

    def test_deterministic_flow(self):
        a, a0, xi = 0.3, 0.7, 2.0
        p = OuParams(a0=np.array([a0]), A1=np.array([[a]]), A2=np.zeros((1, 1)),
                     b=np.array([[0.2]]), B=np.zeros((1, 1, 1)))
        grid = TimeGrid(T=1.0, K=10)
        path = ou_exact_path(p, np.array([xi]), grid, np.zeros((1, 10, 1)))[0]
        t = grid.times()
        want = np.exp(a * t) * xi + (a0 / a) * (np.exp(a * t) - 1)
        np.testing.assert_allclose(path[:, 0], want, atol=1e-10)

    def test_monte_carlo_mean(self):
        d, N, seed = 2, 10_000, 5
        p = _ou(d, seed=seed)
        xi = np.full(d, 20.0)
        grid = TimeGrid(T=1.0, K=8)
        incr = _batch_increments(seed, N, grid.K, d, grid.dt)
        vals = ou_exact_path(p, xi, grid, incr)[:, -1, :]
        want = ou_mean(p, xi, grid)[-1]
        se = vals.std(axis=0, ddof=1) / np.sqrt(N)
        assert np.all(np.abs(vals.mean(axis=0) - want) <= 5 * se)

    def test_standardized_marginals(self):
        d, N, seed = 3, 10_000, 6
        p = _ou(d, seed=seed)
        xi = np.full(d, 20.0)
        grid = TimeGrid(T=1.0, K=16)
        incr = _batch_increments(seed, N, grid.K, d, grid.dt)
        vals = ou_exact_path(p, xi, grid, incr)[:, -1, :]
        m_T = ou_mean(p, xi, grid)[-1]
        C_T = ou_marginal_cov(p, xi, grid)[-1]
        z = (vals - m_T) / np.sqrt(np.diag(C_T))
        assert np.all(np.abs(z.mean(axis=0)) < 0.05)
        assert np.all(np.abs(z.var(axis=0, ddof=1) - 1) < 0.1)

    def test_smoke_bound(self):
        p = _ou(5, seed=7)
        grid = TimeGrid(T=1.0, K=32)
        inc = sample_brownian_increments(derive_stream(7, (1, 0)), 32, 5, grid.dt)
        path = ou_exact_path(p, np.full(5, 20.0), grid, inc[None])[0]
        assert np.max(np.abs(path)) < 1e6


class TestKuramotoMoments:
    def test_zero_diffusion(self):
        p = KuramotoParams(mu0=0.5, Sigma=np.zeros((3, 3, 3)))
        grid = TimeGrid(T=1.0, K=4)
        variance = kuramoto_moments(p, np.full(3, 10.0), grid)
        np.testing.assert_array_equal(variance, np.zeros((5, 3)))

    def test_scalar_closed_form(self):
        # the second case is coarse: s^2 dt = 2.25 per step
        for s, xi, T, K in ((0.3, 10.0, 1.0, 10), (1.5, 2.0, 2.0, 2)):
            p = KuramotoParams(mu0=0.5, Sigma=np.array([[[s]]]))
            grid = TimeGrid(T=T, K=K)
            variance = kuramoto_moments(p, np.array([xi]), grid)
            a, b = s * s, s * s * xi * xi
            t = grid.times()
            want = (b / a) * (np.exp(a * t) - 1)
            np.testing.assert_allclose(variance[:, 0], want, rtol=1e-12)

    def test_variance_nonnegative(self):
        p = random_params("kuramoto", 4, derive_stream(9, (0,)))
        grid = TimeGrid(T=1.0, K=8)
        variance = kuramoto_moments(p, np.full(4, 10.0), grid)
        assert np.all(variance >= -1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 10, 100])
    def test_generator_is_the_summed_squares(self, d):
        # bit for bit the sum of the squared family over k
        p = random_params("kuramoto", d, derive_stream(d, (0,)))
        grid = TimeGrid(T=1.0, K=4)
        xi = np.full(d, 10.0)
        A = (p.Sigma**2).sum(axis=0)
        want = _affine_flow(A, A @ (xi**2), np.zeros(d), grid)
        assert np.array_equal(kuramoto_moments(p, xi, grid), want)

    def test_no_cubic_temporary(self):
        d = 100
        p = random_params("kuramoto", d, derive_stream(0, (0,)))
        grid = TimeGrid(T=1.0, K=27)
        tracemalloc.start()
        try:
            kuramoto_moments(p, np.full(d, 10.0), grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the squared family alone would be 8 MB
        assert peak < 2**20, peak


class TestKuramotoReferencePath:
    def test_constant_at_fixed_point(self):
        p = random_params("kuramoto", 3, derive_stream(10, (0,)))
        grid = TimeGrid(T=1.0, K=8)
        xi = np.full(3, 10.0)
        variance = kuramoto_moments(p, xi, grid)
        path = kuramoto_reference_path(
            KuramotoParams(mu0=p.mu0, Sigma=np.zeros((3, 3, 3))),
            xi, grid, np.zeros((1, 8, 3)), variance,
        )
        np.testing.assert_allclose(path, np.broadcast_to(xi, (1, 9, 3)), atol=1e-12)

    def test_monte_carlo_mean_small_noise(self):
        d, N, seed = 2, 10_000, 11
        p = random_params("kuramoto", d, derive_stream(seed, (0,)), scale=0.1)
        xi = np.full(d, 10.0)
        grid = TimeGrid(T=1.0, K=16)
        variance = kuramoto_moments(p, xi, grid)
        incr = _batch_increments(seed, N, grid.K, d, grid.dt)
        vals = kuramoto_reference_path(p, xi, grid, incr, variance)[:, -1, :]
        se = vals.std(axis=0, ddof=1) / np.sqrt(N)
        assert np.all(np.abs(vals.mean(axis=0) - xi) <= 5 * se)


    @pytest.mark.parametrize("d", [1, 3, 50])
    def test_matches_diffusion_matrix_stepping(self, d):
        # contracting the increments first only reorders the diffusion sums
        p = random_params("kuramoto", d, derive_stream(d, (0,)))
        xi = np.full(d, 10.0)
        grid = TimeGrid(T=1.0, K=16)
        variance = kuramoto_moments(p, xi, grid)
        incr = _batch_increments(d, 3, grid.K, d, grid.dt)
        want = np.empty((3, grid.K + 1, d))
        want[:, 0] = X = np.broadcast_to(xi, (3, d))
        for j in range(grid.K):
            drift = p.mu0 * (1.0 - 0.5 * variance[j]) * np.sin(X - xi)
            sigma = kuramoto_diffusion(p, X)
            X = X + drift * grid.dt + np.einsum("rik,rk->ri", sigma, incr[:, j])
            want[:, j + 1] = X
        got = kuramoto_reference_path(p, xi, grid, incr, variance)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_contracted_increments_are_chunked(self):
        # the runs are stepped one at a time, and a run's chunk of contracted
        # increments holds at most 2**20 doubles
        d, K, R = 50, 256, 20
        p = random_params("kuramoto", d, derive_stream(d, (0,)))
        xi = np.full(d, 10.0)
        grid = TimeGrid(T=1.0, K=K)
        variance = kuramoto_moments(p, xi, grid)
        incr = _batch_increments(d, R, K, d, grid.dt)
        assert reference._RUN_DOUBLES == 2**20
        tracemalloc.start()
        try:
            out = kuramoto_reference_path(p, xi, grid, incr, variance)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # all R runs' increments contracted at once would take 102 MB
        assert peak < 2**20 * 8 + out.nbytes + 2**20, peak


class TestParticleSystem:
    def test_single_particle_collapses(self):
        d, seed = 2, 12
        model = ou_model(_ou(d, seed=seed))
        grid = TimeGrid(T=1.0, K=6)
        stream = derive_stream(seed, (2,))
        got = particle_system_path(model, 1, grid, stream)[0]
        inc = np.sqrt(grid.dt) * derive_stream(seed, (2, 0)).normals((6, d))
        X = model.initial_value.copy()
        want = [X.copy()]
        for j in range(6):
            mu = model.drift(X, X)
            sigma = model.diffusion(X, X)
            X = X + mu * grid.dt + sigma @ inc[j]
            want.append(X.copy())
        np.testing.assert_allclose(got, np.array(want), atol=1e-12)

    def test_fast_partner_mean_matches_pairwise(self):
        for kind, build in (("ou", ou_model), ("kuramoto", kuramoto_model)):
            p = random_params(kind, 3, derive_stream(13, (0,)))
            model = build(p)
            drift_mean, diffusion_mean = partner_means(p)
            rng = np.random.default_rng(14)
            X = rng.normal(scale=2, size=(40, 3)) + model.initial_value
            fast_mu = drift_mean(X, X)
            slow_mu = _pairwise_partner_mean(model.drift, X, X, chunk=7)
            np.testing.assert_allclose(fast_mu, slow_mu, atol=1e-10)
            fast_sig = diffusion_mean(X, X)
            slow_sig = _pairwise_partner_mean(model.diffusion, X, X, chunk=7)
            np.testing.assert_allclose(fast_sig, slow_sig, atol=1e-10)

    def test_empirical_mean_matches_ou_mean(self):
        d, N, seed = 2, 10_000, 15
        p = _ou(d, seed=seed)
        model = ou_model(p)
        grid = TimeGrid(T=1.0, K=16)
        paths = particle_system_path(model, N, grid, derive_stream(seed, (2,)))
        vals = paths[:, -1, :]
        want = ou_mean(p, model.initial_value, grid)[-1]
        se = vals.std(axis=0, ddof=1) / np.sqrt(N)
        assert np.all(np.abs(vals.mean(axis=0) - want) <= 5 * se)

    def test_second_moment_gap_shrinks_with_n(self):
        d, seed = 2, 16
        p = _ou(d, seed=seed)
        model = ou_model(p)
        grid = TimeGrid(T=1.0, K=8)
        m_T = ou_mean(p, model.initial_value, grid)[-1]
        C_T = ou_marginal_cov(p, model.initial_value, grid)[-1]
        target = C_T + np.outer(m_T, m_T)
        gaps = []
        for N in (500, 16_000):
            reps = []
            for r in range(5):
                paths = particle_system_path(model, N, grid, derive_stream(seed, (2, r)))
                vals = paths[:, -1, :]
                second = vals.T @ vals / N
                reps.append(np.linalg.norm(second - target))
            gaps.append(np.mean(reps))
        assert gaps[1] < gaps[0]

    def test_invalid_particle_count(self):
        model = ou_model(_ou(2))
        with pytest.raises(ValueError):
            particle_system_path(model, 0, TimeGrid(T=1.0, K=2), derive_stream(0, (2,)))


class TestBatchDeterminism:
    """A run's reference values do not depend on how many runs share the call."""

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    @pytest.mark.parametrize("d", [3, 50, 100])
    def test_rows_independent_of_run_count(self, kind, d):
        self._check(kind, d, K=8, runs=64)

    def test_chunked_rows_independent_of_run_count(self):
        # at d = 100 a chunk holds 104 of the 128 steps, so each run takes two chunks
        d, K = 100, 128
        assert reference._RUN_DOUBLES // (d * d) < K
        self._check("kuramoto", d, K, runs=20)

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    def test_one_run_needs_its_run_axis(self, kind):
        # the cell's (R, K, d) increments are the one input shape
        d, K = 3, 4
        p = random_params(kind, d, derive_stream(17, (0,)))
        xi = np.full(d, 10.0)
        grid = TimeGrid(T=1.0, K=K)
        variance = kuramoto_moments(p, xi, grid) if kind == "kuramoto" else None
        for shape in ((K, d), (1, 1, K, d), (1, K + 1, d)):
            args = (p, xi, grid, np.zeros(shape))
            message = f"increments must have shape (R, {K}, {d}), got {shape}"
            with pytest.raises(ValueError, match=re.escape(message)):
                if kind == "ou":
                    ou_exact_path(*args)
                else:
                    kuramoto_reference_path(*args, variance)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    @pytest.mark.parametrize("incr, message", [
        # a float conversion would read these as their real part, 0 or 1, and a number
        (np.zeros((1, 4, 3)) + 1j, "increments must be real, got dtype complex128"),
        (np.zeros((1, 4, 3), dtype=bool), "increments must be real, got dtype bool"),
        (np.full((1, 4, 3), "1"), "increments must be real, got dtype <U1"),
        (np.full((1, 4, 3), np.nan), "increments contains non-finite entries"),
    ], ids=["complex", "bool", "str", "nan"])
    def test_increments_must_be_real_and_finite(self, kind, incr, message):
        d, K = 3, 4
        p = random_params(kind, d, derive_stream(17, (0,)))
        xi = np.full(d, 10.0)
        grid = TimeGrid(T=1.0, K=K)
        with pytest.raises(ValueError, match=f"^{message}$"):
            if kind == "ou":
                ou_exact_path(p, xi, grid, incr)
            else:
                kuramoto_reference_path(p, xi, grid, incr, kuramoto_moments(p, xi, grid))

    @staticmethod
    def _check(kind, d, K, runs):
        p = random_params(kind, d, derive_stream(17, (0,)))
        xi = np.full(d, 20.0 if kind == "ou" else 10.0)
        grid = TimeGrid(T=1.0, K=K)
        incr = _batch_increments(17, runs, grid.K, d, grid.dt)
        if kind == "ou":
            def path(inc):
                return ou_exact_path(p, xi, grid, inc)
        else:
            variance = kuramoto_moments(p, xi, grid)

            def path(inc):
                return kuramoto_reference_path(p, xi, grid, inc, variance)
        full = path(incr)
        for R in (1, 2, 17):
            assert np.array_equal(path(incr[:R]), full[:R]), R


class TestInputChecks:
    """The initial value and the variance are checked as every value from outside is."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", ["ou_mean", "ou_exact_path", "kuramoto_moments",
                                      "kuramoto_reference_path"])
    @pytest.mark.parametrize("xi, message", [
        # numpy once broadcast or multiplied these into its own messages, and
        # a NaN initial value gave NaN paths
        (np.zeros(3), "initial value has shape (3,), expected (2,)"),
        (np.array([0.0, np.nan]), "initial value contains non-finite entries"),
        (np.array([1j, 0]), "initial value must be real, got dtype complex128"),
    ], ids=["shape", "nan", "complex"])
    def test_initial_value_is_checked(self, call, xi, message):
        d, K = 2, 4
        kind = call.split("_")[0]
        p = random_params(kind, d, derive_stream(17, (0,)))
        grid = TimeGrid(T=1.0, K=K)
        args = {
            "ou_mean": (p, xi, grid),
            "ou_exact_path": (p, xi, grid, np.zeros((1, K, d))),
            "kuramoto_moments": (p, xi, grid),
            "kuramoto_reference_path": (p, xi, grid, np.zeros((1, K, d)), np.zeros((K + 1, d))),
        }[call]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            getattr(reference, call)(*args)

    @pytest.mark.parametrize("variance, message", [
        # a (2, d) variance at K = 4 once ended in an IndexError
        (np.zeros((2, 3)), "variance has shape (2, 3), expected (5, 3)"),
        (np.full((5, 3), np.inf), "variance contains non-finite entries"),
    ], ids=["shape", "inf"])
    def test_variance_is_checked(self, variance, message):
        d, K = 3, 4
        p = random_params("kuramoto", d, derive_stream(17, (0,)))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            kuramoto_reference_path(p, np.full(d, 10.0), TimeGrid(T=1.0, K=K),
                                    np.zeros((1, K, d)), variance)
