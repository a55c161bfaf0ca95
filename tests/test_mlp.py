import dataclasses
import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mvmlp import mlp, models
from mvmlp.bench import ExperimentConfig, run_cell
from mvmlp.mlp import (
    CostLedger,
    MlpConfig,
    NumericOverflowError,
    _ito_contract,
    analytic_cost,
    mlp_estimate,
)
from mvmlp.models import (
    CostUnits,
    ModelSpec,
    OuParams,
    default_cost_units,
    kuramoto_model,
    ou_model,
    random_params,
)
from mvmlp.numerics import TimeGrid, grid_floor_index
from mvmlp.randomness import derive_stream, sample_brownian_increments
from oracles import literal_mlp, reuse_class


def _models(d, seed=0):
    return [
        ou_model(random_params("ou", d, derive_stream(seed, (0,)))),
        kuramoto_model(random_params("kuramoto", d, derive_stream(seed, (0,)))),
    ]


def _top_increments(seed, run, K, d, dt):
    return sample_brownian_increments(derive_stream(seed, (1, run)), K, d, dt)


def _constant_model():
    # constant mu and sigma, returned as read-only np.broadcast_to views
    d = 2
    const_mu = np.array([0.3, -0.2])
    const_sig = np.array([[0.5, 0.1], [0.0, 0.4]])
    return ModelSpec(
        name="const",
        d=d,
        initial_value=np.array([1.0, 2.0]),
        drift=lambda x1, x2: np.broadcast_to(const_mu, np.shape(x1)),
        diffusion=lambda x1, x2: np.broadcast_to(
            const_sig, np.shape(x1)[:-1] + (d, d)
        ),
        unit_costs=default_cost_units(d),
    )


def _read_only_copy(out):
    # a copy in the result's own layout, so the estimator contracts it the
    # same way: a zero-stride diffusion result stays one (d, d) matrix
    if out.ndim == 3 and out.strides[0] == 0:
        return np.broadcast_to(out[0].copy(order="K"), out.shape)
    copy = out.copy(order="K")
    copy.flags.writeable = False
    return copy


class TestBaseCases:
    def test_level_zero_is_zero_path(self):
        for model in _models(3):
            grid = TimeGrid(T=1.0, K=4)
            cfg = MlpConfig(n=0, m=2, grid=grid)
            inc = _top_increments(0, 0, 4, 3, grid.dt)
            path = mlp_estimate(model, cfg, (1, 0), 0, inc, CostLedger())
            np.testing.assert_array_equal(path, np.zeros((5, 3)))

    def test_level_one_closed_form(self):
        seed, d, K = 5, 4, 6
        grid = TimeGrid(T=1.0, K=K)
        for model in _models(d, seed):
            for m in (1, 3):
                cfg = MlpConfig(n=1, m=m, grid=grid)
                inc = _top_increments(seed, 0, K, d, grid.dt)
                path = mlp_estimate(model, cfg, (1, 0), seed, inc, CostLedger())
                zero = np.zeros(d)
                W = np.vstack([zero, np.cumsum(inc, axis=0)])
                want = (
                    model.initial_value
                    + grid.times()[:, None] * model.drift(zero, zero)
                    + W @ model.diffusion(zero, zero).T
                )
                np.testing.assert_allclose(path, want, rtol=1e-12, atol=1e-12)

    def test_kuramoto_level_one_is_constant(self):
        # mu(0, 0) = mu0 sin 0 = 0 and sigma(0, 0) = 0, so U_1 = xi in every
        # row, bit for bit: the premise of multiplying repeated sigma rows
        # once; OU's offsets a0 and b make its U_1 move
        seed, d, K = 5, 4, 6
        grid = TimeGrid(T=1.0, K=K)
        inc = _top_increments(seed, 0, K, d, grid.dt)
        ou, kuramoto = _models(d, seed)
        for model, constant in ((ou, False), (kuramoto, True)):
            path = mlp_estimate(model, MlpConfig(n=1, m=2, grid=grid), (1, 0), seed, inc,
                                CostLedger())
            xi = np.broadcast_to(model.initial_value, (K + 1, d))
            assert (path.tobytes() == xi.tobytes()) == constant, model.name

    def test_row_zero_is_initial_value(self):
        for model in _models(3, seed=1):
            grid = TimeGrid(T=1.0, K=4)
            cfg = MlpConfig(n=3, m=2, grid=grid)
            inc = _top_increments(1, 0, 4, 3, grid.dt)
            path = mlp_estimate(model, cfg, (1, 0), 1, inc, CostLedger())
            np.testing.assert_array_equal(path[0], model.initial_value)

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    @pytest.mark.parametrize("d, n, m", [(1, 2, 2), (3, 3, 2), (10, 3, 3)])
    def test_every_frame_base_path_is_its_affine_sum(self, kind, d, n, m, monkeypatch):
        # each frame's base path, one product of [W | t | 1] against
        # [sigma(0, 0)^T; mu(0, 0); xi], is t mu(0, 0) + xi + W sigma(0, 0)^T
        # on the Brownian path of the caller's or a fresh draw's increments,
        # up to the order of its sums; Kuramoto's is xi, bit for bit
        model = _models(d, seed=7)[0 if kind == "ou" else 1]
        K = m**n
        grid = TimeGrid(T=1.0, K=K)
        inc = _top_increments(7, 0, K, d, grid.dt)
        bases, increments = [], [inc]
        check, draw = mlp._check_finite, mlp.sample_brownian_increments

        def check_spy(X, n, level, sample):
            if (level, sample) == (0, 0):       # right after a frame's base path
                bases.append(X.copy())
            return check(X, n, level, sample)

        def draw_spy(*args):
            out = draw(*args)
            increments.append(out.copy())
            return out

        monkeypatch.setattr(mlp, "_check_finite", check_spy)
        monkeypatch.setattr(mlp, "sample_brownian_increments", draw_spy)
        led = CostLedger()
        mlp_estimate(model, MlpConfig(n=n, m=m, grid=grid), (1, 0), 7, inc, led)
        zero, xi, t = np.zeros(d), model.initial_value, grid.times()[:, None]
        mu0, sigma0 = model.drift(zero, zero), model.diffusion(zero, zero)
        wants = []
        for incr in increments:
            W = np.vstack([zero, np.cumsum(incr, axis=0)])
            wants.append((t * mu0 + xi + W @ sigma0.T,
                          t * np.abs(mu0) + np.abs(xi) + np.abs(W) @ np.abs(sigma0).T))
        # one base path per frame of level n >= 1: the drift calls less the
        # two of each (n, k, l) iteration
        assert len(bases) == led.mu_evals - 2 * (led.rv_draws // (K * d + 1))
        for i, X in enumerate(bases):
            assert any(np.all(np.abs(X - want) <= 1e-13 * scale) for want, scale in wants), i
            if kind == "kuramoto":
                assert X.tobytes() == np.broadcast_to(xi, X.shape).tobytes(), i


class TestTranscriptionOracle:
    def test_n2_m1_scalar_ou_matches_hand_transcription(self):
        # straight-line transcription of the n=2, m=1, K=2, d=1 estimator,
        # written independently of the engine but against the same
        # documented randomness index convention
        seed = 17
        p = OuParams(
            a0=np.array([0.3]),
            A1=np.array([[0.2]]),
            A2=np.array([[-0.1]]),
            b=np.array([[0.4]]),
            B=np.array([[[0.15]]]),
        )
        model = ou_model(p, initial_value=np.array([1.0]))
        K, d, T = 2, 1, 1.0
        grid = TimeGrid(T=T, K=K)
        cfg = MlpConfig(n=2, m=1, grid=grid)
        theta = (1, 0)
        inc = _top_increments(seed, 0, K, d, grid.dt)

        path = mlp_estimate(model, cfg, theta, seed, inc, CostLedger())

        def mu(x1, x2):
            return 0.3 + 0.2 * x1 - 0.1 * x2

        def sig(x2):
            return 0.4 + 0.15 * x2

        ts = np.array([0.0, 0.5, 1.0])
        W = np.array([0.0, inc[0, 0], inc[0, 0] + inc[1, 0]])
        base = 1.0 + ts * mu(0, 0) + sig(0) * W

        # the only inner iteration is (n=2, k=1, level=1)
        child = derive_stream(seed, theta + (2, 1, 1, 0))
        fresh = np.sqrt(grid.dt) * child.normals((K, d))
        Wf = np.array([0.0, fresh[0, 0], fresh[0, 0] + fresh[1, 0]])
        x1 = base                                 # level 1 on caller noise
        x2 = 1.0 + ts * mu(0, 0) + sig(0) * Wf    # level 1 on fresh noise
        x3 = np.zeros(3)                          # level 0
        x4 = np.zeros(3)

        ito = np.zeros(3)
        for j in (1, 2):
            ito[j] = ito[j - 1] + (sig(x2[j - 1]) - sig(x4[j - 1])) * inc[j - 1, 0]
        u = child.uniform()
        drift = np.zeros(3)
        for j in (0, 1, 2):
            r = grid_floor_index(ts[j] * u, grid)
            drift[j] = ts[j] * (mu(x1[r], x2[r]) - mu(x3[r], x4[r]))
        want = base + ito + drift

        np.testing.assert_allclose(path[:, 0], want, rtol=1e-13, atol=1e-13)


    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["ou", "kuramoto"]), n=st.integers(0, 3), m=st.integers(1, 3),
           d=st.integers(1, 3), seed=st.integers(0, 2**64 - 1), run=st.integers(0, 3))
    def test_estimate_and_ledger_match_the_literal_recursion(self, kind, n, m, d, seed, run):
        # every evaluation written out one state at a time: the path, the
        # ledger and the closed-form cost all agree with the literal oracle
        p = random_params(kind, d, derive_stream(seed, (0,)))
        model = (ou_model if kind == "ou" else kuramoto_model)(p)
        K = m**n
        grid = TimeGrid(T=1.0, K=K)
        inc = _top_increments(seed, run, K, d, grid.dt)
        ledger = CostLedger()
        path = mlp_estimate(model, MlpConfig(n=n, m=m, grid=grid), (1, run), seed, inc, ledger)
        want, tally = literal_mlp(p, model.initial_value, n, m, grid, (1, run), seed, inc)
        assert np.max(np.abs(path - want)) <= 1e-13 * np.max(np.abs(want))
        counts = (ledger.mu_evals, ledger.sigma_evals, ledger.rv_draws)
        assert counts == (tally["mu"], tally["sigma"], tally["draws"])
        for unit, count in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), counts):
            assert analytic_cost(n, m, K, d, CostUnits(*unit)) == count


class TestInvariants:
    def test_bitwise_determinism(self):
        model = _models(3, seed=2)[0]
        grid = TimeGrid(T=1.0, K=8)
        cfg = MlpConfig(n=3, m=2, grid=grid)
        inc = _top_increments(2, 0, 8, 3, grid.dt)
        a = mlp_estimate(model, cfg, (1, 0), 2, inc, CostLedger())
        b = mlp_estimate(model, cfg, (1, 0), 2, inc, CostLedger())
        assert np.array_equal(a, b)

    def test_constant_coefficients_collapse_to_level_one(self):
        # constant mu and sigma: every correction term vanishes identically
        d = 2
        model = _constant_model()
        grid = TimeGrid(T=1.0, K=4)
        inc = _top_increments(3, 0, 4, d, grid.dt)
        reference = None
        for n in (1, 2, 3, 4):
            cfg = MlpConfig(n=n, m=2, grid=grid)
            path = mlp_estimate(model, cfg, (1, 0), 3, inc, CostLedger())
            if reference is None:
                reference = path
            np.testing.assert_allclose(path, reference, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 3), K=st.integers(1, 8),
           d=st.integers(1, 3), data=st.data())
    def test_constant_coefficients_collapse(self, n, m, K, d, data):
        # with A1 = A2 = B = 0 every correction cancels at every depth
        reals = st.floats(-10, 10)
        a0 = data.draw(arrays(float, d, elements=reals))
        b = data.draw(arrays(float, (d, d), elements=reals))
        zero = np.zeros((d, d))
        model = ou_model(OuParams(a0=a0, A1=zero, A2=zero, b=b, B=np.zeros((d, d, d))))
        grid = TimeGrid(T=1.0, K=K)
        inc = _top_increments(23, 0, K, d, grid.dt)
        path = mlp_estimate(model, MlpConfig(n=n, m=m, grid=grid), (1, 0), 23, inc,
                            CostLedger())
        W = np.vstack([np.zeros(d), np.cumsum(inc, axis=0)])
        want = model.initial_value + grid.times()[:, None] * a0 + W @ b.T
        np.testing.assert_allclose(path, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_coefficient_results_are_never_written(self, kind, d, n):
        # every drift and diffusion result comes back as a read-only copy:
        # a write into one raises, and reading the copies gives the same path
        base = _models(d, seed=8)[0 if kind == "ou" else 1]
        model = dataclasses.replace(
            base,
            drift=lambda x1, x2: _read_only_copy(base.drift(x1, x2)),
            diffusion=lambda x1, x2: _read_only_copy(base.diffusion(x1, x2)),
        )
        K = n**n
        grid = TimeGrid(T=1.0, K=K)
        cfg = MlpConfig(n=n, m=n, grid=grid)
        inc = _top_increments(8, 0, K, d, grid.dt)
        want = mlp_estimate(base, cfg, (1, 0), 8, inc, CostLedger())
        got = mlp_estimate(model, cfg, (1, 0), 8, inc, CostLedger())
        assert got.tobytes() == want.tobytes()

    def test_caller_increments_unchanged(self):
        model = _models(2, seed=4)[0]
        grid = TimeGrid(T=1.0, K=4)
        cfg = MlpConfig(n=3, m=2, grid=grid)
        inc = _top_increments(4, 0, 4, 2, grid.dt)
        before = inc.copy()
        mlp_estimate(model, cfg, (1, 0), 4, inc, CostLedger())
        assert np.array_equal(inc, before)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("inc, message", [
        # a float conversion would read these as their real part, 0 or 1, and a number
        (np.zeros((4, 2)) + 1j, "increments must be real, got dtype complex128"),
        (np.zeros((4, 2), dtype=bool), "increments must be real, got dtype bool"),
        (np.full((4, 2), "1"), "increments must be real, got dtype <U1"),
        (np.zeros((4, 3)), r"increments has shape \(4, 3\), expected \(4, 2\)"),
        (np.full((4, 2), np.nan), "increments contains non-finite entries"),
    ], ids=["complex", "bool", "str", "shape", "nan"])
    def test_caller_increments_checked(self, inc, message):
        model = _models(2, seed=4)[0]
        cfg = MlpConfig(n=2, m=2, grid=TimeGrid(T=1.0, K=4))
        with pytest.raises(ValueError, match=f"^{message}$"):
            mlp_estimate(model, cfg, (1, 0), 4, inc, CostLedger())

    def test_overflow_reports_location(self):
        d = 2
        model = ModelSpec(
            name="explode",
            d=d,
            initial_value=np.zeros(d),
            drift=lambda x1, x2: np.where(np.abs(x1) > 0.5, np.inf, 0.0),
            diffusion=lambda x1, x2: np.broadcast_to(
                np.eye(d), np.shape(x1)[:-1] + (d, d)
            ),
            unit_costs=default_cost_units(d),
        )
        grid = TimeGrid(T=1.0, K=4)
        cfg = MlpConfig(n=2, m=1, grid=grid)
        inc = np.full((4, d), 2.0)
        with pytest.raises(NumericOverflowError) as err:
            mlp_estimate(model, cfg, (1, 0), 0, inc, CostLedger())
        n, level, k, row = err.value.location
        assert n == 2 and level == 1 and k == 1


class TestLifetime:
    @pytest.mark.parametrize("kind", ["ou", "kuramoto", "overflow"])
    def test_call_frees_its_model(self, kind):
        # with the cyclic gc off, only reference counting frees the model: a
        # recursion that reaches itself through its closure would hold it
        d, grid = 3, TimeGrid(T=1.0, K=9)
        cfg = MlpConfig(n=2, m=3, grid=grid)
        inc = _top_increments(0, 0, grid.K, d, grid.dt)
        gc.disable()
        try:
            if kind == "overflow":
                model = dataclasses.replace(
                    _models(d)[0], drift=lambda x1, x2: np.full(np.shape(x1), np.inf))
            else:
                model = _models(d)[0 if kind == "ou" else 1]
            params = weakref.ref(model.params)
            try:
                mlp_estimate(model, cfg, (1, 0), 0, inc, CostLedger())
            except NumericOverflowError:
                assert kind == "overflow"
            else:
                assert kind != "overflow"
            del model
            assert params() is None
        finally:
            gc.enable()


class TestMlpConfig:
    @pytest.mark.parametrize("n, m", [(2.0, 2), (2, 2.0), (True, 2), (2, True), ("2", 2),
                                      pytest.param(2, "2", id="2-'2'"), (-1, 2), (2, 0)])
    def test_depth_and_fanout_must_be_integers(self, n, m):
        # a float or bool n or m would reach range() in mlp_estimate as a TypeError;
        # n >= 0 and m >= 1
        name, value, low = ("m", m, 1) if type(n) is int and n >= 0 else ("n", n, 0)
        message = (f"{name} must be >= {low}, got {value}" if type(value) is int
                   else f"{name} must be an integer, got {value!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MlpConfig(n=n, m=m, grid=TimeGrid(T=1.0, K=4))

    def test_numpy_integers_accepted(self):
        cfg = MlpConfig(n=np.int64(2), m=np.int32(2), grid=TimeGrid(T=1.0, K=4))
        assert (cfg.n, cfg.m) == (2, 2)

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("root_seed, theta, message", [
        (-1, (0,), "root seed must be in [0, 2**64), got -1"),
        (1.5, (0,), "root seed must be an integer, got 1.5"),
        (0, (1.5,), "multi-index entry must be an integer, got 1.5"),
        (0, (-1,), "multi-index entry must be in [0, 2**64), got -1"),
    ])
    def test_stream_address_checked_at_every_depth(self, n, root_seed, theta, message):
        # n < 2 derives no stream, so the estimator checks the address at entry
        model = _models(2)[0]
        cfg = MlpConfig(n=n, m=2, grid=TimeGrid(T=1.0, K=4))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mlp_estimate(model, cfg, theta, root_seed, np.zeros((4, 2)), CostLedger())


class TestCallShape:
    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    @pytest.mark.parametrize("n, m", [(2, 2), (3, 3)])
    def test_one_paired_diffusion_call_per_iteration(self, kind, n, m):
        # two K-row calls per iteration, hi then lo, plus the one-row base
        # calls; an l = 1 iteration's lo states are U_0 = 0, its hi never are
        d, K = 3, 5
        base = _models(d, seed=6)[0 if kind == "ou" else 1]
        drift_calls, diffusion_states = [], []

        def drift(x1, x2):
            drift_calls.append(1)
            return base.drift(x1, x2)

        def diffusion(x1, x2):
            diffusion_states.append(np.array([x1, x2]))
            return base.diffusion(x1, x2)

        model = dataclasses.replace(base, drift=drift, diffusion=diffusion)
        grid = TimeGrid(T=1.0, K=K)
        led = CostLedger()
        inc = _top_increments(6, 0, K, d, grid.dt)
        mlp_estimate(model, MlpConfig(n=n, m=m, grid=grid), (1, 0), 6, inc, led)
        iterations = led.rv_draws // (K * d + 1)
        assert iterations > 0
        assert len(drift_calls) == led.mu_evals
        rows = [int(np.prod(states.shape[1:-1])) for states in diffusion_states]
        assert sum(rows) == led.sigma_evals
        assert all(r in (1, K) for r in rows)
        halves = [i for i, r in enumerate(rows) if r == K]
        assert len(halves) == 2 * iterations
        assert halves[1::2] == [i + 1 for i in halves[::2]]
        zero = [not diffusion_states[i].any() for i in halves]
        assert not any(zero[::2]) and any(zero[1::2])

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    @pytest.mark.parametrize("d", [1, 3, 10])
    @pytest.mark.parametrize("n, m", [(2, 2), (3, 3), (2, 3), (3, 1)])
    def test_paired_calls_multiply_the_rows_before_their_blocks(self, kind, d, n, m,
                                                                monkeypatch):
        # each paired call makes one product against the family, of all its
        # rows with a ones column, for the offset row, unless it is all zero
        # or (Kuramoto) all xi, a constant it returns
        base = _models(d, seed=6)[0 if kind == "ou" else 1]
        family = base.params.B if kind == "ou" else base.params.Sigma
        products, calls = [], []
        matmul = np.matmul

        def spy(a, b, *args, **kwargs):
            if np.shares_memory(b, family):
                products.append(np.array(a))
            return matmul(a, b, *args, **kwargs)

        def diffusion(x1, x2):
            state = x2 if kind == "ou" else x1
            products.clear()
            out = base.diffusion(x1, x2)
            if np.ndim(state) == 2:
                reuse = reuse_class(state, base.initial_value)
                constant = reuse == "zero" or (reuse == "xi" and kind == "kuramoto")
                rows = np.c_[state, np.ones(len(state))]
                calls.append((len(products), constant,
                              all(np.array_equal(a, rows) for a in products)))
            return out

        monkeypatch.setattr(models.np, "matmul", spy)
        model = dataclasses.replace(base, diffusion=diffusion)
        K = m**n
        grid = TimeGrid(T=1.0, K=K)
        inc = _top_increments(6, 0, K, d, grid.dt)
        mlp_estimate(model, MlpConfig(n=n, m=m, grid=grid), (1, 0), 6, inc, CostLedger())
        assert calls
        for multiplied, constant, same in calls:
            assert multiplied == (0 if constant else 1) and same

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    @pytest.mark.parametrize("d", [1, 3, 10])
    @pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (3, 2), (3, 3)])
    def test_calls_are_whole_blocks_or_general(self, kind, d, n, m):
        # the premise of the kernel's whole-call rule: every diffusion call
        # the estimator makes is all zero, all xi, or ends in a row that is
        # neither, so no zero or xi tail is multiplied unseen
        base = _models(d, seed=6)[0 if kind == "ou" else 1]
        classes = []

        def diffusion(x1, x2):
            state = x2 if kind == "ou" else x1
            classes.append(reuse_class(np.asarray(state), base.initial_value))
            return base.diffusion(x1, x2)

        model = dataclasses.replace(base, diffusion=diffusion)
        K = m**n
        grid = TimeGrid(T=1.0, K=K)
        inc = _top_increments(6, 0, K, d, grid.dt)
        mlp_estimate(model, MlpConfig(n=n, m=m, grid=grid), (1, 0), 6, inc, CostLedger())
        assert classes and "tail" not in classes

    def test_diffusion_block_freed_inside_iteration(self):
        # the recursion stack holds no sigma block and the two halves of an
        # Ito step are never live together: one Kuramoto d = 100, n = m = 3
        # call peaks below 1.5 K-row (K, d, d) blocks
        d, n, K = 100, 3, 27
        model = kuramoto_model(random_params("kuramoto", d, derive_stream(0, (0,))))
        grid = TimeGrid(T=1.0, K=K)
        inc = _top_increments(0, 0, K, d, grid.dt)
        tracemalloc.start()
        try:
            mlp_estimate(model, MlpConfig(n=n, m=n, grid=grid), (1, 0), 0, inc, CostLedger())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = K * d * d * 8
        assert peak < 1.5 * block, peak / block

    def test_zero_state_rows_are_not_multiplied(self, monkeypatch):
        # a count, not a timing: the rows multiplied against the family are
        # the rows of the calls that are neither all zero nor all xi (the
        # model knows sigma(xi)), while the ledger still counts every row;
        # the constant level-1 paths (U_1 = xi) make most nonzero rows views
        d, n, K = 5, 3, 27
        base = kuramoto_model(random_params("kuramoto", d, derive_stream(0, (0,))))
        family, xi = base.params.Sigma, base.initial_value
        passed, nonzero, general, multiplied = [], [], [], []
        matmul = np.matmul

        def spy(a, b, *args, **kwargs):
            if np.shares_memory(b, family):
                multiplied.append(int(np.prod(np.shape(a)[:-1])))
            return matmul(a, b, *args, **kwargs)

        def diffusion(x1, x2):
            rows = np.reshape(x1, (-1, d))      # Kuramoto's sigma reads x1
            passed.append(len(rows))
            nonzero.append(int(rows.any(axis=1).sum()))
            general.append(0 if reuse_class(rows, xi) in ("zero", "xi") else len(rows))
            return base.diffusion(x1, x2)

        monkeypatch.setattr(models.np, "matmul", spy)
        model = dataclasses.replace(base, diffusion=diffusion)
        grid = TimeGrid(T=1.0, K=K)
        led = CostLedger()
        inc = _top_increments(0, 0, K, d, grid.dt)
        mlp_estimate(model, MlpConfig(n=n, m=n, grid=grid), (1, 0), 0, inc, led)
        assert sum(passed) == led.sigma_evals == analytic_cost(n, n, K, d, CostUnits(0, 1, 0))
        assert sum(multiplied) == sum(general) == 3 * K
        assert sum(general) < sum(nonzero) < led.sigma_evals


class TestItoContraction:
    @staticmethod
    def _halves(model, n, m, d):
        """(states, result) of every K-row diffusion call of one estimator call."""
        halves = []

        def diffusion(x1, x2):
            out = model.diffusion(x1, x2)
            if np.ndim(x1) == 2:
                halves.append((np.array([x1, x2]), out))
            return out

        K = m**n
        grid = TimeGrid(T=1.0, K=K)
        inc = _top_increments(9, 0, K, d, grid.dt)
        mlp_estimate(dataclasses.replace(model, diffusion=diffusion),
                     MlpConfig(n=n, m=m, grid=grid), (1, 0), 9, inc, CostLedger())
        return inc, halves

    @pytest.mark.parametrize("case", ["ou lo, sigma(0) = b", "kuramoto hi, sigma(xi)",
                                      "broadcast_to model"])
    def test_constant_half_is_one_product(self, case):
        # a zero-stride half is contracted as one (K, d) x (d, d) product:
        # the same sum as the row-wise definition, within rounding
        d, n, m = 3, 2, 3
        if case == "broadcast_to model":
            model, d = _constant_model(), 2
            pick = lambda states: True
        else:
            model = _models(d, seed=9)[0 if case.startswith("ou") else 1]
            xi = model.initial_value
            pick = {"ou": lambda states: reuse_class(states[1], xi) == "zero",
                    "kuramoto": lambda states: reuse_class(states[0], xi) == "xi"}[model.name]
        inc, halves = self._halves(model, n, m, d)
        constant = [sigma for states, sigma in halves if pick(states)]
        general = [sigma for states, sigma in halves if sigma.strides[0] != 0]
        assert constant and all(sigma.strides[0] == 0 for sigma in constant)
        for sigma in constant + general:
            got = _ito_contract(inc, sigma)
            want = np.einsum("rk,rik->ri", inc, sigma)
            scale = np.einsum("rk,rik->ri", np.abs(inc), np.abs(sigma)).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)
            if sigma.strides[0] == 0:
                assert got.tobytes() == (inc @ sigma[0].T).tobytes()


class TestAnalyticCost:
    def test_level_zero(self):
        assert analytic_cost(0, 3, 8, 5, default_cost_units(5)) == 0

    def test_level_one_empty_sum(self):
        units = CostUnits(cost_mu=7, cost_sigma=11, cost_rv=13)
        assert analytic_cost(1, 3, 8, 5, units) == 18

    def test_explicit_n2(self):
        # n=2: base + m * (0 + 0 + K d rv + rv + 2 mu + 2 K sigma
        #                  + 2 C1 + 2 C0), C1 = mu + sigma
        units = CostUnits(cost_mu=2, cost_sigma=3, cost_rv=1)
        n, m, K, d = 2, 3, 4, 2
        c1 = 2 + 3
        want = c1 + m * (2 * c1 + K * d * 1 + 1 + 2 * 2 + 2 * K * 3)
        assert analytic_cost(n, m, K, d, units) == want

    def test_growth_bound(self):
        c = 2
        for d in (1, 2, 4, 8):
            units = CostUnits(cost_mu=d * d, cost_sigma=d * d - (1 if d > 1 else 0),
                              cost_rv=1 if d > 1 else 0)
            assert units.cost_mu + units.cost_sigma + units.cost_rv <= c * d**c
            for n in range(5):
                for m in (1, 2, 3, 4):
                    for K in (1, 4, 64):
                        bound = (8 * m) ** n * c * d**c * K * d
                        assert analytic_cost(n, m, K, d, units) <= bound

    def test_one_pass_equals_the_double_sum(self):
        # c_n = base + sum over 0 < l < n of m**(n-l) (2 c_l + 2 c_(l-1) + e)
        for units in (CostUnits(1, 1, 1), CostUnits(2, 3, 1), CostUnits(7, 0, 13)):
            base = units.cost_mu + units.cost_sigma
            for m in (1, 2, 3, 7):
                for K in (1, 5):
                    for d in (1, 3):
                        e = (K * d * units.cost_rv + units.cost_rv + 2 * units.cost_mu
                             + 2 * K * units.cost_sigma)
                        c = [0]
                        for n in range(1, 25):
                            c.append(base + sum(m ** (n - l) * (2 * c[l] + 2 * c[l - 1] + e)
                                                for l in range(1, n)))
                        for n in range(25):
                            assert analytic_cost(n, m, K, d, units) == c[n], (n, m, K, d)

    @pytest.mark.parametrize("args, message", [
        # a float K once made the cost a float (56.0), a float n a TypeError
        ((2, 2, 4.0, 3), "K must be an integer, got 4.0"),
        ((2.5, 2, 4, 3), "n must be an integer, got 2.5"),
    ])
    def test_sizes_must_be_integers(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            analytic_cost(*args, CostUnits(2, 3, 1))

    def test_large_values_exact(self):
        # integers stay exact far beyond 2^53
        units = default_cost_units(1000)
        cost = analytic_cost(5, 5, 5**5, 1000, units)
        assert cost > 10**12
        assert isinstance(cost, int)


class TestVerifyLedger:
    def test_minimal_case(self):
        led = CostLedger(mu_evals=1, sigma_evals=1, rv_draws=0)
        units = default_cost_units(1)
        assert led.weighted(units) == analytic_cost(1, 1, 1, 1, units)

    def test_instrumented_equals_closed_form(self):
        n, m, K, d = 3, 2, 4, 2
        model = _models(d, seed=8)[0]
        grid = TimeGrid(T=1.0, K=K)
        cfg = MlpConfig(n=n, m=m, grid=grid)
        inc = _top_increments(8, 0, K, d, grid.dt)
        led = CostLedger()
        mlp_estimate(model, cfg, (1, 0), 8, inc, led)
        assert led.weighted(model.unit_costs) == analytic_cost(n, m, K, d, model.unit_costs)

    def test_tampered_ledger_rejected(self, monkeypatch):
        def tampered(model, cfg, theta, root_seed, increments, ledger):
            path = mlp_estimate(model, cfg, theta, root_seed, increments, ledger)
            if theta == (1, 1):
                ledger.mu_evals += 1
            return path

        monkeypatch.setattr("mvmlp.bench.mlp_estimate", tampered)
        cfg = ExperimentConfig(model="ou", d=2, runs=2, seed=8)
        with pytest.raises(ValueError,
                           match="^cost ledger mismatch in cell model=ou, d=2, n=2, m=2, run=1$"):
            run_cell(cfg, 2, 2)

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["ou", "kuramoto"]),
        n=st.integers(0, 3),
        m=st.integers(1, 3),
        K=st.integers(1, 8),
        d=st.integers(1, 3),
        units=st.builds(CostUnits, st.integers(0, 10**6), st.integers(0, 10**6),
                         st.integers(0, 10**6)),
    )
    def test_weighted_ledger_is_closed_form(self, kind, n, m, K, d, units):
        build = ou_model if kind == "ou" else kuramoto_model
        model = build(random_params(kind, d, derive_stream(19, (0,))), unit_costs=units)
        grid = TimeGrid(T=1.0, K=K)
        led = CostLedger()
        inc = _top_increments(19, 0, K, d, grid.dt)
        mlp_estimate(model, MlpConfig(n=n, m=m, grid=grid), (1, 0), 19, inc, led)
        assert led.weighted(units) == analytic_cost(n, m, K, d, units)
