import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from mvmlp.bench import ExperimentConfig
from mvmlp.mlp import analytic_cost
from mvmlp.models import CostUnits
from mvmlp.numerics import TimeGrid, grid_floor_index, integer, mat_exp, real_array
from mvmlp.randomness import derive_stream, sample_brownian_increments
from oracles import solve_linear_ode, solve_lyapunov_ode, taylor_expm

_UNITS = CostUnits(2, 3, 1)
# every integer from outside the package whose entry point has no table of its
# own (MlpConfig, TimeGrid, random_params and derive_stream have theirs):
# (entry point, the field its message names, low, high, a call with the value
# in that field)
_INTEGER_FIELDS = [
    ("ExperimentConfig", "d", 1, None, lambda v: ExperimentConfig(d=v)),
    ("ExperimentConfig", "runs", 1, None, lambda v: ExperimentConfig(runs=v)),
    ("ExperimentConfig", "seed", 0, 2**64, lambda v: ExperimentConfig(seed=v)),
    ("ExperimentConfig", "threads", 1, None, lambda v: ExperimentConfig(threads=v)),
    ("CostUnits", "cost_mu", 0, None, lambda v: CostUnits(v, 1, 1)),
    ("CostUnits", "cost_sigma", 0, None, lambda v: CostUnits(1, v, 1)),
    ("CostUnits", "cost_rv", 0, None, lambda v: CostUnits(1, 1, v)),
    ("sample_brownian_increments", "K", 1, None,
     lambda v: sample_brownian_increments(derive_stream(0, (1,)), v, 2, 0.1)),
    ("sample_brownian_increments", "d", 1, None,
     lambda v: sample_brownian_increments(derive_stream(0, (1,)), 4, v, 0.1)),
    ("analytic_cost", "n", 0, None, lambda v: analytic_cost(v, 2, 4, 3, _UNITS)),
    ("analytic_cost", "m", 1, None, lambda v: analytic_cost(2, v, 4, 3, _UNITS)),
    ("analytic_cost", "K", 1, None, lambda v: analytic_cost(2, 2, v, 3, _UNITS)),
    ("analytic_cost", "d", 1, None, lambda v: analytic_cost(2, 2, 4, v, _UNITS)),
]


class TestTimeGrid:
    def test_values(self):
        g = TimeGrid(T=2.0, K=4)
        assert g.dt == 0.5
        np.testing.assert_allclose(g.times(), [0, 0.5, 1.0, 1.5, 2.0])
        assert TimeGrid(T=1.0, K=2**1023).dt == 2.0**-1023

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeGrid(T=-1.0, K=4)
        with pytest.raises(ValueError):
            TimeGrid(T=1.0, K=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("T, K, message", [
        (1.0, True, "K must be an integer, got True"),
        (1.0, 2**1024, r"K = 10\*\*308.25 leaves no positive finite grid step T / K"),
        (1.0, 10**5000, r"K = 10\*\*5000.00 leaves no positive finite grid step T / K"),
        (1.0, 4.0, "K must be an integer, got 4.0"),
        (1.0, float("inf"), "K must be an integer, got inf"),
        (1.0, float("nan"), "K must be an integer, got nan"),
        (1.0, "2", "K must be an integer, got '2'$"),
        (1.0, 0, "K must be >= 1, got 0$"),
        (10**400, 1, "horizon T must be positive and finite, got 1000"),
        # str() refuses an integer past 4,300 digits: the error names T
        (10**5000, 1, r"horizon T must be positive and finite, got 10\*\*5000.00$"),
        (-10**5000, 1, r"horizon T must be positive and finite, got -10\*\*5000.00$"),
        # a bool is not read as 1, nor a string or complex as a number; a
        # value that is not a real number prints as its repr
        (True, 4, "horizon T must be positive and finite, got True$"),
        ("1", 4, "horizon T must be positive and finite, got '1'$"),
        ("x", 4, "horizon T must be positive and finite, got 'x'$"),
        (1j, 4, "horizon T must be positive and finite, got 1j$"),
    ], ids=["bool", "2**1024", "10**5000", "float K", "K=inf", "K=nan", "K=str", "K=0",
            "T=10**400", "T=10**5000", "T=-10**5000", "T=bool", "T=numeric-str", "T=str",
            "T=complex"])
    def test_step_must_be_a_float(self, T, K, message):
        with pytest.raises(ValueError, match=message):
            TimeGrid(T=T, K=K)


class TestInteger:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call, name, low, high, value", [
        pytest.param(call, name, low, high, value, id=f"{entry}-{name}-{value!r}")
        for entry, name, low, high, call in _INTEGER_FIELDS
        for value in (2.0, True, "2", low - 1, *(() if high is None else (high,)))
    ])
    def test_every_entry_point_names_the_field(self, call, name, low, high, value):
        # a float, a bool and a string are refused, not read as 2 or 1
        if type(value) is not int:
            message = f"{name} must be an integer, got {value!r}"
        elif high is None:
            message = f"{name} must be >= {low}, got {value}"
        else:
            message = f"{name} must be in [{low}, 2**64), got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)

    def test_value_comes_back_as_an_int(self):
        got = integer(np.uint64(2**64 - 1), "x", 0, 2**64)
        assert type(got) is int and got == 2**64 - 1

    @pytest.mark.parametrize("value, low, high, message", [
        # a bound that is a power of two prints as one; an integer too long
        # for str() as a power of ten
        (10, 0, 10, "x must be in [0, 10), got 10"),
        (-1, 0, 2**8, "x must be in [0, 2**8), got -1"),
        (-10**5000, 0, None, "x must be >= 0, got -10**5000.00"),
        (1j, 0, None, "x must be an integer, got 1j"),
    ], ids=["high", "power-of-two-high", "huge", "complex"])
    def test_message(self, value, low, high, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            integer(value, "x", low, high)


class TestRealArray:
    def test_float_array_is_not_copied(self):
        # a (d, d, d) family is checked in place, never held twice
        x = np.ones((2, 3))
        assert real_array(x, "x", (2, 3)) is x

    def test_integers_are_read_as_float(self):
        got = real_array([[1, 2]], "x")
        assert got.dtype == float and got.tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize("ragged", [[1.0, [2.0, 3.0], 4.0], [[1], [1, 2]]])
    def test_ragged_value_names_the_field(self, ragged):
        message = "x is a ragged sequence, not an array of one shape"
        with pytest.raises(ValueError, match=f"^{message}$"):
            real_array(ragged, "x")


class TestGridFloorIndex:
    def test_examples(self):
        g = TimeGrid(T=1.0, K=10)
        assert grid_floor_index(0.0, g) == 0
        assert grid_floor_index(0.3, g) == 2
        assert grid_floor_index(0.35, g) == 3
        assert grid_floor_index(1.0, g) == 9
        assert type(grid_floor_index(0.35, g)) is int

    def test_out_of_range(self):
        g = TimeGrid(T=1.0, K=10)
        with pytest.raises(ValueError):
            grid_floor_index(-0.1, g)
        with pytest.raises(ValueError):
            grid_floor_index(1.1, g)
        with pytest.raises(ValueError, match="t = 1.1 outside"):
            grid_floor_index(np.array([0.0, 0.5, 1.1, 1.0]), g)

    def test_strict_floor_property(self):
        # exhaustive over K <= 64, random times including exact grid points
        rng = np.random.default_rng(1234)
        for K in range(1, 65):
            g = TimeGrid(T=1.0, K=K)
            ts = np.concatenate([rng.uniform(0, 1, 150), g.times()])
            scalar = []
            for t in ts:
                k = grid_floor_index(float(t), g)
                assert 0 <= k <= K - 1
                if t > 0:
                    assert k * g.T / g.K < t
                    assert (k + 1) * g.T / g.K >= t
                scalar.append(k)
            batch = grid_floor_index(ts, g)
            assert batch.dtype.kind == "i" and batch.shape == ts.shape
            assert np.array_equal(batch, scalar)

    @settings(max_examples=200, deadline=None)
    @given(
        K=st.integers(1, 1024),
        T=st.floats(1e-3, 1e3),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=50),
    )
    def test_array_invariants(self, K, T, fractions):
        g = TimeGrid(T=T, K=K)
        points = np.array([k * T / K for k in range(K + 1)] + [T])
        ts = np.concatenate([points[points <= T], np.array(fractions) * T])
        k = grid_floor_index(ts, g)
        assert ((0 <= k) & (k <= K - 1)).all()
        assert (k[ts == 0] == 0).all()
        pos = ts > 0
        lower = k * T / K
        # K*T/K may round one ulp off T, so the top point is T itself
        upper = np.where(k + 1 < K, (k + 1) * T / K, T)
        assert (lower[pos] < ts[pos]).all()
        assert (ts[pos] <= upper[pos]).all()

    def test_monotone(self):
        g = TimeGrid(T=3.0, K=17)
        ts = np.sort(np.random.default_rng(7).uniform(0, 3.0, 500))
        idx = [grid_floor_index(float(t), g) for t in ts]
        assert all(a <= b for a, b in zip(idx, idx[1:]))


# Higham (2005), Table 2.3: the 1-norm bounds of Pade degrees 3, 5, 7, 9, 13;
# mat_exp takes degree 13 alone, so only the last is still its bound
THETAS = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
          2.097847961257068e0, 5.371920351148152e0)


class TestMatExp:
    def test_zero(self):
        np.testing.assert_array_equal(mat_exp(np.zeros((3, 3)), 1.3), np.eye(3))

    def test_diagonal(self):
        a = np.array([0.5, -1.0, 2.0])
        got = mat_exp(np.diag(a), 0.7)
        np.testing.assert_allclose(got, np.diag(np.exp(a * 0.7)), rtol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 10, 51, 101])
    @pytest.mark.parametrize("norm, tol", [(1e-12, 1e-13), (1e-8, 1e-13)]
                             + [(theta * (1 - 1e-6), 1e-13) for theta in THETAS]
                             + [(THETAS[-1] * (1 + 1e-6), 1e-11), (20.0, 1e-11), (100.0, 1e-11)],
                             ids=["1e-12", "1e-8", "theta3", "theta5", "theta7", "theta9",
                                  "theta13", "theta13-halved", "20", "100"])
    def test_against_scipy(self, d, norm, tol):
        # tiny norms and sample norms just below the old degree 3-9 bounds,
        # all taken by degree 13 unscaled; just below theta13, the last norm
        # with no squaring; just past it, the first halving; and far past it,
        # where several squarings run. scipy's own error is the larger one at
        # d <= 3 past theta9 (up to 4e-13 at theta13 and 1e-11 at 100 on
        # other draws, against 40-digit arithmetic, where mat_exp stays near
        # 1e-14)
        A = np.random.default_rng(d).standard_normal((d, d))
        A *= norm / np.abs(A).sum(axis=0).max()
        want = expm(A)
        assert np.abs(mat_exp(A) - want).max() <= tol * np.abs(want).max()

    def test_nilpotent(self):
        N = np.array([[0.0, 1.5, -2.0], [0.0, 0.0, 0.7], [0.0, 0.0, 0.0]])
        np.testing.assert_allclose(mat_exp(N, 1.3), np.eye(3) + 1.3 * N + (1.3 * N) @ (1.3 * N) / 2,
                                   rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("theta", [1e-3, 0.1, 1.0, np.pi / 2, 3.0, 10.0])
    def test_rotation(self, theta):
        got = mat_exp(np.array([[0.0, -theta], [theta, 0.0]]))
        c, s = np.cos(theta), np.sin(theta)
        np.testing.assert_allclose(got, [[c, -s], [s, c]], rtol=0, atol=1e-15)

    def test_against_taylor_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            A = rng.uniform(-1, 1, (3, 3))
            got = mat_exp(A, 0.7)
            want = taylor_expm(A, 0.7)
            assert np.max(np.abs(got - want)) <= 1e-10 * max(1, np.max(np.abs(want)))

    def test_semigroup(self):
        rng = np.random.default_rng(3)
        A = rng.uniform(-1, 1, (4, 4))
        lhs = mat_exp(A, 0.9)
        rhs = mat_exp(A, 0.4) @ mat_exp(A, 0.5)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("A, t, message", [
        ([[np.nan, 0], [0, 0]], 1.0, "matrix contains non-finite entries"),
        (np.eye(2), np.inf, "t must be finite, got inf"),
        (np.eye(2), np.nan, "t must be finite, got nan"),
        (np.eye(2), 10**400, "t must be finite, got 1000"),
        (np.eye(2), "x", "t must be a real number, got 'x'"),
        (np.eye(2), True, "t must be a real number, got True"),
        (np.eye(2), np.True_, r"t must be a real number, got (np\.)?True"),
        # a float conversion would read these as their real part, 0 or 1, and a number
        ([[1j]], 0.5, "matrix must be real, got dtype complex128"),
        ([[True]], 0.5, "matrix must be real, got dtype bool"),
        ([["1"]], 0.5, "matrix must be real, got dtype .U1"),
        # the product overflows: refused without an overflow warning
        ([[1, 2], [3, 4]], 1e308, r"A \* t overflows for t = 1e\+308"),
        # each entry is finite, but a column's sum is not
        ([[1e308, 0], [1e308, 0]], 1.0, r"A \* t overflows for t = 1.0"),
    ], ids=["A-nan", "t-inf", "t-nan", "t-10e400", "t-str", "t-bool", "t-numpy-bool",
            "A-complex", "A-bool", "A-str", "At-overflow", "norm-overflow"])
    def test_non_finite_rejected(self, A, t, message):
        with pytest.raises(ValueError, match=message):
            mat_exp(A, t)


class TestSolveLinearOde:
    def test_zero_matrix(self):
        g = TimeGrid(T=1.0, K=10)
        y = solve_linear_ode(np.zeros((3, 3)), np.ones(3), g)
        np.testing.assert_allclose(y, g.times()[:, None] * np.ones(3), atol=1e-13)

    def test_scalar_closed_form(self):
        a, q = 0.8, 1.7
        g = TimeGrid(T=1.0, K=10)
        y = solve_linear_ode(np.array([[a]]), np.array([q]), g, substeps=4)
        want = (q / a) * (np.exp(a * g.times()) - 1)
        np.testing.assert_allclose(y[:, 0], want, atol=1e-8)

    def test_self_refinement(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(-1, 1, (4, 4))
        b = rng.uniform(-1, 1, 4)
        g = TimeGrid(T=1.0, K=8)
        coarse = solve_linear_ode(A, b, g, substeps=4)
        fine = solve_linear_ode(A, b, g, substeps=64)
        assert np.max(np.abs(coarse - fine)) < 1e-7


class TestSolveLyapunovOde:
    def test_identity_forcing(self):
        g = TimeGrid(T=1.0, K=5)
        Cs = solve_lyapunov_ode(np.zeros((3, 3)), lambda s: np.eye(3), g)
        for j, C in enumerate(Cs):
            np.testing.assert_allclose(C, g.times()[j] * np.eye(3), atol=1e-13)

    def test_scalar_closed_form(self):
        a, q = 0.6, 2.0
        g = TimeGrid(T=1.0, K=10)
        Cs = solve_lyapunov_ode(np.array([[a]]), lambda s: np.array([[q]]), g, substeps=16)
        for j, C in enumerate(Cs):
            want = (q / (2 * a)) * (np.exp(2 * a * g.times()[j]) - 1)
            assert abs(C[0, 0] - want) < 1e-8

    def test_self_refinement_and_symmetry(self):
        rng = np.random.default_rng(9)
        A = rng.uniform(-0.5, 0.5, (3, 3))
        M = rng.uniform(-0.5, 0.5, (3, 3))
        Q0 = M @ M.T

        def Q(s):
            return (1 + np.sin(s)) * Q0

        g = TimeGrid(T=1.0, K=10)
        coarse = solve_lyapunov_ode(A, Q, g, substeps=4)
        fine = solve_lyapunov_ode(A, Q, g, substeps=64)
        for Cc, Cf in zip(coarse, fine):
            assert np.max(np.abs(Cc - Cf)) < 1e-7
            assert np.max(np.abs(Cc - Cc.T)) <= 1e-12
            assert np.linalg.eigvalsh(Cc).min() >= -1e-9
