"""Acceptance suite: one test (one pass/fail line under -v) per criterion.

Each test prints a short summary line with the measured quantities so a
failure report carries the numbers, not just the assertion.
"""

from dataclasses import replace

import numpy as np

from mvmlp.bench import ExperimentConfig, build_model, run_cell, run_experiment
from mvmlp.mlp import CostLedger, MlpConfig, analytic_cost, mlp_estimate
from mvmlp.models import (
    CostUnits,
    OuParams,
    kuramoto_model,
    ou_model,
    random_params,
)
from mvmlp.numerics import TimeGrid, grid_floor_index, mat_exp
from mvmlp.randomness import derive_stream, sample_brownian_increments
from mvmlp.reference import _affine_flow, ou_mean
from oracles import particle_system_path, solve_linear_ode, taylor_expm


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_01_single_level_closed_form():
    """Depth-1 estimate is the frozen-coefficient path, to machine precision."""
    worst = 0.0
    for kind, build in (("ou", ou_model), ("kuramoto", kuramoto_model)):
        for m, K, d in ((1, 1, 1), (2, 4, 3), (3, 9, 10), (5, 7, 6)):
            model = build(random_params(kind, d, derive_stream(21, (0,))))
            grid = TimeGrid(T=1.0, K=K)
            stream = derive_stream(21, (1, 0))
            incr = sample_brownian_increments(stream, K, d, grid.dt)
            cfg = MlpConfig(n=1, m=m, grid=grid)
            got = mlp_estimate(cfg=cfg, model=model, theta=(1, 0), root_seed=21,
                               caller_increments=incr, ledger=CostLedger())
            zero = np.zeros(d)
            W = np.vstack([zero, np.cumsum(incr, axis=0)])
            want = (model.initial_value
                    + grid.times()[:, None] * model.drift(zero, zero)
                    + W @ model.diffusion(zero, zero).T)
            scale = max(1.0, float(np.max(np.abs(want))))
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    ok = worst <= 1e-12
    _line(1, ok, f"max relative gap {worst:.3e} (tol 1e-12)")
    assert ok


def test_02_constant_coefficients_collapse():
    """With flat coefficients every depth reproduces the exact solution."""
    d = 2
    params = OuParams(
        a0=np.array([0.4, -0.2]),
        A1=np.zeros((d, d)),
        A2=np.zeros((d, d)),
        b=np.array([[0.3, 0.05], [0.1, 0.2]]),
        B=np.zeros((d, d, d)),
    )
    model = ou_model(params)
    cfg = ExperimentConfig(model="ou", d=d, runs=10, seed=5)
    errs = [run_cell(cfg, n, n, model=model).l2_error for n in (1, 2, 3, 4)]
    ok = max(errs) < 1e-8
    _line(2, ok, f"errors {['%.2e' % e for e in errs]} (tol 1e-8)")
    assert ok


def test_03_cost_counter_equality_and_bound():
    """Instrumented ledger == closed-form recursion; both under (8m)^n c d^c K d."""
    mismatches = []
    bound_breaks = []
    for d in (1, 2, 4):
        units = CostUnits(
            cost_mu=d * d,
            cost_sigma=d * d - (1 if d > 1 else 0),
            cost_rv=1 if d > 1 else 0,
        )
        assert units.cost_mu + units.cost_sigma + units.cost_rv == 2 * d * d
        model = ou_model(random_params("ou", d, derive_stream(3, (0,))),
                         unit_costs=units)
        for K in (1, 2, 4, 8):
            grid = TimeGrid(T=1.0, K=K)
            incr = sample_brownian_increments(derive_stream(3, (1, 0)), K, d, grid.dt)
            for n in range(5):
                for m in (1, 2, 3):
                    cfg = MlpConfig(n=n, m=m, grid=grid)
                    ledger = CostLedger()
                    mlp_estimate(cfg=cfg, model=model, theta=(1, 0), root_seed=3,
                                 caller_increments=incr, ledger=ledger)
                    want = analytic_cost(n, m, K, d, units)
                    if ledger.weighted(units) != want:
                        mismatches.append((n, m, K, d))
                    if want > (8 * m) ** n * 2 * d**2 * K * d:
                        bound_breaks.append((n, m, K, d))
    ok = not mismatches and not bound_breaks
    _line(3, ok,
          f"180 cells checked; mismatches {mismatches[:3]}, "
          f"bound violations {bound_breaks[:3]}")
    assert ok


def test_04_mean_against_closed_form_and_particles():
    """Estimator mean matches the exact mean and an interacting-particle run."""
    seed, d, K, R, N = 11, 2, 27, 200, 10_000
    params = random_params("ou", d, derive_stream(seed, (0,)), 0.25)
    model = ou_model(params)
    grid = TimeGrid(T=1.0, K=K)
    cfg = MlpConfig(n=3, m=3, grid=grid)

    vals = np.empty((R, d))
    for r in range(R):
        stream = derive_stream(seed, (1, r))
        incr = sample_brownian_increments(stream, K, d, grid.dt)
        vals[r] = mlp_estimate(cfg=cfg, model=model, theta=(1, r), root_seed=seed,
                               caller_increments=incr, ledger=CostLedger())[-1]
    mlp_mean = vals.mean(axis=0)
    se = vals.std(axis=0, ddof=1) / np.sqrt(R)

    exact = ou_mean(params, model.initial_value, grid)[-1]
    z_exact = np.abs(mlp_mean - exact) / se

    particles = particle_system_path(model, N, grid, derive_stream(seed, (2,)))
    terminal = particles[:, -1, :]
    p_mean = terminal.mean(axis=0)
    p_se = terminal.std(axis=0, ddof=1) / np.sqrt(N)
    z_part = np.abs(mlp_mean - p_mean) / np.sqrt(se**2 + p_se**2)

    ok = bool(np.all(z_exact <= 4.0) and np.all(z_part <= 5.0))
    _line(4, ok,
          f"|z| vs closed form {np.round(z_exact, 2)} (<= 4), "
          f"|z| vs particles {np.round(z_part, 2)} (<= 5)")
    assert ok


def test_05_error_decreases_with_depth():
    """Both models, d in {10, 50}: error falls from depth 1 to 4."""
    failures = []
    summary = []
    for kind in ("ou", "kuramoto"):
        for d in (10, 50):
            cfg = ExperimentConfig(model=kind, d=d, runs=10, seed=1)
            errs = [run_cell(cfg, n, n).l2_error for n in (1, 2, 3, 4)]
            summary.append(f"{kind} d={d}: {['%.2e' % e for e in errs]}")
            if not errs[3] < errs[0]:
                failures.append((kind, d, "no overall decrease"))
            for a, b in zip(errs, errs[1:]):
                if b > 1.25 * a:
                    failures.append((kind, d, f"step up {a:.3e} -> {b:.3e}"))
    ok = not failures
    _line(5, ok, "; ".join(summary) + (f"; failures {failures}" if failures else ""))
    assert ok


def test_06_dimension_robustness():
    """Error ratio d=100 over d=10 inside [0.2, 5] at equal coupling; cost exact.

    `random_params` pins Hilbert-Schmidt norms, so the drawn operator norms
    fall roughly like d**-0.5 and the error falls with them. Both models are
    rescaled to operator norm `rho` in A1, A2 and the diffusion family B
    (taken as the d*d x d map x2 -> vec sigma), so the two cells differ in
    dimension, not in coupling strength.
    """
    def op_norm(M):
        return float(np.linalg.norm(M, 2))

    rows, norms = {}, {}
    for d in (10, 100):
        cfg = ExperimentConfig(model="ou", d=d, runs=10, seed=1)
        p = build_model(cfg).params
        params = replace(
            p,
            A1=p.A1 * (cfg.rho / op_norm(p.A1)),
            A2=p.A2 * (cfg.rho / op_norm(p.A2)),
            B=p.B * (cfg.rho / op_norm(p.B.reshape(d * d, d))),
        )
        norms[d] = [op_norm(params.A1), op_norm(params.A2),
                    op_norm(params.B.reshape(d * d, d))]
        rows[d] = run_cell(cfg, 3, 3, model=ou_model(params))
    gap = max(abs(v - cfg.rho) for d in norms for v in norms[d])
    norms_ok = gap <= 1e-12
    ratio = rows[100].l2_error / rows[10].l2_error
    cost_ok = all(
        rows[d].cost == analytic_cost(3, 3, 27, d, CostUnits(d * d, d * d, 1))
        for d in (10, 100)
    )
    ok = norms_ok and bool(0.2 <= ratio <= 5.0) and cost_ok
    detail = (
        f"errors d=10 {rows[10].l2_error:.3e}, d=100 {rows[100].l2_error:.3e}, "
        f"ratio {ratio:.4f} (band [0.2, 5]); operator norms of A1/A2/B "
        f"d=10 {['%.4g' % v for v in norms[10]]}, "
        f"d=100 {['%.4g' % v for v in norms[100]]}, "
        f"max gap to rho={cfg.rho} {gap:.1e} (tol 1e-12); "
        f"cost exact: {cost_ok}"
    )
    _line(6, ok, detail)
    assert norms_ok, f"rescaled operator norms are not rho: {detail}"
    assert ok, detail


def test_07_numerics_kernels():
    """Matrix exponential, the exact ODE flow, and grid rounding against oracles."""
    rng = np.random.default_rng(77)
    worst_exp = 0.0
    for _ in range(100):
        A = rng.uniform(-1, 1, (3, 3))
        gap = np.max(np.abs(mat_exp(A, 0.7) - taylor_expm(A, 0.7)))
        worst_exp = max(worst_exp, float(gap))

    g = TimeGrid(T=1.0, K=8)
    A = rng.uniform(-0.5, 0.5, (3, 3))
    b = rng.uniform(-0.5, 0.5, 3)
    flow_gap = float(np.max(np.abs(
        _affine_flow(A, b, np.zeros(3), g) - solve_linear_ode(A, b, g, substeps=64)
    )))

    floor_ok = True
    for K in range(1, 65):
        grid = TimeGrid(T=1.0, K=K)
        ts = np.concatenate([rng.uniform(0, 1, 160), grid.times()])
        for t in ts:
            k = grid_floor_index(float(t), grid)
            if not (0 <= k <= K - 1):
                floor_ok = False
            if t > 0 and not (k * grid.T / grid.K < t <= (k + 1) * grid.T / grid.K):
                floor_ok = False

    ok = worst_exp <= 1e-10 and flow_gap < 1e-10 and floor_ok
    _line(7, ok,
          f"mat_exp gap {worst_exp:.1e} (tol 1e-10), exact flow vs RK4 gap "
          f"{flow_gap:.1e} (tol 1e-10), grid floor ok: {floor_ok}")
    assert ok


def test_08_thread_count_determinism(tmp_path):
    """Identical results.csv (time column aside) for 1 and 8 worker threads."""
    texts = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        cfg = ExperimentConfig(
            model="ou", d=3, levels=((1, 1), (2, 2), (3, 3)), runs=10,
            seed=4, threads=threads, out_dir=str(out),
        )
        run_experiment(cfg)
        lines = (out / "results.csv").read_bytes().decode().splitlines()
        stripped = []
        for line in lines:
            cells = line.split(",")
            del cells[6]
            stripped.append(",".join(cells))
        texts[threads] = "\n".join(stripped)
    ok = texts[1] == texts[8]
    _line(8, ok, f"csv identical without time column: {ok}")
    assert ok
