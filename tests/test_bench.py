import dataclasses
import gc
import json
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmlp.bench import (
    CSV_HEADER,
    ExperimentConfig,
    _physical_memory,
    build_model,
    estimate_experiment_bytes,
    estimate_experiment_cost,
    l2_errors,
    render_csv,
    render_markdown,
    rows_to_json,
    run_cell,
    run_experiment,
)
from mvmlp.cli import build_parser, config_from_args, main
from mvmlp.mlp import NumericOverflowError, analytic_cost, mlp_estimate
from mvmlp.models import OuParams, default_cost_units, ou_model


def _runs(*paths):
    """(R, K+1, d) array of R paths, each given as (K+1) rows."""
    return np.array(paths, dtype=float)


class TestL2Error:
    def test_hand_case(self):
        ref = _runs([[0.0], [1.0]])
        est = _runs([[0.0], [0.5]])
        assert l2_errors(ref, est) == (pytest.approx(0.5), [pytest.approx(0.5)])

    def test_time_zero_excluded(self):
        ref = _runs([[7.0], [1.0]])
        est = _runs([[0.0], [1.0]])
        assert l2_errors(ref, est) == (0.0, [0.0])

    def test_run_average(self):
        zero = np.zeros((3, 1))
        off = [[0.0], [1.0], [1.0]]
        # two runs, one exact and one with unit gaps at both times
        got, per_run = l2_errors(_runs(zero, zero), _runs(zero, off))
        assert got == pytest.approx(np.sqrt(2 / (2 * 1 * 2)))
        assert per_run == [0.0, pytest.approx(1.0)]

    def test_dimension_normalization(self):
        ref = _runs([[0.0, 0.0], [1.0, 1.0]])
        est = _runs(np.zeros((2, 2)))
        assert l2_errors(ref, est)[0] == pytest.approx(1.0)

    def test_mismatched_grids_rejected(self):
        # paths on grids of K = 1 and K = 2 steps
        with pytest.raises(ValueError, match="paired"):
            l2_errors(_runs(np.zeros((2, 1))), _runs(np.zeros((3, 1))))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="R, K, d >= 1"):
            l2_errors(np.zeros((0, 2, 1)), np.zeros((0, 2, 1)))


class TestRunCell:
    def test_constant_coefficients_are_exact(self):
        d = 2
        params = OuParams(
            a0=np.array([0.4, -0.2]),
            A1=np.zeros((d, d)),
            A2=np.zeros((d, d)),
            b=np.array([[0.3, 0.0], [0.1, 0.2]]),
            B=np.zeros((d, d, d)),
        )
        model = ou_model(params)
        cfg = ExperimentConfig(model="ou", d=d, runs=3, seed=5)
        for n, m in ((1, 1), (2, 2), (3, 2)):
            row = run_cell(cfg, n, m, model=model)
            assert row.l2_error < 1e-8

    @pytest.mark.parametrize("kind, model_kind, model_d", [
        ("ou", "kuramoto", 3), ("kuramoto", "ou", 3), ("ou", "ou", 4),
    ])
    def test_model_must_match_the_config(self, kind, model_kind, model_d):
        # the reference follows cfg.model: a swapped model used to end in an
        # AttributeError on the other model's parameters
        cfg = ExperimentConfig(model=kind, d=3, runs=1)
        model = build_model(ExperimentConfig(model=model_kind, d=model_d, runs=1))
        want = (f"model {model_kind} with d={model_d} does not match the config's "
                f"model {kind} with d=3")
        with pytest.raises(ValueError, match=want):
            run_cell(cfg, 1, 1, model=model)

    def test_cost_column_is_closed_form(self):
        cfg = ExperimentConfig(model="kuramoto", d=3, runs=2, seed=1)
        model = build_model(cfg)
        row = run_cell(cfg, 2, 2, model=model)
        assert row.cost == analytic_cost(2, 2, 4, 3, model.unit_costs)
        assert row.K == 4

    @pytest.mark.parametrize("runs", [1, 5])
    def test_closed_form_cost_once_per_cell(self, runs, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return analytic_cost(*args)

        monkeypatch.setattr("mvmlp.bench.analytic_cost", counted)
        cfg = ExperimentConfig(model="ou", d=2, runs=runs, seed=1)
        row = run_cell(cfg, 2, 2)
        assert len(calls) == 1
        assert row.cost == analytic_cost(*calls[0])

    def test_non_finite_reference_names_the_cell(self, monkeypatch, capsys):
        def blown_up(params, initial_value, grid, increments):
            values = np.zeros((len(increments), grid.K + 1, len(initial_value)))
            values[0, -1, 0] = np.inf
            return values

        monkeypatch.setattr("mvmlp.bench.ou_exact_path", blown_up)
        message = "non-finite reference path in cell model=ou, d=2, n=2, m=2"
        with pytest.raises(ValueError, match=message):
            run_cell(ExperimentConfig(model="ou", d=2, runs=2), 2, 2)
        rc = main(["--model", "ou", "--d", "2", "--levels", "2", "--runs", "2"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, message", [
        # mu0 = 1e308 keeps every path finite, but the squared gap overflows
        (["--mu0", "1e308"], "non-finite L2 error in cell model=kuramoto, d=3, n=2, m=2"),
        # rho = 1e200 overflows the Kuramoto moment generator
        (["--rho", "1e200"], "reference path failed in cell model=kuramoto, d=3, n=2, m=2: "
                             "matrix contains non-finite entries"),
        # a finite but overflowing reference is reported once, without numpy's
        # warnings: the variance stays finite here, the drift overflows
        (["--mu0", "1e308", "--rho", "2"], "non-finite reference path in cell model=kuramoto, "
                                           "d=3, n=2, m=2"),
        (["--model", "ou", "--rho", "100", "--T", "60"],
         "non-finite reference path in cell model=ou, d=3, n=2, m=2"),
        # the moment path overflows, and the reference refuses its variance by name
        (["--rho", "40", "--T", "10"], "reference path failed in cell model=kuramoto, d=3, n=2, "
                                       "m=2: variance contains non-finite entries"),
        # the estimator overflows, without numpy's warnings, also in a pool worker
        (["--model", "ou", "--d", "1", "--T", "1e300"],
         "estimator failed in cell model=ou, d=1, n=2, m=2, run=0: "
         "non-finite value at level n=2, l=1, k=1, row j=2"),
        (["--model", "ou", "--d", "1", "--T", "1e300", "--runs", "2", "--threads", "2"],
         "estimator failed in cell model=ou, d=1, n=2, m=2, run=0: "
         "non-finite value at level n=2, l=1, k=1, row j=2"),
    ])
    def test_numeric_failure_names_the_cell(self, flag, message, capsys):
        argv = ["--model", "kuramoto", "--d", "3", "--levels", "2", "--runs", "1", *flag]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_estimator_failure_names_the_run(self, threads, monkeypatch):
        # the ValueError names the cell and run; the estimator's error is its cause
        failure = NumericOverflowError(2, 1, 3, 0)

        def fails_in_run_1(model, cfg, theta, root_seed, increments, ledger):
            if theta == (1, 1):
                raise failure
            return mlp_estimate(model, cfg, theta, root_seed, increments, ledger)

        monkeypatch.setattr("mvmlp.bench.mlp_estimate", fails_in_run_1)
        cfg = ExperimentConfig(model="kuramoto", d=2, runs=3, threads=threads)
        message = ("^estimator failed in cell model=kuramoto, d=2, n=2, m=2, run=1: "
                   "non-finite value at level n=2, l=1, k=3, row j=0$")
        with pytest.raises(ValueError, match=message) as err:
            run_cell(cfg, 2, 2)
        assert err.value.__cause__ is failure
        assert err.value.__cause__.location == (2, 1, 3, 0)

    def test_grid_past_the_float_range(self):
        # run_cell takes its cell from its arguments, not from cfg.levels
        with pytest.raises(ValueError, match=r"K = 10\*\*308.25 leaves no positive finite"):
            run_cell(ExperimentConfig(model="ou", d=2, runs=1), 1024, 2)

    @pytest.mark.parametrize("n, m, message", [
        (2, 0, "m must be >= 1, got 0"),
        (2.0, 2, "n must be an integer, got 2.0"),
        (-1, 2, "n must be >= 0, got -1"),
    ])
    def test_depth_and_fanout_checked_before_k(self, n, m, message):
        # the message names the n or m the caller passed, not K = m**n
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_cell(ExperimentConfig(model="ou", d=2, runs=1), n, m)

    def test_per_run_errors_aggregate(self):
        cfg = ExperimentConfig(model="ou", d=2, runs=4, seed=3)
        row = run_cell(cfg, 2, 2)
        assert len(row.per_run_errors) == 4
        pooled = np.sqrt(np.mean(np.square(row.per_run_errors)))
        assert row.l2_error == pytest.approx(pooled, rel=1e-12)

    def test_thread_count_does_not_change_results(self):
        base = dict(model="ou", d=3, levels=((1, 1), (2, 2)), runs=6, seed=7)
        rows1 = run_experiment(ExperimentConfig(threads=1, **base))
        rows8 = run_experiment(ExperimentConfig(threads=8, **base))

        def strip_time(rows):
            out = []
            for line in render_csv(rows).splitlines():
                cells = line.split(",")
                del cells[6]
                out.append(",".join(cells))
            return out

        assert strip_time(rows1) == strip_time(rows8)

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    def test_run_count_does_not_change_results(self, kind):
        base = dict(model=kind, d=50, seed=0)
        model = build_model(ExperimentConfig(**base))
        full = run_cell(ExperimentConfig(runs=20, **base), 2, 2, model=model).per_run_errors
        for R in (1, 2, 17):
            row = run_cell(ExperimentConfig(runs=R, **base), 2, 2, model=model)
            assert row.per_run_errors == full[:R], R

    @settings(max_examples=10, deadline=None)
    @given(kind=st.sampled_from(["ou", "kuramoto"]), d=st.integers(1, 3),
           n=st.integers(1, 2), runs=st.integers(1, 4), seed=st.integers(0, 2**64 - 1))
    def test_per_run_errors_independent_of_threads_and_run_count(self, kind, d, n, runs,
                                                                   seed):
        base = dict(model=kind, d=d, seed=seed)
        model = build_model(ExperimentConfig(**base))
        full = run_cell(ExperimentConfig(runs=runs, **base), n, n, model).per_run_errors
        for threads in (2, 3):
            row = run_cell(ExperimentConfig(runs=runs, threads=threads, **base), n, n, model)
            assert row.per_run_errors == full, threads
        for R in range(1, runs):
            row = run_cell(ExperimentConfig(runs=R, **base), n, n, model)
            assert row.per_run_errors == full[:R], R

    def test_threads_do_not_change_kuramoto_d100(self):
        base = dict(model="kuramoto", d=100, levels=((2, 2), (3, 3)), runs=4, seed=0)
        rows1 = run_experiment(ExperimentConfig(threads=1, **base))
        rows2 = run_experiment(ExperimentConfig(threads=2, **base))
        assert [r.per_run_errors for r in rows1] == [r.per_run_errors for r in rows2]

    def test_cost_grows_with_n(self):
        cfg = ExperimentConfig(model="ou", d=2, runs=1, seed=0)
        costs = [run_cell(cfg, n, 2).cost for n in (1, 2, 3)]
        assert costs[0] < costs[1] < costs[2]


class TestExperiment:
    def test_empty_levels(self):
        message = "levels must have at least one entry, got ()"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(levels=())

    def test_desk_caps(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(d=101, levels=((1, 1),)))
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(levels=((5, 1),)))
        # K = 10**10 steps: refused before any draw, whose increments alone would be 224 GiB
        with pytest.raises(ValueError, match="K = m\\*\\*n <= 256"):
            run_experiment(ExperimentConfig(d=3, levels=((2, 100000),), runs=1))

    def test_desk_cap_refusal_draws_no_model(self, monkeypatch, capsys):
        # a d = 1000 draw would allocate an 8 GB (d, d, d) family just to
        # word the refusal; the cost figure needs only the default units
        def no_draw(cfg):
            raise ValueError("model drawn")

        monkeypatch.setattr("mvmlp.bench.build_model", no_draw)
        monkeypatch.setattr("mvmlp.bench._physical_memory", lambda: 2**40)
        cfg = ExperimentConfig(d=1000, levels=((1, 1),))
        cost = 10 * analytic_cost(1, 1, 1, 1000, default_cost_units(1000))
        with pytest.raises(ValueError, match=f"desk-scale caps .* total cost {cost} units"):
            run_experiment(cfg)
        rc = main(["--d", "1000", "--levels", "1", "--allow-large"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (f"estimated total cost: {cost} units\n"
                       f"estimated peak memory: {estimate_experiment_bytes(cfg) >> 20} MiB\n"
                       f"error: model drawn\n")

    def test_deep_cell_refused_without_its_cost(self, monkeypatch):
        # the exact cost of n = 2000 is an O(n**2) big-integer loop whose
        # figure Python would refuse to print: the refusal names the cell
        def no_cost(*args):
            raise AssertionError("cost computed")

        monkeypatch.setattr("mvmlp.bench.analytic_cost", no_cost)
        for d in (3, 1000):
            with pytest.raises(ValueError, match=r"cell \(n=2000, m=2000\) exceeds desk-scale "
                                                 r"caps \(d <= 100, n <= 4, K = m\*\*n <= 256\)"):
                run_experiment(ExperimentConfig(d=d, levels=((1, 1), (2000, 2000)), runs=1))

    def test_memory_estimate_is_its_terms(self):
        # d = 50, K = 27: the (d+1, d*d) operand (family and offset row), a
        # slab, one K-row sigma half per thread, the paths (a frame's Brownian
        # path with its t and 1 columns), the reference's K*d*d block (OU's
        # sigma at the means, Kuramoto's chunk bound) and the interpreter
        d, K, n, runs = 50, 27, 3, 4
        ou = ExperimentConfig(model="ou", d=d, levels=((1, 1), (n, n)), runs=runs, threads=2)
        ku = ExperimentConfig(model="kuramoto", d=d, levels=((n, n),), runs=runs)
        paths, frame = (K + 1) * d, (K + 1) * (7 * d + 2)
        operand = (d + 1) * d * d
        want_ou = (operand + d * d + 2 * K * d * d + 3 * runs * paths + n * 2 * frame
                   + K * d * d)
        want_ku = operand + d * d + K * d * d + 3 * runs * paths + n * frame + K * d * d
        assert estimate_experiment_bytes(ou) == 8 * want_ou + 64 * 2**20
        assert estimate_experiment_bytes(ku) == 8 * want_ku + 64 * 2**20

    @pytest.mark.parametrize("model", ["ou", "kuramoto"])
    def test_memory_estimate_bounds_a_run(self, model):
        # without the interpreter's share, the estimate still bounds what
        # tracing the run's own allocations sees (two threads: two calls in
        # flight; each term is charged at its size, with no cap above it)
        cfg = ExperimentConfig(model=model, d=60, levels=((3, 3),), runs=2, threads=2)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < estimate_experiment_bytes(cfg) - 64 * 2**20

    def test_request_above_memory_refused_before_any_draw(self, monkeypatch, capsys):
        # the physical memory figure is patched: nothing is allocated to test it
        def no_draw(cfg):
            raise AssertionError("model drawn")

        monkeypatch.setattr("mvmlp.bench.build_model", no_draw)
        cfg = ExperimentConfig(model="kuramoto", d=20, levels=((2, 2),), runs=1)
        need = estimate_experiment_bytes(cfg)
        monkeypatch.setattr("mvmlp.bench._physical_memory", lambda: need - 1)
        message = (f"estimated peak memory {need >> 20} MiB exceeds the "
                   f"{(need - 1) >> 20} MiB of physical memory")
        with pytest.raises(ValueError, match=message):
            run_experiment(cfg)
        rc = main(["--model", "kuramoto", "--d", "20", "--levels", "2", "--runs", "1"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}; lower d, the levels, runs or threads\n"
        monkeypatch.setattr("mvmlp.bench._physical_memory", lambda: need)
        with pytest.raises(AssertionError, match="model drawn"):
            run_experiment(cfg)

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_experiment_frees_its_models(self, kind, threads, monkeypatch):
        # with the cyclic gc off, a model still alive after the call is held
        # by a reference cycle, and would stack one family per experiment
        params = []

        def recording(cfg):
            model = build_model(cfg)
            params.append(weakref.ref(model.params))
            return model

        monkeypatch.setattr("mvmlp.bench.build_model", recording)
        cfg = ExperimentConfig(model=kind, d=3, levels=((2, 3),), runs=2, threads=threads)
        gc.disable()
        try:
            run_experiment(cfg)
            assert params and all(ref() is None for ref in params)
        finally:
            gc.enable()

    def test_cost_estimate_sums_cells(self):
        cfg = ExperimentConfig(model="ou", d=2, levels=((1, 1), (2, 2)), runs=3)
        units = build_model(cfg).unit_costs
        want = 3 * (analytic_cost(1, 1, 1, 2, units) + analytic_cost(2, 2, 4, 2, units))
        assert estimate_experiment_cost(cfg) == want

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(runs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(levels=((1, 0),))
        with pytest.raises(ValueError):
            ExperimentConfig(model="heat")
        # a value that is not a list or tuple names its field, not a TypeError
        for values, message in (
            ({"levels": 3}, "levels must be a list of n or (n, m) entries, got 3"),
            ({"levels": None}, "levels must be a list of n or (n, m) entries, got None"),
            ({"levels": [2.5]},
             "levels entries must be an integer n or an integer pair (n, m), got 2.5"),
            ({"formats": None}, "formats must be a list of names, got None"),
            # repr() of this T would raise inside the message
            ({"T": 10**5000}, "T must be finite, got 10**5000.00"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                ExperimentConfig(**values)


class TestOutputs:
    def _rows(self):
        cfg = ExperimentConfig(model="ou", d=2, levels=((1, 1), (2, 2)), runs=2, seed=2)
        return run_experiment(cfg)

    def test_csv_schema(self):
        rows = self._rows()
        lines = render_csv(rows).splitlines()
        assert lines[0] == CSV_HEADER == "model,d,n,m,K,l2_error,time_s,cost"
        assert len(lines) == 1 + len(rows)
        for line, row in zip(lines[1:], rows):
            cells = line.split(",")
            assert len(cells) == 8
            assert cells[0] == "ou"
            assert [int(c) for c in cells[1:5]] == [row.d, row.n, row.m, row.K]
            assert float(cells[5]) == pytest.approx(row.l2_error, rel=1e-11)
            assert int(cells[7]) == row.cost

    def test_json_round_trip(self):
        rows = self._rows()
        keys = ["model", "d", "n", "m", "K", "l2_error", "time_s", "cost", "per_run_errors"]
        got = json.loads(rows_to_json(rows))
        assert [list(row) for row in got] == [keys] * len(rows)
        assert got == [{key: getattr(r, key) for key in keys} for r in rows]

    def test_markdown_table(self):
        text = render_markdown(self._rows())
        assert "## ou, d = 2" in text
        assert "n = m = 1" in text and "n = m = 2" in text
        cfg = ExperimentConfig(model="ou", d=2, levels=((2, 2), (2, 3)), runs=1)
        assert "| | n = m = 2 | n = 2, m = 3 |" in render_markdown(run_experiment(cfg))
        for label in ("L2-Error", "Time", "Cost"):
            assert f"| {label} |" in text

    def test_write_outputs(self, tmp_path):
        cfg = ExperimentConfig(
            model="ou", d=2, levels=((1, 1),), runs=2, seed=2,
            out_dir=str(tmp_path), formats=("csv", "json", "md"),
        )
        rows = run_experiment(cfg)
        assert (tmp_path / "results.csv").read_text() == render_csv(rows)
        assert json.loads((tmp_path / "results.json").read_text())[0]["model"] == "ou"
        assert (tmp_path / "table.md").exists()


class TestCli:
    def test_flag_parsing(self):
        cfg = config_from_args(
            ["--model", "kuramoto", "--d", "4", "--levels", "1,2x3",
             "--runs", "5", "--seed", "9", "--threads", "2"]
        )
        assert cfg.model == "kuramoto"
        assert cfg.d == 4
        assert list(cfg.levels) == [(1, 1), (2, 3)]
        assert (cfg.runs, cfg.seed, cfg.threads) == (5, 9, 2)

    def test_levels_rule_is_the_same_for_every_front_end(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"levels": [1, [2, 3]]}))
        for cfg in (config_from_args(["--levels", "1,2x3"]),
                    config_from_args(["--config", str(path)]),
                    ExperimentConfig(levels=[1, (2, 3)])):
            assert cfg.levels == ((1, 1), (2, 3))

    def test_config_file_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "ou", "d": 6, "runs": 4, "levels": [1, 2]}))
        cfg = config_from_args(["--config", str(path), "--d", "3"])
        assert cfg.model == "ou"
        assert cfg.d == 3
        assert cfg.runs == 4
        assert list(cfg.levels) == [(1, 1), (2, 2)]

    def test_end_to_end(self, tmp_path, capsys):
        rc = main(
            ["--model", "ou", "--d", "2", "--levels", "1,2", "--runs", "2",
             "--seed", "2", "--out", str(tmp_path), "--format", "csv"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("l2_error=") == 2
        text = (tmp_path / "results.csv").read_text()
        assert text.startswith(CSV_HEADER)

    def test_each_flag_sets_the_field_of_its_name(self):
        # config_from_args merges the parsed flags into the config by dest:
        # a dest that is no field, or a field with no flag, breaks that rule
        parser = build_parser()
        dests = set(vars(parser.parse_args([]))) - {"config"}
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert dests == fields
        assert "--out OUT" in parser.format_help()
        assert "--format FORMAT" in parser.format_help()

    def test_levels_help_names_both_entry_forms(self):
        help_text = " ".join(build_parser().format_help().split())
        assert "--levels LEVELS comma list of N (n = m = N) or NxM, e.g. '1,2,3x4'" in help_text

    def test_desk_cap_exit_code(self, capsys):
        for levels in ("5", "2x100000"):
            rc = main(["--model", "ou", "--d", "2", "--levels", levels, "--runs", "1"])
            assert rc == 2
            assert "desk-scale caps" in capsys.readouterr().err

    @pytest.mark.parametrize("levels, cell", [
        ("600", "n=600, m=600"),
        (f"40x{10**110}", f"n=40, m={10**110}"),
        ("1024x2", "n=1024, m=2"),
    ])
    def test_grid_past_the_float_range_exits_2(self, levels, cell, monkeypatch, capsys):
        # refused with the config, before the cost figure or any draw
        def no_work(*args):
            raise AssertionError("cost computed or model drawn")

        monkeypatch.setattr("mvmlp.bench.analytic_cost", no_work)
        monkeypatch.setattr("mvmlp.bench.build_model", no_work)
        rc = main(["--model", "ou", "--d", "2", "--levels", levels, "--runs", "1",
                   "--allow-large"])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: cell ({cell}) has a grid K = m**n too "
                                           f"large for a float (n * log2(m) >= 1024)\n")

    def test_grid_float_range_boundary(self):
        ExperimentConfig(levels=((1023, 2), (10**6, 1)), allow_large=True)
        with pytest.raises(ValueError, match=r"cell \(n=512, m=4\)"):
            ExperimentConfig(levels=((512, 4),), allow_large=True)

    def test_cost_line_past_the_printable_digits(self, monkeypatch, capsys):
        # 8000 levels of m = 1 cost about 10**4413.7 units, past the 4,300
        # digits str() prints: the line gives the power of ten; no cell runs
        monkeypatch.setattr("mvmlp.cli.run_experiment", lambda cfg: [])
        argv = ["--model", "ou", "--d", "2", "--levels", "8000x1", "--runs", "1"]
        cfg = config_from_args(argv)
        cost = estimate_experiment_cost(cfg)
        assert cost.bit_length() > 14_000
        assert main(argv + ["--allow-large"]) == 0
        err = capsys.readouterr().err
        assert err == (f"estimated total cost: 10**{math.log10(cost):.2f} units\n"
                       f"estimated peak memory: {estimate_experiment_bytes(cfg) >> 20} MiB\n")

    def test_memory_line_past_the_printable_digits(self, capsys):
        # d = 10**1500 needs about 10**4494 bytes for its family, past the
        # 4,300 digits str() prints: both memory figures give the power of
        # ten, and the run is refused before any draw
        argv = ["--model", "ou", "--d", str(10**1500), "--levels", "1", "--runs", "1"]
        mib = f"10**{math.log10(estimate_experiment_bytes(config_from_args(argv)) >> 20):.2f}"
        assert main(argv + ["--allow-large"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[1:] == [f"estimated peak memory: {mib} MiB",
                           f"error: estimated peak memory {mib} MiB exceeds the "
                           f"{_physical_memory() >> 20} MiB of physical memory; lower d, "
                           f"the levels, runs or threads"]


@pytest.mark.parametrize("argv, message", [
    (["--levels", "2x"], "levels entry '2x'"),
    (["--runs", "0"], "runs must be >= 1"),
    (["--format", "xml"], "formats must be among csv, json, md"),
    (["--threads", "0"], "threads must be >= 1"),
    (["--d", "0"], "d must be >= 1"),
    (["--config", "{configs}/nope.json"], "cannot read config file {configs}/nope.json"),
    (["--config", "{configs}/typo.json"], "unknown config key(s) in {configs}/typo.json: dd"),
    (["--config", "{configs}/removed.json"],
     "unknown config key(s) in {configs}/removed.json: drift_time_mode, substeps"),
    (["--levels", ","], "levels must have at least one entry, got []"),
    (["--config", "{configs}/list.json"], "config file {configs}/list.json must hold a JSON object"),
    (["--config", "{configs}/d_str.json"], "d must be an integer, got '3'"),
    (["--config", "{configs}/runs_float.json"], "runs must be an integer, got 2.5"),
    (["--config", "{configs}/threads_bool.json"], "threads must be an integer, got True"),
    (["--config", "{configs}/rho_str.json"], "rho must be a real number, got '0.25'"),
    (["--config", "{configs}/levels_str.json"],
     "levels entries must be an integer n or an integer pair (n, m), got ('2', 2)"),
    (["--config", "{configs}/levels_triple.json"],
     "levels entries must be an integer n or an integer pair (n, m), got (1, 2, 3)"),
    (["--config", "{configs}/levels_int.json"],
     "levels must be a list of n or (n, m) entries, got 3"),
    (["--config", "{configs}/units_str.json"],
     "unknown config key(s) in {configs}/units_str.json: unit_costs"),
    (["--config", "{configs}/units_float.json"],
     "unknown config key(s) in {configs}/units_float.json: unit_costs"),
    (["--config", "{configs}/formats_str.json"], "formats must be a list of names, got 'csv'"),
    (["--config", "{configs}/allow_large_str.json"],
     "allow_large must be true or false, got 'no'"),
    (["--rho", "-1"], "rho must be > 0, got -1.0"),
    (["--rho", "0"], "rho must be > 0, got 0.0"),
    (["--rho", "nan"], "rho must be finite, got nan"),
    (["--rho", "inf"], "rho must be finite, got inf"),
    (["--T", "0"], "T must be > 0, got 0.0"),
    (["--T", "nan"], "T must be finite, got nan"),
    (["--mu0", "nan"], "mu0 must be finite, got nan"),
    (["--config", "{configs}/T_huge_int.json"], "T must be finite, got 1000"),
    (["--rho", "-1e3"], "rho must be > 0, got -1000.0"),
    (["--T", "-inf"], "T must be finite, got -inf"),
    (["--seed", "-1"], "seed must be in [0, 2**64), got -1"),
    (["--seed", "18446744073709551616"], "seed must be in [0, 2**64), got 18446744073709551616"),
    (["--config", "{configs}/seed_2_64.json"],
     "seed must be in [0, 2**64), got 18446744073709551616"),
    (["--config", "{configs}/malformed.json"],
     "cannot parse config file {configs}/malformed.json: Expecting property name"),
    (["--config", "{configs}/utf16.json"],
     "cannot parse config file {configs}/utf16.json: 'utf-8' codec can't decode"),
    (["--config", "{configs}/levels_empty.json"], "levels must have at least one entry, got []"),
    (["--config", "{configs}/formats_null.json"], "formats must be a list of names, got None"),
    (["--config", "{configs}/formats_int.json"], "formats must be a list of names, got 3"),
    (["--config", "{configs}/formats_empty.json"], "formats must be among csv, json, md, got none"),
    (["--levels=-1x2"], "levels n must be >= 0, got -1"),
    (["--levels", "2x0"], "levels m must be >= 1, got 0"),
])
def test_bad_cli_input_exits_2(argv, message, configs, tmp_path, capsys):
    # no --d/--levels/--runs here: they would override the config files' values
    argv = [a.format(configs=configs) for a in argv]
    rc = main(["--model", "ou", "--out", str(tmp_path), *argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message.format(configs=configs) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["--mu", "-1e3"], "unrecognized arguments: --mu -1e3"),
    (["--r", "3"], "unrecognized arguments: --r 3"),
])
def test_abbreviated_flag_is_not_expanded(argv, message, capsys):
    # '--mu' must not stand for '--mu0', nor '--r' for '--rho' or '--runs'
    with pytest.raises(SystemExit) as exc:
        main(["--model", "ou", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_unusable_out_dir_exits_2_before_any_cell(monkeypatch, tmp_path, capsys):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("mvmlp.bench.run_cell", no_cell)
    a_file = tmp_path / "results.csv"
    a_file.write_text("")
    for out, reason in ((a_file, "File exists"), (a_file / "sub", "Not a directory")):
        rc = main(["--model", "ou", "--d", "2", "--levels", "1", "--runs", "1",
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"error: cannot create output directory {out}: {reason}\n"


def test_out_dir_must_be_a_path():
    # the CLI tests pass --out, which overrides a config file's out_dir
    with pytest.raises(ValueError, match="out_dir must be a path, got 3"):
        ExperimentConfig(out_dir=3)


def test_empty_out_dir_is_refused(monkeypatch, tmp_path, capsys):
    # an empty path would write the results into the working directory
    with pytest.raises(ValueError, match="out_dir must be a non-empty path, got ''"):
        ExperimentConfig(out_dir="")
    monkeypatch.chdir(tmp_path)
    rc = main(["--model", "ou", "--d", "2", "--levels", "1", "--runs", "1", "--out", ""])
    assert rc == 2
    assert capsys.readouterr().err == "error: out_dir must be a non-empty path, got ''\n"
    assert not any(tmp_path.iterdir())


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    """Config files outside the output directory the CLI tests inspect."""
    path = tmp_path_factory.mktemp("configs")
    (path / "typo.json").write_text(json.dumps({"dd": 3}))
    (path / "removed.json").write_text(json.dumps({"drift_time_mode": "spec", "substeps": 4}))
    (path / "list.json").write_text(json.dumps([["d", 3]]))
    (path / "malformed.json").write_text("{bad")
    (path / "utf16.json").write_bytes(b"\xff\xfe")
    bad_values = {
        "d_str": {"d": "3"},
        "runs_float": {"runs": 2.5},
        "threads_bool": {"threads": True},
        "rho_str": {"rho": "0.25"},
        "levels_str": {"levels": [["2", 2]]},
        "levels_triple": {"levels": [[1, 2, 3]]},
        "levels_int": {"levels": 3},
        "levels_empty": {"levels": []},
        "units_str": {"unit_costs": {"cost_mu": "1", "cost_sigma": 1, "cost_rv": 1}},
        "units_float": {"unit_costs": {"cost_mu": 1.5, "cost_sigma": 1, "cost_rv": 1}},
        "formats_str": {"formats": "csv"},
        "formats_null": {"formats": None},
        "formats_int": {"formats": 3},
        # a cell that would run and write nothing
        "formats_empty": {"formats": [], "d": 2, "levels": [1], "runs": 1},
        "allow_large_str": {"allow_large": "no"},
        "T_huge_int": {"T": 10**400},
        "seed_2_64": {"seed": 2**64},
    }
    for name, values in bad_values.items():
        (path / f"{name}.json").write_text(json.dumps(values))
    return path


def test_overflow_exits_2(monkeypatch, capsys):
    def overflow(model, cfg, theta, root_seed, increments, ledger):
        raise NumericOverflowError(2, 1, 1, 3)

    monkeypatch.setattr("mvmlp.bench.mlp_estimate", overflow)
    rc = main(["--model", "ou", "--d", "2", "--levels", "1", "--runs", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == ("error: estimator failed in cell model=ou, d=2, n=1, m=1, run=0: "
                   "non-finite value at level n=2, l=1, k=1, row j=3\n")


def test_ledger_mismatch_exits_2(monkeypatch, capsys):
    def miscounted(model, cfg, theta, root_seed, increments, ledger):
        path = mlp_estimate(model, cfg, theta, root_seed, increments, ledger)
        ledger.sigma_evals += 1
        return path

    monkeypatch.setattr("mvmlp.bench.mlp_estimate", miscounted)
    rc = main(["--model", "kuramoto", "--d", "2", "--levels", "1", "--runs", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: cost ledger mismatch in cell model=kuramoto, d=2, n=1, m=1, run=0\n"
