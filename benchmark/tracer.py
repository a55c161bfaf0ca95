"""Outside-in tracer for the mvmlp package.

Wraps public names of the package's modules from outside, so the program
itself carries no instrumentation. Coarse boundaries (run_experiment,
build_model, mlp_estimate, reference paths and moments) are kept as
per-call spans with parent ids; hot functions (grid floor, drift,
diffusion, stream derivation, draws, matrix exponentials) are aggregated
into a call count and inclusive seconds, because a span per call would
cost more than the call.

The wrapped `mlp_estimate` reads the cost ledger it is handed and checks
it against the counts seen by the coefficient and draw wrappers (the
parity check). The tracer assumes one thread, which every workload uses.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional

import mvmlp.bench
import mvmlp.mlp
import mvmlp.reference
from mvmlp.mlp import analytic_cost
from mvmlp.randomness import RandomStream

_clock = time.perf_counter

# hot functions: per-call counts and inclusive seconds, no spans
HOT = ("floor", "drift", "diffusion", "derive_stream", "normals", "uniform", "mat_exp")
# children of mlp_estimate whose time is not the estimator's own
MLP_CHILDREN = ("floor", "drift", "diffusion", "derive_stream", "normals", "uniform")
# spans that are not bench's own time when nested directly in run_experiment
BENCH_CHILDREN = ("build_model", "mlp_estimate", "reference.path", "reference.moments")


@dataclasses.dataclass
class Agg:
    calls: int = 0
    s: float = 0.0
    units: int = 0          # diffusion rows / normal scalars
    nbytes: int = 0         # diffusion output bytes
    calls_in_mlp: int = 0
    s_in_mlp: float = 0.0
    units_in_mlp: int = 0


@dataclasses.dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """Patches the package on `install` and restores it on `uninstall`."""

    def __init__(self) -> None:
        self.aggs: Dict[str, Agg] = {k: Agg() for k in HOT}
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._in_mlp = False
        self._saved: list = []
        self.mu_evals = 0
        self.sigma_evals = 0
        self.rv_draws = 0
        self.cost_units = 0
        self.parity_failures: List[str] = []

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        sp = Span(len(self.spans), self._stack[-1] if self._stack else None, name, _clock())
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            return fn(*args, **kwargs)
        finally:
            sp.end = _clock()
            self._stack.pop()

    def _hot(self, key: str, fn: Callable, measure: Optional[Callable] = None) -> Callable:
        agg = self.aggs[key]

        def wrapper(*args, **kwargs):
            start = _clock()
            out = fn(*args, **kwargs)
            elapsed = _clock() - start
            units = measure(args, out) if measure else 0
            agg.calls += 1
            agg.s += elapsed
            agg.units += units
            if key == "diffusion":
                agg.nbytes += out.nbytes
            if self._in_mlp:
                agg.calls_in_mlp += 1
                agg.s_in_mlp += elapsed
                agg.units_in_mlp += units
            return out

        return wrapper

    def _spanned(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def _build_model(self, fn: Callable) -> Callable:
        def wrapper(cfg):
            spec = self.span("build_model", fn, cfg)
            return dataclasses.replace(
                spec,
                drift=self._hot("drift", spec.drift),
                diffusion=self._hot("diffusion", spec.diffusion, _diffusion_rows),
            )

        return wrapper

    def _mlp_estimate(self, fn: Callable) -> Callable:
        def wrapper(model, cfg, theta, root_seed, caller_increments, ledger):
            a = self.aggs
            before = (
                ledger.mu_evals, ledger.sigma_evals, ledger.rv_draws,
                a["drift"].calls, a["diffusion"].units,
                a["normals"].units_in_mlp, a["uniform"].calls_in_mlp,
            )
            self._in_mlp = True
            try:
                out = self.span(
                    "mlp_estimate", fn, model, cfg, theta, root_seed, caller_increments, ledger
                )
            finally:
                self._in_mlp = False
            mu = ledger.mu_evals - before[0]
            sigma = ledger.sigma_evals - before[1]
            rv = ledger.rv_draws - before[2]
            seen = (
                a["drift"].calls - before[3],
                a["diffusion"].units - before[4],
                a["normals"].units_in_mlp - before[5] + a["uniform"].calls_in_mlp - before[6],
            )
            if seen != (mu, sigma, rv):
                self.parity_failures.append(
                    f"theta={tuple(theta)} n={cfg.n}: ledger (mu, sigma, rv) = "
                    f"{(mu, sigma, rv)}, traced (drift calls, diffusion rows, draws) = {seen}"
                )
            self.mu_evals += mu
            self.sigma_evals += sigma
            self.rv_draws += rv
            self.cost_units += (
                mu * model.unit_costs.cost_mu
                + sigma * model.unit_costs.cost_sigma
                + rv * model.unit_costs.cost_rv
            )
            return out

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, owner, name: str, wrapper: Callable) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        b, m, r = mvmlp.bench, mvmlp.mlp, mvmlp.reference
        self._patch(b, "build_model", self._build_model(b.build_model))
        self._patch(b, "mlp_estimate", self._mlp_estimate(b.mlp_estimate))
        self._patch(b, "ou_exact_path", self._spanned("reference.path", b.ou_exact_path))
        self._patch(b, "kuramoto_reference_path",
                    self._spanned("reference.path", b.kuramoto_reference_path))
        self._patch(b, "kuramoto_moments", self._spanned("reference.moments", b.kuramoto_moments))
        self._patch(m, "derive_stream", self._hot("derive_stream", m.derive_stream))
        self._patch(m, "grid_floor_index", self._hot("floor", m.grid_floor_index))
        self._patch(r, "mat_exp", self._hot("mat_exp", r.mat_exp))
        self._patch(RandomStream, "normals",
                    self._hot("normals", RandomStream.normals, _normal_scalars))
        self._patch(RandomStream, "uniform", self._hot("uniform", RandomStream.uniform))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- reduction -------------------------------------------------------

    def layer_metrics(self, run_span: Span) -> Dict[str, float]:
        """Per-layer metrics of one traced run_experiment call."""
        a = self.aggs
        by_name: Dict[str, List[Span]] = {}
        for sp in self.spans:
            by_name.setdefault(sp.name, []).append(sp)

        def total(name: str, parent: Optional[int] = None) -> float:
            return sum(
                (sp.end - sp.start for sp in by_name.get(name, [])
                 if parent is None or sp.parent == parent),
                0.0,
            )

        mlp_s = total("mlp_estimate")
        mlp_children = sum(a[k].s_in_mlp for k in MLP_CHILDREN)
        bench_children = sum(total(k, run_span.id) for k in BENCH_CHILDREN)
        return {
            "numerics.grid_floor_index.calls": a["floor"].calls,
            "numerics.grid_floor_index.s": a["floor"].s,
            "numerics.mat_exp.calls": a["mat_exp"].calls,
            "numerics.mat_exp.s": a["mat_exp"].s,
            "randomness.derive_stream.calls": a["derive_stream"].calls,
            "randomness.derive_stream.s": a["derive_stream"].s,
            "randomness.normals.scalars": a["normals"].units,
            "randomness.normals.s": a["normals"].s,
            "models.drift.calls": a["drift"].calls,
            "models.drift.s": a["drift"].s,
            "models.diffusion.calls": a["diffusion"].calls,
            "models.diffusion.rows": a["diffusion"].units,
            "models.diffusion.s": a["diffusion"].s,
            "models.diffusion.bytes": a["diffusion"].nbytes,
            "mlp.mlp_estimate.calls": len(by_name.get("mlp_estimate", [])),
            "mlp.mlp_estimate.s": mlp_s,
            "mlp.self_s": mlp_s - mlp_children,
            "mlp.mu_evals": self.mu_evals,
            "mlp.sigma_evals": self.sigma_evals,
            "mlp.rv_draws": self.rv_draws,
            "mlp.cost_units": self.cost_units,
            "mlp.cost_units_per_s": self.cost_units / mlp_s if mlp_s > 0 else 0.0,
            "reference.path.calls": len(by_name.get("reference.path", [])),
            "reference.path.s": total("reference.path"),
            "reference.moments.s": total("reference.moments"),
            "bench.self_s": (run_span.end - run_span.start) - bench_children,
            "bench.build_model.s": total("build_model", run_span.id),
        }

    def parity_metrics(self) -> Dict[str, int]:
        a = self.aggs
        return {
            "drift_calls": a["drift"].calls,
            "diffusion_rows": a["diffusion"].units,
            "draws_in_mlp": a["normals"].units_in_mlp + a["uniform"].calls_in_mlp,
            "mu_evals": self.mu_evals,
            "sigma_evals": self.sigma_evals,
            "rv_draws": self.rv_draws,
        }


def _diffusion_rows(args, out) -> int:
    # one diffusion evaluation per (d, d) matrix produced
    return out.size // (out.shape[-1] * out.shape[-2])


def _normal_scalars(args, out) -> int:
    return out.size


def expected_cost(rows, units) -> int:
    """Closed-form cost of all runs of a call's cells."""
    return sum(analytic_cost(r.n, r.m, r.K, r.d, units) * len(r.per_run_errors) for r in rows)
