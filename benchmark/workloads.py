"""The benchmark's workloads, as plain data (no numpy, no mvmlp).

Each workload is one `run_experiment` call, repeated for the measured
time. The seed given to the benchmark is the experiment seed, so it fixes
both the model parameters and every run's randomness. All workloads use
one thread.
"""

from __future__ import annotations

# One run per call keeps each call short (~1 s), so a run's median is
# taken over many calls.
WORKLOADS = {
    # deepest desk-scale recursion at small d: recursion frames, scalar
    # grid floors, stream derivation (ROADMAP item 3)
    "ou-d10-n4": {"model": "ou", "d": 10, "levels": [[4, 4]], "runs": 1},
    # (K, d, d) diffusion tensors dominate (ROADMAP item 2)
    "kuramoto-d100-n3": {"model": "kuramoto", "d": 100, "levels": [[3, 3]], "runs": 1},
    # tiny estimator; per-run reference (mat_exp) and bench overhead
    # dominate (ROADMAP item 4). Not in BENCHMARK.json: its end-to-end
    # figures drift by 10-23 % between runs on a shared 2-core host, so it
    # serves traced runs only.
    "ou-d10-shallow": {"model": "ou", "d": 10, "levels": [[1, 1], [2, 2]], "runs": 100},
}

# a small cell of the same model, run before timing so lazy initialisation
# (scipy expm / ndtri, BLAS buffers) stays out of the timed calls
WARMUP = {"levels": [[2, 2]], "runs": 1}

# the smoke test's tiny size of every workload
SMOKE = {"levels": [[1, 1], [2, 2]], "runs": 2}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def config_kwargs(name: str, seed: int, variant: str = "full") -> dict:
    """ExperimentConfig keyword arguments of a workload.

    `variant` is "full", "warmup" or "smoke".
    """
    kw = dict(WORKLOADS[name])
    kw.update({"warmup": WARMUP, "smoke": SMOKE}.get(variant, {}))
    kw["levels"] = tuple(tuple(pair) for pair in kw["levels"])
    kw["seed"] = seed
    kw["threads"] = 1
    return kw
