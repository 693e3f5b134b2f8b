"""Perf bench: the one-pass subset-sweep engine vs per-subset loops.

Table 2 of the paper sweeps epsilon-EDF over every non-empty subset of the
protected attributes; the Bayesian companion paper asks for posterior
uncertainty on each. This bench times three ways of producing the full
posterior sweep at p = 4..6 binary attributes:

* ``seed_loop`` — the seed-style implementation: one Monte Carlo run per
  subset with Python loops per draw, per group (``rng.dirichlet``), and
  per outcome (the same historical baseline style as
  ``bench_batch_epsilon.py``);
* ``batched_loop`` — one :func:`posterior_epsilon` call per subset using
  today's PR-1 fused kernel (each subset redraws its own posterior);
* ``engine`` — :func:`posterior_subset_sweep`: one shared gamma draw
  marginalised to every subset through the memoized lattice.

The point sweep (looped ``edf_from_contingency`` vs the batched engine) is
timed too, and the engine's point results are asserted bit-identical to
the loop. Speedups land in ``BENCH_subset_sweep.json`` at the repo root,
alongside ``BENCH_batch_epsilon.json``, so future PRs can track the
trajectory. The acceptance target is >= 10x on the posterior sweep at the
largest scale against the seed-style per-subset loop; the ratio against
the already-batched per-subset loop is recorded as well.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_subset_sweep.py -q
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.bayesian import posterior_epsilon
from repro.core.empirical import edf_from_contingency
from repro.core.subsets import all_nonempty_subsets, subset_sweep
from repro.core.sweep import posterior_subset_sweep
from repro.tabular.crosstab import ContingencyTable

pytestmark = pytest.mark.perf

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD_PATH = REPO_ROOT / "BENCH_subset_sweep.json"

# (n_attributes, n_draws); binary attributes, two outcomes. The target is
# the acceptance criterion: >= 10x on the posterior sweep at p = 6 (>= 4
# attributes, >= 500 draws) against the seed-style per-subset loop.
SCALES = [(4, 500), (5, 500), (6, 500)]
TARGET_SCALE = (6, 500)
TARGET_SPEEDUP = 10.0

_RESULTS: dict[tuple[int, int], dict] = {}


def _contingency(n_attributes: int) -> ContingencyTable:
    rng = np.random.default_rng(20260728)
    counts = rng.integers(1, 80, size=(2,) * n_attributes + (2,)).astype(float)
    return ContingencyTable(
        counts,
        [f"a{index}" for index in range(n_attributes)],
        [("0", "1")] * n_attributes,
        "y",
        ("neg", "pos"),
    )


def _collapsed_cells(contingency: ContingencyTable, subset: tuple[str, ...]) -> int:
    """Intersectional cells aggregated into one cell of ``subset``."""
    collapsed = 1
    for axis, name in enumerate(contingency.factor_names):
        if name not in subset:
            collapsed *= len(contingency.factor_levels[axis])
    return collapsed


# ----------------------------------------------------------------------
# Point sweep: looped per-subset estimator calls vs the one-pass engine.
# ----------------------------------------------------------------------
def _looped_point_sweep(contingency: ContingencyTable, estimator=None):
    results = {}
    for subset in all_nonempty_subsets(contingency.factor_names):
        marginal = contingency.marginalize(list(subset))
        results[subset] = edf_from_contingency(marginal, estimator)
    return results


# ----------------------------------------------------------------------
# Posterior sweep baselines.
# ----------------------------------------------------------------------
def _seed_style_epsilon(matrix: np.ndarray) -> float:
    """The seed implementation's per-outcome Python loop (one draw)."""
    populated = ~np.isnan(matrix).any(axis=1)
    indices = np.flatnonzero(populated)
    if indices.size < 2:
        return 0.0
    sub = matrix[indices]
    best = 0.0
    seen = False
    for column in range(matrix.shape[1]):
        values = sub[:, column]
        if not (values > 0).any():
            continue
        p_high = float(values.max())
        p_low = float(values.min())
        eps = math.inf if p_low == 0.0 else math.log(p_high) - math.log(p_low)
        if not seen or eps > best:
            best = eps
            seen = True
    return best


def _seed_loop_posterior_sweep(
    contingency: ContingencyTable, alpha: float, n_draws: int, seed: int
):
    """Seed-style per-subset Monte Carlo: loops per draw, group, outcome."""
    rng = np.random.default_rng(seed)
    out = {}
    for subset in all_nonempty_subsets(contingency.factor_names):
        marginal = contingency.marginalize(list(subset))
        counts = marginal.group_outcome_matrix()[0]
        concentration = _collapsed_cells(contingency, subset) * alpha
        epsilons = np.empty(n_draws)
        for draw in range(n_draws):
            matrix = np.full(counts.shape, np.nan)
            for group, row in enumerate(counts):
                if row.sum() > 0:
                    matrix[group] = rng.dirichlet(row + concentration)
            epsilons[draw] = _seed_style_epsilon(matrix)
        out[subset] = epsilons
    return out


def _batched_loop_posterior_sweep(
    contingency: ContingencyTable, alpha: float, n_draws: int, seed: int
):
    """Per-subset :func:`posterior_epsilon` with today's fused kernel."""
    rng = np.random.default_rng(seed)
    out = {}
    for subset in all_nonempty_subsets(contingency.factor_names):
        marginal = contingency.marginalize(list(subset))
        out[subset] = posterior_epsilon(
            marginal,
            alpha=_collapsed_cells(contingency, subset) * alpha,
            n_samples=n_draws,
            seed=rng,
        )
    return out


def _time(callable_, repeats: int = 3) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("n_attributes,n_draws", SCALES)
def test_engine_beats_per_subset_loops(n_attributes, n_draws):
    contingency = _contingency(n_attributes)

    # Correctness first: point results bit-identical, posterior means agree.
    looped_points = _looped_point_sweep(contingency)
    engine_sweep = subset_sweep(contingency)
    for subset, reference in looped_points.items():
        result = engine_sweep.results[subset]
        assert result.epsilon == reference.epsilon
        assert np.array_equal(
            result.probabilities, reference.probabilities, equal_nan=True
        )
    engine_posterior = posterior_subset_sweep(
        contingency, alpha=1.0, n_samples=n_draws, seed=1
    )
    batched = _batched_loop_posterior_sweep(contingency, 1.0, n_draws, seed=2)
    for subset, summary in batched.items():
        engine_summary = engine_posterior.summaries[subset]
        spread = max(summary.quantiles[0.95] - summary.quantiles[0.05], 1e-6)
        assert abs(engine_summary.mean - summary.mean) < spread

    point_looped_seconds = _time(lambda: _looped_point_sweep(contingency))
    point_engine_seconds = _time(lambda: subset_sweep(contingency))

    seed_loop_seconds = _time(
        lambda: _seed_loop_posterior_sweep(contingency, 1.0, n_draws, seed=1),
        repeats=1,
    )
    batched_loop_seconds = _time(
        lambda: _batched_loop_posterior_sweep(contingency, 1.0, n_draws, seed=1),
        repeats=2,
    )
    engine_seconds = _time(
        lambda: posterior_subset_sweep(
            contingency, alpha=1.0, n_samples=n_draws, seed=1
        )
    )

    entry = {
        "n_attributes": n_attributes,
        "n_subsets": 2**n_attributes - 1,
        "n_draws": n_draws,
        "point": {
            "looped_seconds": point_looped_seconds,
            "engine_seconds": point_engine_seconds,
            "speedup": point_looped_seconds / point_engine_seconds,
        },
        "posterior": {
            "seed_loop_seconds": seed_loop_seconds,
            "batched_loop_seconds": batched_loop_seconds,
            "engine_seconds": engine_seconds,
            "speedup_vs_seed_loop": seed_loop_seconds / engine_seconds,
            "speedup_vs_batched_loop": batched_loop_seconds / engine_seconds,
        },
    }
    _RESULTS[(n_attributes, n_draws)] = entry

    assert entry["point"]["speedup"] > 1.0
    assert entry["posterior"]["speedup_vs_batched_loop"] > 1.0
    assert entry["posterior"]["speedup_vs_seed_loop"] > 1.0
    if (n_attributes, n_draws) == TARGET_SCALE:
        speedup = entry["posterior"]["speedup_vs_seed_loop"]
        assert speedup >= TARGET_SPEEDUP, (
            f"acceptance target missed: {speedup:.1f}x < {TARGET_SPEEDUP}x "
            f"at {TARGET_SCALE}"
        )


def test_zy_record_posterior_table(record_table):
    """Render the target-scale posterior sweep table into results/."""
    contingency = _contingency(TARGET_SCALE[0])
    sweep = posterior_subset_sweep(
        contingency, alpha=1.0, n_samples=TARGET_SCALE[1], seed=0
    )
    record_table("subset_sweep_posterior", sweep.to_text())


def test_zz_write_speedup_record():
    """Runs last (file order): persist the trajectory for future PRs."""
    assert _RESULTS, "scale benchmarks did not run"
    record = {
        "benchmark": "bench_subset_sweep",
        "workload": "full Table-2 posterior sweep: per-subset posterior "
        "epsilon distributions, seed-style loops / per-subset batched "
        "kernel / one-pass shared-draw engine (posterior_subset_sweep)",
        "target": {
            "scale": dict(zip(("n_attributes", "n_draws"), TARGET_SCALE)),
            "min_speedup": TARGET_SPEEDUP,
            "baseline": "seed_loop (per-subset Monte Carlo with per-draw/"
            "per-group/per-outcome Python loops, as in bench_batch_epsilon)",
        },
        "scales": [_RESULTS[key] for key in sorted(_RESULTS)],
    }
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    target = next(
        entry
        for entry in record["scales"]
        if (entry["n_attributes"], entry["n_draws"]) == TARGET_SCALE
    )
    assert target["posterior"]["speedup_vs_seed_loop"] >= TARGET_SPEEDUP
