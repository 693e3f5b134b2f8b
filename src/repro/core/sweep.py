"""One-pass subset-sweep engine: the whole of Table 2 from one tensor.

The paper's Table 2 measures epsilon-EDF for *every* non-empty subset of
the protected attributes, and the Bayesian companion paper ("Bayesian
Modeling of Intersectional Fairness: The Variance of Bias", Foulds et al.
2018) argues each such estimate should carry posterior uncertainty. Done
naively that is ``2^p - 1`` independent marginalisations, estimator calls,
and Monte Carlo runs. This module does the entire sweep in one pass:

* **Batched marginalisation** — all ``2^p - 1`` marginal count tensors are
  derived from the single intersectional tensor through a memoized lattice
  (:func:`marginal_count_lattice`): every subset is one axis-sum away from
  an already-computed parent, never re-reduced from the root.
* **One kernel call per measurement** — the subsets' group rows are
  concatenated into one ``(rows, n_outcomes)`` matrix, one slice per
  subset, so a single segment kernel call measures every subset's own
  groups: :func:`repro.core.batch.segment_witness` for the point
  epsilons, each registered metric's kernel for the metric sweep. The
  results are bit-identical to looping
  :func:`repro.core.empirical.edf_from_contingency` over
  :meth:`ContingencyTable.marginalize` for integer-valued counts (the
  universal case for contingency data — integer sums are exact in
  floating point; non-integer counts agree to summation-order rounding,
  since the lattice accumulates one axis at a time).
* **Shared-draw posterior sweep** — :func:`posterior_subset_sweep` draws
  the full intersectional posterior as unnormalised gamma variates
  (:meth:`GroupOutcomePosterior.sample_gammas`) and marginalises the same
  draws to every subset. This is exact, not approximate: under the joint
  Dirichlet model (per-cell prior concentration ``alpha``, the companion
  paper's model) a Dirichlet aggregated over cells is the aggregated
  subset's Dirichlet, and gamma variates realise that aggregation by
  simple summation. Every subset's credible interval therefore costs one
  sampling pass instead of ``2^p - 1``. The pass runs in blocks of draws
  sized by a fixed byte budget, so its working set does not grow with the
  number of draws.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.bayesian import PosteriorEpsilon, summarize_epsilon_sample_rows
from repro.core.batch import extrema_epsilons, segment_witness
from repro.core.estimators import (
    ProbabilityEstimator,
    as_estimator,
    is_builtin_estimator,
)
from repro.core.result import EpsilonResult, Witness
from repro.distributions.dirichlet import GroupOutcomePosterior
from repro.exceptions import ValidationError
from repro.tabular.crosstab import ContingencyTable
from repro.tabular.table import Table
from repro.utils.rng import as_generator

__all__ = [
    "marginal_count_lattice",
    "sweep_results",
    "MetricSubsetSweep",
    "metric_sweep_results",
    "metric_subset_sweep",
    "PosteriorSubsetSweep",
    "posterior_subset_sweep",
]


def as_sweep_contingency(
    data: Table | ContingencyTable,
    protected: Sequence[str] | None,
    outcome: str | None,
) -> ContingencyTable:
    """Coerce the sweep entry points' (data, protected, outcome) contract."""
    if isinstance(data, ContingencyTable):
        if protected is not None or outcome is not None:
            raise ValidationError(
                "protected/outcome are implied by a ContingencyTable; omit them"
            )
        return data
    if protected is None or outcome is None:
        raise ValidationError("protected and outcome column names are required")
    return ContingencyTable.from_table(data, list(protected), outcome)


def normalize_subset_key(
    subset: Sequence[str] | str, attribute_names: tuple[str, ...]
) -> tuple[str, ...]:
    """Canonical (declaration-ordered) key for an attribute subset.

    Shared by :class:`repro.core.subsets.SubsetSweep` and
    :class:`PosteriorSubsetSweep` so both sweeps resolve subsets
    order-insensitively with identical error reporting.
    """
    if isinstance(subset, str):
        subset = (subset,)
    wanted = set(subset)
    key = tuple(name for name in attribute_names if name in wanted)
    if len(key) != len(tuple(subset)):
        unknown = wanted - set(attribute_names)
        raise ValidationError(
            f"unknown attributes {sorted(unknown)}; have {attribute_names}"
        )
    return key


def _axis_subsets(n_factors: int) -> list[tuple[int, ...]]:
    """Non-empty subsets of the factor axes, smallest first (Table 2 order)."""
    return [
        axes
        for size in range(1, n_factors + 1)
        for axes in itertools.combinations(range(n_factors), size)
    ]


def marginal_count_lattice(
    tensor: np.ndarray, n_factors: int, lead_axes: int = 0
) -> dict[tuple[int, ...], np.ndarray]:
    """Marginal tensors for every non-empty subset of the factor axes.

    ``tensor`` has ``lead_axes`` leading axes carried through untouched
    (e.g. a draw axis), then the ``n_factors`` factor axes, then any
    number of trailing axes also carried through (e.g. the outcome axis).
    Returns a dict mapping each ascending tuple of kept factor indices to
    its marginal tensor, kept axes in index order.

    Subsets are computed largest first, and each child is one axis-sum of
    an already-computed parent — the memoized-lattice scheme: the work per
    subset is proportional to its *parent's* size rather than the root's,
    which is what makes sweeping all ``2^p - 1`` subsets cheap.
    """
    tensor = np.asarray(tensor)
    if n_factors < 1:
        raise ValidationError("at least one factor axis is required")
    if tensor.ndim < lead_axes + n_factors:
        raise ValidationError(
            f"tensor must have at least {lead_axes + n_factors} axes "
            f"(lead + factors), got {tensor.ndim}"
        )
    full = tuple(range(n_factors))
    lattice: dict[tuple[int, ...], np.ndarray] = {full: tensor}
    for size in range(n_factors - 1, 0, -1):
        for subset in itertools.combinations(full, size):
            kept = set(subset)
            # Any parent of size+1 works; preferring the largest missing
            # axis biases the summed axis toward the tail of the parent's
            # factor axes, i.e. toward faster-varying memory.
            dropped = max(axis for axis in full if axis not in kept)
            parent = tuple(sorted(kept | {dropped}))
            lattice[subset] = lattice[parent].sum(
                axis=lead_axes + parent.index(dropped)
            )
    return lattice


def _subset_group_labels(
    contingency: ContingencyTable, axes: tuple[int, ...]
) -> list[tuple]:
    """Group tuples of a subset in tensor (row-major) order."""
    return list(
        itertools.product(*(contingency.factor_levels[axis] for axis in axes))
    )


def _subset_rows(
    contingency: ContingencyTable,
) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """The axis subsets (Table 2 order), their marginal group x outcome
    counts concatenated into one ``(rows, n_outcomes)`` matrix (groups in
    tensor order) and each subset's first row: the segment layout of
    :mod:`repro.core.batch`."""
    n_factors = len(contingency.factor_names)
    lattice = marginal_count_lattice(contingency.counts, n_factors)
    subsets = _axis_subsets(n_factors)
    matrices = [
        lattice[axes].reshape(-1, contingency.n_outcomes) for axes in subsets
    ]
    starts = np.cumsum([0] + [len(matrix) for matrix in matrices[:-1]])
    return subsets, np.concatenate(matrices), starts


def sweep_results(
    contingency: ContingencyTable,
    estimator: ProbabilityEstimator | float | None = None,
) -> dict[tuple[str, ...], EpsilonResult]:
    """Every subset's :class:`EpsilonResult` from one batched kernel pass.

    Equivalent to :func:`repro.core.empirical.edf_from_contingency` on
    ``contingency.marginalize(subset)`` for every non-empty subset (see
    the module docstring for when bit for bit). The built-in estimators
    run once over all subsets' concatenated rows, and one
    :func:`repro.core.batch.segment_witness` call measures every subset.
    """
    estimator_obj = as_estimator(estimator)
    builtin = is_builtin_estimator(estimator_obj)
    names = tuple(contingency.factor_names)
    outcome_levels = contingency.outcome_levels
    subsets, counts, starts = _subset_rows(contingency)
    bounds = [*starts, len(counts)]

    if builtin:
        # The built-in estimators are row-wise, so one call over every
        # subset's rows slices back bitwise unchanged. User-defined
        # estimators get one call per subset matrix — the ABC does not
        # promise row-wise independence (an estimator may pool across the
        # rows it is handed).
        probabilities = estimator_obj.probabilities(counts)
    else:
        probabilities = np.concatenate(
            [
                estimator_obj.probabilities(counts[start:stop])
                for start, stop in zip(bounds, bounds[1:])
            ]
        )
    # Zero-count groups are excluded (P(s) = 0) through the group mass,
    # exactly as the pointwise path; the stored per-subset probabilities
    # keep the estimator's raw output.
    mass = counts.sum(axis=1)
    witness = segment_witness(
        probabilities, starts, group_mass=mass, validate=not builtin
    )

    results: dict[tuple[str, ...], EpsilonResult] = {}
    for row, (axes, start, stop) in enumerate(
        zip(subsets, bounds, bounds[1:])
    ):
        labels = _subset_group_labels(contingency, axes)
        outcome_index = int(witness["outcome"][row])
        best_witness = None
        if outcome_index >= 0:
            best_witness = Witness(
                outcome=outcome_levels[outcome_index],
                group_high=labels[int(witness["group_high"][row])],
                group_low=labels[int(witness["group_low"][row])],
                prob_high=float(witness["prob_high"][row]),
                prob_low=float(witness["prob_low"][row]),
            )
        per_outcome_row = witness["per_outcome"][row]
        subset_names = tuple(names[axis] for axis in axes)
        results[subset_names] = EpsilonResult(
            epsilon=float(witness["epsilon"][row]),
            attribute_names=subset_names,
            group_labels=tuple(labels),
            outcome_levels=outcome_levels,
            probabilities=probabilities[start:stop].copy(),
            group_mass=mass[start:stop],
            per_outcome={
                outcome: float(per_outcome_row[column])
                for column, outcome in enumerate(outcome_levels)
            },
            witness=best_witness,
            estimator=estimator_obj.name,
        )
    return results


def metric_sweep_results(
    contingency: ContingencyTable,
    metrics: Sequence[str] | None = None,
) -> dict[tuple[str, ...], dict[str, float]]:
    """Every registered fairness metric for every subset, one pass each.

    Each metric is one kernel call over all ``2^p - 1`` subsets' rows, one
    slice per subset (the :class:`repro.core.metrics.FairnessMetric`
    contract). Values are bit-identical to the metric on each subset's
    own marginal matrix — and, through the row-level adapters in
    :mod:`repro.metrics`, to the legacy per-row functions on the
    underlying rows (integer counts marginalise exactly).

    ``metrics`` selects registered metric names; the default is every
    registered metric. Returns ``{subset: {metric: value}}`` with
    subsets keyed by attribute-name tuples, smallest subsets first
    (Table 2 order).
    """
    from repro.core.metrics import get_metric, registered_metrics

    names = tuple(contingency.factor_names)
    subsets, counts, starts = _subset_rows(contingency)
    values = {
        metric: get_metric(metric).kernel(counts, starts)
        for metric in (registered_metrics() if metrics is None else metrics)
    }
    return {
        tuple(names[axis] for axis in axes): {
            metric: float(column[row]) for metric, column in values.items()
        }
        for row, axes in enumerate(subsets)
    }


@dataclass(frozen=True)
class MetricSubsetSweep:
    """Every registered fairness metric for every non-empty subset.

    ``table`` maps each subset (attribute-name tuple in declaration
    order) to ``{metric name: value}``; ``positive_outcome`` is the
    outcome level the positive-rate metrics condition on (the last
    outcome level, the repo-wide convention). NaN marks a subset where a
    metric is undefined (fewer than two populated groups).
    """

    attribute_names: tuple[str, ...]
    metric_names: tuple[str, ...]
    table: dict[tuple[str, ...], dict[str, float]]
    positive_outcome: object

    def value(self, subset: Sequence[str] | str, metric: str) -> float:
        """One (subset, metric) cell; subsets resolve order-insensitively."""
        key = normalize_subset_key(subset, self.attribute_names)
        row = self.table[key]
        try:
            return row[metric]
        except KeyError:
            raise ValidationError(
                f"metric {metric!r} was not swept; have "
                f"{sorted(self.metric_names)}"
            ) from None

    def values(self, subset: Sequence[str] | str) -> dict[str, float]:
        """All metric values of one subset (order-insensitive)."""
        return dict(
            self.table[normalize_subset_key(subset, self.attribute_names)]
        )

    @property
    def full(self) -> dict[str, float]:
        """The metric values over the complete intersection A."""
        return dict(self.table[self.attribute_names])

    def to_rows(self) -> list[tuple]:
        """(attributes, *metric values) rows, smallest subsets first."""
        return [
            (", ".join(subset), *(row[name] for name in self.metric_names))
            for subset, row in self.table.items()
        ]

    def to_text(self, digits: int = 4) -> str:
        from repro.utils.formatting import render_table

        return render_table(
            ["Protected attributes", *self.metric_names],
            self.to_rows(),
            digits=digits,
            title=(
                f"Fairness metrics by attribute subset "
                f"(positive outcome = {self.positive_outcome})"
            ),
        )


def metric_subset_sweep(
    data: Table | ContingencyTable,
    protected: Sequence[str] | None = None,
    outcome: str | None = None,
    metrics: Sequence[str] | None = None,
) -> MetricSubsetSweep:
    """The multi-metric companion of :func:`repro.core.subsets.subset_sweep`:
    one :class:`MetricSubsetSweep` covering every registered metric (or
    the named subset of them) for every non-empty attribute subset."""
    from repro.core.metrics import registered_metrics

    contingency = as_sweep_contingency(data, protected, outcome)
    names = (
        registered_metrics() if metrics is None else tuple(metrics)
    )
    return MetricSubsetSweep(
        attribute_names=tuple(contingency.factor_names),
        metric_names=names,
        table=metric_sweep_results(contingency, names),
        positive_outcome=contingency.outcome_levels[-1],
    )


# Bytes of gamma lattice (every subset's groups x outcomes x draws) one
# block of posterior draws may fill: the posterior sweep draws,
# marginalises and reduces one block at a time, so its working set stays
# near this bound however many draws are asked for. On a 2,400-group,
# 63-subset sweep of 500 draws, 16 MB ran as fast as larger budgets (one
# block included) at a sixth of one block's peak memory; smaller budgets
# ran slower.
_POSTERIOR_BLOCK_BYTES = 16 * 2**20


def _group_extrema(
    draws: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(draws, outcomes)`` max and min of a subset's normalised
    ``(outcome, group, draw)`` gamma block over its observed groups."""
    if not keep.all():
        draws = draws[:, keep, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        probabilities = draws / draws.sum(axis=0)
    return probabilities.max(axis=1).T, probabilities.min(axis=1).T


def _posterior_sweep_epsilons(
    contingency: ContingencyTable,
    alpha: float,
    n_samples: int,
    seed,
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """One shared posterior draw, marginalised and measured for every subset.

    Returns the axis subsets and a ``(n_subsets, n_samples)`` epsilon
    matrix. Blocks of draws are taken, marginalised and reduced one at a
    time; successive blocks from the one generator are the variates of a
    single draw, so no sample depends on the block width. Per subset the
    work is three light passes (normalise, group-max, group-min); the log
    runs once, on the extrema (:func:`repro.core.batch.extrema_epsilons`).
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    n_factors = len(contingency.factor_names)
    n_outcomes = contingency.n_outcomes
    factor_shape = tuple(len(levels) for levels in contingency.factor_levels)
    posterior = GroupOutcomePosterior(
        contingency.group_outcome_matrix()[0], prior_concentration=alpha
    )
    count_tensor = contingency.counts.reshape(-1, n_outcomes).T.reshape(
        n_outcomes, *factor_shape
    )
    count_lattice = marginal_count_lattice(count_tensor, n_factors, lead_axes=1)
    subsets = _axis_subsets(n_factors)
    keeps = [
        count_lattice[axes].reshape(n_outcomes, -1).sum(axis=0) > 0
        for axes in subsets
    ]
    # Subsets with fewer than two observed groups keep NaN extrema below.
    measured = [index for index, keep in enumerate(keeps) if keep.sum() >= 2]
    # Near-equal blocks of at most max(4, width) draws, so none is one draw
    # wide unless n_samples is 1: a size-1 draw axis drops out of the
    # lattice's axis sums, which then add up a factor axis pairwise
    # instead of element by element — another summation order, other bits.
    width = _POSTERIOR_BLOCK_BYTES // (8 * n_outcomes * sum(map(len, keeps)))
    n_blocks = -(-n_samples // max(4, width))
    bounds = (np.arange(n_blocks + 1) * n_samples // n_blocks).tolist()

    high = np.full((len(subsets), n_samples, n_outcomes), np.nan)
    low = high.copy()
    rng = as_generator(seed)
    for start, stop in zip(bounds, bounds[1:]):
        # Lay the block out as (outcome, factors..., draws): the lattice's
        # factor-axis sums and the per-subset outcome/group reductions
        # then all run over contiguous spans of the draw axis, instead of
        # short strided inner loops over the (small) group axis.
        tensor = np.ascontiguousarray(
            posterior.sample_gammas(stop - start, rng).transpose(2, 1, 0)
        ).reshape(n_outcomes, *factor_shape, stop - start)
        lattice = marginal_count_lattice(tensor, n_factors, lead_axes=1)
        for index in measured:
            high[index, start:stop], low[index, start:stop] = _group_extrema(
                lattice[subsets[index]].reshape(n_outcomes, -1, stop - start),
                keeps[index],
            )
        del tensor, lattice  # free the block before drawing the next
    return subsets, extrema_epsilons(high, low)[1]


@dataclass(frozen=True)
class PosteriorSubsetSweep:
    """Posterior epsilon distributions for every non-empty attribute subset.

    ``summaries`` maps each subset (attribute-name tuple in declaration
    order) to its :class:`PosteriorEpsilon`; ``samples`` keeps the raw
    epsilon draws, which share the underlying randomness across subsets
    (every subset is a marginalisation of the *same* posterior draw).
    """

    attribute_names: tuple[str, ...]
    summaries: dict[tuple[str, ...], PosteriorEpsilon]
    samples: dict[tuple[str, ...], np.ndarray]
    alpha: float
    n_samples: int

    def summary(self, subset: Sequence[str] | str) -> PosteriorEpsilon:
        """The posterior summary for one subset (order-insensitive)."""
        return self.summaries[normalize_subset_key(subset, self.attribute_names)]

    def epsilon_samples(self, subset: Sequence[str] | str) -> np.ndarray:
        """The raw epsilon draws for one subset (order-insensitive)."""
        return self.samples[normalize_subset_key(subset, self.attribute_names)]

    @property
    def full(self) -> PosteriorEpsilon:
        """The posterior over the complete intersection A."""
        return self.summaries[self.attribute_names]

    def credible_interval(
        self, subset: Sequence[str] | str, lower: float = 0.05, upper: float = 0.95
    ) -> tuple[float, float]:
        """A (lower, upper) credible interval from the computed quantiles."""
        summary = self.summary(subset)
        try:
            return (summary.quantiles[lower], summary.quantiles[upper])
        except KeyError as error:
            raise ValidationError(
                f"quantile {error.args[0]} was not computed; have "
                f"{sorted(summary.quantiles)}"
            ) from None

    def _span_levels(self) -> list[float]:
        sample = next(iter(self.summaries.values()))
        return sorted(sample.quantiles)

    def span_headers(self) -> list[str]:
        """Column headers for the posterior summary: the mean plus the
        outermost computed quantiles (omitted when none were computed).
        The single source for every renderer of this sweep."""
        headers = ["posterior mean"]
        levels = self._span_levels()
        if levels:
            headers += [
                f"q{round(levels[0] * 100)}",
                f"q{round(levels[-1] * 100)}",
            ]
        return headers

    def span_row(self, subset: Sequence[str] | str) -> list[float]:
        """One subset's values for :meth:`span_headers`."""
        summary = self.summary(subset)
        row = [summary.mean]
        levels = self._span_levels()
        if levels:
            row += [summary.quantiles[levels[0]], summary.quantiles[levels[-1]]]
        return row

    def to_rows(self) -> list[tuple]:
        """(attributes, mean[, lowest quantile, highest quantile]) rows,
        ascending posterior mean; the quantile columns are omitted when
        the sweep was built with no quantile levels."""
        return [
            (", ".join(subset), *self.span_row(subset))
            for subset, _ in sorted(
                self.summaries.items(), key=lambda item: item[1].mean
            )
        ]

    def to_text(self, digits: int = 3) -> str:
        from repro.utils.formatting import render_table

        return render_table(
            ["Protected attributes", *self.span_headers()],
            self.to_rows(),
            digits=digits,
            title=(
                f"Posterior epsilon by attribute subset "
                f"(alpha={self.alpha:g}, {self.n_samples} draws)"
            ),
        )


def posterior_subset_sweep(
    data: Table | ContingencyTable,
    protected: Sequence[str] | None = None,
    outcome: str | None = None,
    alpha: float = 1.0,
    n_samples: int = 1000,
    quantile_levels: Sequence[float] = (0.05, 0.5, 0.95),
    seed=None,
) -> PosteriorSubsetSweep:
    """Posterior epsilon distributions for every subset from one sampling pass.

    Draws the full intersectional posterior once — unnormalised
    ``Gamma(counts + alpha)`` variates via
    :meth:`GroupOutcomePosterior.sample_gammas` — and marginalises the
    *same* draws to every subset by summing gammas over the collapsed
    cells (the memoized lattice again). Summed gammas are the aggregated
    Dirichlet's gammas, so each subset's draws are exact samples from its
    marginal posterior under the joint Dirichlet model with per-cell prior
    concentration ``alpha``: a subset cell that aggregates ``m``
    intersectional cells carries prior concentration ``m * alpha``. For
    the full intersection ``m = 1``, so those draws are bit-identical to
    :func:`repro.core.bayesian.posterior_epsilon_samples` with the same
    seed. Subset groups with zero observed count are excluded, matching
    the ``P(s) = 0`` convention of the point estimators.

    The draws are marginalised and reduced in blocks of draws, so the
    working set does not grow with ``n_samples``, and each subset's
    per-outcome extrema are taken over its groups *before* the logarithm
    (``max log p = log max p``): bit-identical to running
    :func:`repro.core.batch.epsilon_batch` per subset, at a fraction of
    the memory traffic.
    """
    contingency = as_sweep_contingency(data, protected, outcome)
    names = tuple(contingency.factor_names)
    subsets, epsilons = _posterior_sweep_epsilons(
        contingency, alpha, n_samples, seed
    )
    # The samples dict hands out row views of this matrix; freeze it so a
    # caller mutating their draws cannot desynchronise samples/summaries.
    epsilons.setflags(write=False)
    row_summaries = summarize_epsilon_sample_rows(epsilons, alpha, quantile_levels)
    summaries: dict[tuple[str, ...], PosteriorEpsilon] = {}
    samples: dict[tuple[str, ...], np.ndarray] = {}
    for axes, subset_samples, summary in zip(subsets, epsilons, row_summaries):
        key = tuple(names[axis] for axis in axes)
        samples[key] = subset_samples
        summaries[key] = summary
    return PosteriorSubsetSweep(
        attribute_names=names,
        summaries=summaries,
        samples=samples,
        alpha=float(alpha),
        n_samples=int(n_samples),
    )
