"""Count-based fairness metrics: one contract, many definitions.

The paper positions differential fairness against the related-work
definitions of Section 7 — demographic parity, equalized odds, subgroup
fairness, calibration — and the repo carries row-level implementations of
all four in :mod:`repro.metrics`. Epsilon alone, however, enjoyed the
batched kernel (:mod:`repro.core.batch`), the 2^p - 1 sweep lattice
(:mod:`repro.core.sweep`), streaming retraction, and alert rules. This
module closes that gap with a single contract:

    a **fairness metric** is a named, batched function of per-group
    count matrices — ``kernel(counts, starts)`` maps a ``(rows, O)``
    matrix of group x outcome counts, cut into slices at the first rows
    ``starts`` (the segment layout of :mod:`repro.core.batch`, whose
    :func:`~repro.core.batch.segment_extrema` gives per-slice extrema), to
    one value per slice.

Calling a metric, :func:`metric_values` or a ``*_counts`` function on a
``(G, O)`` matrix or ``(..., G, O)`` stack takes one slice per matrix
and returns ``(...)`` values. Count matrices are exactly the tensors
:class:`repro.core.streaming.StreamingContingency` maintains and
:func:`repro.core.sweep.marginal_count_lattice` marginalises, so any
registered metric is automatically available per attribute subset (one
kernel call over all subsets' groups), per streaming window, and as a
:class:`repro.monitor.rules.MetricThresholdRule` alert condition.

Conventions (shared with :func:`repro.core.batch.segment_witness`):

* the **positive** outcome is the last column (``outcome_levels[-1]``,
  the repo-wide default of ``audit_classifier`` and ``markdown_report``);
* a row with NaN counts or a zero total marks an unobserved group, which
  is excluded, matching the ``P(s) = 0`` exclusion of Definition 3.1;
* a slice with fewer than two populated groups has no pairwise
  comparison, so comparison metrics yield NaN there (the row-level
  adapters in :mod:`repro.metrics` raise
  :class:`~repro.exceptions.ValidationError` instead, preserving their
  legacy contract).

Built-in metrics (all registered; see :func:`registered_metrics`):

``demographic_parity_difference`` / ``demographic_parity_ratio`` /
``demographic_parity_epsilon``
    Dwork et al.'s statistical parity in difference, ratio ("80% rule"),
    and log-ratio (differential-fairness) form.
``subgroup_fairness``
    Kearns et al.'s worst mass-weighted statistical-parity violation
    over the intersectional cells.
``worst_case_gap`` / ``worst_case_ratio``
    Ghosh et al. 2021's worst-case intersectional comparisons: the
    difference (ratio) form of demographic parity taken over *every*
    outcome, not just the positive one, reported at its worst.
``alpha_intersectional``
    Maheshwari et al. 2023's leveling-down-resistant measure: a convex
    combination of the positive-rate gap and the worst-off group's
    absolute shortfall, ``alpha * (max u - min u) + (1 - alpha) * (1 - min u)``
    with ``u_g = P(positive | g)``. Degrading the best-off group can
    shrink the gap term but never the shortfall term, so "leveling
    down" cannot masquerade as progress (their Section 4 critique of
    pure-gap metrics).

Register your own with :func:`register_metric`::

    def _gap_squared(counts, starts):
        rates, mass = positive_rate_stack(counts)  # one rate per group row
        high, low, _ = segment_extrema(rates, mass > 0, starts)  # per slice
        return (high - low) ** 2

    register_metric(FairnessMetric(
        name="gap_squared",
        kernel=_gap_squared,
        description="squared positive-rate gap",
    ))

after which every sweep, streaming audit, and ``metric_threshold`` rule
can address it by name.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.batch import segment_extrema, segment_reduce, segment_sum
from repro.exceptions import ValidationError

__all__ = [
    "FairnessMetric",
    "alpha_intersectional_counts",
    "calibration_cell_stats",
    "demographic_parity_difference_counts",
    "demographic_parity_epsilon_counts",
    "demographic_parity_ratio_counts",
    "equalized_odds_gap_counts",
    "factorize_labels",
    "get_metric",
    "group_outcome_counts",
    "metric_values",
    "outcome_rate_stack",
    "positive_rate_stack",
    "register_metric",
    "registered_metrics",
    "subgroup_violation_counts",
    "unregister_metric",
    "worst_case_gap_counts",
    "worst_case_ratio_counts",
]


# ----------------------------------------------------------------------
# Shared count-matrix plumbing
# ----------------------------------------------------------------------
def _as_counts(counts: Any) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    if counts.ndim < 2:
        raise ValidationError(
            f"counts must have shape (..., n_groups, n_outcomes), got "
            f"shape {counts.shape}"
        )
    if counts.shape[-1] < 2:
        raise ValidationError("at least two outcome columns are required")
    if (counts < 0).any():
        raise ValidationError("counts must be non-negative")
    return counts


def outcome_rate_stack(counts: Any) -> tuple[np.ndarray, np.ndarray]:
    """Per-group outcome rates ``counts / row totals`` plus the totals.

    ``counts`` is ``(..., G, O)``; returns ``(rates, mass)`` with shapes
    ``(..., G, O)`` and ``(..., G)``. Excluded groups — rows with NaN
    counts and zero-total rows — carry ``mass == 0`` and all-NaN rates. The
    division is the single IEEE operation ``count / total``, so rates
    from integer counts are bit-identical to ``flags[mask].mean()`` on
    the underlying rows (0/1 sums are exact).
    """
    counts = _as_counts(counts)
    mass = counts.sum(axis=-1)
    mass = np.where(np.isnan(mass), 0.0, mass)
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = counts / mass[..., None]
    rates[mass == 0.0] = np.nan
    return rates, mass


def positive_rate_stack(counts: Any) -> tuple[np.ndarray, np.ndarray]:
    """Per-group positive rates ``P(positive | group)`` plus group totals.

    The positive outcome is the last column. Returns ``(rates, mass)``
    of shape ``(..., G)``; excluded groups are NaN / zero as in
    :func:`outcome_rate_stack`.
    """
    rates, mass = outcome_rate_stack(counts)
    return rates[..., -1], mass


def _per_matrix(kernel: Callable, counts: Any, *args: Any) -> np.ndarray:
    """``kernel`` on a ``(G, O)`` matrix or ``(..., G, O)`` stack, one
    slice per matrix: values shaped like the stack's leading axes."""
    counts = _as_counts(counts)
    *lead, n_groups, n_outcomes = counts.shape
    starts = np.arange(math.prod(lead)) * n_groups
    rows = counts.reshape(-1, n_outcomes)
    return np.asarray(kernel(rows, starts, *args)).reshape(lead)


def _rate_extrema(counts, starts, column: Any = -1):
    """Per-slice extrema of the outcome rates in ``column`` (the positive
    outcome by default; ``slice(None)`` for every outcome)."""
    rates, mass = outcome_rate_stack(counts)
    high, low, _ = segment_extrema(rates[:, column], mass > 0, starts)
    return high, low


# ----------------------------------------------------------------------
# Count kernels: Section 7 baselines
# ----------------------------------------------------------------------
def _dp_difference(counts, starts):
    high, low = _rate_extrema(counts, starts)
    return high - low


def demographic_parity_difference_counts(counts: Any) -> np.ndarray:
    """Max pairwise positive-rate gap per slice (0 = parity, NaN = < 2 groups)."""
    return _per_matrix(_dp_difference, counts)


def _dp_ratio(counts, starts):
    high, low = _rate_extrema(counts, starts)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = low / high
    return np.where(high == 0.0, 1.0, ratio)


def demographic_parity_ratio_counts(counts: Any) -> np.ndarray:
    """Min-over-max positive-rate ratio per slice (1 = parity; the EEOC
    "80% rule" flags values below 0.8). All rates zero gives 1 by the
    row-level convention (perfectly equal); NaN marks < 2 groups."""
    return _per_matrix(_dp_ratio, counts)


def _one_sided_log_ratio(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """``log(high / low)`` with the row-level conventions: inf when a zero
    rate meets a positive one, NaN when the side is vacuous (high == 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        epsilon = np.where(low == 0.0, np.inf, np.log(high / low))
    return np.where(high == 0.0, np.nan, epsilon)


def _dp_epsilon(counts, starts):
    high, low = _rate_extrema(counts, starts)
    # max(1 - r) = 1 - min(r) holds bitwise: x -> 1 - x is one rounded,
    # monotone subtraction, so the extrema commute with it.
    positive_side = _one_sided_log_ratio(high, low)
    negative_side = _one_sided_log_ratio(1.0 - low, 1.0 - high)
    vacuous = np.isnan(positive_side) & np.isnan(negative_side)
    epsilon = np.where(vacuous, 0.0, np.fmax(positive_side, negative_side))
    return np.where(np.isnan(high), np.nan, epsilon)


def demographic_parity_epsilon_counts(counts: Any) -> np.ndarray:
    """The differential-fairness view of the positive rates: max |log
    ratio| over both the positive and the complementary outcome. Infinite
    when one group never (or always) receives the positive outcome while
    another sometimes does (or does not); NaN marks < 2 groups."""
    return _per_matrix(_dp_epsilon, counts)


def _subgroup_violation(counts, starts):
    rates, mass = positive_rate_stack(counts)
    populated = mass > 0
    owner = np.repeat(np.arange(len(starts)), np.diff([*starts, len(mass)]))
    total = segment_sum(mass, starts)
    positive_total = segment_sum(
        np.where(populated, np.nan_to_num(counts[:, -1]), 0.0), starts
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        base = positive_total / total
        weight = mass / total[owner]
    violation = weight * np.abs(rates - base[owner])
    worst = segment_reduce(
        np.maximum, np.where(populated, violation, -np.inf), starts
    )
    return np.where(total == 0.0, np.nan, worst)


def subgroup_violation_counts(counts: Any) -> np.ndarray:
    """Kearns et al.: the worst mass-weighted statistical-parity violation
    ``max_g P(g) * |P(positive | g) - P(positive)|`` over the slice's
    groups. Defined for any populated slice (a single group trivially
    matches the base rate); NaN only when the slice is empty."""
    return _per_matrix(_subgroup_violation, counts)


# ----------------------------------------------------------------------
# Count kernels: the PAPERS.md backends
# ----------------------------------------------------------------------
def _worst_case_gap(counts, starts):
    high, low = _rate_extrema(counts, starts, slice(None))
    return (high - low).max(axis=-1)


def worst_case_gap_counts(counts: Any) -> np.ndarray:
    """Ghosh et al. 2021: the worst-case intersectional comparison in
    difference form — the max over *all* outcomes of the max pairwise
    gap in that outcome's group-conditional rates. NaN marks < 2 groups."""
    return _per_matrix(_worst_case_gap, counts)


def _worst_case_ratio(counts, starts):
    high, low = _rate_extrema(counts, starts, slice(None))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(high == 0.0, 1.0, low / high)
    return ratio.min(axis=-1)


def worst_case_ratio_counts(counts: Any) -> np.ndarray:
    """Ghosh et al. 2021 in ratio form: the min over all outcomes of the
    min-over-max ratio of that outcome's group-conditional rates (1 =
    parity; an outcome nobody receives is vacuously 1, as in the
    demographic-parity ratio). NaN marks < 2 groups."""
    return _per_matrix(_worst_case_ratio, counts)


DEFAULT_LEVELING_ALPHA = 0.5


def _alpha_intersectional(counts, starts, alpha=DEFAULT_LEVELING_ALPHA):
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must lie in [0, 1], got {alpha}")
    high, low = _rate_extrema(counts, starts)
    return alpha * (high - low) + (1.0 - alpha) * (1.0 - low)


def alpha_intersectional_counts(
    counts: Any, alpha: float = DEFAULT_LEVELING_ALPHA
) -> np.ndarray:
    """Maheshwari et al. 2023's alpha-intersectional measure.

    With per-group positive rates (utilities) ``u_g``::

        alpha * (max u - min u) + (1 - alpha) * (1 - min u)

    ``alpha = 1`` is the pure relative gap (ordinary demographic-parity
    difference); ``alpha = 0`` is the worst-off group's absolute
    shortfall alone. Any ``alpha < 1`` resists leveling down: harming
    the best-off group can shrink the gap term, but the shortfall term
    ``1 - min u`` only improves when the *worst-off* group gains — so a
    mechanism cannot look fairer by making everyone worse off. NaN marks
    < 2 groups.
    """
    return _per_matrix(_alpha_intersectional, counts, alpha)


# ----------------------------------------------------------------------
# Count kernels needing extra per-row structure (not registrable: their
# count tensors carry axes beyond group x outcome)
# ----------------------------------------------------------------------
def equalized_odds_gap_counts(counts: Any) -> np.ndarray:
    """Hardt et al.'s equalized-odds gap from a label-conditional tensor.

    ``counts`` is ``(..., L, G, O)``: per true label, per group, the
    predicted-outcome counts. The gap is the max over true labels of the
    max pairwise gap in ``P(prediction = positive | label, group)``; a
    label observed in fewer than two groups constrains nothing, and a
    slice where *no* label is observed in two or more groups has no
    constraint at all — NaN, which the row-level adapter turns into
    :class:`~repro.exceptions.ValidationError` instead of the historical
    silent ``0.0``.
    """
    counts = _as_counts(counts)
    if counts.ndim < 3:
        raise ValidationError(
            f"counts must have shape (..., n_labels, n_groups, n_outcomes), "
            f"got shape {counts.shape}"
        )
    per_label = demographic_parity_difference_counts(counts)
    unconstrained = np.isnan(per_label).all(axis=-1)
    worst = np.where(np.isnan(per_label), -np.inf, per_label).max(axis=-1)
    return np.where(unconstrained, np.nan, worst)


def calibration_cell_stats(
    counts: Any, positive_counts: Any, score_sums: Any
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell calibration statistics from sufficient aggregates.

    For each (group, score-bin) cell with ``n`` samples, ``n_positive``
    positive labels, and summed scores ``score_sum`` (all arrays of one
    common shape), returns ``(mean_score, positive_rate, gap)`` where
    ``gap = |positive_rate - mean_score|`` — the multicalibration
    violation of :mod:`repro.metrics.calibration`. Empty cells are NaN.
    The divisions match ``np.mean`` on the underlying row slices exactly
    when ``score_sum`` is accumulated with NumPy's pairwise summation
    (``slice.sum()``), which is how the row-level adapter builds it.
    """
    n = np.asarray(counts, dtype=float)
    positive = np.asarray(positive_counts, dtype=float)
    sums = np.asarray(score_sums, dtype=float)
    if n.shape != positive.shape or n.shape != sums.shape:
        raise ValidationError(
            "counts, positive_counts, and score_sums must share one shape"
        )
    if np.any(n < 0) or np.any(positive < 0):
        raise ValidationError("counts must be non-negative")
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_score = sums / n
        positive_rate = positive / n
    empty = n == 0.0
    mean_score = np.where(empty, np.nan, mean_score)
    positive_rate = np.where(empty, np.nan, positive_rate)
    return mean_score, positive_rate, np.abs(positive_rate - mean_score)


# ----------------------------------------------------------------------
# Row-to-count plumbing shared with the repro.metrics adapters
# ----------------------------------------------------------------------
def factorize_labels(values: Sequence[Any]) -> tuple[list[Any], np.ndarray]:
    """Codes for arbitrary labels in one O(n) pass.

    Returns ``(levels, codes)`` with ``levels`` sorted by ``str`` — the
    legacy ``sorted(set(...), key=str)`` order of the row-level metrics —
    and ``codes[i]`` the index of row i's label in ``levels``. Labels
    are deduplicated by ``==``/``hash`` exactly as ``set`` would (so
    ``1``, ``1.0``, and ``True`` collapse, keeping the first-seen
    representative). ``np.unique`` is not usable here: it *orders*
    labels, which raises on mixed-type columns like ``[1, "F"]``.
    """
    first_seen: dict[Any, int] = {}
    codes = np.empty(len(values), dtype=np.intp)
    for index, value in enumerate(values):
        codes[index] = first_seen.setdefault(value, len(first_seen))
    levels = list(first_seen)
    order = sorted(range(len(levels)), key=lambda idx: str(levels[idx]))
    remap = np.empty(len(levels), dtype=np.intp)
    remap[order] = np.arange(len(levels))
    return [levels[idx] for idx in order], remap[codes]


def group_outcome_counts(
    codes: np.ndarray, flags: np.ndarray, n_groups: int
) -> np.ndarray:
    """A ``(n_groups, 2)`` count matrix ``[negative, positive]`` from group
    codes and 0/1 positive flags — one :func:`np.bincount` pass, exact
    (0/1 sums are integers)."""
    positive = np.bincount(codes, weights=flags, minlength=n_groups)
    total = np.bincount(codes, minlength=n_groups).astype(float)
    return np.stack([total - positive, positive], axis=-1)


# ----------------------------------------------------------------------
# The contract and its registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FairnessMetric:
    """A named, batched fairness metric over group x outcome counts.

    ``kernel(counts, starts)`` maps a ``(rows, O)`` count matrix cut into
    slices at the first rows ``starts`` to one value per slice, following
    this module's exclusion conventions; calling the metric applies it to
    a ``(G, O)`` matrix or ``(..., G, O)`` stack. ``higher_is_unfair``
    records the metric's polarity (False for ratio-style metrics where
    *low* values flag unfairness, e.g. the 80% rule) so alert rules and
    renderers can interpret thresholds without per-metric special cases.
    """

    name: str
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    description: str
    higher_is_unfair: bool = True

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise ValidationError("a metric needs a non-empty name")
        if not callable(self.kernel):
            raise ValidationError("a metric kernel must be callable")

    def __call__(self, counts: Any) -> np.ndarray:
        return _per_matrix(self.kernel, counts)


_REGISTRY: dict[str, FairnessMetric] = {}


def register_metric(
    metric: FairnessMetric, *, overwrite: bool = False
) -> FairnessMetric:
    """Add a metric to the global registry (and return it).

    Registered metrics are addressable by name from the subset sweep
    (:func:`repro.core.sweep.metric_subset_sweep`), the streaming
    auditor (:meth:`repro.audit.stream.StreamingAuditor.metric_values`),
    and ``metric_threshold`` alert rules. Re-registering a taken name
    raises unless ``overwrite=True``.
    """
    if not isinstance(metric, FairnessMetric):
        raise ValidationError(
            f"expected a FairnessMetric, got {type(metric).__name__}"
        )
    if not overwrite and metric.name in _REGISTRY:
        raise ValidationError(
            f"metric {metric.name!r} is already registered "
            "(pass overwrite=True to replace it)"
        )
    _REGISTRY[metric.name] = metric
    return metric


def unregister_metric(name: str) -> FairnessMetric:
    """Remove (and return) a registered metric, e.g. a test's custom one."""
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise ValidationError(
            f"unknown metric {name!r}; registered metrics are "
            f"{sorted(_REGISTRY)}"
        ) from None


def get_metric(name: str) -> FairnessMetric:
    """Look a metric up by name; unknown names raise ``ValidationError``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown metric {name!r}; registered metrics are "
            f"{sorted(_REGISTRY)}"
        ) from None


def registered_metrics() -> tuple[str, ...]:
    """Names of all registered metrics, in registration order."""
    return tuple(_REGISTRY)


def metric_values(
    counts: Any, metrics: Iterable[str] | None = None
) -> dict[str, np.ndarray]:
    """Evaluate named metrics (default: every registered one) on a
    ``(G, O)`` count matrix or ``(..., G, O)`` stack, returning
    ``{name: values}`` with one kernel pass per metric."""
    names = registered_metrics() if metrics is None else tuple(metrics)
    return {name: get_metric(name)(counts) for name in names}


for _metric in (
    FairnessMetric(
        name="demographic_parity_difference",
        kernel=_dp_difference,
        description="max pairwise gap in P(positive | group); 0 = parity",
    ),
    FairnessMetric(
        name="demographic_parity_ratio",
        kernel=_dp_ratio,
        description="min/max ratio of P(positive | group); the 80% rule",
        higher_is_unfair=False,
    ),
    FairnessMetric(
        name="demographic_parity_epsilon",
        kernel=_dp_epsilon,
        description="max |log ratio| of the positive rates, both outcomes",
    ),
    FairnessMetric(
        name="subgroup_fairness",
        kernel=_subgroup_violation,
        description="Kearns et al.: worst mass-weighted parity violation",
    ),
    FairnessMetric(
        name="worst_case_gap",
        kernel=_worst_case_gap,
        description="Ghosh et al.: worst rate gap over every outcome",
    ),
    FairnessMetric(
        name="worst_case_ratio",
        kernel=_worst_case_ratio,
        description="Ghosh et al.: worst min/max rate ratio over outcomes",
        higher_is_unfair=False,
    ),
    FairnessMetric(
        name="alpha_intersectional",
        kernel=_alpha_intersectional,
        description=(
            "Maheshwari et al.: leveling-down-resistant gap/shortfall "
            f"blend (alpha={DEFAULT_LEVELING_ALPHA:g})"
        ),
    ),
):
    register_metric(_metric)
del _metric
