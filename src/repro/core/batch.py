"""Vectorised epsilon kernel over segments of group rows.

The paper sells differential fairness as *lightweight*: epsilon is pure
counting plus a max of log-ratios. The Monte Carlo constructions of this
library (posterior draws of Θ, mechanism integration, fair training) and
the Table-2 subset sweep need it for *many* probability matrices at once,
so this module measures them all in a handful of fused array operations.

Design
------
The kernel takes a ``(rows, n_outcomes)`` matrix and ``starts``, the first
row of each slice; a slice runs up to the next start (the last to the end)
and is one group x outcome matrix with the conventions of
:func:`repro.core.epsilon.epsilon_from_probabilities`:

* a row with a NaN, or with zero group mass, marks a group with
  ``P(s) = 0`` (excluded);
* a zero cell against a positive cell yields ``epsilon = inf``;
* an outcome with zero probability for every populated group lies outside
  ``Range(M)`` and does not constrain epsilon (per-outcome epsilon NaN);
* fewer than two populated groups leaves the constraint set empty
  (``epsilon = 0``, no witness).

Per slice and outcome, ``ufunc.reduceat`` takes the max and min over the
populated rows (:func:`segment_extrema`), and only those extrema are
logged: the log is monotone, so ``log(max p) - log(min p)`` is bitwise
``max(log p) - min(log p)``. The conventions fall out of IEEE arithmetic —
``log(0) = -inf`` makes a zero cell produce ``+inf``, and an all-zero
column produces ``-inf - -inf = NaN``, which the final max over outcomes
skips (:func:`extrema_epsilons`).

A ``(n_draws, n_groups, n_outcomes)`` stack is ``n_draws`` equal slices;
the subset sweep passes each subset's groups as one slice
(:func:`segment_witness`), and the metric kernels of
:mod:`repro.core.metrics` reduce through :func:`segment_extrema` too.
:func:`repro.core.epsilon.epsilon_from_probabilities` delegates to
:func:`witness_batch` with ``n_draws = 1``, so the batched and pointwise
paths are bitwise identical.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "epsilon_batch",
    "extrema_epsilons",
    "per_outcome_epsilon_batch",
    "segment_extrema",
    "segment_reduce",
    "segment_sum",
    "segment_witness",
    "witness_batch",
]


def _segment_ends(starts: np.ndarray, n_rows: int) -> np.ndarray:
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1:] = n_rows
    return ends


def segment_reduce(ufunc, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``ufunc`` over the rows of each slice of ``values`` (``starts`` an
    ``intp`` array rising from 0); a slice without rows gives 0. Only
    non-empty slices enter ``ufunc.reduceat``, which would return the row
    at an empty slice's start (a neighbour's) or fail at the array's end."""
    nonempty = _segment_ends(starts, len(values)) > starts
    if nonempty.all():
        return ufunc.reduceat(values, starts, axis=0)
    reduced = np.zeros((len(starts), *values.shape[1:]), values.dtype)
    if nonempty.any():
        reduced[nonempty] = ufunc.reduceat(values, starts[nonempty], axis=0)
    return reduced


def segment_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-slice sums of a ``(rows,)`` array, each bitwise the slice's own
    ``.sum()``: ``reduceat`` adds a slice's rows to its first, ``.sum()``
    adds them all to ``0.0`` (pairwise), which rounds differently for
    non-integer values. A ``0.0`` in front of every slice makes
    ``reduceat`` do the latter, and leaves no slice empty."""
    padded = np.insert(values, starts, 0.0)
    return np.add.reduceat(padded, starts + np.arange(len(starts)))


def segment_extrema(
    values: np.ndarray, populated: np.ndarray, starts
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-slice max and min of ``values`` (``(rows, ...)``) over the
    ``populated`` rows — NaN for a slice with fewer than two of them, which
    has no pair to compare — and the number of populated rows per slice.
    Extrema are exact in any reduction order."""
    values = np.asarray(values, dtype=float)
    starts = np.asarray(starts, dtype=np.intp)
    if populated.all():
        high_rows = low_rows = values
        count = _segment_ends(starts, len(values)) - starts
    else:
        keep = populated.reshape(-1, *(1,) * (values.ndim - 1))
        high_rows = np.where(keep, values, -np.inf)
        low_rows = np.where(keep, values, np.inf)
        count = segment_reduce(np.add, populated.astype(np.intp), starts)
    few = count < 2
    if not few.any():  # every slice has rows, so reduceat needs no guard
        high = np.maximum.reduceat(high_rows, starts, axis=0)
        low = np.minimum.reduceat(low_rows, starts, axis=0)
        return high, low, count
    high = segment_reduce(np.maximum, high_rows, starts)
    low = segment_reduce(np.minimum, low_rows, starts)
    high[few] = low[few] = np.nan
    return high, low, count


def _log_ratios(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(high) - np.log(low)


def extrema_epsilons(
    high: np.ndarray, low: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(per_outcome, epsilon)`` from per-slice probability extrema: the
    ``(..., n_outcomes)`` max and min over each slice's populated groups,
    NaN where fewer than two are populated (as :func:`segment_extrema`
    gives them). Shared by the kernel and the posterior subset sweep."""
    per_outcome = _log_ratios(high, low)
    # fmax skips NaN (np.nanmax's reduction without its overhead), so an
    # epsilon is NaN only where no outcome lies in Range(M).
    epsilon = np.fmax.reduce(per_outcome, axis=-1)
    constrained = ~np.isnan(high[..., 0])
    if np.isnan(epsilon[constrained]).any():
        # Cannot happen for valid probability rows: every populated row has
        # at least one positive entry.
        raise ValidationError("no outcome had positive probability")
    epsilon[~constrained] = 0.0
    return per_outcome, epsilon


def _validate_rows(rows: np.ndarray) -> None:
    """The pointwise validation, fused over all slices: populated rows must
    be probability vectors."""
    if not rows.size:
        return
    if np.any(rows < -1e-9) or np.any(rows > 1 + 1e-9):
        raise ValidationError("probabilities must lie in [0, 1]")
    sums = rows.sum(axis=1)
    if not np.allclose(sums, 1.0, atol=1e-6):
        raise ValidationError(
            "probability rows must sum to 1 "
            f"(row sums in [{sums.min():.6f}, {sums.max():.6f}])"
        )


def _populated(values: np.ndarray, group_mass, validate: bool) -> np.ndarray:
    """The mask of groups entering the computation, shaped like ``values``
    without its outcome axis; ``group_mass`` aligns with the group axis."""
    if values.shape[-1] < 2:
        raise ValidationError("at least two outcomes are required")
    populated = ~np.isnan(values).any(axis=-1)
    if group_mass is not None:
        mass = np.asarray(group_mass, dtype=float)
        if mass.shape != populated.shape[-1:]:
            raise ValidationError("group_mass must align with the group axis")
        if (mass < 0).any():
            raise ValidationError("group_mass must be non-negative")
        populated &= mass > 0
    if validate:
        _validate_rows(values[populated])
    return populated


def _as_stack(stack) -> np.ndarray:
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3:
        raise ValidationError(
            f"stack must be (n_draws, n_groups, n_outcomes), got shape "
            f"{stack.shape}"
        )
    if stack.shape[1] == 0:
        raise ValidationError("at least one group is required")
    return stack


def _stack_extrema(stack, group_mass, validate):
    """A stack as ``n_draws`` equal slices: per-draw extrema and populated
    counts, and the ``(n_draws, n_groups)`` inclusion mask."""
    stack = _as_stack(stack)
    populated = _populated(stack, group_mass, validate)
    n_draws, n_groups, n_outcomes = stack.shape
    return *segment_extrema(
        stack.reshape(-1, n_outcomes),
        populated.ravel(),
        np.arange(n_draws) * n_groups,
    ), populated


def per_outcome_epsilon_batch(
    stack: np.ndarray, group_mass=None, validate: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Per-outcome epsilons for every draw in one fused pass.

    ``stack`` is ``(n_draws, n_groups, n_outcomes)`` with NaN rows for
    excluded groups; ``group_mass`` optional ``(n_groups,)`` weights
    shared by all draws (zero-mass groups are excluded even when their
    rows are finite); ``validate`` checks every populated row is a
    probability vector, raising :class:`ValidationError` otherwise.

    Returns ``(epsilons, populated)``: the ``(n_draws, n_outcomes)`` max
    log-ratio restricted to each outcome — ``inf`` where a populated group
    has zero probability against a positive one, NaN where the outcome is
    outside ``Range(M)`` or fewer than two groups are populated — and the
    ``(n_draws, n_groups)`` inclusion mask.
    """
    high, low, _, populated = _stack_extrema(stack, group_mass, validate)
    return _log_ratios(high, low), populated


def epsilon_batch(
    stack: np.ndarray, group_mass=None, validate: bool = False
) -> np.ndarray:
    """All epsilons of a probability stack in one vectorised pass.

    ``stack[t]`` follows the conventions of
    :func:`repro.core.epsilon.epsilon_from_probabilities`; the return value
    is the ``(n_draws,)`` vector of tight fairness parameters — zero for
    draws with fewer than two populated groups, ``inf`` when an outcome is
    impossible for one populated group but not another. ``validate`` checks
    every populated row is a probability vector (off by default: the Monte
    Carlo producers emit valid rows by construction).
    """
    high, low, _, _ = _stack_extrema(stack, group_mass, validate)
    return extrema_epsilons(high, low)[1]


def segment_witness(
    probabilities: np.ndarray, starts, group_mass=None, validate: bool = False
) -> dict[str, np.ndarray]:
    """Epsilon, per-outcome epsilons and witness of every slice of a
    ``(rows, n_outcomes)`` probability matrix in one pass: the dict of
    :func:`witness_batch`, one entry per slice, group indices counted from
    the slice's first row. ``group_mass`` gives optional ``(rows,)``
    weights; a zero excludes its row."""
    values = np.asarray(probabilities, dtype=float)
    if values.ndim != 2:
        raise ValidationError(
            f"probabilities must be (rows, n_outcomes), got {values.shape}"
        )
    populated = _populated(values, group_mass, validate)
    starts = np.asarray(starts, dtype=np.intp)
    high, low, count = segment_extrema(values, populated, starts)
    per_outcome, epsilon = extrema_epsilons(high, low)

    n_slices, n_rows = len(starts), len(values)
    witness = {"outcome": np.full(n_slices, -1, dtype=np.int64)}
    for key in ("group_high", "group_low"):
        witness[key] = np.full(n_slices, -1, dtype=np.int64)
    for key in ("prob_high", "prob_low"):
        witness[key] = np.full(n_slices, np.nan)
    active = (count >= 2) & ~np.isnan(per_outcome).all(axis=1)
    if active.any():
        column = np.zeros(n_slices, dtype=np.intp)
        column[active] = np.nanargmax(per_outcome[active], axis=1)
        witness["outcome"][active] = column[active]
        rows = np.arange(n_rows)
        sizes = _segment_ends(starts, n_rows) - starts
        owner = np.repeat(np.arange(n_slices), sizes)
        picked = values[rows, column[owner]]
        for side, extreme in (("high", high), ("low", low)):
            # The first populated row, in slice order, holding the extreme.
            at_extreme = extreme[np.arange(n_slices), column][owner]
            hit = np.where(populated & (picked == at_extreme), rows, n_rows)
            first = segment_reduce(np.minimum, hit, starts)[active]
            witness[f"group_{side}"][active] = first - starts[active]
            witness[f"prob_{side}"][active] = picked[first]
    return {**witness, "epsilon": epsilon, "per_outcome": per_outcome}


def witness_batch(
    stack: np.ndarray, group_mass=None, validate: bool = False
) -> dict[str, np.ndarray]:
    """Witness coordinates of every draw's epsilon, vectorised.

    Returns a dict of ``(n_draws,)`` arrays:

    ``outcome``
        Column index of the witnessing outcome (first column achieving the
        maximal per-outcome epsilon, matching the pointwise tie-break).
    ``group_high`` / ``group_low``
        Row indices of the groups achieving the extreme probabilities
        (first extreme in row order among populated groups).
    ``prob_high`` / ``prob_low``
        The witnessed probabilities.
    ``epsilon``
        The per-draw epsilon, as from :func:`epsilon_batch`.
    ``per_outcome``
        The ``(n_draws, n_outcomes)`` per-outcome epsilons, as from
        :func:`per_outcome_epsilon_batch` (returned so callers needing
        both the witness and the per-outcome table pay one kernel pass).

    Draws with fewer than two populated groups carry index ``-1`` and NaN
    probabilities: their epsilon is vacuously zero and has no witness.
    """
    stack = _as_stack(stack)
    n_draws, n_groups, n_outcomes = stack.shape
    return segment_witness(
        stack.reshape(-1, n_outcomes),
        np.arange(n_draws) * n_groups,
        None if group_mass is None else np.tile(group_mass, n_draws),
        validate,
    )
