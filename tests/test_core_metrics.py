"""Tests for repro.core.metrics: the FairnessMetric contract and registry,
the count kernels, and bit-identity with the legacy row-level algorithms.

The kernels promise *bit-identity* with the mask-based row-level code they
replaced: rates from integer counts (``positive / total``) are the same
IEEE division ``np.mean`` performs on 0/1 flag slices (0/1 sums are exact
in any order), and the extrema/log/subtraction steps are the same scalar
operations applied to the same floats. The references here re-implement
the *old* list-comprehension path independently, so a kernel regression
cannot hide behind the adapters (which now call the kernels)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.metrics import (
    FairnessMetric,
    alpha_intersectional_counts,
    calibration_cell_stats,
    demographic_parity_difference_counts,
    demographic_parity_epsilon_counts,
    demographic_parity_ratio_counts,
    equalized_odds_gap_counts,
    factorize_labels,
    get_metric,
    group_outcome_counts,
    metric_values,
    outcome_rate_stack,
    positive_rate_stack,
    register_metric,
    registered_metrics,
    subgroup_violation_counts,
    unregister_metric,
    worst_case_gap_counts,
    worst_case_ratio_counts,
)
from repro.core.sweep import metric_subset_sweep
from repro.exceptions import ValidationError
from repro.metrics import (
    demographic_parity_difference,
    demographic_parity_epsilon,
    demographic_parity_ratio,
    statistical_parity_subgroup_fairness,
)
from repro.tabular.table import Table

# Mixed-type group labels: distinct str/int/float/None/bool values, with
# the 1 == True == 1.0 hash-collapse trap included on purpose.
GROUP_POOL = [0, 1, True, 1.0, "1", "F", "M", 2.5, None]


# ----------------------------------------------------------------------
# Independent legacy references (the pre-port mask-based algorithms)
# ----------------------------------------------------------------------
def legacy_rates(predictions, groups, positive):
    """sorted(set(...), key=str) levels -> flags[mask].mean()."""
    flags = np.asarray(
        [1.0 if p == positive else 0.0 for p in predictions], dtype=float
    )
    levels = sorted(set(groups), key=str)
    return [
        float(flags[np.asarray([g == level for g in groups])].mean())
        for level in levels
    ]


def legacy_log_side(high, low):
    if high == 0.0:
        return None  # vacuous side: nobody receives the outcome
    if low == 0.0:
        return math.inf
    return float(np.log(np.float64(high) / np.float64(low)))


def legacy_epsilon(rates):
    sides = [
        legacy_log_side(max(rates), min(rates)),
        legacy_log_side(1.0 - min(rates), 1.0 - max(rates)),
    ]
    sides = [side for side in sides if side is not None]
    return max(sides) if sides else 0.0


def legacy_subgroup_worst(predictions, groups, positive):
    flags = np.asarray(
        [1.0 if p == positive else 0.0 for p in predictions], dtype=float
    )
    base = float(flags.mean())
    worst = -math.inf
    for level in sorted(set(groups), key=str):
        mask = np.asarray([g == level for g in groups])
        rate = float(flags[mask].mean())
        mass = float(mask.sum() / len(groups))
        worst = max(worst, mass * abs(rate - base))
    return worst


@st.composite
def prediction_tables(draw, min_groups=1, max_rows=40):
    """(predictions, groups) with 0/1 predictions and mixed-type groups."""
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, 1), st.sampled_from(GROUP_POOL)),
            min_size=1,
            max_size=max_rows,
        )
    )
    predictions = [p for p, _ in rows]
    groups = [g for _, g in rows]
    assume(len(set(groups)) >= min_groups)
    return predictions, groups


def counts_from_rows(predictions, groups, positive=1):
    levels, codes = factorize_labels(groups)
    flags = np.asarray(
        [1.0 if p == positive else 0.0 for p in predictions], dtype=float
    )
    return group_outcome_counts(codes, flags, len(levels))


# ----------------------------------------------------------------------
# Bit-identity: count kernels vs the legacy row-level algorithms
# ----------------------------------------------------------------------
class TestKernelBitIdentity:
    @settings(max_examples=200, deadline=None)
    @given(prediction_tables(min_groups=2))
    def test_demographic_parity_family(self, table):
        predictions, groups = table
        counts = counts_from_rows(predictions, groups)
        rates = legacy_rates(predictions, groups, positive=1)

        difference = float(demographic_parity_difference_counts(counts))
        assert difference == max(rates) - min(rates)

        ratio = float(demographic_parity_ratio_counts(counts))
        expected = 1.0 if max(rates) == 0.0 else min(rates) / max(rates)
        assert ratio == expected

        epsilon = float(demographic_parity_epsilon_counts(counts))
        assert epsilon == legacy_epsilon(rates)

    @settings(max_examples=200, deadline=None)
    @given(prediction_tables(min_groups=2))
    def test_adapters_delegate_to_the_kernels(self, table):
        predictions, groups = table
        counts = counts_from_rows(predictions, groups)
        assert demographic_parity_difference(
            predictions, groups, positive=1
        ) == float(demographic_parity_difference_counts(counts))
        assert demographic_parity_ratio(
            predictions, groups, positive=1
        ) == float(demographic_parity_ratio_counts(counts))
        assert demographic_parity_epsilon(
            predictions, groups, positive=1
        ) == float(demographic_parity_epsilon_counts(counts))

    @settings(max_examples=200, deadline=None)
    @given(prediction_tables(min_groups=1))
    def test_subgroup_violation(self, table):
        predictions, groups = table
        counts = counts_from_rows(predictions, groups)
        assert float(subgroup_violation_counts(counts)) == (
            legacy_subgroup_worst(predictions, groups, positive=1)
        )
        violations = statistical_parity_subgroup_fairness(
            predictions, groups, positive=1
        )
        assert max(v.violation for v in violations) == float(
            subgroup_violation_counts(counts)
        )

    @settings(max_examples=150, deadline=None)
    @given(prediction_tables(min_groups=2))
    def test_rate_stack_matches_mask_means(self, table):
        predictions, groups = table
        counts = counts_from_rows(predictions, groups)
        rates, mass = positive_rate_stack(counts)
        # Level *order* is ambiguous when two levels share a str key
        # (e.g. 1 vs "1"); the rate multiset is what must match.
        assert sorted(rates.tolist()) == sorted(
            legacy_rates(predictions, groups, 1)
        )
        assert mass.sum() == len(predictions)


class TestKernelEdges:
    def test_padded_and_empty_groups_are_excluded(self):
        counts = np.array(
            [[3.0, 1.0], [np.nan, np.nan], [0.0, 0.0], [1.0, 3.0]]
        )
        rates, mass = positive_rate_stack(counts)
        assert mass.tolist() == [4.0, 0.0, 0.0, 4.0]
        assert np.isnan(rates[1]) and np.isnan(rates[2])
        assert float(demographic_parity_difference_counts(counts)) == 0.5

    def test_single_group_per_label_edge(self):
        # One populated group: no pairwise comparison exists.
        counts = np.array([[3.0, 1.0], [0.0, 0.0]])
        assert math.isnan(float(demographic_parity_difference_counts(counts)))
        assert math.isnan(float(demographic_parity_epsilon_counts(counts)))
        assert math.isnan(float(worst_case_gap_counts(counts)))
        # ...but the Kearns violation is defined (trivially zero).
        assert float(subgroup_violation_counts(counts)) == 0.0

    def test_empty_slice_is_nan_everywhere(self):
        counts = np.zeros((2, 2))
        for name in registered_metrics():
            assert math.isnan(float(get_metric(name)(counts)))

    def test_stacked_batch_matches_per_slice_calls(self):
        rng = np.random.default_rng(0)
        stack = rng.integers(0, 9, size=(5, 4, 3)).astype(float)
        stack[2, -1] = np.nan  # padded group in slice 2
        batched = metric_values(stack)
        for row in range(5):
            single = metric_values(stack[row])
            for name, column in batched.items():
                one = float(single[name])
                assert float(column[row]) == one or (
                    math.isnan(float(column[row])) and math.isnan(one)
                )

    def test_input_validation(self):
        with pytest.raises(ValidationError, match="n_groups"):
            outcome_rate_stack(np.array([1.0, 2.0]))
        with pytest.raises(ValidationError, match="two outcome"):
            outcome_rate_stack(np.array([[1.0], [2.0]]))
        with pytest.raises(ValidationError, match="non-negative"):
            outcome_rate_stack(np.array([[1.0, -2.0]]))


# ----------------------------------------------------------------------
# The PAPERS.md backends: Ghosh et al. 2021 and Maheshwari et al. 2023
# ----------------------------------------------------------------------
class TestWorstCaseComparisons:
    @settings(max_examples=150, deadline=None)
    @given(prediction_tables(min_groups=2))
    def test_worst_case_dominates_the_positive_outcome_view(self, table):
        predictions, groups = table
        counts = counts_from_rows(predictions, groups)
        gap = float(worst_case_gap_counts(counts))
        ratio = float(worst_case_ratio_counts(counts))
        assert gap >= float(demographic_parity_difference_counts(counts))
        assert ratio <= float(demographic_parity_ratio_counts(counts))
        assert 0.0 <= gap <= 1.0 and 0.0 <= ratio <= 1.0

    def test_binary_outcome_gap_is_symmetric(self):
        counts = np.array([[6.0, 2.0], [1.0, 7.0]])
        # Binary rates sum to 1 per group, so both outcomes carry the
        # same gap and the worst case equals the demographic-parity one.
        assert float(worst_case_gap_counts(counts)) == pytest.approx(
            float(demographic_parity_difference_counts(counts))
        )

    def test_three_outcomes_catch_a_hidden_disparity(self):
        # Positive rates are equal, but the first two outcomes differ:
        # the demographic-parity view sees nothing, the worst case does.
        counts = np.array([[8.0, 0.0, 2.0], [0.0, 8.0, 2.0]])
        assert float(demographic_parity_difference_counts(counts)) == 0.0
        assert float(worst_case_gap_counts(counts)) == 0.8
        assert float(worst_case_ratio_counts(counts)) == 0.0

    def test_vacuous_outcome_is_neutral_in_ratio_form(self):
        counts = np.array([[4.0, 0.0, 4.0], [2.0, 0.0, 6.0]])
        assert float(worst_case_ratio_counts(counts)) == 0.5


class TestAlphaIntersectional:
    @settings(max_examples=150, deadline=None)
    @given(
        prediction_tables(min_groups=2),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_closed_form_identity(self, table, alpha):
        predictions, groups = table
        counts = counts_from_rows(predictions, groups)
        rates = legacy_rates(predictions, groups, positive=1)
        # alpha*(max-min) + (1-alpha)*(1-min) == alpha*max - min + (1-alpha)
        assert float(
            alpha_intersectional_counts(counts, alpha)
        ) == pytest.approx(alpha * max(rates) - min(rates) + (1.0 - alpha))

    def test_pure_gap_and_pure_shortfall_endpoints(self):
        counts = np.array([[5.0, 5.0], [2.0, 8.0]])  # rates 0.5 and 0.8
        assert float(alpha_intersectional_counts(counts, 1.0)) == float(
            demographic_parity_difference_counts(counts)
        )
        assert float(
            alpha_intersectional_counts(counts, 0.0)
        ) == pytest.approx(0.5)

    def test_leveling_down_is_penalised_not_rewarded(self):
        # rates 0.5 / 0.8 -> level everyone down to 0.3 / 0.5. The pure
        # gap *shrinks* (0.3 -> 0.2: looks like progress). The measure
        # moves by alpha * d(max) - d(min) = 0.2 - 0.3 * alpha, so any
        # alpha weighting the shortfall enough (here < 2/3, covering the
        # 0.5 default) sees through the leveling-down and *rises*.
        before = np.array([[5.0, 5.0], [2.0, 8.0]])
        after = np.array([[7.0, 3.0], [5.0, 5.0]])
        gap_before = float(demographic_parity_difference_counts(before))
        gap_after = float(demographic_parity_difference_counts(after))
        assert gap_after < gap_before  # the gap metric is fooled
        for alpha in (0.0, 0.25, 0.5):
            assert float(
                alpha_intersectional_counts(after, alpha)
            ) > float(alpha_intersectional_counts(before, alpha))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(2, 9), min_size=2, max_size=5),
        st.integers(1, 3),
        st.floats(0.0, 0.99, allow_nan=False),
    )
    def test_uniform_degradation_raises_the_measure(
        self, positives, delta, alpha
    ):
        # Every group loses `delta` positives out of 10: max and min both
        # drop by delta/10, the gap is unchanged, the shortfall grows.
        assume(min(positives) - delta >= 0)
        build = lambda ks: np.stack(
            [np.asarray([10.0 - k, k]) for k in ks]
        )
        before = build(positives)
        after = build([k - delta for k in positives])
        assert float(alpha_intersectional_counts(after, alpha)) > float(
            alpha_intersectional_counts(before, alpha)
        )
        assert float(alpha_intersectional_counts(after, 1.0)) == pytest.approx(
            float(alpha_intersectional_counts(before, 1.0))
        )

    def test_alpha_validated(self):
        counts = np.array([[1.0, 1.0], [1.0, 1.0]])
        for alpha in (-0.1, 1.5, math.nan):
            with pytest.raises(ValidationError, match="alpha"):
                alpha_intersectional_counts(counts, alpha)


# ----------------------------------------------------------------------
# Kernels with extra structure: equalized odds and calibration
# ----------------------------------------------------------------------
class TestEqualizedOddsKernel:
    def test_max_over_labels(self):
        # label 0: TNR-side gap 0.5; label 1: TPR gap 0.25.
        counts = np.array(
            [
                [[2.0, 2.0], [4.0, 0.0]],
                [[1.0, 3.0], [0.0, 4.0]],
            ]
        )
        assert float(equalized_odds_gap_counts(counts)) == 0.5

    def test_label_in_one_group_constrains_nothing(self):
        counts = np.array(
            [
                [[2.0, 2.0], [0.0, 0.0]],  # label 0 only in group 0
                [[1.0, 3.0], [2.0, 2.0]],  # label 1 in both
            ]
        )
        assert float(equalized_odds_gap_counts(counts)) == 0.25

    def test_no_common_label_is_nan_not_zero(self):
        counts = np.array(
            [
                [[2.0, 2.0], [0.0, 0.0]],
                [[0.0, 0.0], [1.0, 3.0]],
            ]
        )
        assert math.isnan(float(equalized_odds_gap_counts(counts)))

    def test_needs_a_label_axis(self):
        with pytest.raises(ValidationError, match="n_labels"):
            equalized_odds_gap_counts(np.array([[1.0, 2.0]]))


class TestCalibrationCellStats:
    def test_matches_mask_based_cell_means(self, rng):
        n = 300
        scores = rng.random(n)
        flags = (rng.random(n) < scores).astype(float)
        cells = rng.integers(0, 4, size=n)
        counts = np.bincount(cells, minlength=4).astype(float)
        positives = np.bincount(cells, weights=flags, minlength=4)
        sums = np.asarray(
            [scores[cells == c].sum() for c in range(4)]
        )
        mean_score, positive_rate, gap = calibration_cell_stats(
            counts, positives, sums
        )
        for c in range(4):
            member = scores[cells == c]
            assert mean_score[c] == member.mean()
            assert positive_rate[c] == flags[cells == c].mean()
            assert gap[c] == abs(positive_rate[c] - mean_score[c])

    def test_empty_cells_are_nan(self):
        mean_score, positive_rate, gap = calibration_cell_stats(
            [2.0, 0.0], [1.0, 0.0], [0.8, 0.0]
        )
        assert mean_score[0] == 0.4 and positive_rate[0] == 0.5
        assert np.isnan([mean_score[1], positive_rate[1], gap[1]]).all()

    def test_shape_and_sign_validation(self):
        with pytest.raises(ValidationError, match="share one shape"):
            calibration_cell_stats([1.0], [1.0, 2.0], [0.5])
        with pytest.raises(ValidationError, match="non-negative"):
            calibration_cell_stats([-1.0], [0.0], [0.0])


# ----------------------------------------------------------------------
# factorize_labels: the vectorised grouping shared by every adapter
# ----------------------------------------------------------------------
class TestFactorizeLabels:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(GROUP_POOL), min_size=1, max_size=40))
    def test_levels_and_codes_reproduce_the_legacy_grouping(self, values):
        levels, codes = factorize_labels(values)
        # Same distinct levels as set(), in str order (ties — e.g. 1 vs
        # "1", both str "1" — are broken by first appearance).
        assert set(levels) == set(values)
        assert [str(level) for level in levels] == sorted(
            str(level) for level in levels
        )
        for value, code in zip(values, codes):
            assert value == levels[code]

    def test_hash_collapse_keeps_the_first_seen_representative(self):
        levels, codes = factorize_labels([True, 1, 1.0, "x"])
        assert levels == [True, "x"]  # 1 == 1.0 == True collapse
        assert codes.tolist() == [0, 0, 0, 1]

    def test_mixed_types_do_not_raise(self):
        # np.unique would raise '<' not supported between str and int here.
        levels, codes = factorize_labels([1, "F", None, 2.5, "F"])
        assert len(levels) == 4 and codes.tolist() == [0, 2, 3, 1, 2]


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
class TestRegistry:
    BUILTINS = (
        "demographic_parity_difference",
        "demographic_parity_ratio",
        "demographic_parity_epsilon",
        "subgroup_fairness",
        "worst_case_gap",
        "worst_case_ratio",
        "alpha_intersectional",
    )

    def test_builtins_registered_in_order(self):
        assert registered_metrics()[:7] == self.BUILTINS
        for name in self.BUILTINS:
            metric = get_metric(name)
            assert metric.name == name and metric.description

    def test_ratio_metrics_declare_their_polarity(self):
        assert not get_metric("demographic_parity_ratio").higher_is_unfair
        assert not get_metric("worst_case_ratio").higher_is_unfair
        assert get_metric("worst_case_gap").higher_is_unfair

    def test_unknown_names_fail_listing_the_registry(self):
        with pytest.raises(ValidationError, match="demographic_parity_ratio"):
            get_metric("sentiment")
        with pytest.raises(ValidationError, match="unknown metric"):
            unregister_metric("sentiment")
        with pytest.raises(ValidationError, match="unknown metric"):
            metric_values(np.ones((2, 2)), ["sentiment"])

    def test_register_unregister_round_trip(self):
        metric = FairnessMetric(
            name="test_gap_squared",
            kernel=lambda counts, starts: (
                demographic_parity_difference_counts(counts) ** 2
            ),
            description="squared gap (test)",
        )
        register_metric(metric)
        try:
            assert "test_gap_squared" in registered_metrics()
            counts = np.array([[1.0, 3.0], [3.0, 1.0]])
            assert float(get_metric("test_gap_squared")(counts)) == 0.25
            with pytest.raises(ValidationError, match="already registered"):
                register_metric(metric)
            register_metric(metric, overwrite=True)  # idempotent escape
        finally:
            assert unregister_metric("test_gap_squared") is metric
        assert "test_gap_squared" not in registered_metrics()

    def test_custom_metric_flows_through_the_sweep(self, hiring_table):
        register_metric(
            FairnessMetric(
                name="test_constant",
                kernel=lambda counts, starts: np.full(len(starts), 7.0),
                description="constant (test)",
            )
        )
        try:
            sweep = metric_subset_sweep(
                hiring_table, ["gender", "race"], "hired"
            )
            assert "test_constant" in sweep.metric_names
            assert all(
                row["test_constant"] == 7.0 for row in sweep.table.values()
            )
        finally:
            unregister_metric("test_constant")

    def test_contract_validation(self):
        with pytest.raises(ValidationError, match="name"):
            FairnessMetric(name=" ", kernel=lambda c: c, description="d")
        with pytest.raises(ValidationError, match="callable"):
            FairnessMetric(name="x", kernel=None, description="d")
        with pytest.raises(ValidationError, match="FairnessMetric"):
            register_metric(lambda counts: counts)

    def test_metric_values_selects_and_orders(self):
        counts = np.array([[1.0, 3.0], [3.0, 1.0]])
        values = metric_values(counts)
        assert tuple(values) == registered_metrics()
        subset = metric_values(
            counts, ["worst_case_gap", "demographic_parity_ratio"]
        )
        assert tuple(subset) == (
            "worst_case_gap",
            "demographic_parity_ratio",
        )
        assert float(subset["worst_case_gap"]) == 0.5


# ----------------------------------------------------------------------
# The sweep engine: one stacked pass == per-subset standalone calls
# ----------------------------------------------------------------------
class TestMetricSweepBitIdentity:
    def rows(self, n=240, seed=17):
        rng = np.random.default_rng(seed)
        return [
            (
                f"g{rng.integers(2)}",
                f"r{rng.integers(3)}",
                f"n{rng.integers(2)}",
                "yes" if rng.random() < 0.3 + 0.2 * rng.integers(2) else "no",
            )
            for _ in range(n)
        ]

    def test_every_subset_and_metric_matches_the_standalone_path(self):
        rows = self.rows()
        names = ["gender", "race", "nation"]
        table = Table.from_rows([*names, "hired"], rows)
        sweep = metric_subset_sweep(table, names, "hired")
        assert sweep.positive_outcome == "yes"
        assert len(sweep.table) == 2 ** len(names) - 1

        for subset in sweep.table:
            indices = [names.index(attr) for attr in subset]
            groups = [tuple(row[i] for i in indices) for row in rows]
            predictions = [row[-1] for row in rows]
            expected = {
                "demographic_parity_difference": (
                    demographic_parity_difference(
                        predictions, groups, positive="yes"
                    )
                ),
                "demographic_parity_ratio": demographic_parity_ratio(
                    predictions, groups, positive="yes"
                ),
                "demographic_parity_epsilon": demographic_parity_epsilon(
                    predictions, groups, positive="yes"
                ),
                "subgroup_fairness": max(
                    v.violation
                    for v in statistical_parity_subgroup_fairness(
                        predictions, groups, positive="yes"
                    )
                ),
            }
            for metric, value in expected.items():
                assert sweep.value(subset, metric) == value, (subset, metric)

    def test_sweep_accepts_a_metric_subset_and_rejects_unknowns(self):
        table = Table.from_rows(
            ["gender", "hired"],
            [("F", "yes"), ("F", "no"), ("M", "yes"), ("M", "yes")],
        )
        sweep = metric_subset_sweep(
            table, ["gender"], "hired", metrics=["worst_case_gap"]
        )
        assert sweep.metric_names == ("worst_case_gap",)
        assert sweep.value("gender", "worst_case_gap") == 0.5
        with pytest.raises(ValidationError, match="not swept"):
            sweep.value("gender", "demographic_parity_ratio")
        with pytest.raises(ValidationError, match="unknown metric"):
            metric_subset_sweep(table, ["gender"], "hired", metrics=["ghost"])
