"""Tests for repro.core.sweep — the one-pass subset-sweep engine.

Three contracts are pinned down here:

* the engine's point sweep is *bit-identical* to the seed path (one
  ``edf_from_contingency`` per marginalised subset), for both estimators
  and including empty-group / zero-cell / vacuous-subset conventions;
* ``posterior_subset_sweep``'s marginalised draws are exact posterior
  samples: bit-identical to :func:`posterior_epsilon_samples` for the
  full intersection, and distributed as fresh per-subset Dirichlet draws
  (aggregated prior) for every proper subset (KS + moment checks);
* the vectorised :func:`privacy_violations` returns exactly the looped
  implementation's triples.

A property-based oracle ties the three segment-kernel sweeps (point,
metric, posterior) to their per-subset references on random tensors, and
the posterior sweep's draw blocks are pinned: their width changes no bit,
the shared generator ends where one whole draw leaves it, and the peak
memory does not grow with the number of draws.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from repro.core import sweep as sweep_module
from repro.core.batch import epsilon_batch
from repro.core.bayesian import posterior_epsilon, posterior_epsilon_samples
from repro.core.empirical import edf_from_contingency
from repro.core.epsilon import epsilon_from_probabilities
from repro.core.estimators import MLEEstimator, ProbabilityEstimator
from repro.core.metrics import get_metric, registered_metrics
from repro.core.privacy import posterior_group_probabilities, privacy_violations
from repro.core.subsets import all_nonempty_subsets, subset_sweep
from repro.core.sweep import (
    PosteriorSubsetSweep,
    marginal_count_lattice,
    metric_sweep_results,
    posterior_subset_sweep,
    sweep_results,
)
from repro.distributions.dirichlet import GroupOutcomePosterior
from repro.exceptions import ValidationError
from repro.tabular.crosstab import ContingencyTable
from repro.tabular.table import Table


def random_contingency(
    seed: int,
    level_counts=(2, 3, 2),
    n_outcomes: int = 3,
    empty_group_slices=(),
    zero_cells=(),
) -> ContingencyTable:
    rng = np.random.default_rng(seed)
    shape = tuple(level_counts) + (n_outcomes,)
    counts = rng.integers(1, 40, size=shape).astype(float)
    for index in empty_group_slices:
        counts[index] = 0.0
    for index in zero_cells:
        counts[index] = 0.0
    names = [f"attr{axis}" for axis in range(len(level_counts))]
    levels = [
        tuple(f"l{axis}{code}" for code in range(count))
        for axis, count in enumerate(level_counts)
    ]
    return ContingencyTable(
        counts, names, levels, "y", tuple(f"y{i}" for i in range(n_outcomes))
    )


def seed_path_results(contingency, estimator=None):
    """The seed implementation of subset_sweep's body, verbatim in spirit."""
    results = {}
    for subset in all_nonempty_subsets(contingency.factor_names):
        marginal = contingency.marginalize(list(subset))
        results[subset] = edf_from_contingency(marginal, estimator)
    return results


def assert_results_identical(got, want):
    assert set(got) == set(want)
    for subset, reference in want.items():
        result = got[subset]
        assert result.epsilon == reference.epsilon or (
            math.isinf(result.epsilon) and math.isinf(reference.epsilon)
        ), subset
        assert np.array_equal(
            result.probabilities, reference.probabilities, equal_nan=True
        ), subset
        assert np.array_equal(result.group_mass, reference.group_mass), subset
        assert result.group_labels == reference.group_labels
        assert result.attribute_names == reference.attribute_names
        assert result.outcome_levels == reference.outcome_levels
        assert result.estimator == reference.estimator
        for outcome, want_eps in reference.per_outcome.items():
            got_eps = result.per_outcome[outcome]
            assert (math.isnan(want_eps) and math.isnan(got_eps)) or (
                got_eps == want_eps
            ), (subset, outcome)
        assert (result.witness is None) == (reference.witness is None), subset
        if reference.witness is not None:
            assert result.witness == reference.witness, subset


class TestPointSweepAgainstSeedPath:
    @pytest.mark.parametrize("estimator", [None, 1.0, 0.25])
    def test_clean_counts(self, estimator):
        contingency = random_contingency(seed=0)
        assert_results_identical(
            sweep_results(contingency, estimator),
            seed_path_results(contingency, estimator),
        )

    @pytest.mark.parametrize("estimator", [None, 1.0])
    def test_empty_groups(self, estimator):
        # A whole (attr0=l00, attr1=l11) slice is unobserved: its groups
        # are excluded from the intersection and partially from subsets.
        contingency = random_contingency(
            seed=1, empty_group_slices=[(0, 1)]
        )
        assert_results_identical(
            sweep_results(contingency, estimator),
            seed_path_results(contingency, estimator),
        )

    def test_zero_cells_give_matching_infinities(self):
        # An outcome impossible for one group but not others: epsilon inf
        # under the plug-in estimator, finite under smoothing.
        contingency = random_contingency(seed=2, zero_cells=[(0, 0, 0, 0)])
        plug_in = sweep_results(contingency, None)
        assert math.isinf(
            plug_in[tuple(contingency.factor_names)].epsilon
        )
        assert_results_identical(plug_in, seed_path_results(contingency, None))
        assert_results_identical(
            sweep_results(contingency, 1.0), seed_path_results(contingency, 1.0)
        )

    def test_vacuous_subsets(self):
        # Only one populated level of attr0: the (attr0,) subset has a
        # single populated group, so its epsilon is vacuously zero.
        contingency = random_contingency(
            seed=3, level_counts=(2, 2), n_outcomes=2, empty_group_slices=[(1,)]
        )
        results = sweep_results(contingency)
        reference = seed_path_results(contingency)
        assert results[("attr0",)].epsilon == 0.0
        assert results[("attr0",)].witness is None
        assert_results_identical(results, reference)

    def test_single_attribute(self):
        contingency = random_contingency(seed=4, level_counts=(4,))
        assert_results_identical(
            sweep_results(contingency), seed_path_results(contingency)
        )

    def test_subset_sweep_wires_through_engine(self, hiring_table):
        sweep = subset_sweep(
            hiring_table, protected=["gender", "race"], outcome="hired"
        )
        assert sweep.full_epsilon == pytest.approx(math.log(3))
        contingency = ContingencyTable.from_table(
            hiring_table, ["gender", "race"], "hired"
        )
        assert_results_identical(
            sweep.results, seed_path_results(contingency)
        )


class TestMarginalCountLattice:
    def test_matches_direct_root_sums(self):
        rng = np.random.default_rng(5)
        tensor = rng.random((2, 3, 4, 2))
        lattice = marginal_count_lattice(tensor, 3)
        assert np.allclose(lattice[(0, 1, 2)], tensor)
        assert np.allclose(lattice[(0, 2)], tensor.sum(axis=1))
        assert np.allclose(lattice[(1,)], tensor.sum(axis=(0, 2)))
        assert len(lattice) == 7

    def test_integer_counts_are_exact(self):
        rng = np.random.default_rng(6)
        tensor = rng.integers(0, 100, size=(2, 2, 3, 2)).astype(float)
        lattice = marginal_count_lattice(tensor, 3)
        assert np.array_equal(lattice[(2,)], tensor.sum(axis=(0, 1)))
        assert np.array_equal(lattice[(0,)], tensor.sum(axis=(1, 2)))

    def test_lead_axes_preserved(self):
        rng = np.random.default_rng(7)
        tensor = rng.random((5, 2, 3, 2))
        lattice = marginal_count_lattice(tensor, 2, lead_axes=1)
        assert lattice[(0,)].shape == (5, 2, 2)
        assert np.allclose(lattice[(1,)], tensor.sum(axis=1))

    def test_validation(self):
        with pytest.raises(ValidationError):
            marginal_count_lattice(np.zeros((2, 2)), 0)
        with pytest.raises(ValidationError):
            marginal_count_lattice(np.zeros(3), 2, lead_axes=1)


class TestPosteriorSubsetSweep:
    def test_full_intersection_bit_identical_to_posterior_epsilon(self):
        contingency = random_contingency(seed=8, empty_group_slices=[(1, 2)])
        sweep = posterior_subset_sweep(
            contingency, alpha=1.0, n_samples=250, seed=42
        )
        reference = posterior_epsilon_samples(
            contingency, alpha=1.0, n_samples=250, seed=42
        )
        assert np.array_equal(
            sweep.epsilon_samples(contingency.factor_names), reference
        )
        summary = posterior_epsilon(
            contingency, alpha=1.0, n_samples=250, seed=42
        )
        assert sweep.full == summary

    @pytest.mark.parametrize(
        "subset,collapsed",
        [(("attr0",), 6), (("attr0", "attr1"), 2), (("attr1", "attr2"), 2)],
    )
    def test_marginalised_draws_match_fresh_sampling(self, subset, collapsed):
        """KS + moment checks against exact per-subset Dirichlet draws.

        The exact marginal posterior of a subset under the joint Dirichlet
        model aggregates the per-cell prior: a subset cell that collapses
        ``m`` intersectional cells has concentration ``counts + m*alpha``.
        """
        contingency = random_contingency(seed=9)
        n = 4000
        sweep = posterior_subset_sweep(
            contingency, alpha=1.0, n_samples=n, seed=10
        )
        marginal = contingency.marginalize(list(subset))
        fresh_posterior = GroupOutcomePosterior(
            marginal.group_outcome_matrix()[0],
            prior_concentration=collapsed * 1.0,
        )
        fresh = epsilon_batch(
            fresh_posterior.sample_matrices(n, np.random.default_rng(77))
        )
        got = sweep.epsilon_samples(subset)
        ks = stats.ks_2samp(got, fresh)
        assert ks.pvalue > 0.01, (subset, ks)
        assert abs(got.mean() - fresh.mean()) < 5 * fresh.std() / math.sqrt(n)
        assert abs(got.std() - fresh.std()) < 0.15 * fresh.std() + 1e-9

    def test_wrong_prior_is_detectably_different(self):
        """The aggregated prior matters: naive per-subset alpha=1 sampling
        is a *different* distribution (sanity check that the KS test above
        has power). Small counts, where the prior's weight is visible."""
        rng = np.random.default_rng(16)
        counts = rng.integers(0, 5, size=(2, 3, 2, 2)).astype(float)
        contingency = ContingencyTable(
            counts,
            ["attr0", "attr1", "attr2"],
            [("a", "b"), ("p", "q", "r"), ("u", "v")],
            "y",
            ("y0", "y1"),
        )
        n = 4000
        sweep = posterior_subset_sweep(
            contingency, alpha=1.0, n_samples=n, seed=10
        )
        marginal = contingency.marginalize(["attr0"])
        naive = epsilon_batch(
            GroupOutcomePosterior(
                marginal.group_outcome_matrix()[0], prior_concentration=1.0
            ).sample_matrices(n, np.random.default_rng(78))
        )
        ks = stats.ks_2samp(sweep.epsilon_samples("attr0"), naive)
        assert ks.pvalue < 0.01

    def test_empty_subset_groups_are_excluded(self):
        contingency = random_contingency(
            seed=11, level_counts=(2, 2), n_outcomes=2, empty_group_slices=[(1,)]
        )
        sweep = posterior_subset_sweep(
            contingency, alpha=1.0, n_samples=100, seed=0
        )
        # attr0 has one populated level: epsilon is vacuously 0 per draw.
        assert np.array_equal(
            sweep.epsilon_samples("attr0"), np.zeros(100)
        )
        assert sweep.summary("attr0").mean == 0.0

    def test_covers_all_subsets(self):
        contingency = random_contingency(seed=12)
        sweep = posterior_subset_sweep(
            contingency, alpha=1.0, n_samples=50, seed=0
        )
        assert set(sweep.summaries) == set(
            all_nonempty_subsets(contingency.factor_names)
        )
        assert all(s.n_samples == 50 for s in sweep.summaries.values())

    def test_order_insensitive_lookup_and_errors(self):
        contingency = random_contingency(seed=13)
        sweep = posterior_subset_sweep(
            contingency, alpha=1.0, n_samples=20, seed=0
        )
        assert sweep.summary(["attr2", "attr0"]) is sweep.summaries[
            ("attr0", "attr2")
        ]
        with pytest.raises(ValidationError):
            sweep.summary(["height"])
        low, high = sweep.credible_interval("attr0")
        assert low <= high
        with pytest.raises(ValidationError):
            sweep.credible_interval("attr0", lower=0.25)

    def test_table_and_from_table_entry(self, hiring_table):
        sweep = posterior_subset_sweep(
            hiring_table,
            protected=["gender", "race"],
            outcome="hired",
            n_samples=30,
            seed=0,
        )
        assert isinstance(sweep, PosteriorSubsetSweep)
        text = sweep.to_text()
        assert "gender, race" in text
        assert "30 draws" in text
        with pytest.raises(ValidationError):
            posterior_subset_sweep(hiring_table, protected=["gender"])

    def test_contingency_plus_names_rejected(self):
        contingency = random_contingency(seed=14)
        with pytest.raises(ValidationError):
            posterior_subset_sweep(
                contingency, protected=["attr0"], outcome="y"
            )

    def test_n_samples_validated(self):
        with pytest.raises(ValidationError):
            posterior_subset_sweep(
                random_contingency(seed=15), n_samples=0
            )

    def test_empty_quantile_levels_render(self):
        sweep = posterior_subset_sweep(
            random_contingency(seed=17), n_samples=20, seed=0,
            quantile_levels=(),
        )
        rows = sweep.to_rows()
        assert all(len(row) == 2 for row in rows)
        text = sweep.to_text()
        assert "posterior mean" in text and "q" not in text.split("\n")[1]


class ShrinkToPool(ProbabilityEstimator):
    """A user-defined estimator that pools across the rows it is handed
    (allowed by the ABC), so it must see each subset's matrix alone."""

    name = "shrink-to-pool"

    def probabilities(self, counts):
        counts = self._validated(counts)
        plug_in = MLEEstimator().probabilities(counts)
        pooled = counts.sum(axis=0) / max(counts.sum(), 1.0)
        return 0.8 * plug_in + 0.2 * pooled


@st.composite
def sparse_contingencies(draw):
    """Random count tensors, p = 1..4 with 1-4 levels per axis and 2-3
    outcomes, rich in zero cells, empty groups, subsets with a single
    populated group and all-zero outcome columns."""
    level_counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n_outcomes = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rate = draw(st.sampled_from([0.3, 1.0, 5.0, 20.0]))
    counts = rng.poisson(rate, size=(*level_counts, n_outcomes)).astype(float)
    if draw(st.booleans()):
        counts[..., draw(st.integers(0, n_outcomes - 1))] = 0.0
    if draw(st.booleans()):
        counts[1:] = 0.0  # one populated level of attr0
    names = [f"attr{axis}" for axis in range(len(level_counts))]
    levels = [
        tuple(f"l{axis}{code}" for code in range(count))
        for axis, count in enumerate(level_counts)
    ]
    return ContingencyTable(
        counts, names, levels, "y", tuple(f"y{i}" for i in range(n_outcomes))
    )


def nan_equal(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


class TestSegmentSweepOracle:
    """Every sweep equals its per-subset reference, bit for bit."""

    @given(
        sparse_contingencies(),
        st.sampled_from([None, 0.5, 1.0, ShrinkToPool()]),
    )
    def test_point_sweep_matches_per_subset_edf(self, contingency, estimator):
        assert_results_identical(
            sweep_results(contingency, estimator),
            seed_path_results(contingency, estimator),
        )

    @given(sparse_contingencies())
    def test_metric_table_matches_each_kernel_per_subset(self, contingency):
        table = metric_sweep_results(contingency)
        for subset, row in table.items():
            matrix = contingency.marginalize(list(subset)).group_outcome_matrix()[0]
            assert tuple(row) == registered_metrics()
            for name, value in row.items():
                assert nan_equal(value, get_metric(name)(matrix)), (subset, name)

    @given(
        sparse_contingencies(),
        st.sampled_from([1, 2, 5, 7, 9, 13]),
        st.integers(0, 2**16),
    )
    def test_posterior_full_intersection_matches_posterior_epsilon(
        self, contingency, n_samples, seed
    ):
        # A one-byte budget forces the minimum block width (4 draws), so
        # most draw counts here end on a partial block.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweep_module, "_POSTERIOR_BLOCK_BYTES", 1)
            sweep = posterior_subset_sweep(
                contingency, alpha=0.5, n_samples=n_samples, seed=seed
            )
        reference = posterior_epsilon_samples(
            contingency, alpha=0.5, n_samples=n_samples, seed=seed
        )
        assert np.array_equal(
            sweep.epsilon_samples(contingency.factor_names), reference
        )


class TestPosteriorDrawBlocks:
    # A 12-level axis: its sum runs pairwise if a draw block is one draw
    # wide, so a width-1 tail block would change the marginal subsets' bits.
    CONTINGENCY = random_contingency(
        seed=40, level_counts=(2, 3, 12), n_outcomes=2
    )

    def test_block_width_changes_no_subset(self, monkeypatch):
        whole = posterior_subset_sweep(
            self.CONTINGENCY, alpha=1.0, n_samples=9, seed=5
        )
        monkeypatch.setattr(sweep_module, "_POSTERIOR_BLOCK_BYTES", 1)
        blocked = posterior_subset_sweep(
            self.CONTINGENCY, alpha=1.0, n_samples=9, seed=5
        )
        for subset, samples in whole.samples.items():
            assert np.array_equal(blocked.samples[subset], samples), subset

    def test_shared_generator_ends_where_one_draw_leaves_it(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "_POSTERIOR_BLOCK_BYTES", 1)
        shared = np.random.default_rng(11)
        posterior_subset_sweep(
            self.CONTINGENCY, alpha=1.0, n_samples=9, seed=shared
        )
        reference = np.random.default_rng(11)
        GroupOutcomePosterior(
            self.CONTINGENCY.group_outcome_matrix()[0], prior_concentration=1.0
        ).sample_gammas(9, reference)
        assert shared.bit_generator.state == reference.bit_generator.state

    def test_peak_memory_does_not_grow_with_draws(self, monkeypatch):
        # 2,000 groups in 3 subsets: a draw's lattice (33 kB) dwarfs its
        # three epsilons, so a bounded sweep keeps its peak as the draws
        # quadruple; holding every draw's lattice would quadruple it.
        contingency = random_contingency(
            seed=41, level_counts=(40, 50), n_outcomes=2
        )
        monkeypatch.setattr(sweep_module, "_POSTERIOR_BLOCK_BYTES", 2**19)

        def peak(n_samples):
            tracemalloc.start()
            try:
                posterior_subset_sweep(
                    contingency, alpha=1.0, n_samples=n_samples, seed=0
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(45)  # three blocks of 15 draws
        assert peak(4 * 45) <= 1.25 * one


class TestCustomEstimatorAgainstSeedPath:
    def test_finite_rows_for_empty_groups_still_excluded(self):
        """A custom estimator may emit finite rows for zero-count groups
        (e.g. a uniform fallback); the engine must exclude them through
        the group-mass convention exactly as the seed path does."""
        from repro.core.estimators import ProbabilityEstimator

        class UniformFallback(ProbabilityEstimator):
            name = "uniform-fallback"

            def probabilities(self, counts):
                counts = self._validated(counts)
                totals = counts.sum(axis=1, keepdims=True)
                with np.errstate(invalid="ignore", divide="ignore"):
                    probs = counts / totals
                probs[totals[:, 0] <= 0] = 1.0 / counts.shape[1]
                return probs

        contingency = random_contingency(
            seed=31, level_counts=(2, 2), n_outcomes=2, empty_group_slices=[(1,)]
        )
        estimator = UniformFallback()
        assert_results_identical(
            sweep_results(contingency, estimator),
            seed_path_results(contingency, estimator),
        )

    def test_non_row_wise_estimator_gets_per_subset_calls(self):
        """An estimator that pools across the rows it is handed (allowed
        by the ABC) must see each subset's marginal matrix on its own,
        not a concatenation of every subset's rows."""
        from repro.core.estimators import MLEEstimator, ProbabilityEstimator

        class ShrinkToPool(ProbabilityEstimator):
            name = "shrink-to-pool"

            def probabilities(self, counts):
                counts = self._validated(counts)
                plug_in = MLEEstimator().probabilities(counts)
                pooled = counts.sum(axis=0) / counts.sum()
                return 0.8 * plug_in + 0.2 * pooled

        contingency = random_contingency(seed=32)
        estimator = ShrinkToPool()
        assert_results_identical(
            sweep_results(contingency, estimator),
            seed_path_results(contingency, estimator),
        )


class TestCustomEstimatorValidation:
    def test_buggy_custom_estimator_rejected(self):
        """Built-in estimators skip row validation (valid by construction),
        but a user-defined estimator emitting invalid rows must still be
        caught — in both the engine and the pointwise path."""
        from repro.core.estimators import ProbabilityEstimator

        class Broken(ProbabilityEstimator):
            name = "broken"

            def probabilities(self, counts):
                return self._validated(counts)  # raw counts, not normalised

        contingency = random_contingency(seed=30)
        with pytest.raises(ValidationError):
            subset_sweep(contingency, estimator=Broken())
        with pytest.raises(ValidationError):
            edf_from_contingency(contingency.marginalize(["attr0"]), Broken())


def looped_privacy_violations(result, prior, tolerance=1e-9):
    """The seed implementation of privacy_violations, kept as reference."""
    posterior = posterior_group_probabilities(result.probabilities, prior)
    populated = [
        index
        for index in range(len(result.group_labels))
        if prior[index] > 0 and not np.isnan(result.probabilities[index]).any()
    ]
    violations = []
    bound = result.epsilon + tolerance
    for column, outcome in enumerate(result.outcome_levels):
        if np.isnan(posterior[:, column]).all():
            continue
        for i in populated:
            for j in populated:
                if i == j:
                    continue
                prior_odds = prior[i] / prior[j]
                post_i = posterior[i, column]
                post_j = posterior[j, column]
                if post_i == 0.0 and post_j == 0.0:
                    continue
                if post_j == 0.0 or prior_odds == 0.0:
                    continue
                shift = math.log(post_i / post_j) - math.log(prior_odds)
                if abs(shift) > bound:
                    violations.append(
                        (outcome, result.group_labels[i], result.group_labels[j])
                    )
    return violations


class TestVectorizedPrivacyViolations:
    @pytest.mark.parametrize("trial", range(8))
    def test_matches_looped_reference_on_random_matrices(self, trial):
        rng = np.random.default_rng(100 + trial)
        n_groups = int(rng.integers(2, 7))
        n_outcomes = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(n_outcomes), size=n_groups)
        result = epsilon_from_probabilities(probs)
        # Understate epsilon so violations actually appear.
        forged = epsilon_from_probabilities(probs)
        object.__setattr__(
            forged, "epsilon", float(result.epsilon) * rng.uniform(0.0, 0.9)
        )
        prior = rng.dirichlet(np.ones(n_groups))
        got = privacy_violations(forged, prior)
        want = looped_privacy_violations(forged, prior)
        assert got == want
        assert privacy_violations(result, prior) == looped_privacy_violations(
            result, prior
        )

    def test_excluded_groups_and_triple_order(self, rng):
        # Group 3 has finite probabilities but zero prior mass: it must be
        # excluded from every pair, exactly as in the looped reference.
        probs = rng.dirichlet(np.ones(3), size=4)
        forged = epsilon_from_probabilities(probs)
        object.__setattr__(forged, "epsilon", 0.001)
        prior = np.array([0.3, 0.3, 0.4, 0.0])
        got = privacy_violations(forged, prior)
        want = looped_privacy_violations(forged, prior)
        assert got == want
        assert got  # non-empty: the ordering comparison is meaningful
        # No triple may involve the excluded group.
        assert all((3,) not in (i, j) for _, i, j in got)

    def test_nan_rows_no_longer_blank_the_check(self, rng):
        """The historical loop fed NaN rows through Bayes' rule, blanking
        every posterior column and silently reporting no violations. The
        vectorised check conditions on the populated groups: the odds
        shift is invariant to restricting/renormalising the prior, so the
        populated pairs' triples equal the loop's on the populated-only
        submatrix."""
        probs = np.vstack([rng.dirichlet(np.ones(3), size=3), [[np.nan] * 3]])
        forged = epsilon_from_probabilities(probs)
        object.__setattr__(forged, "epsilon", 0.001)
        prior = np.array([0.3, 0.3, 0.2, 0.2])
        got = privacy_violations(forged, prior)
        assert looped_privacy_violations(forged, prior) == []  # the old bug
        # Reference: the loop on the populated-only submatrix (same
        # default labels, since the populated groups come first).
        sub = epsilon_from_probabilities(probs[:3])
        object.__setattr__(sub, "epsilon", 0.001)
        want = looped_privacy_violations(sub, prior[:3] / prior[:3].sum())
        assert got == want
        assert got  # violations are detected despite the excluded group

    def test_malformed_prior_rejected(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8]])
        result = epsilon_from_probabilities(probs)
        with pytest.raises(ValidationError):
            privacy_violations(result, np.array([30.0, 70.0]))
        with pytest.raises(ValidationError):
            privacy_violations(result, np.array([0.5, 0.4]))

    def test_both_zero_posteriors_skipped(self):
        # Outcome y1 impossible everywhere: both posteriors zero -> the
        # pair is skipped, exactly as in the looped implementation.
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        result = epsilon_from_probabilities(probs)
        assert privacy_violations(result, np.array([0.5, 0.5])) == []

    def test_zero_against_positive_posterior_is_reported(self):
        # P(y1 | s0) = 0 but P(y1 | s1) > 0: a -inf shift. The seed loop
        # raised a math domain error here; the vectorised check reports
        # the violating pair when the claimed bound is finite.
        probs = np.array([[1.0, 0.0], [0.5, 0.5]])
        forged = epsilon_from_probabilities(probs)
        object.__setattr__(forged, "epsilon", 1.0)
        violations = privacy_violations(forged, np.array([0.5, 0.5]))
        assert (1, (0,), (1,)) in violations


class TestAuditIntegration:
    def test_audit_dataset_has_posterior_sweep(self, hiring_table):
        from repro.audit.auditor import FairnessAuditor

        auditor = FairnessAuditor(
            ["gender", "race"], "hired", posterior_samples=40, seed=3
        )
        audit = auditor.audit_dataset(hiring_table)
        assert audit.posterior_sweep is not None
        assert set(audit.posterior_sweep.summaries) == set(audit.sweep.results)
        assert audit.posterior == audit.posterior_sweep.full
        assert audit.posterior.n_samples == 40
        text = audit.to_text()
        assert "Posterior epsilon by attribute subset" in text

    def test_report_includes_per_subset_intervals(self, hiring_table):
        from repro.audit.auditor import FairnessAuditor
        from repro.audit.report import render_dataset_report

        auditor = FairnessAuditor(
            ["gender", "race"], "hired", posterior_samples=40, seed=3
        )
        report = render_dataset_report(auditor.audit_dataset(hiring_table))
        assert "posterior mean" in report
        assert "q5" in report and "q95" in report
        assert "shared posterior draws" in report

    def test_report_with_quantile_free_sweep(self, hiring_table):
        from dataclasses import replace

        from repro.audit.auditor import FairnessAuditor
        from repro.audit.report import render_dataset_report

        auditor = FairnessAuditor(["gender", "race"], "hired")
        audit = auditor.audit_dataset(hiring_table)
        sweep = posterior_subset_sweep(
            hiring_table,
            protected=["gender", "race"],
            outcome="hired",
            n_samples=20,
            seed=0,
            quantile_levels=(),
        )
        report = render_dataset_report(replace(audit, posterior_sweep=sweep))
        assert "posterior mean" in report
        assert "| q" not in report

    def test_report_without_posterior_unchanged(self, hiring_table):
        from repro.audit.auditor import FairnessAuditor
        from repro.audit.report import render_dataset_report

        auditor = FairnessAuditor(["gender", "race"], "hired")
        report = render_dataset_report(auditor.audit_dataset(hiring_table))
        assert "posterior mean" not in report


@pytest.mark.perf
class TestPerfGuard:
    """Fast regression guards: the engine must not fall behind the naive
    per-subset loops (small sizes, generous thresholds — these catch
    accidental de-vectorisation, not small perf drift)."""

    @staticmethod
    def _best(callable_, repeats):
        best = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            callable_()
            best = min(best, time.perf_counter() - start)
        return best

    def test_point_sweep_not_slower_than_loop(self):
        contingency = random_contingency(
            seed=20, level_counts=(2, 2, 2, 2, 2), n_outcomes=2
        )
        loop_seconds = self._best(lambda: seed_path_results(contingency), 5)
        engine_seconds = self._best(lambda: subset_sweep(contingency), 5)
        assert engine_seconds < loop_seconds * 1.5

    def test_posterior_sweep_not_slower_than_loop(self):
        contingency = random_contingency(
            seed=21, level_counts=(2, 2, 2, 2), n_outcomes=2
        )

        def looped():
            rng = np.random.default_rng(0)
            for subset in all_nonempty_subsets(contingency.factor_names):
                posterior_epsilon(
                    contingency.marginalize(list(subset)),
                    alpha=1.0,
                    n_samples=200,
                    seed=rng,
                )

        loop_seconds = self._best(looped, 3)
        engine_seconds = self._best(
            lambda: posterior_subset_sweep(
                contingency, alpha=1.0, n_samples=200, seed=0
            ),
            3,
        )
        assert engine_seconds < loop_seconds * 1.5
