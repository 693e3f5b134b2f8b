"""Tests for repro.core.batch — the vectorised batch epsilon kernel.

The kernel must agree with the pointwise :func:`epsilon_from_probabilities`
draw by draw, including every edge convention: NaN rows (excluded groups),
all-zero outcome columns (outside Range(M)), zero-probability cells
(infinite epsilon), and fewer than two populated groups (vacuous zero).
"""

import math

import numpy as np
import pytest
from scipy import stats

from repro.core.batch import (
    epsilon_batch,
    per_outcome_epsilon_batch,
    segment_sum,
    segment_witness,
    witness_batch,
)
from repro.core.epsilon import epsilon_from_probabilities
from repro.distributions.dirichlet import GroupOutcomePosterior
from repro.exceptions import ValidationError


def random_stack(
    rng: np.random.Generator,
    n_draws: int,
    n_groups: int,
    n_outcomes: int,
    nan_row_rate: float = 0.0,
    zero_cell_rate: float = 0.0,
    dead_column: bool = False,
) -> np.ndarray:
    """Random probability stack exercising the kernel's edge conventions."""
    raw = rng.dirichlet(np.ones(n_outcomes), size=(n_draws, n_groups))
    if zero_cell_rate > 0:
        zeros = rng.random(raw.shape) < zero_cell_rate
        # Never zero a full row: rows must stay valid distributions.
        zeros[..., 0] = False
        raw = np.where(zeros, 0.0, raw)
    if dead_column:
        # Outcome column n-1 impossible for every group: outside Range(M).
        raw[..., -1] = 0.0
    raw = raw / raw.sum(axis=2, keepdims=True)
    if nan_row_rate > 0:
        dead_rows = rng.random((n_draws, n_groups)) < nan_row_rate
        raw[dead_rows] = np.nan
    return raw


def pointwise_epsilons(stack: np.ndarray) -> np.ndarray:
    return np.array(
        [
            epsilon_from_probabilities(matrix, validate=False).epsilon
            for matrix in stack
        ]
    )


class TestAgreementWithPointwise:
    @pytest.mark.parametrize("n_groups,n_outcomes", [(2, 2), (5, 3), (16, 4)])
    def test_clean_stacks(self, rng, n_groups, n_outcomes):
        stack = random_stack(rng, 40, n_groups, n_outcomes)
        assert np.array_equal(epsilon_batch(stack), pointwise_epsilons(stack))

    def test_nan_rows(self, rng):
        stack = random_stack(rng, 60, 6, 3, nan_row_rate=0.3)
        assert np.array_equal(epsilon_batch(stack), pointwise_epsilons(stack))

    def test_zero_cells_give_matching_infinities(self, rng):
        stack = random_stack(rng, 60, 5, 3, zero_cell_rate=0.2)
        batched = epsilon_batch(stack)
        looped = pointwise_epsilons(stack)
        assert np.isinf(batched).any()  # the regime is actually exercised
        assert np.array_equal(batched, looped)

    def test_dead_column_outside_range(self, rng):
        stack = random_stack(rng, 30, 4, 3, dead_column=True)
        batched = epsilon_batch(stack)
        assert np.array_equal(batched, pointwise_epsilons(stack))
        assert np.isfinite(batched).all()  # dead column never constrains

    def test_everything_at_once(self, rng):
        stack = random_stack(
            rng, 80, 6, 4, nan_row_rate=0.25, zero_cell_rate=0.15,
            dead_column=True,
        )
        assert np.array_equal(epsilon_batch(stack), pointwise_epsilons(stack))

    def test_per_outcome_rows_match(self, rng):
        stack = random_stack(rng, 25, 5, 3, zero_cell_rate=0.1)
        per_outcome, _ = per_outcome_epsilon_batch(stack)
        for draw, matrix in enumerate(stack):
            expected = epsilon_from_probabilities(
                matrix, validate=False
            ).per_outcome
            for column in range(stack.shape[2]):
                want = expected[column]
                got = per_outcome[draw, column]
                assert (math.isnan(want) and math.isnan(got)) or want == got


class TestVacuousDraws:
    def test_fewer_than_two_populated_groups(self):
        one_group = np.array([[[0.5, 0.5], [np.nan, np.nan]]])
        no_groups = np.full((1, 2, 2), np.nan)
        assert epsilon_batch(one_group).tolist() == [0.0]
        assert epsilon_batch(no_groups).tolist() == [0.0]

    def test_vacuous_witness_is_sentinel(self):
        witness = witness_batch(np.full((1, 3, 2), np.nan))
        assert witness["outcome"][0] == -1
        assert witness["group_high"][0] == -1
        assert math.isnan(witness["prob_high"][0])
        assert witness["epsilon"][0] == 0.0

    def test_group_mass_excludes_rows(self, rng):
        stack = random_stack(rng, 20, 4, 2)
        mass = np.array([1.0, 0.0, 2.0, 1.0])
        batched = epsilon_batch(stack, group_mass=mass)
        looped = np.array(
            [
                epsilon_from_probabilities(
                    matrix, group_mass=mass, validate=False
                ).epsilon
                for matrix in stack
            ]
        )
        assert np.array_equal(batched, looped)


class TestWitnessExtraction:
    def test_matches_pointwise_witness(self, rng):
        stack = random_stack(rng, 50, 6, 3, nan_row_rate=0.2, zero_cell_rate=0.1)
        witness = witness_batch(stack)
        for draw, matrix in enumerate(stack):
            result = epsilon_from_probabilities(matrix, validate=False)
            if result.witness is None:
                assert witness["outcome"][draw] == -1
                continue
            assert result.witness.outcome == int(witness["outcome"][draw])
            assert result.witness.group_high == (int(witness["group_high"][draw]),)
            assert result.witness.group_low == (int(witness["group_low"][draw]),)
            assert result.witness.prob_high == witness["prob_high"][draw]
            assert result.witness.prob_low == witness["prob_low"][draw]
            assert result.epsilon == witness["epsilon"][draw]


class TestValidation:
    def test_rejects_2d_input(self):
        with pytest.raises(ValidationError):
            epsilon_batch(np.ones((3, 2)))

    def test_rejects_single_outcome(self):
        with pytest.raises(ValidationError):
            epsilon_batch(np.ones((3, 2, 1)))

    def test_rejects_misaligned_mass(self, rng):
        stack = random_stack(rng, 5, 3, 2)
        with pytest.raises(ValidationError):
            epsilon_batch(stack, group_mass=[1.0])

    def test_rejects_negative_mass(self, rng):
        stack = random_stack(rng, 5, 3, 2)
        with pytest.raises(ValidationError):
            epsilon_batch(stack, group_mass=[1.0, -1.0, 1.0])

    def test_validate_flag_checks_rows(self, rng):
        stack = random_stack(rng, 5, 3, 2)
        stack[2, 1] = [0.5, 0.2]  # does not sum to one
        epsilon_batch(stack)  # off by default: Monte Carlo rows are valid
        with pytest.raises(ValidationError, match="sum to 1"):
            epsilon_batch(stack, validate=True)
        stack[2, 1] = [-0.5, 1.5]
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            epsilon_batch(stack, validate=True)


class TestSegmentKernel:
    """Slices of one concatenated matrix measure exactly as alone."""

    @staticmethod
    def assert_slice_matches_alone(witness, index, matrix):
        alone = witness_batch(matrix[None])
        for key, values in alone.items():
            assert np.array_equal(
                witness[key][index], values[0], equal_nan=True
            ), key

    def test_ragged_slices_match_standalone_stacks(self, rng):
        matrices = [
            random_stack(rng, 1, groups, 3, nan_row_rate=0.3, zero_cell_rate=0.2)[0]
            for groups in (1, 4, 2, 7, 3)
        ]
        starts = np.cumsum([0] + [len(matrix) for matrix in matrices[:-1]])
        witness = segment_witness(np.concatenate(matrices), starts)
        for index, matrix in enumerate(matrices):
            self.assert_slice_matches_alone(witness, index, matrix)

    def test_empty_slice_reads_no_neighbour(self, rng):
        # ufunc.reduceat returns the row at an empty slice's start; the
        # kernel must give the empty slice no groups instead.
        matrices = [random_stack(rng, 1, 3, 2)[0], random_stack(rng, 1, 2, 2)[0]]
        witness = segment_witness(np.concatenate(matrices), [0, 3, 3, 5])
        for index in (1, 3):
            assert witness["epsilon"][index] == 0.0
            assert witness["outcome"][index] == -1
            assert np.isnan(witness["per_outcome"][index]).all()
        self.assert_slice_matches_alone(witness, 0, matrices[0])
        self.assert_slice_matches_alone(witness, 2, matrices[1])

    def test_zero_group_stack_raises(self):
        with pytest.raises(ValidationError, match="group"):
            epsilon_batch(np.zeros((2, 0, 2)))

    def test_segment_sum_is_each_slices_own_sum(self, rng):
        values = rng.random(40) * 10
        starts = np.array([0, 0, 9, 17, 17, 40])
        sums = segment_sum(values, starts)
        bounds = [*starts, len(values)]
        for index, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            assert sums[index] == values[start:stop].sum()


class TestVectorisedSampler:
    """The gamma-normalisation sampler must match the per-group Dirichlet
    loop it replaced *in distribution* (the bit-stream consumption changed,
    so draws for a fixed seed are different variates of the same law)."""

    COUNTS = np.array([[30.0, 10.0], [5.0, 45.0], [0.0, 0.0], [12.0, 12.0]])

    @staticmethod
    def looped_reference(counts, alpha, n, seed):
        """The historical implementation: one rng.dirichlet per group per draw."""
        rng = np.random.default_rng(seed)
        stack = np.full((n, *counts.shape), np.nan)
        for draw in range(n):
            for group, row in enumerate(counts):
                if row.sum() > 0:
                    stack[draw, group] = rng.dirichlet(row + alpha)
        return stack

    def test_shapes_and_conventions(self):
        posterior = GroupOutcomePosterior(self.COUNTS, prior_concentration=1.0)
        stack = posterior.sample_matrices(9, seed=0)
        assert stack.shape == (9, 4, 2)
        assert np.isnan(stack[:, 2, :]).all()  # empty group excluded
        populated = np.delete(stack, 2, axis=1)
        assert np.allclose(populated.sum(axis=2), 1.0)
        assert (populated >= 0).all()

    def test_marginals_match_loop_distribution(self):
        """KS two-sample test per populated group's first coordinate."""
        n = 4000
        posterior = GroupOutcomePosterior(self.COUNTS, prior_concentration=1.0)
        vectorised = posterior.sample_matrices(n, seed=7)
        looped = self.looped_reference(self.COUNTS, 1.0, n, seed=11)
        for group in (0, 1, 3):
            statistic = stats.ks_2samp(
                vectorised[:, group, 0], looped[:, group, 0]
            )
            assert statistic.pvalue > 1e-3, f"group {group} marginal diverged"

    def test_moments_match_posterior(self):
        """Sample mean/variance agree with the analytic Dirichlet moments."""
        n = 20_000
        posterior = GroupOutcomePosterior(self.COUNTS, prior_concentration=1.0)
        stack = posterior.sample_matrices(n, seed=3)
        for group in (0, 1, 3):
            alpha = self.COUNTS[group] + 1.0
            total = alpha.sum()
            mean = alpha / total
            var = alpha * (total - alpha) / (total**2 * (total + 1.0))
            assert stack[:, group].mean(axis=0) == pytest.approx(mean, abs=0.01)
            assert stack[:, group].var(axis=0) == pytest.approx(
                var, rel=0.15, abs=1e-4
            )

    def test_sample_matrix_is_first_slice(self):
        posterior = GroupOutcomePosterior(self.COUNTS, prior_concentration=1.0)
        assert np.array_equal(
            posterior.sample_matrix(seed=5),
            posterior.sample_matrices(1, seed=5)[0],
            equal_nan=True,
        )

    def test_rejects_zero_draws(self):
        posterior = GroupOutcomePosterior(self.COUNTS)
        with pytest.raises(ValidationError):
            posterior.sample_matrices(0)
