"""Tests for KL-Bernoulli confidence bounds and the KL-LUCB estimator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.explain import precision
from repro.explain.precision import (
    PrecisionEstimator,
    bernoulli_lower_bound,
    bernoulli_upper_bound,
    confidence_beta,
    kl_bernoulli,
)

from tests.explain.conftest import answer_estimator_rounds


class TestKLBernoulli:
    def test_zero_when_equal(self):
        assert kl_bernoulli(0.3, 0.3) == pytest.approx(0.0, abs=1e-9)

    def test_positive_when_different(self):
        assert kl_bernoulli(0.2, 0.8) > 0.5

    def test_handles_boundary_probabilities(self):
        assert np.isfinite(kl_bernoulli(0.0, 0.5))
        assert np.isfinite(kl_bernoulli(1.0, 0.5))

    @given(
        p=st.floats(min_value=0.01, max_value=0.99),
        q=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=50, deadline=None)
    def test_non_negative(self, p, q):
        assert kl_bernoulli(p, q) >= -1e-12


class TestConfidenceBounds:
    def test_bounds_bracket_the_mean(self):
        for p_hat in (0.1, 0.5, 0.9):
            lower = bernoulli_lower_bound(p_hat, 50, beta=2.0)
            upper = bernoulli_upper_bound(p_hat, 50, beta=2.0)
            assert 0.0 <= lower <= p_hat <= upper <= 1.0

    def test_bounds_tighten_with_samples(self):
        wide = bernoulli_upper_bound(0.5, 10, beta=2.0) - bernoulli_lower_bound(0.5, 10, beta=2.0)
        narrow = bernoulli_upper_bound(0.5, 1000, beta=2.0) - bernoulli_lower_bound(0.5, 1000, beta=2.0)
        assert narrow < wide

    def test_zero_samples_gives_vacuous_bounds(self):
        assert bernoulli_upper_bound(0.0, 0, beta=1.0) == 1.0
        assert bernoulli_lower_bound(1.0, 0, beta=1.0) == 0.0

    def test_beta_increases_with_round(self):
        assert confidence_beta(10, 5, 0.05) > confidence_beta(10, 1, 0.05)

    def test_beta_increases_with_arms(self):
        assert confidence_beta(100, 1, 0.05) > confidence_beta(2, 1, 0.05)

    @given(
        p_hat=st.floats(min_value=0.0, max_value=1.0),
        n=st.integers(min_value=1, max_value=500),
        beta=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_property(self, p_hat, n, beta):
        lower = bernoulli_lower_bound(p_hat, n, beta)
        upper = bernoulli_upper_bound(p_hat, n, beta)
        assert 0.0 <= lower <= p_hat + 1e-6
        assert p_hat - 1e-6 <= upper <= 1.0


class TestBoundMemo:
    """The bisection memo serves exactly the float a fresh bisection computes."""

    GRID = [
        (0.0, 5), (0.02, 12), (0.25, 40), (0.5, 7), (0.73, 100), (1.0, 3),
    ]

    @pytest.mark.parametrize("p_hat,n", GRID)
    def test_memoised_bounds_equal_fresh_bisection(self, p_hat, n, monkeypatch):
        beta = 1.9
        with monkeypatch.context() as scope:
            scope.setattr(precision, "_BOUND_MEMO", {})
            fresh_upper = bernoulli_upper_bound(p_hat, n, beta)
            fresh_lower = bernoulli_lower_bound(p_hat, n, beta)
        # First call populates the shared memo, second serves from it; both
        # must equal the bisection on an empty memo bit for bit.
        for _ in range(2):
            assert bernoulli_upper_bound(p_hat, n, beta) == fresh_upper
            assert bernoulli_lower_bound(p_hat, n, beta) == fresh_lower

    def test_upper_and_lower_bounds_are_memoised_apart(self, monkeypatch):
        memo = {}
        monkeypatch.setattr(precision, "_BOUND_MEMO", memo)
        upper = bernoulli_upper_bound(0.4, 20, 1.5)
        lower = bernoulli_lower_bound(0.4, 20, 1.5)
        assert len(memo) == 2
        assert lower < 0.4 < upper
        assert bernoulli_upper_bound(0.4, 20, 1.5) == upper
        assert bernoulli_lower_bound(0.4, 20, 1.5) == lower

    def test_full_memo_is_cleared_not_grown(self, monkeypatch):
        memo = {}
        monkeypatch.setattr(precision, "_BOUND_MEMO", memo)
        monkeypatch.setattr(precision, "_BOUND_MEMO_LIMIT", 3)
        for n in range(1, 8):
            fresh = bernoulli_upper_bound(0.5, n, 1.0)
            assert len(memo) <= 3
            assert bernoulli_upper_bound(0.5, n, 1.0) == fresh

    def test_zero_samples_bypasses_memo(self):
        assert bernoulli_upper_bound(0.5, 0, 1.0) == 1.0
        assert bernoulli_lower_bound(0.5, 0, 1.0) == 0.0


class TestPrecisionEstimator:
    def test_selects_best_arm(self):
        estimator = PrecisionEstimator(3, max_samples=300)
        top, _ = answer_estimator_rounds(
            estimator.select_top_rounds(1), [0.2, 0.9, 0.5], seed=0
        )
        assert top == [1]

    def test_selects_top_two(self):
        estimator = PrecisionEstimator(4, max_samples=300)
        top, _ = answer_estimator_rounds(
            estimator.select_top_rounds(2), [0.1, 0.85, 0.8, 0.15], seed=1
        )
        assert set(top) == {1, 2}

    def test_top_n_larger_than_arms(self):
        estimator = PrecisionEstimator(1)
        top, _ = answer_estimator_rounds(estimator.select_top_rounds(3), [0.5], seed=2)
        assert top == [0]

    def test_certify_accepts_high_precision_arm(self):
        estimator = PrecisionEstimator(1, max_samples=400)
        (meets, precision, samples), _ = answer_estimator_rounds(
            estimator.certify_threshold_rounds(0, 0.7), [0.95], seed=4
        )
        assert meets and precision > 0.8
        assert samples == int(estimator._trials[0])

    def test_certify_rejects_low_precision_arm(self):
        estimator = PrecisionEstimator(1, max_samples=400)
        (meets, _, _), _ = answer_estimator_rounds(
            estimator.certify_threshold_rounds(0, 0.7), [0.3], seed=5
        )
        assert not meets

    def test_respects_max_samples_budget(self):
        estimator = PrecisionEstimator(2, max_samples=60)
        # Nearly indistinguishable arms never separate within the budget.
        _, rounds = answer_estimator_rounds(
            estimator.select_top_rounds(1, tolerance=0.001), [0.7, 0.69], seed=6
        )
        assert all(int(trials) <= 60 for trials in estimator._trials)
        for arm in (0, 1):
            assert sum(n for r in rounds for a, n in r if a == arm) <= 60

    def test_requires_at_least_one_arm(self):
        with pytest.raises(ValueError):
            PrecisionEstimator(0)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_rejects_empty_rounds(self, batch_size):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            PrecisionEstimator(2, batch_size=batch_size)
