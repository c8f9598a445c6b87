"""Tests for the coverage estimator and the explainer configuration."""

import pytest

from repro.bb.block import BasicBlock
from repro.bb.features import NumInstructionsFeature, extract_features
from repro.explain.config import ExplainerConfig
from repro.explain.coverage import CoverageEstimator
from repro.perturb.config import PerturbationConfig
from repro.perturb.sampler import PerturbationSampler


@pytest.fixture
def block():
    return BasicBlock.from_text(
        "mov ecx, edx\nxor edx, edx\nlea rax, [rcx + rax - 1]\n"
        "div rcx\nmov rdx, rcx\nimul rax, rcx"
    )


class TestCoverageEstimator:
    def test_empty_set_full_coverage(self, block):
        sampler = PerturbationSampler(block, rng=0)
        estimator = CoverageEstimator(sampler, 100)
        assert estimator.coverage([]) == 1.0
        # Answered by definition: no background population is drawn.
        assert sampler.samples_drawn == 0

    def test_antitone_in_feature_sets(self, block):
        estimator = CoverageEstimator(PerturbationSampler(block, rng=1), 200)
        features = extract_features(block)
        one = estimator.coverage(features[:1])
        two = estimator.coverage(features[:2])
        assert 0.0 <= two <= one <= 1.0

    def test_population_cached_across_queries(self, block):
        sampler = PerturbationSampler(block, rng=2)
        estimator = CoverageEstimator(sampler, 150)
        estimator.coverage(extract_features(block)[:1])
        drawn_after_first = sampler.samples_drawn
        estimator.coverage(extract_features(block)[:2])
        assert sampler.samples_drawn == drawn_after_first

    def test_coverage_many_matches_individual(self, block):
        estimator = CoverageEstimator(PerturbationSampler(block, rng=3), 150)
        features = extract_features(block)
        candidates = [features[:1], features[:2]]
        batch = estimator.coverage_many(candidates)
        assert batch == [estimator.coverage(c) for c in candidates]

    def test_absent_feature_zero_coverage(self, block):
        estimator = CoverageEstimator(PerturbationSampler(block, rng=4), 150)
        assert estimator.coverage([NumInstructionsFeature(99)]) == 0.0


class TestExplainerConfig:
    def test_defaults_follow_paper(self):
        config = ExplainerConfig()
        assert config.precision_threshold == pytest.approx(0.7)
        assert config.epsilon == pytest.approx(0.5)
        assert isinstance(config.perturbation, PerturbationConfig)

    def test_tolerance_uses_relative_component(self):
        config = ExplainerConfig(epsilon=0.5, relative_epsilon=0.1)
        assert config.tolerance_for(2.0) == pytest.approx(0.5)
        assert config.tolerance_for(40.0) == pytest.approx(4.0)

    def test_tolerance_absolute_only(self):
        config = ExplainerConfig(epsilon=0.25, relative_epsilon=0.0)
        assert config.tolerance_for(40.0) == pytest.approx(0.25)

    def test_with_overrides(self):
        config = ExplainerConfig().with_overrides(delta=0.2, beam_width=3)
        assert config.precision_threshold == pytest.approx(0.8)
        assert config.beam_width == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.0},
            {"delta": 1.0},
            {"epsilon": -1.0},
            {"beam_width": 0},
            {"max_anchor_size": 0},
            {"confidence_delta": 0.0},
            {"min_precision_samples": 100, "max_precision_samples": 10},
            {"coverage_samples": 0},
            {"coverage_samples": -5},
            {"batch_size": 0},
            {"batch_size": -3},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExplainerConfig(**kwargs)
