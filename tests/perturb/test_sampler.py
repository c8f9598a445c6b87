"""Tests for the perturbation sampler (D_F and D distributions)."""

import pytest

from repro.bb.block import BasicBlock
from repro.bb.features import NumInstructionsFeature, extract_features
from repro.explain.coverage import CoverageEstimator
from repro.perturb.config import PerturbationConfig
from repro.perturb.sampler import PerturbationSampler


@pytest.fixture
def block():
    return BasicBlock.from_text(
        """
        mov ecx, edx
        xor edx, edx
        lea rax, [rcx + rax - 1]
        div rcx
        mov rdx, rcx
        imul rax, rcx
        """
    )


class TestSampling:
    def test_sample_counts(self, block):
        sampler = PerturbationSampler(block, rng=0)
        assert len(sampler.sample((), 25)) == 25
        assert sampler.samples_drawn == 25

    def test_sample_encoded_is_an_alias_of_sample(self, block):
        # The repository benchmark's layer tracer still wraps this name.
        plain = PerturbationSampler(block, rng=11)
        aliased = PerturbationSampler(block, rng=11)
        features = extract_features(block)[:2]
        expected = plain.sample(features, 15)
        assert [b.key() for b in aliased.sample_encoded(features, 15)] == [
            b.key() for b in expected
        ]
        assert aliased.samples_drawn == plain.samples_drawn == 15

    def test_unconstrained_equals_empty_feature_set(self, block):
        a = PerturbationSampler(block, rng=5).sample_unconstrained(10)
        b = PerturbationSampler(block, rng=5).sample((), 10)
        assert [x.key() for x in a] == [y.key() for y in b]

    def test_background_population_is_an_alias_of_sample_unconstrained(self, block):
        # The repository benchmark's layer tracer still wraps this name.
        plain = PerturbationSampler(block, rng=2)
        aliased = PerturbationSampler(block, rng=2)
        expected = plain.sample_unconstrained(10)
        assert [b.key() for b in aliased.background_population(10)] == [
            b.key() for b in expected
        ]
        assert aliased.samples_drawn == plain.samples_drawn == 10


class TestCoverage:
    def test_count_feature_coverage_reasonable(self, block):
        estimator = CoverageEstimator(PerturbationSampler(block, rng=5), 400)
        coverage = estimator.coverage([NumInstructionsFeature(block.num_instructions)])
        # Roughly the probability that no instruction gets deleted.
        assert 0.2 < coverage < 0.95


class TestPreservationRate:
    def test_preservation_rate_is_high_for_every_single_feature(self, block):
        sampler = PerturbationSampler(block, rng=7)
        for feature in extract_features(block):
            assert sampler.preservation_rate([feature], 60) >= 0.95, feature.describe()

    def test_preservation_rate_empty_features(self, block):
        sampler = PerturbationSampler(block, rng=8)
        assert sampler.preservation_rate([], 10) == 1.0

    def test_config_propagates_to_perturber(self, block):
        config = PerturbationConfig(p_instruction_retain=1.0, p_dependency_explicit_retain=1.0)
        sampler = PerturbationSampler(block, config, rng=9)
        samples = sampler.sample_unconstrained(10)
        assert all(sample == block for sample in samples)
