"""Tests for the perturbation sampler (D_F and D distributions)."""

import pytest

from repro.bb.block import BasicBlock
from repro.bb.features import NumInstructionsFeature, extract_features
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

    def test_background_population_is_cached(self, block):
        sampler = PerturbationSampler(block, rng=1)
        first = sampler.background_population(50)
        second = sampler.background_population(50)
        assert first == second
        assert len(first) == 50

    def test_background_population_grows_on_demand(self, block):
        sampler = PerturbationSampler(block, rng=2)
        small = list(sampler.background_population(10))
        large = sampler.background_population(30)
        assert len(large) == 30
        assert large[:10] == small


class TestCoverage:
    def test_empty_set_has_full_coverage(self, block):
        sampler = PerturbationSampler(block, rng=3)
        assert sampler.coverage_of([], 100) == pytest.approx(1.0)

    def test_coverage_decreases_with_more_features(self, block):
        sampler = PerturbationSampler(block, rng=4)
        features = extract_features(block)
        single = sampler.coverage_of(features[:1], 300)
        double = sampler.coverage_of(features[:2], 300)
        assert 0.0 <= double <= single <= 1.0

    def test_count_feature_coverage_reasonable(self, block):
        sampler = PerturbationSampler(block, rng=5)
        coverage = sampler.coverage_of([NumInstructionsFeature(block.num_instructions)], 400)
        # Roughly the probability that no instruction gets deleted.
        assert 0.2 < coverage < 0.95

    def test_coverage_of_absent_feature_is_low(self, block):
        sampler = PerturbationSampler(block, rng=6)
        foreign = NumInstructionsFeature(block.num_instructions + 5)
        assert sampler.coverage_of([foreign], 200) < 0.05


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
