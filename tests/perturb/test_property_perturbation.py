"""Property-based tests (hypothesis) for the perturbation substrate.

These check the invariants the explanation framework relies on:

* every perturbed block is valid x86 that could appear in a basic block,
* features requested to be preserved are present in the perturbed block,
* the parser/formatter round-trip on every perturbed block,
* coverage is antitone in the feature set (Theorem 1's practical analogue).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bb.block import BasicBlock
from repro.bb.features import extract_features, features_present
from repro.data.synthesis import BlockSynthesizer
from repro.explain.coverage import CoverageEstimator
from repro.isa.formatter import format_block_lines
from repro.isa.parser import parse_block_text
from repro.isa.validation import validate_block_instructions
from repro.perturb.algorithm import BlockPerturber
from repro.perturb.sampler import PerturbationSampler
from repro.perturb.space import estimate_space_size

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def synthetic_blocks(draw):
    """Random valid blocks from the dataset synthesiser."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    size = draw(st.integers(min_value=2, max_value=8))
    source = draw(st.sampled_from(["clang", "openblas"]))
    return BlockSynthesizer(seed).generate(size, source=source)


@given(block=synthetic_blocks(), seed=st.integers(min_value=0, max_value=1000))
@settings(**_SETTINGS)
def test_perturbed_blocks_are_always_valid(block, seed):
    perturber = BlockPerturber(block, rng=seed)
    for perturbed in perturber.perturb_many(5):
        validate_block_instructions(perturbed.instructions)
        assert perturbed.num_instructions >= 1


@given(block=synthetic_blocks(), seed=st.integers(min_value=0, max_value=1000))
@settings(**_SETTINGS)
def test_perturbed_blocks_round_trip_through_parser(block, seed):
    perturber = BlockPerturber(block, rng=seed)
    for perturbed in perturber.perturb_many(3):
        reparsed = parse_block_text(format_block_lines(perturbed.instructions))
        assert [i.key() for i in reparsed] == [i.key() for i in perturbed.instructions]


@given(
    block=synthetic_blocks(),
    seed=st.integers(min_value=0, max_value=1000),
    data=st.data(),
)
@settings(**_SETTINGS)
def test_requested_features_are_preserved(block, seed, data):
    features = extract_features(block)
    subset_size = data.draw(st.integers(min_value=1, max_value=min(3, len(features))))
    indices = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(features) - 1),
            min_size=subset_size,
            max_size=subset_size,
            unique=True,
        )
    )
    preserved = [features[i] for i in indices]
    perturber = BlockPerturber(block, rng=seed)
    for perturbed in perturber.perturb_many(4, preserved):
        assert features_present(preserved, perturbed)


@given(block=synthetic_blocks())
@settings(**_SETTINGS)
def test_space_size_antitone_in_features(block):
    features = extract_features(block)
    empty = estimate_space_size(block)
    with_one = estimate_space_size(block, features[:1])
    with_two = estimate_space_size(block, features[:2])
    assert empty >= with_one >= with_two >= 1.0


@given(block=synthetic_blocks(), seed=st.integers(min_value=0, max_value=200))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_coverage_antitone_in_features(block, seed):
    estimator = CoverageEstimator(PerturbationSampler(block, rng=seed), 150)
    features = extract_features(block)
    baseline = estimator.coverage([])
    one = estimator.coverage(features[:1])
    both = estimator.coverage(features[:2])
    assert baseline >= one >= both >= 0.0
