"""Tests for the perturbation algorithm Γ (Algorithm 1)."""

import numpy as np
import pytest

from repro.bb.block import BasicBlock
from repro.bb.features import (
    DependencyFeature,
    InstructionFeature,
    NumInstructionsFeature,
    extract_features,
    feature_present,
    features_present,
)
from repro.isa.validation import validate_block_instructions
from repro.perturb.algorithm import BlockPerturber, PreservationConstraints
from repro.perturb.config import PerturbationConfig, ReplacementScheme
from repro.utils.errors import PerturbationError


@pytest.fixture
def block():
    # Listing 1(a) of the paper.
    return BasicBlock.from_text("add rcx, rax\nmov rdx, rcx\npop rbx")


@pytest.fixture
def div_block():
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


def features_by_type(block):
    features = extract_features(block)
    return (
        [f for f in features if isinstance(f, InstructionFeature)],
        [f for f in features if isinstance(f, DependencyFeature)],
        [f for f in features if isinstance(f, NumInstructionsFeature)][0],
    )


class TestConstraints:
    def test_instruction_feature_locks_instruction(self, block):
        insts, _, _ = features_by_type(block)
        constraints = PreservationConstraints.from_features(block, [insts[0]])
        assert 0 in constraints.locked_instructions
        assert 0 in constraints.locked_opcodes
        assert not constraints.preserve_count

    def test_dependency_feature_locks_endpoints(self, block):
        _, deps, _ = features_by_type(block)
        constraints = PreservationConstraints.from_features(block, [deps[0]])
        assert {0, 1} <= constraints.locked_opcodes
        assert "rcx" in constraints.roots_locked_at(0)
        assert "rcx" in constraints.roots_locked_at(1)

    def test_count_feature_sets_preserve_count(self, block):
        _, _, count = features_by_type(block)
        constraints = PreservationConstraints.from_features(block, [count])
        assert constraints.preserve_count

    def test_out_of_range_instruction_feature_rejected(self, block):
        bogus = InstructionFeature(index=9, mnemonic="add", operand_text=("rcx", "rax"))
        with pytest.raises(PerturbationError):
            PreservationConstraints.from_features(block, [bogus])

    def test_foreign_dependency_feature_rejected(self, block):
        from repro.bb.dependencies import DependencyKind

        bogus = DependencyFeature(
            source=0,
            destination=2,
            dep_kind=DependencyKind.RAW,
            location_space="reg",
            source_mnemonic="add",
            destination_mnemonic="pop",
        )
        with pytest.raises(PerturbationError):
            PreservationConstraints.from_features(block, [bogus])


class TestPerturbationValidity:
    def test_outputs_are_valid_blocks(self, div_block):
        perturber = BlockPerturber(div_block, rng=0)
        for perturbed in perturber.perturb_many(50):
            validate_block_instructions(perturbed.instructions)

    def test_outputs_are_never_empty(self, block):
        config = PerturbationConfig(p_instruction_retain=0.0, p_delete=1.0)
        perturber = BlockPerturber(block, config, rng=0)
        for perturbed in perturber.perturb_many(30):
            assert perturbed.num_instructions >= 1

    def test_perturbations_differ_from_original(self, div_block):
        perturber = BlockPerturber(div_block, rng=1)
        samples = perturber.perturb_many(40)
        assert any(sample != div_block for sample in samples)

    def test_diversity_of_perturbations(self, div_block):
        perturber = BlockPerturber(div_block, rng=2)
        unique = {sample.key() for sample in perturber.perturb_many(60)}
        # Γ must produce a diverse set (Section 5.2), not a handful of variants.
        assert len(unique) > 20


class TestFeaturePreservation:
    def test_instruction_feature_preserved(self, div_block):
        insts, _, _ = features_by_type(div_block)
        perturber = BlockPerturber(div_block, rng=3)
        for perturbed in perturber.perturb_many(40, [insts[3]]):
            assert feature_present(insts[3], perturbed)

    def test_dependency_feature_preserved(self, block):
        _, deps, _ = features_by_type(block)
        perturber = BlockPerturber(block, rng=4)
        for perturbed in perturber.perturb_many(40, [deps[0]]):
            assert feature_present(deps[0], perturbed)

    def test_count_feature_preserved(self, div_block):
        _, _, count = features_by_type(div_block)
        perturber = BlockPerturber(div_block, rng=5)
        for perturbed in perturber.perturb_many(40, [count]):
            assert perturbed.num_instructions == div_block.num_instructions

    def test_combined_features_preserved(self, div_block):
        insts, deps, count = features_by_type(div_block)
        preserved = [insts[0], deps[0], count]
        perturber = BlockPerturber(div_block, rng=6)
        for perturbed in perturber.perturb_many(30, preserved):
            assert features_present(preserved, perturbed)

    def test_preserving_everything_returns_original(self, block):
        features = extract_features(block)
        perturber = BlockPerturber(block, rng=7)
        for perturbed in perturber.perturb_many(10, features):
            assert perturbed == block


class TestConfigurationEffects:
    def test_zero_retention_perturbs_aggressively(self, div_block):
        config = PerturbationConfig(p_instruction_retain=0.0)
        perturber = BlockPerturber(div_block, config, rng=8)
        changed = sum(1 for p in perturber.perturb_many(30) if p != div_block)
        assert changed >= 28

    def test_full_retention_changes_nothing_structural(self, div_block):
        config = PerturbationConfig(
            p_instruction_retain=1.0, p_dependency_retain=1.0,
            p_dependency_explicit_retain=1.0,
        )
        perturber = BlockPerturber(div_block, config, rng=9)
        for perturbed in perturber.perturb_many(20):
            # The original instance itself, so its per-instance memos stay warm.
            assert perturbed is div_block

    def test_no_deletion_when_p_delete_zero(self, div_block):
        config = PerturbationConfig(p_delete=0.0)
        perturber = BlockPerturber(div_block, config, rng=10)
        for perturbed in perturber.perturb_many(30):
            assert perturbed.num_instructions == div_block.num_instructions

    def test_whole_instruction_scheme_changes_operands(self, div_block):
        config = PerturbationConfig(
            replacement_scheme=ReplacementScheme.WHOLE_INSTRUCTION,
            p_instruction_retain=0.0,
        )
        perturber = BlockPerturber(div_block, config, rng=11)
        samples = perturber.perturb_many(30)
        assert any(s != div_block for s in samples)
        for sample in samples:
            validate_block_instructions(sample.instructions)

    def test_deterministic_given_seed(self, div_block):
        a = BlockPerturber(div_block, rng=42).perturb_many(10)
        b = BlockPerturber(div_block, rng=42).perturb_many(10)
        assert [x.key() for x in a] == [y.key() for y in b]


class TestReferenceEngine:
    """The scalar reference Γ (``vectorized=False``) must satisfy the same
    contracts as the fast path — it is the benchmark baseline and oracle."""

    REFERENCE = PerturbationConfig(vectorized=False)

    def test_outputs_are_valid_blocks(self, div_block):
        perturber = BlockPerturber(div_block, self.REFERENCE, rng=0)
        for perturbed in perturber.perturb_many(40):
            validate_block_instructions(perturbed.instructions)

    def test_features_preserved(self, div_block):
        insts, deps, count = features_by_type(div_block)
        preserved = [insts[0], deps[0], count]
        perturber = BlockPerturber(div_block, self.REFERENCE, rng=1)
        for perturbed in perturber.perturb_many(30, preserved):
            assert features_present(preserved, perturbed)

    def test_deterministic_given_seed(self, div_block):
        a = BlockPerturber(div_block, self.REFERENCE, rng=7).perturb_many(10)
        b = BlockPerturber(div_block, self.REFERENCE, rng=7).perturb_many(10)
        assert [x.key() for x in a] == [y.key() for y in b]

    def test_similar_perturbation_rate_to_fast_path(self, div_block):
        """Both engines sample the same distribution family: comparable
        fractions of perturbed-away blocks under the default config."""
        fast = BlockPerturber(div_block, rng=3).perturb_many(150)
        reference = BlockPerturber(div_block, self.REFERENCE, rng=3).perturb_many(150)
        fast_changed = sum(1 for p in fast if p != div_block) / len(fast)
        reference_changed = sum(1 for p in reference if p != div_block) / len(reference)
        assert abs(fast_changed - reference_changed) < 0.15


class TestEngineRouting:
    """Which engine serves what: ``vectorized`` picks wave or reference, and
    the reference engine also runs the wave engine's retries and every
    whole-instruction perturbation."""

    @pytest.mark.parametrize("vectorized", [False, True], ids=["reference", "wave"])
    def test_same_seed_leaves_stream_at_same_position(self, div_block, vectorized):
        # A session threads one generator through every Γ call, so equal
        # blocks are not enough: the next caller must see the same draws.
        config = PerturbationConfig(vectorized=vectorized)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        a = BlockPerturber(div_block, config).perturb_many(12, rng=rng_a)
        b = BlockPerturber(div_block, config).perturb_many(12, rng=rng_b)
        assert [x.key() for x in a] == [y.key() for y in b]
        assert rng_a.integers(0, 2**31, size=4).tolist() == (
            rng_b.integers(0, 2**31, size=4).tolist()
        )

    def test_reference_batch_equals_repeated_single_perturbations(self, div_block):
        """The reference engine walks the stream row by row — the property
        that lets wave retries sit where a row-by-row run puts them."""
        config = PerturbationConfig(vectorized=False)
        insts, deps, _ = features_by_type(div_block)
        preserved = [insts[1], deps[0]]
        rng_a, rng_b = np.random.default_rng(17), np.random.default_rng(17)
        batch = BlockPerturber(div_block, config).perturb_many(15, preserved, rng_a)
        single = BlockPerturber(div_block, config)
        singles = [single.perturb(preserved, rng_b) for _ in range(15)]
        assert [b.key() for b in batch] == [s.key() for s in singles]

    def test_whole_instruction_scheme_ignores_vectorized(self, div_block):
        outputs = {}
        for vectorized in (False, True):
            config = PerturbationConfig(
                replacement_scheme=ReplacementScheme.WHOLE_INSTRUCTION,
                vectorized=vectorized,
            )
            rng = np.random.default_rng(23)
            blocks = BlockPerturber(div_block, config).perturb_many(20, rng=rng)
            outputs[vectorized] = (
                [b.key() for b in blocks],
                rng.integers(0, 2**31, size=4).tolist(),
            )
        assert outputs[True] == outputs[False]

    def test_wave_retries_run_on_reference_engine(self, div_block):
        insts, deps, count = features_by_type(div_block)
        preserved = [insts[0], deps[0], count]
        perturber = BlockPerturber(div_block, rng=4)
        reference = perturber._perturb_once_reference
        calls = []

        def counting_reference(plan, rng):
            calls.append(plan)
            return reference(plan, rng)

        # Every wave row fails validation, so each one must be rebuilt by
        # the reference engine (or fall back after max_block_attempts).
        perturber._apply_row = lambda *args, **kwargs: None
        perturber._perturb_once_reference = counting_reference
        blocks = perturber.perturb_many(25, preserved)
        retries_per_row = perturber.config.max_block_attempts - 1
        assert 25 <= len(calls) <= 25 * retries_per_row
        assert perturber.fallbacks < 25
        for perturbed in blocks:
            validate_block_instructions(perturbed.instructions)
            assert features_present(preserved, perturbed)
