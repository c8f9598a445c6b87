"""Tests for the Ithemal-like neural cost model."""

import numpy as np
import pytest

from repro.bb.block import BasicBlock
from repro.data.bhive import BHiveDataset
from repro.models.ithemal import (
    BlockTokenizer,
    IthemalConfig,
    IthemalCostModel,
    train_ithemal,
)
from repro.perturb.algorithm import BlockPerturber
from repro.utils.errors import ModelError


@pytest.fixture(scope="module")
def tiny_dataset():
    return BHiveDataset.synthesize(
        60, include_categories=False, min_instructions=2, max_instructions=8, rng=5
    )


@pytest.fixture(scope="module")
def trained_model(tiny_dataset):
    config = IthemalConfig(embedding_size=16, hidden_size=16, epochs=3)
    return train_ithemal(
        tiny_dataset.blocks(), tiny_dataset.throughputs("hsw"), "hsw", config
    )


class TestTokenizer:
    def test_vocabulary_covers_isa(self):
        tokenizer = BlockTokenizer()
        assert tokenizer.vocabulary_size > 150
        assert tokenizer.token_id("add") != tokenizer.token_id("mov")
        assert tokenizer.token_id("rax") != tokenizer.token_id("rbx")

    def test_unknown_token_maps_to_unk(self):
        tokenizer = BlockTokenizer()
        assert tokenizer.token_id("no-such-token") == tokenizer.token_id(tokenizer.UNK)

    def test_instruction_tokens(self):
        tokenizer = BlockTokenizer()
        block = BasicBlock.from_text("mov rsi, qword ptr [r14 + 32]")
        tokens = tokenizer.instruction_tokens(block[0])
        assert tokens[0] == "mov"
        assert tokenizer.MEM in tokens and "r14" in tokens

    def test_encode_block_shape(self):
        tokenizer = BlockTokenizer()
        block = BasicBlock.from_text("add rcx, rax\nmov rdx, rcx")
        encoded = tokenizer.encode_block(block)
        assert len(encoded) == 2
        assert all(isinstance(i, int) for row in encoded for i in row)


class TestPrediction:
    def test_untrained_model_predicts_positive(self):
        model = IthemalCostModel("hsw", IthemalConfig(embedding_size=8, hidden_size=8))
        block = BasicBlock.from_text("add rcx, rax\nmov rdx, rcx")
        assert model.predict(block) > 0

    def test_prediction_changes_with_block(self, trained_model):
        short = BasicBlock.from_text("add rcx, rax")
        long = BasicBlock.from_text("\n".join(["add rcx, rax"] * 10))
        assert trained_model.predict(short) != trained_model.predict(long)

    def test_prediction_deterministic(self, trained_model):
        block = BasicBlock.from_text("add rcx, rax\nimul rbx, rcx")
        assert trained_model.predict(block) == trained_model.predict(block)


class TestTraining:
    def test_training_reduces_loss(self, tiny_dataset):
        config = IthemalConfig(embedding_size=16, hidden_size=16, epochs=4)
        model = IthemalCostModel("hsw", config)
        history = model.train(tiny_dataset.blocks(), tiny_dataset.throughputs("hsw"))
        assert history.train_loss[-1] < history.train_loss[0]
        assert model.trained

    def test_trained_model_better_than_constant(self, trained_model, tiny_dataset):
        targets = np.array(tiny_dataset.throughputs("hsw"))
        mape_model = trained_model.evaluate_mape(tiny_dataset.blocks(), targets)
        constant = float(np.mean(targets))
        mape_constant = 100 * np.mean(np.abs(constant - targets) / targets)
        assert mape_model < mape_constant

    def test_longer_blocks_predicted_slower(self, trained_model):
        short = BasicBlock.from_text("add rcx, rax\nsub rbx, rdx")
        long = BasicBlock.from_text(
            "\n".join(["add rcx, rax", "sub rbx, rdx", "xor rsi, rdi", "and r8, r9"] * 3)
        )
        assert trained_model.predict(long) > trained_model.predict(short)

    def test_mismatched_lengths_rejected(self):
        model = IthemalCostModel("hsw", IthemalConfig(embedding_size=8, hidden_size=8))
        with pytest.raises(ModelError):
            model.train([BasicBlock.from_text("nop")], [1.0, 2.0])

    def test_empty_dataset_rejected(self):
        model = IthemalCostModel("hsw", IthemalConfig(embedding_size=8, hidden_size=8))
        with pytest.raises(ModelError):
            model.train([], [])


class TestPersistence:
    def test_save_and_load_round_trip(self, trained_model, tmp_path):
        path = tmp_path / "ithemal.npz"
        trained_model.save(path)
        restored = IthemalCostModel.load(path, "hsw")
        block = BasicBlock.from_text("add rcx, rax\nimul rbx, rcx\ndiv rcx")
        assert restored.predict(block) == pytest.approx(trained_model.predict(block))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IthemalConfig(embedding_size=0)
        with pytest.raises(ValueError):
            IthemalConfig(validation_fraction=1.5)


def _tiny_untrained():
    return IthemalCostModel(
        "hsw", IthemalConfig(embedding_size=8, hidden_size=8, epochs=1)
    )


class TestEmbedMemo:
    """The per-instruction pooled-embedding memo behind batched inference."""

    @pytest.fixture(scope="class")
    def blocks(self):
        # Γ output: perturbations share instruction instances, the shape the
        # memo exists for.
        block = BasicBlock.from_text(
            "mov rax, rbx\nadd rcx, rax\nimul rdx, rcx\nsub rsi, 4\n"
            "mov qword ptr [rsi], rdx\nadd rax, 1"
        )
        return BlockPerturber(block).perturb_many(40, rng=np.random.default_rng(21))

    def test_predict_populates_memo(self, blocks):
        model = _tiny_untrained()
        model.predict_batch(blocks)
        assert model._embed_memo

    def test_memo_rows_equal_pooled_embeddings(self, blocks):
        model = _tiny_untrained()
        model.predict_batch(blocks)
        for block in blocks[:10]:
            pooled, _ = model._instruction_embeddings(block)
            for row, instruction in enumerate(block.instructions):
                np.testing.assert_array_equal(
                    model._embed_memo[instruction.key()], pooled[row]
                )

    def test_memo_is_keyed_by_instruction_content(self, blocks):
        model = _tiny_untrained()
        model.predict_batch(blocks)
        # Re-parsed copies share no instruction objects with the Γ output,
        # yet add no entries: the memo is keyed by content.
        entries = len(model._embed_memo)
        assert entries == len({i.key() for b in blocks for i in b.instructions})
        model.predict_batch([BasicBlock.from_text(b.text) for b in blocks])
        assert len(model._embed_memo) == entries

    def test_warm_memo_predictions_are_bit_identical(self, blocks):
        model = _tiny_untrained()
        cold = model.predict_batch(blocks)
        assert model.predict_batch(blocks) == cold
        # A memo filled in another order serves the same vectors.
        other = _tiny_untrained()
        other.predict_batch(list(reversed(blocks)))
        assert other.predict_batch(blocks) == cold

    def test_train_invalidates_memo(self, blocks):
        model = _tiny_untrained()
        model.predict_batch(blocks[:8])
        assert model._embed_memo
        model.train(blocks[:8], [float(len(b)) for b in blocks[:8]], epochs=1)
        # Training mutates the embedding matrix in place; predictions after
        # training must come from the updated weights, not stale pools.
        fresh = _tiny_untrained()
        fresh.train(blocks[:8], [float(len(b)) for b in blocks[:8]], epochs=1)
        assert model.predict_batch(blocks[:8]) == fresh.predict_batch(blocks[:8])

    def test_load_starts_with_clean_memo(self, tmp_path, blocks):
        model = _tiny_untrained()
        model.train(blocks[:6], [float(len(b)) for b in blocks[:6]], epochs=1)
        path = tmp_path / "ithemal.npz"
        model.save(path)
        restored = IthemalCostModel.load(path)
        assert not restored._embed_memo
        assert restored.predict_batch(blocks[:6]) == model.predict_batch(blocks[:6])
