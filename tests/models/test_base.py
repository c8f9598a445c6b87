"""Tests for the CostModel query interface and wrappers."""

import pytest

from repro.bb.block import BasicBlock
from repro.models.base import CachedCostModel, CallableCostModel, CostModel, QueryCounter
from repro.utils.errors import ModelError


class TestCallableCostModel:
    def test_wraps_function(self, tiny_block):
        model = CallableCostModel(lambda b: float(b.num_instructions), name="toy")
        assert model.predict(tiny_block) == 2.0
        assert model.name == "toy"

    def test_call_syntax(self, tiny_block):
        model = CallableCostModel(lambda b: 1.0)
        assert model(tiny_block) == 1.0

    def test_query_counter_increments(self, tiny_block):
        model = CallableCostModel(lambda b: 1.0)
        model.predict(tiny_block)
        model.predict(tiny_block)
        assert model.query_count == 2

    def test_predict_many(self, tiny_block):
        model = CallableCostModel(lambda b: float(b.num_instructions))
        assert model.predict_many([tiny_block, tiny_block]) == [2.0, 2.0]

    def test_invalid_prediction_rejected(self, tiny_block):
        model = CallableCostModel(lambda b: float("nan"))
        with pytest.raises(ModelError):
            model.predict(tiny_block)

    def test_negative_prediction_rejected(self, tiny_block):
        model = CallableCostModel(lambda b: -1.0)
        with pytest.raises(ModelError):
            model.predict(tiny_block)

    def test_microarch_resolution(self, tiny_block):
        model = CallableCostModel(lambda b: 1.0, microarch="skl")
        assert model.microarch.short_name == "skl"
        assert "Skylake" in model.describe()

    def test_paper_toy_model_m1(self):
        """The hypothetical model M1 of Section 4: 2 cycles iff 8 instructions."""
        m1 = CallableCostModel(
            lambda b: 2.0 if b.num_instructions == 8 else 1.0, name="M1"
        )
        eight = BasicBlock.from_text("\n".join(["add rax, rbx"] * 8))
        seven = BasicBlock.from_text("\n".join(["add rax, rbx"] * 7))
        assert m1.predict(eight) == 2.0
        assert m1.predict(seven) == 1.0


class TestCachedCostModel:
    def test_caches_identical_blocks(self, tiny_block):
        inner = CallableCostModel(lambda b: float(b.num_instructions), name="toy")
        cached = CachedCostModel(inner)
        cached.predict(tiny_block)
        cached.predict(BasicBlock.from_text(tiny_block.text))
        assert inner.query_count == 1
        assert cached.hits == 1 and cached.misses == 1
        assert cached.hit_rate == pytest.approx(0.5)

    def test_different_blocks_not_conflated(self, tiny_block):
        inner = CallableCostModel(lambda b: float(b.num_instructions))
        cached = CachedCostModel(inner)
        other = BasicBlock.from_text("add rcx, rax")
        assert cached.predict(tiny_block) != cached.predict(other)

    def test_name_propagated(self, tiny_block):
        inner = CallableCostModel(lambda b: 1.0, name="inner-model")
        assert CachedCostModel(inner).name == "inner-model"

    def test_capacity_limit_respected(self):
        inner = CallableCostModel(lambda b: float(b.num_instructions))
        cached = CachedCostModel(inner, max_entries=1)
        a = BasicBlock.from_text("add rcx, rax")
        b = BasicBlock.from_text("sub rcx, rax")
        cached.predict(a)
        cached.predict(b)
        assert len(cached._cache) == 1

    def test_lru_eviction_order_respects_recency(self):
        inner = CallableCostModel(lambda b: float(b.num_instructions))
        cached = CachedCostModel(inner, max_entries=2)
        a = BasicBlock.from_text("add rcx, rax")
        b = BasicBlock.from_text("sub rcx, rax")
        c = BasicBlock.from_text("xor rcx, rax")
        cached.predict(a)
        cached.predict(b)
        cached.predict(a)  # refresh a: b is now least recently used
        cached.predict(c)  # evicts b, not a
        queries_before = inner.query_count
        cached.predict(a)
        assert inner.query_count == queries_before  # a still cached
        cached.predict(b)
        assert inner.query_count == queries_before + 1  # b was evicted

    def test_batch_lookup_refreshes_recency(self):
        inner = CallableCostModel(lambda b: float(b.num_instructions))
        cached = CachedCostModel(inner, max_entries=2)
        a = BasicBlock.from_text("add rcx, rax")
        b = BasicBlock.from_text("sub rcx, rax")
        cached.predict_batch([a, b])
        cached.predict_batch([a])  # a refreshed through the batch path
        cached.predict(BasicBlock.from_text("xor rcx, rax"))  # evicts b
        queries_before = inner.query_count
        cached.predict(a)
        assert inner.query_count == queries_before

    def test_hit_rate_under_intra_batch_dedupe(self):
        inner = CallableCostModel(lambda b: float(b.num_instructions))
        cached = CachedCostModel(inner)
        x = BasicBlock.from_text("add rcx, rax")
        y = BasicBlock.from_text("sub rcx, rax")
        values = cached.predict_batch([x, x, y])
        # The duplicate of x counts as a hit, exactly as on the sequential
        # path; the two distinct blocks are misses.
        assert values == [1.0, 1.0, 1.0]
        assert cached.hits == 1 and cached.misses == 2
        assert cached.hit_rate == pytest.approx(1 / 3)

    def test_query_count_counts_distinct_blocks_per_batch(self):
        inner = CallableCostModel(lambda b: float(b.num_instructions))
        cached = CachedCostModel(inner)
        x = BasicBlock.from_text("add rcx, rax")
        y = BasicBlock.from_text("sub rcx, rax")
        cached.predict_batch([x, x, y, x])
        assert cached.query_count == 2  # one inner query per distinct block
        assert inner.query_count == 2
        cached.predict_batch([x, y, y])
        assert cached.query_count == 2  # everything already cached
        assert cached.hits == 2 + 3

    def test_batch_and_sequential_accounting_agree(self):
        x = BasicBlock.from_text("add rcx, rax")
        y = BasicBlock.from_text("sub rcx, rax")
        batched = CachedCostModel(CallableCostModel(lambda b: 1.0))
        batched.predict_batch([x, x, y])
        sequential = CachedCostModel(CallableCostModel(lambda b: 1.0))
        for one in (x, x, y):
            sequential.predict(one)
        assert (batched.hits, batched.misses, batched.query_count) == (
            sequential.hits,
            sequential.misses,
            sequential.query_count,
        )


class TestModelLifecycle:
    def test_models_are_context_managers(self, tiny_block):
        with CallableCostModel(lambda b: 1.0) as model:
            assert model.predict(tiny_block) == 1.0

    def test_close_is_idempotent(self):
        model = CallableCostModel(lambda b: 1.0)
        model.close()
        model.close()

    def test_cached_close_reaches_inner_model(self):
        from repro.runtime.backend import SerialBackend

        cached = CachedCostModel(CallableCostModel(lambda b: 1.0))
        backend = SerialBackend()
        cached.set_backend(backend, own=True)
        cached.close()
        assert backend.closed


class TestQueryCounter:
    def test_counts_queries_in_scope(self, tiny_block):
        model = CallableCostModel(lambda b: 1.0)
        model.predict(tiny_block)
        with QueryCounter(model) as counter:
            model.predict(tiny_block)
            model.predict(tiny_block)
        assert counter.queries == 2
