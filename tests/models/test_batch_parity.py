"""Batch/sequential parity of every registered cost model.

The batched query engine is only sound if ``predict_batch`` is equivalent to
the sequential ``predict_many`` path for every model behind the query
interface; these tests pin that contract, including the process-pool fan-out
of the simulator-style models and the batch-aware cache wrapper.
"""

import numpy as np
import pytest

from repro.bb.block import BasicBlock
from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CachedCostModel, CallableCostModel
from repro.models.ithemal import IthemalConfig, IthemalCostModel
from repro.models.mca import PortPressureCostModel
from repro.models.uica import UiCACostModel
from repro.perturb.algorithm import BlockPerturber
from repro.perturb.config import PerturbationConfig
from repro.runtime.backend import ProcessBackend
from repro.utils.errors import ModelError


def _exact_models():
    # The fanned-out models own their process backends, so ``with model:``
    # in a test closes the pool.
    return [
        AnalyticalCostModel("hsw"),
        AnalyticalCostModel("skl"),
        UiCACostModel("hsw"),
        UiCACostModel("hsw").set_backend(ProcessBackend(2), own=True),
        PortPressureCostModel("hsw"),
        PortPressureCostModel("hsw").set_backend(ProcessBackend(2), own=True),
        CallableCostModel(lambda b: float(b.num_instructions), name="count"),
    ]


class TestPredictBatchParity:
    @pytest.mark.parametrize("model", _exact_models(), ids=lambda m: m.describe())
    def test_exact_parity_with_predict_many(self, model, block_fleet):
        with model:
            sequential = model.predict_many(block_fleet)
            batched = model.predict_batch(block_fleet)
        assert batched == sequential

    def test_ithemal_parity_within_float_tolerance(self, block_fleet):
        model = IthemalCostModel(
            "hsw", IthemalConfig(embedding_size=8, hidden_size=8, epochs=0)
        )
        sequential = model.predict_many(block_fleet)
        batched = model.predict_batch(block_fleet)
        np.testing.assert_allclose(batched, sequential, rtol=1e-9)

    def test_empty_batch(self):
        model = AnalyticalCostModel("hsw")
        assert model.predict_batch([]) == []
        assert model.query_count == 0

    def test_batch_counts_one_query_per_block(self, block_fleet):
        model = AnalyticalCostModel("hsw")
        model.predict_batch(block_fleet)
        assert model.query_count == len(block_fleet)

    def test_batch_validates_predictions(self, block_fleet):
        model = CallableCostModel(lambda b: -1.0, name="negative")
        with pytest.raises(ModelError):
            model.predict_batch(block_fleet[:3])

    def test_default_batch_loops_predict(self, block_fleet):
        """A model without a batched formulation still serves batches."""
        model = CallableCostModel(lambda b: float(len(b)), name="plain")
        assert model.predict_batch(block_fleet[:5]) == [float(len(b)) for b in block_fleet[:5]]


def _gamma_rows(count, seed, config=None):
    """Γ output as the batched query path carries it: blocks built by
    ``with_instructions``, plus the original block instance itself for every
    row that changed nothing."""
    block = BasicBlock.from_text(
        "mov rax, rbx\nadd rcx, rax\nimul rdx, rcx\nsub rsi, 4\n"
        "mov qword ptr [rsi], rdx\nadd rax, 1",
        source="clang",
    )
    return BlockPerturber(block, config).perturb_many(
        count, rng=np.random.default_rng(seed)
    )


def _constructed(blocks):
    return [
        BasicBlock(b.instructions, source=b.source, block_id=b.block_id)
        for b in blocks
    ]


class TestPerturbedBlockParity:
    """Every model scores Γ output exactly as it scores the same blocks
    built through the ``BasicBlock`` constructor."""

    @pytest.fixture(scope="class")
    def rows(self):
        return _gamma_rows(30, seed=31)

    @pytest.mark.parametrize("model", _exact_models(), ids=lambda m: m.describe())
    def test_exact_models(self, model, rows):
        with model:
            assert model.predict_batch(rows) == model.predict_many(_constructed(rows))

    def test_ithemal_within_float_tolerance(self, rows):
        model = IthemalCostModel(
            "hsw", IthemalConfig(embedding_size=8, hidden_size=8, epochs=0)
        )
        np.testing.assert_allclose(
            model.predict_batch(rows), model.predict_many(_constructed(rows)), rtol=1e-9
        )


class TestAnalyticalBatchKernels:
    """The analytical model's fused per-block batch loop and the sequential
    ``_predict`` must be bit-for-bit identical: the same table floats flow
    through the same IEEE additions and maxima.
    """

    @pytest.mark.parametrize("uarch", ["hsw", "skl"])
    def test_loop_and_sequential_agree(self, uarch, block_fleet):
        model = AnalyticalCostModel(uarch)
        sequential = [model._predict(block) for block in block_fleet]
        assert model._predict_batch(block_fleet) == sequential


class TestSegmentedParity:
    """A fused ``predict_batch_segmented`` call answers exactly what one
    ``predict_batch`` over the concatenated segments answers."""

    def _segments(self):
        block = BasicBlock.from_text(
            "mov rax, rbx\nadd rcx, rax\nimul rdx, rcx\nsub rsi, 4\n"
            "mov qword ptr [rsi], rdx\nadd rax, 1"
        )
        perturber = BlockPerturber(block)
        rng = np.random.default_rng(13)
        # The empty segment stands for a fused request whose round drew nothing.
        return [perturber.perturb_many(n, rng=rng) for n in (7, 0, 12, 5)]

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: AnalyticalCostModel("hsw"),
            lambda: CachedCostModel(AnalyticalCostModel("hsw")),
            lambda: IthemalCostModel(
                "hsw", IthemalConfig(embedding_size=8, hidden_size=8, epochs=1)
            ),
            lambda: CallableCostModel(lambda b: float(b.num_instructions), name="count"),
            lambda: PortPressureCostModel("hsw").set_backend(
                ProcessBackend(2), own=True
            ),
        ],
        ids=["analytical", "cached", "ithemal", "callable", "port-pressure-process"],
    )
    def test_segmented_parity(self, factory):
        segments = self._segments()
        flat = [block for segment in segments for block in segment]
        with factory() as model:
            values, tallies, _ = model.predict_batch_segmented(segments)
        with factory() as reference:
            expected = reference.predict_batch(flat)
        assert [len(v) for v in values] == [len(s) for s in segments]
        assert sum(t.queries for t in tallies) == len(flat)
        assert [p for segment in values for p in segment] == expected


class TestCachedBatchPath:
    def test_batch_matches_sequential_values(self, block_fleet):
        cached = CachedCostModel(AnalyticalCostModel("hsw"))
        expected = AnalyticalCostModel("hsw").predict_many(block_fleet)
        assert cached.predict_batch(block_fleet) == expected

    def test_batch_dedupes_duplicate_blocks(self, block_fleet):
        cached = CachedCostModel(AnalyticalCostModel("hsw"))
        batch = list(block_fleet[:4]) + list(block_fleet[:4])
        values = cached.predict_batch(batch)
        assert values[:4] == values[4:]
        # Only the four distinct blocks reach the inner model.
        assert cached.inner.query_count == 4
        assert cached.query_count == 4
        assert cached.hits == 4 and cached.misses == 4

    def test_batch_serves_previous_results_from_cache(self, block_fleet):
        cached = CachedCostModel(AnalyticalCostModel("hsw"))
        cached.predict_batch(block_fleet[:6])
        cached.predict_batch(block_fleet[:6])
        assert cached.inner.query_count == 6
        assert cached.hits == 6

    def test_gamma_rows_dedupe_by_content(self):
        # Mostly-retaining Γ repeats rows, the original instance included.
        config = PerturbationConfig(
            p_instruction_retain=0.9, p_dependency_explicit_retain=0.9
        )
        rows = _gamma_rows(40, seed=2, config=config)
        unique = len({row.key() for row in rows})
        assert unique < len(rows)
        cached = CachedCostModel(AnalyticalCostModel("hsw"))
        assert cached.predict_batch(rows) == AnalyticalCostModel("hsw").predict_many(rows)
        assert cached.inner.query_count == unique
        assert cached.misses == unique
        assert cached.hits == len(rows) - unique

    def test_reparsed_blocks_hit_gamma_entries(self):
        rows = _gamma_rows(30, seed=5)
        cached = CachedCostModel(AnalyticalCostModel("hsw"))
        expected = cached.predict_batch(rows)
        queries = cached.inner.query_count
        # Fresh instruction objects from the text: the cache key is content,
        # not the construction path.
        reparsed = [BasicBlock.from_text(row.text) for row in rows]
        assert cached.predict_batch(reparsed) == expected
        assert cached.inner.query_count == queries

    def test_query_count_ignores_cache_hits(self, block_fleet):
        """Regression: the wrapper used to count cache hits as queries."""
        cached = CachedCostModel(AnalyticalCostModel("hsw"))
        block = block_fleet[0]
        cached.predict(block)
        cached.predict(block)
        cached.predict(block)
        assert cached.query_count == 1
        assert cached.inner.query_count == 1

    def test_lru_evicts_least_recently_used(self):
        inner = CallableCostModel(lambda b: float(b.num_instructions))
        cached = CachedCostModel(inner, max_entries=2)
        a = BasicBlock.from_text("add rcx, rax")
        b = BasicBlock.from_text("sub rcx, rax")
        c = BasicBlock.from_text("xor rcx, rax")
        cached.predict(a)
        cached.predict(b)
        cached.predict(a)  # refresh a; b becomes least recently used
        cached.predict(c)  # evicts b
        assert len(cached._cache) == 2
        queries = inner.query_count
        cached.predict(a)
        assert inner.query_count == queries  # a still cached
        cached.predict(b)
        assert inner.query_count == queries + 1  # b was evicted

    def test_lru_keeps_accepting_after_capacity(self):
        """Regression: the old cache silently stopped storing when full."""
        inner = CallableCostModel(lambda b: float(b.num_instructions))
        cached = CachedCostModel(inner, max_entries=1)
        a = BasicBlock.from_text("add rcx, rax")
        b = BasicBlock.from_text("sub rcx, rax")
        cached.predict(a)
        cached.predict(b)
        queries = inner.query_count
        cached.predict(b)  # most recent entry must be cached
        assert inner.query_count == queries
