"""Exact query accounting: global totals and per-call tallies.

Service dispatchers and library callers may run whole searches on
concurrent threads against one shared (cached) model.  Two things must hold
for per-explanation ``num_queries`` to mean anything:

* the *global* counters (``query_count``, ``hits``, ``misses``) lose no
  updates under concurrency (the pre-fix base ``CostModel`` incremented
  ``query_count`` without a lock), and
* every call returns the tally of exactly its own work
  (:meth:`CostModel.predict_counted`,
  :meth:`CostModel.predict_batch_segmented`), so a search that sums the
  tallies of its own calls counts its queries only — not whatever other
  threads did meanwhile, and not a call that raised.
"""

import pickle
import queue
import sys
import threading

import pytest

from repro.bb.block import BasicBlock
from repro.data.synthesis import BlockSynthesizer
from repro.explain.explainer import answer_round
from repro.models.analytical import AnalyticalCostModel
from repro.models.base import NO_QUERIES, CachedCostModel, CallableCostModel, QueryTally
from repro.reporting.export import explanation_to_dict
from repro.runtime.session import ExplanationSession

from tests.conftest import FAST_CONFIG


def _distinct_blocks(count, seed=3):
    return BlockSynthesizer(rng=seed).generate_many(
        count, min_instructions=2, max_instructions=5, rng=seed + 1
    )


def _hammer(threads, work):
    """Run ``work(index)`` on N threads behind a start barrier; re-raise.

    A short switch interval makes the threads interleave inside the
    counting code, where a lost update would show.
    """
    barrier = threading.Barrier(threads)
    errors = []

    def run(index):
        try:
            barrier.wait(timeout=30)
            work(index)
        except Exception as error:  # surfaced to the main thread
            errors.append(error)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert not errors, errors
    return pool


class TestGlobalCountersAreExact:
    THREADS = 8
    ROUNDS = 200

    def test_plain_model_query_count_is_lost_update_free(self, tiny_block):
        model = CallableCostModel(lambda block: 1.0)

        def work(index):
            for _ in range(self.ROUNDS):
                model.predict(tiny_block)

        _hammer(self.THREADS, work)
        assert model.query_count == self.THREADS * self.ROUNDS

    def test_cached_model_totals_are_exact_under_concurrency(self):
        blocks = _distinct_blocks(4)
        model = CachedCostModel(AnalyticalCostModel("hsw"))

        def work(index):
            for _ in range(self.ROUNDS):
                for block in blocks:
                    model.predict(block)

        _hammer(self.THREADS, work)
        lookups = self.THREADS * self.ROUNDS * len(blocks)
        assert model.hits + model.misses == lookups
        # Every miss is one inner query, and the distinct blocks were
        # computed at least once each; duplicates of one key may race to
        # miss together (both saw the cache before either stored), but
        # hits + misses never drifts from the lookup count.
        assert model.query_count == model.misses
        assert model.misses >= len(blocks)
        assert model.inner.query_count == model.query_count

    def test_batch_path_totals_are_exact_under_concurrency(self):
        blocks = _distinct_blocks(6)
        model = CachedCostModel(AnalyticalCostModel("hsw"))

        def work(index):
            for _ in range(50):
                model.predict_batch(blocks)

        _hammer(self.THREADS, work)
        assert model.hits + model.misses == self.THREADS * 50 * len(blocks)
        assert model.query_count == model.misses


class TestPerCallTallies:
    def test_each_thread_sums_its_own_call_tallies(self):
        blocks = _distinct_blocks(4)
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        per_thread = {}
        lock = threading.Lock()

        def work(index):
            # Each thread owns two of the four blocks and asks for them
            # through both entry points: the tallies its own calls returned
            # must add up to exactly its own lookups.
            single, batched = blocks[index * 2 : index * 2 + 2]
            spent = NO_QUERIES
            for _ in range(25):
                spent += model.predict_counted(single)[1]
                spent += model.predict_batch_segmented([[batched]])[1][0]
            with lock:
                per_thread[index] = spent

        _hammer(2, work)
        for spent in per_thread.values():
            assert spent.hits + spent.misses == 50
            # The key sets are disjoint, so exactly this thread's two first
            # lookups miss, and each miss is one inner query.
            assert spent == QueryTally(2, 48, 2)
        total = per_thread[0] + per_thread[1]
        assert (model.query_count, model.hits, model.misses) == (
            total.queries,
            total.hits,
            total.misses,
        )
        assert model.inner.query_count == model.query_count == 4

    def test_predict_counted_carries_hit_miss_split(self, tiny_block):
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        calls = [model.predict_counted(tiny_block) for _ in range(3)]
        assert [tally for _, tally in calls] == [
            QueryTally(1, 0, 1),
            QueryTally(0, 1, 0),
            QueryTally(0, 1, 0),
        ]
        assert len({value for value, _ in calls}) == 1
        assert model.predict(tiny_block) == calls[0][0]
        assert (model.query_count, model.hits, model.misses) == (1, 3, 1)

    def test_segments_attribute_each_lookup_to_its_asker(self):
        a, b, c = _distinct_blocks(3)
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        values, tallies, shared_hits = model.predict_batch_segmented(
            [[a, b, a], [b, c], [c, a]]
        )
        reference = AnalyticalCostModel("hsw")
        assert values == [
            reference.predict_batch(segment) for segment in ([a, b, a], [b, c], [c, a])
        ]
        # A miss belongs to the first segment that asks; a repeat within its
        # own segment is a plain hit, one from an earlier segment is shared.
        assert tallies == [QueryTally(2, 1, 2), QueryTally(1, 1, 1), QueryTally(0, 2, 0)]
        assert shared_hits == 3
        assert (model.query_count, model.hits, model.misses) == (3, 4, 3)
        assert model.inner.query_count == 3

    def test_one_segment_call_is_predict_batch(self):
        blocks = _distinct_blocks(3)
        batch = [blocks[0], blocks[1], blocks[0], blocks[2]]
        plain = CachedCostModel(AnalyticalCostModel("hsw"))
        segmented = CachedCostModel(AnalyticalCostModel("hsw"))
        values, tallies, shared_hits = segmented.predict_batch_segmented([batch])
        assert values == [plain.predict_batch(batch)]
        assert tallies == [QueryTally(3, 1, 3)] and shared_hits == 0
        assert (plain.query_count, plain.hits, plain.misses) == (3, 1, 3)

    def test_failed_call_counts_nothing(self, tiny_block):
        inner = _FailingModel(fail_batch=lambda blocks: True)
        model = CachedCostModel(inner)
        model.predict(BasicBlock.from_text("nop"))  # one answered call
        inner.fail_single = True
        with pytest.raises(RuntimeError):
            model.predict_batch_segmented([[tiny_block], [tiny_block]])
        with pytest.raises(RuntimeError):
            model.predict_counted(tiny_block)
        # The failed calls' lookups (a miss, a duplicate hit, another miss)
        # count nowhere on the wrapper; the inner model counts its attempts.
        assert (model.query_count, model.hits, model.misses) == (1, 0, 1)
        assert inner.query_count == 3


class _FailingModel(AnalyticalCostModel):
    """Batch calls raise when ``fail_batch`` accepts them, single-block calls
    while ``fail_single`` is set."""

    def __init__(self, fail_batch, fail_single=False):
        super().__init__("hsw")
        self.fail_batch = fail_batch
        self.fail_single = fail_single

    def _predict(self, block):
        if self.fail_single:
            raise RuntimeError("predict fails")
        return super()._predict(block)

    def _predict_batch(self, blocks):
        if self.fail_batch(blocks):
            raise RuntimeError("batch fails")
        return super()._predict_batch(blocks)


class TestAccountingSurvivesPickling:
    def test_cached_model_round_trips(self, tiny_block):
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        model.predict(tiny_block)
        clone = pickle.loads(pickle.dumps(model))
        # The lock is rebuilt; the cache contents and totals travel, so the
        # clone answers from its warm cache and keeps counting from there.
        assert clone.predict_counted(tiny_block) == (
            model.predict(tiny_block),
            QueryTally(0, 1, 0),
        )
        assert (clone.query_count, clone.hits, clone.misses) == (1, 1, 1)

    def test_plain_model_round_trips(self):
        model = AnalyticalCostModel("hsw")
        block = BasicBlock.from_text("add rcx, rax\nmov rdx, rcx")
        model.predict(block)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.predict_counted(block) == (model.predict(block), QueryTally(1))
        assert clone.query_count == 2


class TestSearchTallies:
    BLOCK = "add rcx, rax\nmov rdx, rcx\npop rbx\nimul rax, rdx"

    def test_search_split_across_threads_charges_what_explain_charges(self):
        """A search resumed on one thread whose rounds are answered on
        another charges exactly what a blocking explain charges."""
        block = BasicBlock.from_text(self.BLOCK)
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="serial"
        ) as session:
            expected = session.explain(block, rng=3)
            expected_work = session.stats()
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="serial"
        ) as session:
            rounds = session.explain_rounds(block, 3)
            to_answer, answered = queue.Queue(), queue.Queue()
            result = {}

            def resume():
                answer = None
                while True:
                    try:
                        to_answer.put(rounds.send(answer))
                    except StopIteration as done:
                        result["explanation"] = done.value
                        to_answer.put(None)
                        return
                    answer = answered.get(timeout=30)

            def answer_all():
                while (blocks := to_answer.get(timeout=30)) is not None:
                    answered.put(answer_round(rounds, blocks, session.model))

            _hammer(2, lambda index: (resume, answer_all)[index]())
            work = session.stats()
        explanation = result["explanation"]
        assert explanation_to_dict(explanation) == explanation_to_dict(expected)
        assert explanation.num_queries == expected.num_queries == work.model_queries
        assert work == expected_work

    def test_model_error_mid_search_counts_only_answered_calls(self):
        """The failed call counts nowhere: the session's counters equal the
        wrapper's totals, and both leave the failed call's queries out."""
        calls = []

        def third_call(blocks):
            calls.append(len(blocks))
            return len(calls) == 3

        inner = _FailingModel(fail_batch=third_call)
        with ExplanationSession(inner, FAST_CONFIG, backend="serial") as session:
            with pytest.raises(RuntimeError, match="batch fails"):
                session.explain(BasicBlock.from_text(self.BLOCK), rng=3)
            stats = session.stats()
            model = session.model
        assert len(calls) == 3
        assert (stats.model_queries, stats.cache_hits, stats.cache_misses) == (
            model.query_count,
            model.hits,
            model.misses,
        )
        # The original prediction plus the two answered rounds.
        assert stats.model_queries == 1 + calls[0] + calls[1]
        assert inner.query_count == stats.model_queries + calls[2]
        assert stats.perturbations > 0
