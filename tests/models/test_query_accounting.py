"""Thread-exact query accounting: global totals and per-thread tallies.

Service dispatchers and library callers may run whole searches on
concurrent threads against one shared (cached) model.  Two things must hold
for per-explanation ``num_queries`` to mean anything:

* the *global* counters (``query_count``, ``hits``, ``misses``) lose no
  updates under concurrency (the pre-fix base ``CostModel`` incremented
  ``query_count`` without a lock), and
* each thread can snapshot *its own* contribution
  (:meth:`CostModel.query_tally`), so a :class:`QueryCounter` wrapped
  around one search counts that search's queries only — not whatever the
  other threads did meanwhile.
"""

import pickle
import threading

from repro.bb.block import BasicBlock
from repro.data.synthesis import BlockSynthesizer
from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CachedCostModel, CallableCostModel, QueryCounter


def _distinct_blocks(count, seed=3):
    return BlockSynthesizer(rng=seed).generate_many(
        count, min_instructions=2, max_instructions=5, rng=seed + 1
    )


def _hammer(threads, work):
    """Run ``work(index)`` on N threads behind a start barrier; re-raise."""
    barrier = threading.Barrier(threads)
    errors = []

    def run(index):
        try:
            barrier.wait(timeout=30)
            work(index)
        except Exception as error:  # surfaced to the main thread
            errors.append(error)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=60)
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


class TestPerThreadTallies:
    def test_tally_scoped_to_calling_thread(self):
        blocks = _distinct_blocks(8)
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        per_thread = {}
        lock = threading.Lock()

        def work(index):
            # Each thread owns two of the eight blocks: its tally must see
            # exactly its own lookups, not the other threads'.
            mine = blocks[index * 2 : index * 2 + 2]
            before = model.query_tally()
            for _ in range(25):
                for block in mine:
                    model.predict(block)
            delta = model.query_tally().delta(before)
            with lock:
                per_thread[index] = delta

        _hammer(4, work)
        for index, delta in per_thread.items():
            assert delta.hits + delta.misses == 50
            assert delta.queries == delta.misses
            # This thread's two blocks miss only on first sight *by this
            # thread or nobody* — and since the key sets are disjoint,
            # exactly its own two first-misses are its queries.
            assert delta.misses == 2
        assert model.query_count == 8
        assert model.hits + model.misses == 4 * 50

    def test_query_counter_isolates_concurrent_measurements(self):
        """Two QueryCounters on two threads must not see each other."""
        blocks = _distinct_blocks(4)
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        measured = {}
        lock = threading.Lock()

        def work(index):
            mine = blocks[index * 2 : index * 2 + 2]
            with QueryCounter(model) as counter:
                for block in mine:
                    model.predict(block)
                    model.predict(block)
            with lock:
                measured[index] = counter

        _hammer(2, work)
        for counter in measured.values():
            assert counter.queries == 2  # two distinct blocks, own misses only
            assert counter.misses == 2
            assert counter.hits == 2  # the repeat predicts
        assert model.query_count == 4  # but the global view has everything

    def test_query_counter_carries_hit_miss_split(self, tiny_block):
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        with QueryCounter(model) as counter:
            model.predict(tiny_block)
            model.predict(tiny_block)
            model.predict(tiny_block)
        assert counter.queries == 1
        assert counter.misses == 1
        assert counter.hits == 2

    def test_fresh_thread_starts_from_zero(self, tiny_block):
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        model.predict(tiny_block)
        seen = {}

        def work():
            seen["tally"] = model.query_tally()

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert seen["tally"].queries == 0
        assert seen["tally"].hits == 0
        assert model.query_tally().queries == 1  # main thread kept its own


class TestAccountingSurvivesPickling:
    def test_cached_model_round_trips(self, tiny_block):
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        model.predict(tiny_block)
        clone = pickle.loads(pickle.dumps(model))
        # Thread tallies do not travel (locks and thread-locals are rebuilt,
        # so the clone's calling thread starts at zero), but the cache
        # contents do — the clone answers from its warm cache.
        assert clone.query_tally().queries == 0
        assert clone.predict(tiny_block) == model.predict(tiny_block)
        assert clone.query_tally().hits == 1
        assert clone.query_tally().queries == 0

    def test_plain_model_round_trips(self):
        model = AnalyticalCostModel("hsw")
        block = BasicBlock.from_text("add rcx, rax\nmov rdx, rcx")
        model.predict(block)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.predict(block) == model.predict(block)
        assert clone.query_tally().queries == 1
