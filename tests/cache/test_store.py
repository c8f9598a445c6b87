"""The tiered result store: round-trips, LRU demotion/promotion, counters.

The store's contract has three load-bearing clauses the explanation layers
above lean on: a ``get`` returns exactly what ``put`` stored (the
memoization premise), tier-0 eviction *demotes* disk-backed entries rather
than losing them (warmth is recoverable), and every counter in
:class:`~repro.cache.store.CacheStats` adds up (the service's ``stats`` op
reports these numbers to operators).  Corruption behaviour has its own
module (``test_store_corruption.py``).
"""

import pickle

import pytest

from repro.bb.block import BasicBlock
from repro.cache import STORE_MAGIC, CacheError, ResultCache
from repro.explain.explanation import Explanation


def make_explanation(index: int) -> Explanation:
    """A small, distinct, picklable explanation for slot ``index``."""
    block = BasicBlock.from_text("add rcx, rax\nmov rdx, rcx")
    return Explanation(
        block=block,
        model_name=f"model-{index}",
        prediction=1.0 + index,
        features=(),
        precision=0.9,
        coverage=0.5,
        meets_threshold=True,
        epsilon=0.2,
        num_queries=10 * index,
        precision_samples=40,
        candidates_evaluated=3,
    )


def fp(index: int) -> str:
    """A syntactically valid (64-hex-char) fingerprint for slot ``index``."""
    return f"{index:064x}"


class TestRoundTrip:
    def test_memory_only_round_trip(self):
        with ResultCache() as cache:
            explanation = make_explanation(1)
            assert cache.get(fp(1)) is None
            cache.put(fp(1), explanation)
            assert cache.get(fp(1)) is explanation
            assert len(cache) == 1

    def test_disk_round_trip_same_handle(self, tmp_path):
        with ResultCache(tmp_path / "store.cache") as cache:
            explanation = make_explanation(2)
            cache.put(fp(2), explanation)
            assert cache.get(fp(2)) is explanation

    def test_disk_round_trip_across_restart(self, tmp_path):
        path = tmp_path / "store.cache"
        original = make_explanation(3)
        with ResultCache(path) as cache:
            cache.put(fp(3), original)
        with ResultCache(path) as reopened:
            revived = reopened.get(fp(3))
        assert revived is not None
        assert revived is not original  # a fresh unpickle, not a live alias
        assert pickle.dumps(revived) == pickle.dumps(original)

    def test_put_is_idempotent_on_disk(self, tmp_path):
        path = tmp_path / "store.cache"
        with ResultCache(path) as cache:
            cache.put(fp(4), make_explanation(4))
            size_after_first = path.stat().st_size
            cache.put(fp(4), make_explanation(4))
            assert path.stat().st_size == size_after_first

    def test_distinct_fingerprints_stay_distinct(self, tmp_path):
        with ResultCache(tmp_path / "store.cache") as cache:
            for index in range(5):
                cache.put(fp(index), make_explanation(index))
            for index in range(5):
                assert cache.get(fp(index)).model_name == f"model-{index}"

    def test_invalid_fingerprint_refused(self):
        with ResultCache() as cache:
            with pytest.raises(CacheError):
                cache.get("short")
            with pytest.raises(CacheError):
                cache.put("short", make_explanation(0))

    def test_non_explanation_payload_refused(self):
        with ResultCache() as cache:
            with pytest.raises(CacheError):
                cache.put(fp(0), {"not": "an explanation"})


class TestLRU:
    def test_eviction_demotes_disk_backed_entries(self, tmp_path):
        """Evicting a written-through entry loses warmth, not the value."""
        with ResultCache(tmp_path / "s.cache", max_memory_entries=2) as cache:
            for index in range(4):
                cache.put(fp(index), make_explanation(index))
            stats = cache.stats()
            assert stats.memory.entries == 2
            assert stats.memory.evictions == 2
            # The evicted entries promote back from tier 1.
            revived = cache.get(fp(0))
            assert revived.model_name == "model-0"
            assert cache.stats().disk.hits == 1

    def test_memory_only_cache_forgets_evicted_entries(self):
        with ResultCache(max_memory_entries=2) as cache:
            for index in range(3):
                cache.put(fp(index), make_explanation(index))
            assert cache.get(fp(0)) is None  # oldest fell off; nothing below
            assert cache.get(fp(2)) is not None

    def test_get_promotes_to_most_recently_used(self):
        with ResultCache(max_memory_entries=2) as cache:
            cache.put(fp(0), make_explanation(0))
            cache.put(fp(1), make_explanation(1))
            cache.get(fp(0))  # 0 is now MRU; 1 is the eviction candidate
            cache.put(fp(2), make_explanation(2))
            assert cache.get(fp(0)) is not None
            assert cache.get(fp(1)) is None

    def test_eviction_under_lease_leaves_caller_copy_intact(self, tmp_path):
        """A caller holding a returned explanation survives its eviction."""
        with ResultCache(tmp_path / "s.cache", max_memory_entries=1) as cache:
            cache.put(fp(0), make_explanation(0))
            leased = cache.get(fp(0))
            blob = pickle.dumps(leased)
            cache.put(fp(1), make_explanation(1))  # evicts fp(0) from tier 0
            assert pickle.dumps(leased) == blob
            # And the entry itself is still servable (promoted from disk).
            assert pickle.dumps(cache.get(fp(0))) == blob


class TestCounters:
    def test_hit_miss_store_accounting(self, tmp_path):
        with ResultCache(tmp_path / "s.cache") as cache:
            cache.get(fp(0))  # memory miss + disk miss
            cache.put(fp(0), make_explanation(0))
            cache.get(fp(0))  # memory hit
            stats = cache.stats()
            assert stats.memory.hits == 1
            assert stats.memory.misses == 1
            assert stats.memory.stores == 1
            assert stats.disk.misses == 1
            assert stats.disk.stores == 1
            assert stats.lookups == 2
            assert stats.hits == 1
            assert stats.hit_rate == 0.5
            assert "result cache" in stats.describe()

    def test_disk_bytes_and_entries_track_the_file(self, tmp_path):
        path = tmp_path / "s.cache"
        with ResultCache(path) as cache:
            cache.put(fp(0), make_explanation(0))
            cache.put(fp(1), make_explanation(1))
            stats = cache.stats()
            assert stats.disk.entries == 2
            assert stats.disk.bytes == path.stat().st_size
            assert stats.disk.bytes > len(STORE_MAGIC)


class TestLifecycle:
    def test_closed_cache_refuses_typed(self, tmp_path):
        cache = ResultCache(tmp_path / "s.cache")
        cache.put(fp(0), make_explanation(0))
        cache.close()
        cache.close()  # idempotent
        assert cache.closed
        with pytest.raises(CacheError):
            cache.get(fp(0))
        with pytest.raises(CacheError):
            cache.put(fp(1), make_explanation(1))

    def test_parent_directories_are_created(self, tmp_path):
        nested = tmp_path / "a" / "b" / "store.cache"
        with ResultCache(nested) as cache:
            cache.put(fp(0), make_explanation(0))
        assert nested.exists()

    def test_max_memory_entries_validated(self):
        with pytest.raises(ValueError):
            ResultCache(max_memory_entries=0)


class TestCrossHandleVisibility:
    """Two handles on one file — the in-process stand-in for two processes
    (the real two-process test lives in the service suite)."""

    def test_second_handle_sees_existing_entries(self, tmp_path):
        path = tmp_path / "shared.cache"
        with ResultCache(path) as writer, ResultCache(path) as reader:
            writer.put(fp(0), make_explanation(0))
            assert reader.get(fp(0)) is not None

    def test_refresh_reports_newly_visible_records(self, tmp_path):
        path = tmp_path / "shared.cache"
        with ResultCache(path) as writer, ResultCache(path) as reader:
            assert reader.refresh() == 0
            writer.put(fp(0), make_explanation(0))
            writer.put(fp(1), make_explanation(1))
            assert reader.refresh() == 2

    def test_concurrent_put_of_same_fingerprint_appends_once(self, tmp_path):
        path = tmp_path / "shared.cache"
        with ResultCache(path) as first, ResultCache(path) as second:
            first.put(fp(0), make_explanation(0))
            size = path.stat().st_size
            # The second handle has no index entry yet; the rescan inside
            # its append must dedupe instead of writing a twin record.
            second.put(fp(0), make_explanation(0))
            assert path.stat().st_size == size
