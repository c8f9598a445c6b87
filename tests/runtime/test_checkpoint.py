"""Tests for crash-safe checkpointed ``explain_many`` runs.

The contract under test: a checkpoint file is a result-cache store, an
interrupted-and-resumed checkpointed run is bit-for-bit identical to an
uninterrupted one, and content addressing (block, model, uarch, config,
child seed) decides which positions a stored entry answers — so damage is
recomputed or refused, never served, and the file is shareable with every
other result-cache user.
"""

import json
import os

import numpy as np
import pytest

from repro.cache import STORE_MAGIC, CacheError, ResultCache
from repro.cli import main
from repro.models.analytical import AnalyticalCostModel
from repro.runtime.session import ExplanationSession
from repro.utils.errors import CheckpointError, ModelError

from tests.conftest import FAST_CONFIG, explanation_fingerprint


#: A line in the JSONL format checkpoints used before they became
#: result-cache stores.
_OLD_JOURNAL = json.dumps({"position": 0, "key": "0:ab", "payload": "gASV"}) + "\n"


def _checkpointed_run(blocks, path, seed=7, **options):
    with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
        results = session.explain_many(blocks, rng=seed, checkpoint=path, **options)
        return results, session.stats()


def _payloads(explanations):
    return [explanation_fingerprint(e) for e in explanations]


def _distinct(blocks, count):
    fleet = list(blocks[:count])
    assert len({block.key() for block in fleet}) == count
    return fleet


def _with_repeats(blocks):
    """``[a, b, a, c, a]``: every position is keyed by its own child seed,
    so a store answers repeats exactly as it answers distinct blocks."""
    a, b, c = _distinct(blocks, 3)
    return [a, b, a, c, a]


class TestSessionCheckpointing:
    def test_checkpoint_requires_integer_seed(self, tmp_path, tiny_blocks):
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            for bad in (np.random.default_rng(0), None, True):
                with pytest.raises(CheckpointError, match="integer seed"):
                    session.explain_many(
                        tiny_blocks, rng=bad, checkpoint=tmp_path / "run.cache"
                    )

    def test_numpy_integer_seed_accepted(self, tmp_path, tiny_blocks):
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            results = session.explain_many(
                tiny_blocks, rng=np.int64(7), checkpoint=tmp_path / "run.cache"
            )
        assert len(results) == len(tiny_blocks)

    def test_completed_run_resumes_as_pure_replay(self, tmp_path, tiny_blocks):
        path = tmp_path / "run.cache"
        first, first_stats = _checkpointed_run(tiny_blocks, path)
        again, again_stats = _checkpointed_run(tiny_blocks, path)
        assert [explanation_fingerprint(e) for e in again] == [
            explanation_fingerprint(e) for e in first
        ]
        assert first_stats.checkpoint_skips == 0
        assert again_stats.checkpoint_skips == len(tiny_blocks)
        assert again_stats.explanations == 0  # nothing recomputed
        assert "checkpoint skips" in again_stats.describe()

    def test_interrupted_run_resumes_bit_for_bit(
        self, tmp_path, block_fleet, monkeypatch
    ):
        """The tentpole guarantee: crash mid-run, rerun, identical output."""
        fleet = list(block_fleet[:6])
        uninterrupted, _ = _checkpointed_run(fleet, tmp_path / "clean.cache")

        # Crash the process (well, the call) right after the store fsyncs
        # its second entry — the exact frontier a real OOM kill leaves.
        crashed = tmp_path / "crashed.cache"
        real_put = ResultCache.put
        recorded = []

        def crashing_put(self, fingerprint, explanation):
            real_put(self, fingerprint, explanation)
            recorded.append(fingerprint)
            if len(recorded) == 2:
                raise ModelError("simulated crash mid-run")

        with monkeypatch.context() as patch:
            patch.setattr(ResultCache, "put", crashing_put)
            with ExplanationSession(
                AnalyticalCostModel("hsw"), FAST_CONFIG
            ) as session:
                with pytest.raises(ModelError, match="simulated crash"):
                    session.explain_many(fleet, rng=7, checkpoint=crashed)
        assert len(recorded) == 2  # genuinely interrupted mid-run

        resumed, stats = _checkpointed_run(fleet, crashed)
        assert [explanation_fingerprint(e) for e in resumed] == [
            explanation_fingerprint(e) for e in uninterrupted
        ]
        assert stats.checkpoint_skips == 2
        assert stats.explanations == len(fleet) - 2

    @pytest.mark.parametrize("shards", [None, 2])
    def test_resume_with_other_shards_keeps_the_journal(
        self, tmp_path, tiny_blocks, shards
    ):
        """Checkpointed runs are sequential whatever ``shards`` says, so a
        resume with another value is answered from the store."""
        path = tmp_path / "run.cache"
        first, _ = _checkpointed_run(tiny_blocks, path)
        again, stats = _checkpointed_run(tiny_blocks, path, shards=shards)
        assert stats.checkpoint_skips == len(tiny_blocks)
        assert [explanation_fingerprint(e) for e in again] == [
            explanation_fingerprint(e) for e in first
        ]

    def test_different_seed_does_not_reuse_the_journal(self, tmp_path, tiny_blocks):
        path = tmp_path / "run.cache"
        _checkpointed_run(tiny_blocks, path, seed=7)
        _, stats = _checkpointed_run(tiny_blocks, path, seed=8)
        assert stats.checkpoint_skips == 0  # other child seeds → other entries

    def test_checkpointed_matches_plain_sequential_run(self, tmp_path, tiny_blocks):
        """Checkpointing must not change what gets computed, only what is kept."""
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            plain = session.explain_many(tiny_blocks, rng=7, shards=None)
        checkpointed, _ = _checkpointed_run(tiny_blocks, tmp_path / "run.cache")
        assert [explanation_fingerprint(e) for e in checkpointed] == [
            explanation_fingerprint(e) for e in plain
        ]


class TestCheckpointStore:
    """A checkpoint file is a result-cache store, addressed by content."""

    def test_changed_position_is_the_only_one_recomputed(
        self, tmp_path, block_fleet
    ):
        fleet = _distinct(block_fleet, 5)
        changed = list(fleet)
        changed[2] = block_fleet[5]
        assert block_fleet[5].key() not in {block.key() for block in fleet}
        path = tmp_path / "run.cache"
        _checkpointed_run(fleet, path)
        resumed, stats = _checkpointed_run(changed, path)
        assert stats.checkpoint_skips == len(changed) - 1
        assert stats.explanations == 1
        clean, _ = _checkpointed_run(changed, tmp_path / "clean.cache")
        assert _payloads(resumed) == _payloads(clean)

    def test_checkpoint_file_answers_a_result_cache_session(
        self, tmp_path, block_fleet
    ):
        fleet = _with_repeats(block_fleet)
        path = tmp_path / "run.cache"
        stored, _ = _checkpointed_run(fleet, path)
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, result_cache=path
        ) as session:
            served = session.explain_many(fleet, rng=7)
            stats = session.stats()
        assert stats.model_queries == 0
        assert stats.result_cache.hits == len(fleet)
        assert _payloads(served) == _payloads(stored)
        assert [e.num_queries for e in served] == [e.num_queries for e in stored]

    def test_result_cache_file_answers_a_checkpointed_run(
        self, tmp_path, block_fleet
    ):
        fleet = _with_repeats(block_fleet)
        path = tmp_path / "results.cache"
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, result_cache=path
        ) as session:
            computed = session.explain_many(fleet, rng=7)
        replayed, stats = _checkpointed_run(fleet, path)
        assert stats.checkpoint_skips == len(fleet)
        assert stats.explanations == 0 and stats.model_queries == 0
        assert _payloads(replayed) == _payloads(computed)
        assert [e.num_queries for e in replayed] == [e.num_queries for e in computed]

    def test_no_manifest_is_written(self, tmp_path, tiny_blocks):
        path = tmp_path / "run.cache"
        _checkpointed_run(tiny_blocks, path)
        assert sorted(tmp_path.iterdir()) == [path]
        assert path.read_bytes().startswith(STORE_MAGIC)

    def test_old_journal_is_refused_untouched(self, tmp_path, tiny_blocks):
        path = tmp_path / "run.jsonl"
        path.write_text(_OLD_JOURNAL)
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            with pytest.raises(CacheError, match="not a result-cache store"):
                session.explain_many(tiny_blocks, rng=7, checkpoint=path)
            assert session.stats().explanations == 0
        assert path.read_text() == _OLD_JOURNAL

    def test_cli_refuses_an_old_journal(self, tmp_path, capsys):
        fleet = tmp_path / "fleet.txt"
        fleet.write_text("add rcx, rax; mov rdx, rcx\nxor edx, edx; div rcx\n")
        old = tmp_path / "old.jsonl"
        old.write_text(_OLD_JOURNAL)
        code = main(
            ["explain", "--model", "crude", "--blocks-file", str(fleet),
             "--checkpoint", str(old), "--seed", "3"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(old) in err and "not a result-cache store" in err
        assert old.read_text() == _OLD_JOURNAL

    def test_damaged_entry_is_recomputed_not_served(self, tmp_path, block_fleet):
        fleet = _distinct(block_fleet, 5)
        clean, _ = _checkpointed_run(fleet, tmp_path / "clean.cache")
        path = tmp_path / "run.cache"
        _checkpointed_run(fleet, path)
        with ResultCache(path) as probe:
            # Records are appended in fleet order: flip entry 3's payload.
            offset, total = sorted(probe._index.values())[2]
        with open(path, "r+b") as handle:
            handle.seek(offset + total - 2)
            original = handle.read(1)
            handle.seek(offset + total - 2)
            handle.write(bytes([original[0] ^ 0xFF]))
        resumed, stats = _checkpointed_run(fleet, path)
        assert stats.checkpoint_skips == 2
        assert stats.explanations == len(fleet) - 2
        assert _payloads(resumed) == _payloads(clean)

    @pytest.mark.parametrize("kept", ["header", 10])
    def test_run_torn_mid_write_resumes_to_completion(
        self, tmp_path, block_fleet, monkeypatch, kept
    ):
        """A crash inside the third append leaves a torn record; the resume
        cuts it, and a run after the resume is answered from the store."""
        fleet = _distinct(block_fleet, 6)
        clean, _ = _checkpointed_run(fleet, tmp_path / "clean.cache")
        path = tmp_path / "run.cache"
        real_append = ResultCache._append_record
        appended = []

        def tearing_append(self, fingerprint, fp_raw, blob):
            real_append(self, fingerprint, fp_raw, blob)
            appended.append(fingerprint)
            if len(appended) == 3:
                total = self._index[fingerprint][1]
                keep = total - len(blob) // 2 if kept == "header" else kept
                os.truncate(self.path, self.path.stat().st_size - total + keep)
                raise ModelError("simulated crash mid-write")

        with monkeypatch.context() as patch:
            patch.setattr(ResultCache, "_append_record", tearing_append)
            with pytest.raises(ModelError, match="mid-write"):
                _checkpointed_run(fleet, path)
        resumed, resumed_stats = _checkpointed_run(fleet, path)
        assert resumed_stats.checkpoint_skips == 2
        again, stats = _checkpointed_run(fleet, path)
        assert stats.checkpoint_skips == len(fleet)
        assert _payloads(resumed) == _payloads(again) == _payloads(clean)
