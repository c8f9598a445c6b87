"""Tests for crash-safe checkpointed ``explain_many`` runs.

The contract under test: an interrupted-and-resumed checkpointed run is
bit-for-bit identical to an uninterrupted one, stale journals are discarded
rather than half-trusted, and corruption fails loudly instead of returning
wrong explanations.
"""

import json

import numpy as np
import pytest

from repro.models.analytical import AnalyticalCostModel
from repro.runtime.checkpoint import (
    JOURNAL_VERSION,
    CheckpointJournal,
    _entry_key,
    run_fingerprint,
)
from repro.runtime.session import ExplanationSession
from repro.utils.errors import CheckpointError, ModelError

from tests.conftest import FAST_CONFIG, explanation_fingerprint


def _checkpointed_run(blocks, path, seed=7, **options):
    with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
        results = session.explain_many(blocks, rng=seed, checkpoint=path, **options)
        return results, session.stats()


class TestFingerprint:
    def _base(self, tiny_blocks, **overrides):
        params = dict(
            blocks=tiny_blocks,
            model_name="m",
            uarch="hsw",
            config=FAST_CONFIG,
            seed=0,
        )
        params.update(overrides)
        return run_fingerprint(**params)

    def test_stable_for_identical_runs(self, tiny_blocks):
        assert self._base(tiny_blocks) == self._base(tiny_blocks)

    def test_changes_with_every_result_defining_input(self, tiny_blocks):
        base = self._base(tiny_blocks)
        assert self._base(tiny_blocks, seed=1) != base
        assert self._base(tiny_blocks, model_name="other") != base
        assert self._base(tiny_blocks, uarch="skl") != base
        assert self._base(tiny_blocks, blocks=tiny_blocks[:2]) != base
        assert self._base(tiny_blocks, blocks=list(reversed(tiny_blocks))) != base

    def test_changes_with_config(self, tiny_blocks):
        from repro.explain.config import ExplainerConfig

        other = ExplainerConfig(epsilon=0.9)
        assert self._base(tiny_blocks, config=other) != self._base(tiny_blocks)


class TestJournalLifecycle:
    def test_fresh_journal_writes_manifest(self, tmp_path, tiny_blocks):
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path, fingerprint="f" * 64, fleet_size=3) as journal:
            assert journal.completed == {}
            assert journal.skipped == 0
        manifest = json.loads((tmp_path / "run.jsonl.manifest").read_text())
        assert manifest["version"] == JOURNAL_VERSION
        assert manifest["fingerprint"] == "f" * 64
        assert manifest["fleet_size"] == 3

    def test_record_then_resume_recovers_entries(self, tmp_path, tiny_blocks, seeded_session):
        path = tmp_path / "run.jsonl"
        explanation = seeded_session.explain(tiny_blocks[0], rng=0)
        with CheckpointJournal(path, fingerprint="f" * 64, fleet_size=3) as journal:
            journal.record(0, tiny_blocks[0], explanation)
        with CheckpointJournal(path, fingerprint="f" * 64, fleet_size=3) as journal:
            assert journal.skipped == 1
            assert set(journal.completed) == {0}
            recovered = journal.completed[0]
            assert explanation_fingerprint(recovered) == explanation_fingerprint(
                explanation
            )
            journal.verify_entry_keys(tiny_blocks)  # matching fleet is fine

    def test_torn_final_line_is_ignored(self, tmp_path, tiny_blocks, seeded_session):
        path = tmp_path / "run.jsonl"
        explanation = seeded_session.explain(tiny_blocks[0], rng=0)
        with CheckpointJournal(path, fingerprint="f" * 64, fleet_size=3) as journal:
            journal.record(0, tiny_blocks[0], explanation)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"position": 1, "key": "1:dead", "payl')  # the crash
        with CheckpointJournal(path, fingerprint="f" * 64, fleet_size=3) as journal:
            assert set(journal.completed) == {0}

    def test_mismatched_fingerprint_discards_journal(
        self, tmp_path, tiny_blocks, seeded_session
    ):
        path = tmp_path / "run.jsonl"
        explanation = seeded_session.explain(tiny_blocks[0], rng=0)
        with CheckpointJournal(path, fingerprint="a" * 64, fleet_size=3) as journal:
            journal.record(0, tiny_blocks[0], explanation)
        with CheckpointJournal(path, fingerprint="b" * 64, fleet_size=3) as journal:
            assert journal.completed == {}
            assert journal.skipped == 0
        # The stale entries are gone for good, not merely hidden.
        assert path.read_text() == ""

    def test_mismatched_fleet_size_discards_journal(
        self, tmp_path, tiny_blocks, seeded_session
    ):
        path = tmp_path / "run.jsonl"
        explanation = seeded_session.explain(tiny_blocks[0], rng=0)
        with CheckpointJournal(path, fingerprint="a" * 64, fleet_size=3) as journal:
            journal.record(0, tiny_blocks[0], explanation)
        with CheckpointJournal(path, fingerprint="a" * 64, fleet_size=4) as journal:
            assert journal.completed == {}

    def test_missing_manifest_discards_journal(
        self, tmp_path, tiny_blocks, seeded_session
    ):
        path = tmp_path / "run.jsonl"
        explanation = seeded_session.explain(tiny_blocks[0], rng=0)
        with CheckpointJournal(path, fingerprint="a" * 64, fleet_size=3) as journal:
            journal.record(0, tiny_blocks[0], explanation)
        (tmp_path / "run.jsonl.manifest").unlink()
        with CheckpointJournal(path, fingerprint="a" * 64, fleet_size=3) as journal:
            assert journal.completed == {}

    def test_out_of_range_position_refused(self, tmp_path, tiny_blocks, seeded_session):
        path = tmp_path / "run.jsonl"
        explanation = seeded_session.explain(tiny_blocks[0], rng=0)
        with CheckpointJournal(path, fingerprint="a" * 64, fleet_size=3) as journal:
            journal.record(0, tiny_blocks[0], explanation)
        # Corrupt the entry's position while keeping the line valid JSON and
        # the manifest matching — replay must refuse, not index out of range.
        entry = json.loads(path.read_text())
        entry["position"] = 99
        path.write_text(json.dumps(entry) + "\n")
        with pytest.raises(CheckpointError, match="outside the fleet"):
            CheckpointJournal(path, fingerprint="a" * 64, fleet_size=3)

    def test_entry_key_mismatch_refused(self, tmp_path, tiny_blocks, seeded_session):
        path = tmp_path / "run.jsonl"
        explanation = seeded_session.explain(tiny_blocks[0], rng=0)
        with CheckpointJournal(path, fingerprint="a" * 64, fleet_size=3) as journal:
            journal.record(0, tiny_blocks[0], explanation)
        with CheckpointJournal(path, fingerprint="a" * 64, fleet_size=3) as journal:
            # Same manifest, but the resuming fleet has a different block at
            # position 0 (hand-edited or corrupted journal).
            with pytest.raises(CheckpointError, match="different fleet"):
                journal.verify_entry_keys([tiny_blocks[1]] + list(tiny_blocks[1:]))

    def test_entry_keys_bind_position_and_content(self, tiny_blocks):
        assert _entry_key(0, tiny_blocks[0]) != _entry_key(1, tiny_blocks[0])
        assert _entry_key(0, tiny_blocks[0]) != _entry_key(0, tiny_blocks[1])


class TestSessionCheckpointing:
    def test_checkpoint_requires_integer_seed(self, tmp_path, tiny_blocks):
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            for bad in (np.random.default_rng(0), None, True):
                with pytest.raises(CheckpointError, match="integer seed"):
                    session.explain_many(
                        tiny_blocks, rng=bad, checkpoint=tmp_path / "run.jsonl"
                    )

    def test_numpy_integer_seed_accepted(self, tmp_path, tiny_blocks):
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            results = session.explain_many(
                tiny_blocks, rng=np.int64(7), checkpoint=tmp_path / "run.jsonl"
            )
        assert len(results) == len(tiny_blocks)

    def test_completed_run_resumes_as_pure_replay(self, tmp_path, tiny_blocks):
        path = tmp_path / "run.jsonl"
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
        uninterrupted, _ = _checkpointed_run(fleet, tmp_path / "clean.jsonl")

        # Crash the process (well, the call) right after the journal fsyncs
        # its second entry — the exact frontier a real OOM kill leaves.
        crashed = tmp_path / "crashed.jsonl"
        real_record = CheckpointJournal.record
        recorded = []

        def crashing_record(self, position, block, explanation):
            real_record(self, position, block, explanation)
            recorded.append(position)
            if len(recorded) == 2:
                raise ModelError("simulated crash mid-run")

        with monkeypatch.context() as patch:
            patch.setattr(CheckpointJournal, "record", crashing_record)
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
        resume with another value replays the journal instead of
        discarding it."""
        path = tmp_path / "run.jsonl"
        first, _ = _checkpointed_run(tiny_blocks, path)
        again, stats = _checkpointed_run(tiny_blocks, path, shards=shards)
        assert stats.checkpoint_skips == len(tiny_blocks)
        assert [explanation_fingerprint(e) for e in again] == [
            explanation_fingerprint(e) for e in first
        ]

    def test_different_seed_does_not_reuse_the_journal(self, tmp_path, tiny_blocks):
        path = tmp_path / "run.jsonl"
        _checkpointed_run(tiny_blocks, path, seed=7)
        _, stats = _checkpointed_run(tiny_blocks, path, seed=8)
        assert stats.checkpoint_skips == 0  # fingerprint mismatch → fresh run

    def test_checkpointed_matches_plain_sequential_run(self, tmp_path, tiny_blocks):
        """Journaling must not change what gets computed, only what is kept."""
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            plain = session.explain_many(tiny_blocks, rng=7, shards=None)
        checkpointed, _ = _checkpointed_run(tiny_blocks, tmp_path / "run.jsonl")
        assert [explanation_fingerprint(e) for e in checkpointed] == [
            explanation_fingerprint(e) for e in plain
        ]
