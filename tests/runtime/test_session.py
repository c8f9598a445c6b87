"""Tests for :class:`ExplanationSession` (the runtime's shared-state layer)."""

import inspect

import numpy as np
import pytest

from repro.bb.block import BasicBlock
from repro.cache.store import ResultCache
from repro.explain.config import ExplainerConfig
from repro.explain.explainer import CometExplainer, answer_round, search_block_rounds
from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CachedCostModel
from repro.runtime.backend import ProcessBackend
from repro.runtime.session import ExplanationSession
from repro.service import ExplanationService
from repro.service.batching import FusedEntry, run_fused_group
from repro.utils.errors import BackendError, RequestCancelledError
from repro.utils.rng import spawn_seeds

from tests.conftest import (
    FAST_CONFIG,
    CancelAfter,
    anchor_seed,
    count_population_draws,
    explanation_fingerprint as _fingerprint,
    seed_past_empty_at,
)


class TestSessionExplanations:
    def test_first_explanation_matches_one_shot_explainer(self, tiny_blocks):
        one_shot = CometExplainer(
            CachedCostModel(AnalyticalCostModel("hsw")), FAST_CONFIG
        ).explain(tiny_blocks[0], rng=3)
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            in_session = session.explain(tiny_blocks[0], rng=3)
        assert _fingerprint(one_shot) == _fingerprint(in_session)

    def test_explain_many_matches_per_block_streams(self, tiny_blocks):
        explainer = CometExplainer(
            CachedCostModel(AnalyticalCostModel("hsw")), FAST_CONFIG
        )
        fleet = explainer.explain_many(tiny_blocks, rng=11)
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            again = session.explain_many(tiny_blocks, rng=11)
        assert [_fingerprint(e) for e in fleet] == [_fingerprint(e) for e in again]

    def test_seeded_session_runs_are_deterministic(self, tiny_blocks):
        def run():
            with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as s:
                return [_fingerprint(e) for e in s.explain_many(tiny_blocks, rng=2)]

        assert run() == run()


class TestHistoryFree:
    def test_repeat_calls_match_a_fresh_session(self, tiny_blocks):
        """A session keeps no population between calls: explaining a block
        again — after an empty-anchor search of it, or after a search that
        drew its population — answers what a fresh session answers."""
        block = tiny_blocks[1]
        seeds = [
            anchor_seed(block, empty=True),
            anchor_seed(block, empty=False),
            anchor_seed(block, empty=False),
        ]
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            warm = [_fingerprint(session.explain(block, rng=seed)) for seed in seeds]
        fresh = []
        for seed in seeds:
            with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
                fresh.append(_fingerprint(session.explain(block, rng=seed)))
        assert warm == fresh
        assert warm[0][3] == () and warm[1][3] != ()

    def test_repeated_fleet_calls_match(self, tiny_blocks):
        fleet = [tiny_blocks[0], tiny_blocks[1], tiny_blocks[0]]
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            first = [_fingerprint(e) for e in session.explain_many(fleet, rng=5)]
            again = [_fingerprint(e) for e in session.explain_many(fleet, rng=5)]
        assert first == again

    def test_every_repeat_draws_its_own_population(self, tiny_blocks, monkeypatch):
        repeated, other = tiny_blocks[0], tiny_blocks[1]
        fleet = [repeated, other, repeated]
        seed = seed_past_empty_at(fleet, [0, 2])
        counted = count_population_draws(monkeypatch)
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="serial"
        ) as session:
            session.explain_many(fleet, rng=seed)
        assert counted[repeated.key()] == 2

    def test_fleet_repeats_are_memoized(self, tiny_blocks):
        repeated, once = tiny_blocks[0], tiny_blocks[1]
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, result_cache=ResultCache()
        ) as session:
            session.explain_many([repeated, once, repeated], rng=5)
            stats = session.result_cache.stats()
        assert stats.lookups == 3 and stats.memory.entries == 3

    def test_search_entries_take_no_population_argument(self):
        for entry in (
            ExplanationSession.explain,
            ExplanationSession.explain_rounds,
            search_block_rounds,
        ):
            assert "record" not in inspect.signature(entry).parameters


class TestPositionIndependence:
    """Every search draws its own population, so each position of a fleet
    is what ``explain(block, rng=child_seed)`` answers on every path."""

    @pytest.fixture(scope="class")
    def fleet(self, tiny_blocks):
        a, b, c = tiny_blocks
        fleet = [a, b, a, c, a]
        return fleet, seed_past_empty_at(fleet, [0, 2, 4])

    @pytest.fixture(scope="class")
    def expected(self, fleet):
        blocks, seed = fleet
        answers = []
        for block, child in zip(blocks, spawn_seeds(seed, len(blocks))):
            with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
                answers.append(_fingerprint(session.explain(block, rng=child)))
        return answers

    @staticmethod
    def _many(
        blocks, seed, *, backend="serial", workers=None, result_cache=None, **options
    ):
        with ExplanationSession(
            AnalyticalCostModel("hsw"),
            FAST_CONFIG,
            backend=backend,
            workers=workers,
            result_cache=result_cache,
        ) as session:
            explanations = session.explain_many(blocks, rng=seed, **options)
        return [_fingerprint(e) for e in explanations]

    def test_plain_serial_run(self, fleet, expected):
        assert self._many(*fleet) == expected

    def test_checkpointed_run(self, fleet, expected, tmp_path):
        assert self._many(*fleet, checkpoint=tmp_path / "run.cache") == expected

    def test_result_cache_replay(self, fleet, expected):
        cache = ResultCache()
        assert self._many(*fleet, result_cache=cache) == expected
        assert self._many(*fleet, result_cache=cache) == expected
        assert cache.stats().hits == len(fleet[0])

    def test_process_sharded_run(self, fleet, expected):
        assert self._many(*fleet, backend="process", workers=2) == expected

    def test_fused_fleet_request(self, fleet, expected):
        blocks, seed = fleet
        outcomes = []
        entry = FusedEntry(
            blocks=tuple(blocks),
            seed=seed,
            token=None,
            finish=outcomes.append,
            fail=outcomes.append,
        )
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            run_fused_group(session, [entry])
        assert [_fingerprint(e) for e in outcomes[0]] == expected

    @pytest.mark.parametrize("fused", [False, True])
    def test_service_fleet_request(self, fleet, expected, fused):
        blocks, seed = fleet
        with ExplanationService(
            model="crude",
            config=FAST_CONFIG,
            continuous_batching=fused,
            result_cache=False,
        ) as service:
            answered = service.explain(blocks, seed=seed)
        assert [_fingerprint(e) for e in answered] == expected


class TestInterruptedFleetKeepsItsWork:
    def test_cancelled_fleet_stores_its_finished_positions(self, block_fleet):
        fleet = list(block_fleet[:4])
        cache = ResultCache()
        with ExplanationSession(
            AnalyticalCostModel("hsw"),
            FAST_CONFIG,
            backend="serial",
            result_cache=cache,
        ) as session:
            with pytest.raises(RequestCancelledError):
                session.explain_many(fleet, rng=5, cancel=CancelAfter(80))
            finished = session.stats().explanations
        assert 0 < finished < len(fleet)
        assert cache.stats().memory.entries == finished
        with ExplanationSession(
            AnalyticalCostModel("hsw"),
            FAST_CONFIG,
            backend="serial",
            result_cache=cache,
        ) as session:
            rerun = session.explain_many(fleet, rng=5)
        assert cache.stats().hits == finished
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="serial"
        ) as session:
            clean = session.explain_many(fleet, rng=5)
        assert [_fingerprint(e) for e in rerun] == [_fingerprint(e) for e in clean]


class TestOneSearchEntry:
    """Every in-process search of a session runs through
    :meth:`ExplanationSession.explain`, so instrumentation of that one
    method (a tracer, a subclass hook) sees every explanation once.  The
    fused service tick drives :meth:`ExplanationSession.explain_rounds`,
    the round generator ``explain`` answers, so both paths share one search
    loop, one memoization and one charge."""

    @staticmethod
    def _spy(monkeypatch, method="explain"):
        calls = []
        original = getattr(ExplanationSession, method)

        def spying(self, block, rng=None, **kwargs):
            # An integer seed as given; a stream as its state at the call.
            start = rng if isinstance(rng, int) else rng.bit_generator.state
            calls.append((block.key(), start))
            return original(self, block, rng, **kwargs)

        monkeypatch.setattr(ExplanationSession, method, spying)
        return calls

    def test_fleet_searches_run_through_explain(self, tiny_blocks, monkeypatch):
        repeated, once = tiny_blocks[0], tiny_blocks[1]
        fleet = [repeated, once, repeated]
        calls = self._spy(monkeypatch)
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="serial"
        ) as session:
            session.explain_many(fleet, rng=5)
            assert session.stats().explanations == 3
        # Every position searches from the stream its child seed names,
        # repeats included.
        assert calls == [
            (block.key(), np.random.default_rng(seed).bit_generator.state)
            for block, seed in zip(fleet, spawn_seeds(5, 3))
        ]

    def test_fused_searches_run_through_explain_rounds(self, tiny_blocks, monkeypatch):
        repeated, once = tiny_blocks[0], tiny_blocks[1]
        fleet = (repeated, once, repeated)
        calls = self._spy(monkeypatch, "explain_rounds")
        outcomes = []
        entry = FusedEntry(
            blocks=fleet,
            seed=5,
            token=None,
            finish=outcomes.append,
            fail=outcomes.append,
        )
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            run_fused_group(session, [entry])
            assert session.stats().explanations == 3
        assert len(outcomes) == 1 and len(outcomes[0]) == 3
        # Every position searches from its integer child seed, repeats
        # included, so every position is memoizable.
        assert calls == [
            (block.key(), seed) for block, seed in zip(fleet, spawn_seeds(5, 3))
        ]

    def test_result_cache_hit_yields_no_round(self, tiny_blocks):
        block = tiny_blocks[0]
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, result_cache=ResultCache()
        ) as session:
            stored = session.explain(block, rng=5)
            with pytest.raises(StopIteration) as done:
                next(session.explain_rounds(block, 5))
            assert session.stats().explanations == 2
        assert _fingerprint(done.value.value) == _fingerprint(stored)

    def test_explain_charges_its_session_once(self, tiny_blocks, monkeypatch):
        block = tiny_blocks[0]
        seed = anchor_seed(block, empty=False)
        charges = []
        charge = ExplanationSession.charge

        def spying(self, tally):
            charges.append(tally)
            charge(self, tally)

        monkeypatch.setattr(ExplanationSession, "charge", spying)
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="serial"
        ) as session:
            explanation = session.explain(block, rng=seed)
            stats = session.stats()
        assert len(charges) == 1
        assert charges[0].queries == explanation.num_queries == stats.model_queries > 0

    def test_closed_search_charges_once(self, tiny_blocks):
        """A search closed mid-stream (a retired fused request) still
        charges the work it did, once."""
        block = tiny_blocks[0]
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        charges = []
        rounds = search_block_rounds(
            model,
            block,
            FAST_CONFIG,
            anchor_seed(block, empty=False),
            charge=charges.append,
        )
        answer = None
        for _ in range(3):
            answer = answer_round(rounds, rounds.send(answer), model)
        assert charges == []
        rounds.close()
        assert len(charges) == 1
        assert charges[0].queries > 0 and charges[0].perturbations > 0

    def test_checkpointed_searches_run_through_explain(
        self, tiny_blocks, monkeypatch, tmp_path
    ):
        calls = self._spy(monkeypatch)
        fleet = [tiny_blocks[0], tiny_blocks[1], tiny_blocks[0]]
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            session.explain_many(fleet, rng=5, checkpoint=tmp_path / "run.jsonl")
            assert session.stats().explanations == 3
        assert [key for key, _ in calls] == [block.key() for block in fleet]

    def test_fleet_cache_hits_count_without_a_search(self, tiny_blocks, monkeypatch):
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, result_cache=ResultCache()
        ) as session:
            first = session.explain_many(tiny_blocks, rng=5)
            calls = self._spy(monkeypatch)
            again = session.explain_many(tiny_blocks, rng=5)
            assert session.stats().explanations == 2 * len(tiny_blocks)
        assert calls == []
        assert [_fingerprint(e) for e in again] == [_fingerprint(e) for e in first]


class TestSharedState:
    def test_model_wrapped_in_cache_exactly_once(self):
        raw = AnalyticalCostModel("hsw")
        with ExplanationSession(raw, FAST_CONFIG) as session:
            assert isinstance(session.model, CachedCostModel)
            assert session.model.inner is raw
        cached = CachedCostModel(AnalyticalCostModel("hsw"))
        with ExplanationSession(cached, FAST_CONFIG) as session:
            assert session.model is cached


class TestStats:
    def test_stats_track_run_accounting(self, tiny_blocks):
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="serial"
        ) as session:
            explanations = session.explain_many(tiny_blocks[:2], rng=0)
            stats = session.stats()
        assert stats.explanations == 2
        assert stats.model_queries == sum(e.num_queries for e in explanations) > 0
        assert stats.cache_hits + stats.cache_misses >= stats.model_queries
        assert 0.0 <= stats.cache_hit_rate <= 1.0
        assert "serial" in stats.backend
        assert "2 explanations" in stats.describe()

    def test_stats_ignore_pre_session_history(self, tiny_blocks):
        cached = CachedCostModel(AnalyticalCostModel("hsw"))
        cached.predict(tiny_blocks[0])
        cached.predict(tiny_blocks[0])
        with ExplanationSession(cached, FAST_CONFIG) as session:
            assert session.stats().model_queries == 0
            assert session.stats().cache_hits == 0

    def test_idle_session_reports_no_other_sessions_work(self, tiny_blocks):
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="serial"
        ) as idle:
            with ExplanationSession(
                AnalyticalCostModel("hsw"), FAST_CONFIG, backend="serial"
            ) as busy:
                busy.explain(tiny_blocks[0], rng=0)
                assert busy.stats().perturbations > 0
            stats = idle.stats()
        assert stats.perturbations == 0
        assert stats.model_queries == stats.cache_hits == stats.cache_misses == 0

    def test_process_fleet_reports_its_workers_work(self, block_fleet):
        """Process-shard workers ship their accounting back with their
        results, so the fleet counts what the serial loop counts."""
        fleet = block_fleet[:4]

        def run(backend):
            with ExplanationSession(
                AnalyticalCostModel("hsw"), FAST_CONFIG, backend=backend, workers=2
            ) as session:
                explanations = session.explain_many(fleet, rng=3)
                return explanations, session.stats()

        explanations, stats = run("process")
        _, serial = run("serial")
        assert stats.explanations == serial.explanations == len(fleet)
        assert stats.model_queries == sum(e.num_queries for e in explanations) > 0
        assert stats.perturbations == serial.perturbations > 0
        assert stats.model_queries == serial.model_queries

    def test_cancelled_search_still_counts(self, tiny_blocks):
        block = tiny_blocks[0]
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="serial"
        ) as session:
            with pytest.raises(RequestCancelledError):
                session.explain(
                    block, rng=anchor_seed(block, empty=False), cancel=CancelAfter(2)
                )
            stats = session.stats()
        assert stats.explanations == 0
        assert stats.model_queries > 0 and stats.perturbations > 0


class TestLifecycle:
    def test_explain_after_close_rejected(self, tiny_blocks):
        session = ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG)
        session.close()
        with pytest.raises(BackendError):
            session.explain(tiny_blocks[0], rng=0)

    def test_result_cache_false_means_off(self, tiny_blocks):
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, result_cache=False
        ) as session:
            assert session.result_cache is None
            session.explain(tiny_blocks[0], rng=0)
            assert session.stats().result_cache is None

    def test_result_cache_true_opens_an_owned_memory_store(self, tiny_blocks):
        session = ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, result_cache=True
        )
        store = session.result_cache
        assert store is not None and store.path is None
        first = session.explain(tiny_blocks[0], rng=3)
        again = session.explain(tiny_blocks[0], rng=3)
        assert _fingerprint(again) == _fingerprint(first)
        assert again.num_queries == first.num_queries
        assert session.stats().result_cache.hits == 1
        session.close()
        assert store.closed

    def test_close_is_idempotent(self):
        session = ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG)
        session.close()
        session.close()
        assert session.closed

    def test_session_closes_backend_it_resolved(self):
        session = ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="process", workers=2
        )
        backend = session.backend
        session.close()
        assert backend.closed

    def test_caller_owned_backend_left_open(self):
        backend = ProcessBackend(2)
        session = ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend=backend
        )
        session.close()
        assert not backend.closed
        backend.close()

    def test_session_borrows_a_model_configured_backend(self):
        # A substrate the caller installed on the model beats the ambient
        # default, and must survive the session.
        configured = ProcessBackend(2)
        model = AnalyticalCostModel("hsw")
        model.set_backend(configured, own=True)
        session = ExplanationSession(model, FAST_CONFIG)
        assert session.backend is configured
        session.close()
        assert not configured.closed
        assert model.execution_backend is configured
        model.close()
        assert configured.closed

    def test_explainer_fleet_api_leaves_model_usable(self, tiny_blocks):
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        explainer = CometExplainer(model, FAST_CONFIG, rng=4)
        explainer.explain_many(tiny_blocks[:1])
        # The transient session released its backend; one-shot use still works.
        explainer.explain(tiny_blocks[0], rng=0)

    def test_explainer_with_named_backend_closes_it(self):
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        with CometExplainer(model, FAST_CONFIG, backend="process", workers=2) as explainer:
            backend = explainer._backend
            assert model.execution_backend is backend
        assert backend.closed
        assert model.execution_backend is None


class TestGlobalExplainerIntegration:
    def test_session_scores_block_set_through_its_model(self, tiny_blocks):
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            global_explainer = session.global_explainer(tiny_blocks)
            assert global_explainer.model is session.model
            expected = [session.model.predict(block) for block in tiny_blocks]
            assert global_explainer.predictions() == expected

    def test_backend_parity_for_global_predictions(self, tiny_blocks):
        baseline = ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG)
        serial = baseline.global_explainer(tiny_blocks).predictions()
        baseline.close()
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="process", workers=2
        ) as session:
            assert session.global_explainer(tiny_blocks).predictions() == serial

    def test_global_explainer_backend_is_transient(self, tiny_blocks):
        from repro.globalx.global_explainer import GlobalExplainer

        model = CachedCostModel(AnalyticalCostModel("hsw"))
        explainer = GlobalExplainer(model, tiny_blocks, backend="process", workers=2)
        # Scoring borrowed the backend; the model's substrate is untouched
        # and nothing pooled is left behind.
        assert model.execution_backend is None
        assert len(explainer.predictions()) == len(tiny_blocks)
