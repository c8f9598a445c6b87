"""Tests for :class:`ExplanationSession` (the runtime's shared-state layer)."""

import pytest

from repro.bb.block import BasicBlock
from repro.explain.config import ExplainerConfig
from repro.explain.explainer import CometExplainer
from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CachedCostModel
from repro.runtime.backend import SerialBackend, ThreadBackend
from repro.runtime.session import ExplanationSession
from repro.utils.errors import BackendError

from tests.conftest import (
    FAST_CONFIG,
    anchor_seed,
    explanation_fingerprint as _fingerprint,
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


class TestSharedState:
    def test_population_record_shared_across_explanations(self, tiny_blocks):
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            record = session.coverage_record(tiny_blocks[0])
            assert record is session.coverage_record(tiny_blocks[0])
            session.explain(tiny_blocks[0], rng=0)
            assert len(record.population) == FAST_CONFIG.coverage_samples
            session.explain(tiny_blocks[0], rng=1)
            assert session.stats().populations_cached == 1

    def test_repeated_block_does_not_redraw_population(self, tiny_blocks):
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            session.explain(tiny_blocks[0], rng=0)
            population = list(session.coverage_record(tiny_blocks[0]).population)
            session.explain(tiny_blocks[0], rng=1)
            assert session.coverage_record(tiny_blocks[0]).population == population

    def test_population_records_are_lru_bounded(self, tiny_blocks):
        # Only searches that go past the empty anchor fill their record.
        first, second = tiny_blocks[0], tiny_blocks[2]
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, max_population_records=1
        ) as session:
            session.explain(first, rng=anchor_seed(first, empty=False))
            session.explain(second, rng=anchor_seed(second, empty=False))
            assert session.stats().populations_cached == 1
            # The surviving record belongs to the most recent block.
            assert session.coverage_record(second).population

    def test_empty_anchor_leaves_record_empty_and_uncounted(self, tiny_blocks):
        block = tiny_blocks[1]
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            explanation = session.explain(block, rng=anchor_seed(block, empty=True))
            assert explanation.coverage == 1.0
            assert session.coverage_record(block).population == []
            stats = session.stats()
        assert stats.populations_cached == 0
        assert "0 background populations" in stats.describe()

    def test_record_left_empty_is_drawn_by_the_next_search_needing_it(
        self, tiny_blocks
    ):
        """After an empty-anchor explanation, a later explanation of the same
        block that needs coverage draws the population from its own stream:
        exactly what a fresh session computes for it."""
        block = tiny_blocks[1]
        empty_seed = anchor_seed(block, empty=True)
        full_seed = anchor_seed(block, empty=False)
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as fresh:
            expected = fresh.explain(block, rng=full_seed)
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            session.explain(block, rng=empty_seed)
            got = session.explain(block, rng=full_seed)
            record = session.coverage_record(block)
        assert _fingerprint(got) == _fingerprint(expected)
        assert len(record.population) == FAST_CONFIG.coverage_samples

    def test_invalid_population_bound_rejected(self):
        with pytest.raises(ValueError):
            ExplanationSession(
                AnalyticalCostModel("hsw"), FAST_CONFIG, max_population_records=0
            )

    def test_shared_background_can_be_disabled(self, tiny_blocks):
        config = FAST_CONFIG.with_overrides(shared_background=False)
        with ExplanationSession(AnalyticalCostModel("hsw"), config) as session:
            assert session.coverage_record(tiny_blocks[0]) is None
            session.explain(tiny_blocks[0], rng=0)
            assert session.stats().populations_cached == 0

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
        assert stats.model_queries > 0
        assert stats.cache_hits + stats.cache_misses >= stats.model_queries
        assert 0.0 <= stats.cache_hit_rate <= 1.0
        # One drawn population per block whose search went past ∅.
        assert stats.populations_cached == sum(1 for e in explanations if e.features)
        assert "serial" in stats.backend
        assert "2 explanations" in stats.describe()

    def test_stats_ignore_pre_session_history(self, tiny_blocks):
        cached = CachedCostModel(AnalyticalCostModel("hsw"))
        cached.predict(tiny_blocks[0])
        cached.predict(tiny_blocks[0])
        with ExplanationSession(cached, FAST_CONFIG) as session:
            assert session.stats().model_queries == 0
            assert session.stats().cache_hits == 0


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

    def test_close_is_idempotent(self):
        session = ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG)
        session.close()
        session.close()
        assert session.closed

    def test_session_closes_backend_it_resolved(self):
        session = ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="thread", workers=2
        )
        backend = session.backend
        session.close()
        assert backend.closed

    def test_caller_owned_backend_left_open(self):
        backend = ThreadBackend(2)
        session = ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend=backend
        )
        session.close()
        assert not backend.closed
        backend.close()

    def test_session_borrows_a_model_configured_backend(self):
        # A substrate the caller installed on the model beats the ambient
        # default, and must survive the session.
        configured = ThreadBackend(2)
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
        with CometExplainer(model, FAST_CONFIG, backend="thread", workers=2) as explainer:
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
        explainer = GlobalExplainer(model, tiny_blocks, backend="thread", workers=2)
        # Scoring borrowed the backend; the model's substrate is untouched
        # and nothing pooled is left behind.
        assert model.execution_backend is None
        assert len(explainer.predictions()) == len(tiny_blocks)
