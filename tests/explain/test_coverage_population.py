"""The background population is drawn only when the search passes ∅.

The empty set's coverage is 1 by definition, so
:meth:`~repro.explain.coverage.CoverageEstimator.coverage` answers it without
a population, and :meth:`~repro.explain.anchors.AnchorSearch.search_rounds`
draws the population right after the empty candidate fails to certify.  The
eager formulation — the empty set's coverage drawing the whole population
first — is kept here as the reference: it takes its draw at the same stream
position, so both must produce identical explanations, while the lazy one
skips the draw entirely when the search ends at the empty anchor.
"""

import pytest

from repro.explain.coverage import CoverageEstimator
from repro.explain.explainer import answer_rounds, search_block_rounds
from repro.models.analytical import AnalyticalCostModel
from repro.runtime.session import ExplanationSession
from repro.service import ExplanationService

from tests.conftest import (
    FAST_CONFIG,
    anchor_seed,
    count_population_draws,
    explanation_fingerprint,
    record_searches,
)


class EagerCoverageEstimator(CoverageEstimator):
    """Reference: draws the population before answering any coverage query."""

    def coverage(self, features):
        self.population()
        return super().coverage(features)


def _explain_fleet(blocks, config, seed):
    # Serial on purpose: the eager reference is patched into this process
    # only, and a process backend would run the searches elsewhere.
    with ExplanationSession(
        AnalyticalCostModel("hsw"), config, backend="serial"
    ) as session:
        return session.explain_many(blocks, rng=seed)


class TestEagerReferenceParity:
    @pytest.mark.parametrize("batch_queries", [True, False])
    def test_mixed_fleet_matches_eager_reference(
        self, block_fleet, monkeypatch, batch_queries
    ):
        config = FAST_CONFIG.with_overrides(batch_queries=batch_queries)
        lazy = _explain_fleet(block_fleet, config, seed=7)
        with monkeypatch.context() as patch:
            patch.setattr(
                "repro.explain.anchors.CoverageEstimator", EagerCoverageEstimator
            )
            eager = _explain_fleet(block_fleet, config, seed=7)
        sizes = [len(explanation.features) for explanation in lazy]
        assert 0 in sizes and any(sizes), "the fleet must mix ∅ and non-∅ anchors"
        assert [explanation_fingerprint(e) for e in lazy] == [
            explanation_fingerprint(e) for e in eager
        ]
        # The skipped draw issues no cost-model query, so accounting matches.
        assert [e.num_queries for e in lazy] == [e.num_queries for e in eager]


def _search(block, seed, monkeypatch):
    draws = count_population_draws(monkeypatch)
    searches = record_searches(monkeypatch)
    model = AnalyticalCostModel("hsw")
    explanation = answer_rounds(
        search_block_rounds(model, block, FAST_CONFIG, seed), model
    )
    (search,) = searches
    return search, explanation, draws[block.key()]


class TestPopulationDraws:
    def test_empty_anchor_draws_only_its_precision_samples(
        self, tiny_blocks, monkeypatch
    ):
        block = tiny_blocks[1]
        search, anchor, draws = _search(
            block, anchor_seed(block, empty=True), monkeypatch
        )
        assert anchor.features == () and anchor.coverage == 1.0
        assert search.sampler.samples_drawn == anchor.precision_samples
        assert draws == 0

    def test_non_empty_anchor_draws_one_population(self, tiny_blocks, monkeypatch):
        block = tiny_blocks[0]
        search, anchor, draws = _search(
            block, anchor_seed(block, empty=False), monkeypatch
        )
        assert anchor.features
        assert draws == 1
        assert len(search.coverage_estimator.population()) == (
            FAST_CONFIG.coverage_samples
        )


def test_fused_service_answers_empty_anchor_like_a_direct_session(tiny_blocks):
    """Fused ticks drive the same ``search_rounds``; a request that ends at
    ∅ must be served exactly what an uncached direct session computes."""
    workload = [
        (tiny_blocks[1], anchor_seed(tiny_blocks[1], empty=True)),
        (tiny_blocks[1], anchor_seed(tiny_blocks[1], empty=False)),
        (tiny_blocks[0], anchor_seed(tiny_blocks[0], empty=False)),
    ]
    expected = {}
    for block, seed in workload:
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            expected[(block.key(), seed)] = session.explain(block, rng=seed)
    with ExplanationService(
        model="crude",
        config=FAST_CONFIG,
        dispatchers=1,
        continuous_batching=True,
    ) as service:
        ids = {
            service.submit(block, seed=seed): (block.key(), seed)
            for block, seed in workload
        }
        for request_id, key in ids.items():
            result = service.result(request_id, timeout=120)
            assert result.ok, result.error
            assert explanation_fingerprint(
                result.explanations[0]
            ) == explanation_fingerprint(expected[key])
        fusion = service.stats().fusion
    assert fusion is not None and fusion.requests_fused == len(workload)
