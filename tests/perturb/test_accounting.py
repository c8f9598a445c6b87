"""Γ accounting: counters, fallback surfacing, and the plan-cache bound.

PR 9's satellite fixes around the perturbation engine: ``perturb_many``
falling back to the original block used to be silent (each fallback
injects a trivially-preserving sample into precision estimates), and the
per-perturber constraint-plan cache used to grow without limit in warm
sessions.  This suite pins the accounting at every level it surfaces —
per perturber, process-wide, per search (``QueryTally``), per session
(``SessionStats``) — plus the once-per-block warning and the LRU bound.
"""

import threading
import warnings

import pytest

from repro.bb.block import BasicBlock
from repro.bb.features import extract_features
from repro.data.synthesis import BlockSynthesizer
from repro.models.analytical import AnalyticalCostModel
from repro.explain import explainer as explainer_module
from repro.explain.anchors import AnchorSearch
from repro.explain.explainer import answer_rounds, search_block_rounds
from repro.models.base import CachedCostModel
from repro.perturb.algorithm import (
    _FALLBACK_WARNING_MIN,
    BlockPerturber,
    perturb_tally,
)
from repro.perturb.config import PerturbationConfig
from repro.runtime.session import ExplanationSession

from tests.conftest import FAST_CONFIG


@pytest.fixture
def block():
    return BlockSynthesizer(rng=3).generate(6)


class TestCounters:
    def test_perturb_many_counts_at_every_level(self, block):
        process_before = perturb_tally()
        perturber = BlockPerturber(block, rng=0)

        perturber.perturb_many(25)

        assert perturber.perturbations == 25
        assert perturb_tally().delta(process_before).perturbations == 25

    def test_reference_engine_counts_at_every_level(self, block):
        process_before = perturb_tally()
        perturber = BlockPerturber(block, PerturbationConfig(vectorized=False), rng=0)

        perturber.perturb_many(25)

        assert perturber.perturbations == 25
        assert perturb_tally().delta(process_before).perturbations == 25

    def test_perturber_counts_only_its_own_draws(self, block):
        process_before = perturb_tally()
        mine = BlockPerturber(block, rng=1)
        theirs = BlockPerturber(block, rng=1)
        worker = threading.Thread(target=theirs.perturb_many, args=(10,))
        worker.start()
        mine.perturb_many(4)
        worker.join(timeout=30)
        assert not worker.is_alive()

        # Each perturber counts its own work; the process total has both.
        assert (mine.perturbations, theirs.perturbations) == (4, 10)
        assert perturb_tally().delta(process_before).perturbations == 14

    @pytest.mark.parametrize("all_fall_back", [False, True])
    def test_search_charges_its_perturbers_counters(
        self, block, monkeypatch, all_fall_back
    ):
        """A search's Γ work is read off the sampler and perturber it owns,
        and matches the process-wide counters around a lone search."""
        searches = []

        class RecordedSearch(AnchorSearch):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                searches.append(self)

        monkeypatch.setattr(explainer_module, "AnchorSearch", RecordedSearch)
        config = FAST_CONFIG.with_overrides(
            perturbation=PerturbationConfig(vectorized=False)
        )
        if all_fall_back:
            monkeypatch.setattr(
                BlockPerturber, "_perturb_once_reference", lambda self, plan, rng: None
            )
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        charged = []
        before = perturb_tally()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            answer_rounds(
                search_block_rounds(model, block, config, 3, charge=charged.append),
                model,
            )
        delta = perturb_tally().delta(before)
        (search,) = searches
        (spent,) = charged
        sampler = search.sampler
        assert spent.perturbations == sampler.samples_drawn > 0
        assert spent.perturbations == sampler.perturber.perturbations
        assert spent.perturb_fallbacks == sampler.perturber.fallbacks
        assert (spent.perturbations, spent.perturb_fallbacks) == (
            delta.perturbations,
            delta.fallbacks,
        )
        if all_fall_back:
            assert spent.perturb_fallbacks == spent.perturbations
        else:
            assert spent.perturb_fallbacks == 0


class TestFallbacks:
    def _all_attempts_fail(self, block):
        """A perturber whose every attempt fails validity → pure fallbacks."""
        perturber = BlockPerturber(block, PerturbationConfig(vectorized=False), rng=0)
        perturber._perturb_once_reference = lambda plan, rng: None
        return perturber

    def test_fallbacks_counted(self, block):
        before = perturb_tally()
        perturber = self._all_attempts_fail(block)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = perturber.perturb_many(5)
        assert out == [block] * 5
        assert perturber.fallbacks == 5
        delta = perturb_tally().delta(before)
        assert delta.perturbations == 5
        assert delta.fallbacks == 5

    def test_wave_fallbacks_counted_after_reference_retries(self, block):
        perturber = BlockPerturber(block, rng=0)
        retries = []

        def failing_reference(plan, rng):
            retries.append(plan)
            return None

        perturber._apply_row = lambda *args, **kwargs: None
        perturber._perturb_once_reference = failing_reference
        before = perturb_tally()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = perturber.perturb_many(5)
        assert all(perturbed is block for perturbed in out)
        # One wave attempt plus max_block_attempts - 1 reference retries.
        assert len(retries) == 5 * (perturber.config.max_block_attempts - 1)
        assert perturber.fallbacks == 5
        assert perturb_tally().delta(before).fallbacks == 5

    def test_warning_fires_once_above_rate_threshold(self, block):
        perturber = self._all_attempts_fail(block)
        with pytest.warns(RuntimeWarning, match="fell back to the original"):
            perturber.perturb_many(_FALLBACK_WARNING_MIN)
        # Second batch: counters keep rising, but the warning is once-per-block.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            perturber.perturb_many(10)
        assert perturber.fallbacks == _FALLBACK_WARNING_MIN + 10

    def test_no_warning_below_minimum_volume(self, block):
        perturber = self._all_attempts_fail(block)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            perturber.perturb_many(_FALLBACK_WARNING_MIN - 1)


class TestPlanCache:
    def test_plan_cache_is_lru_bounded(self, block):
        features = extract_features(block)
        perturber = BlockPerturber(block, rng=0, max_cached_plans=4)
        for feature in features:
            perturber.perturb_many(1, [feature])
        assert perturber.plan_cache_size <= 4


class TestSessionStats:
    def test_session_stats_expose_perturb_accounting(self, block):
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, rng=0
        ) as session:
            session.explain(block)
            stats = session.stats()
        assert stats.perturbations > 0
        assert 0 <= stats.perturb_fallbacks <= stats.perturbations

    def test_reference_gamma_session_reports_perturbations(self, block):
        config = FAST_CONFIG.with_overrides(
            perturbation=PerturbationConfig(vectorized=False)
        )
        before = perturb_tally()
        with ExplanationSession(AnalyticalCostModel("hsw"), config, rng=0) as session:
            session.explain(block)
            stats = session.stats()
        assert stats.perturbations == perturb_tally().delta(before).perturbations
        assert stats.perturbations > 0
        assert 0 <= stats.perturb_fallbacks <= stats.perturbations
