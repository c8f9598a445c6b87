"""Γ accounting: counters, fallback surfacing, and the plan-cache bound.

PR 9's satellite fixes around the perturbation engine: ``perturb_many``
falling back to the original block used to be silent (each fallback
injects a trivially-preserving sample into precision estimates), and the
per-perturber constraint-plan cache used to grow without limit in warm
sessions.  This suite pins the accounting at every level it surfaces —
per perturber, process-wide, per thread (``QueryTally``), per session
(``SessionStats``) — plus the once-per-block warning and the LRU bound.
"""

import collections
import gc
import sys
import threading
import warnings

import pytest

from repro.bb.block import BasicBlock
from repro.bb.features import extract_features
from repro.data.synthesis import BlockSynthesizer
from repro.models.analytical import AnalyticalCostModel
from repro.perturb.algorithm import (
    _FALLBACK_WARNING_MIN,
    BlockPerturber,
    perturb_tally,
    plan_cache_entries,
    thread_perturb_tally,
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
        thread_before = thread_perturb_tally()
        perturber = BlockPerturber(block, rng=0)

        perturber.perturb_many(25)

        assert perturber.perturbations == 25
        assert perturb_tally().delta(process_before).perturbations == 25
        assert thread_perturb_tally().delta(thread_before).perturbations == 25

    def test_reference_engine_counts_at_every_level(self, block):
        process_before = perturb_tally()
        thread_before = thread_perturb_tally()
        perturber = BlockPerturber(block, PerturbationConfig(vectorized=False), rng=0)

        perturber.perturb_many(25)

        assert perturber.perturbations == 25
        assert perturb_tally().delta(process_before).perturbations == 25
        assert thread_perturb_tally().delta(thread_before).perturbations == 25

    def test_thread_tally_is_isolated_per_thread(self, block):
        before = thread_perturb_tally()

        def work():
            BlockPerturber(block, rng=1).perturb_many(10)

        worker = threading.Thread(target=work)
        worker.start()
        worker.join()

        # The worker's perturbations land in the process total, not ours.
        assert thread_perturb_tally().delta(before).perturbations == 0

    def test_query_tally_carries_perturb_counters(self, block):
        model = AnalyticalCostModel("hsw")
        before = model.query_tally()
        BlockPerturber(block, rng=2).perturb_many(7)
        delta = model.query_tally().delta(before)
        assert delta.perturbations == 7
        assert delta.perturb_fallbacks == 0


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

    def test_plan_cache_gauge_sees_live_perturbers(self, block):
        perturber = BlockPerturber(block, rng=0)
        perturber.perturb_many(1)
        assert plan_cache_entries() >= perturber.plan_cache_size >= 1

    def test_gauge_forgets_collected_perturbers(self, block):
        perturber = BlockPerturber(block, rng=0)
        for feature in extract_features(block)[:3]:
            perturber.perturb_many(1, [feature])
        held = perturber.plan_cache_size
        before = plan_cache_entries()
        del perturber
        gc.collect()
        assert held == 3
        assert plan_cache_entries() <= before - held

    def test_gauge_survives_concurrent_construction(self, block):
        """Regression: a ``stats`` call snapshotting the live-perturber set
        while a dispatcher thread built a perturber raised ``RuntimeError:
        Set changed size during iteration``, which dropped the TCP
        connection the stats op arrived on."""
        stop = threading.Event()

        def construct():
            # Live sessions hold their perturbers, so the set the gauge walks
            # is large; a short window of them stays alive here too.
            alive = collections.deque(maxlen=200)
            while not stop.is_set():
                alive.append(BlockPerturber(block, rng=0))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two threads densely
        builder = threading.Thread(target=construct)
        builder.start()
        try:
            for _ in range(20_000):
                plan_cache_entries()
        finally:
            stop.set()
            builder.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not builder.is_alive()


class TestSessionStats:
    def test_session_stats_expose_perturb_accounting(self, block):
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, rng=0
        ) as session:
            session.explain(block)
            stats = session.stats()
        assert stats.perturbations > 0
        assert 0 <= stats.perturb_fallbacks <= stats.perturbations
        assert stats.plan_cache_entries >= 0

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
