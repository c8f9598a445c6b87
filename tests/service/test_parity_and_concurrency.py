"""Service determinism: warm-session results equal direct explainer results,
under serial and heavily concurrent submission alike.

This is the acceptance surface of the service layer: a client must never be
able to tell (from the explanation itself) whether their request went through
a cold one-shot :class:`CometExplainer`, a warm shared session, or a warm
session hammered by other clients at the same time.
"""

import threading

import pytest

from repro.explain.explainer import CometExplainer
from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CachedCostModel
from repro.service import ExplanationService

from tests.conftest import explanation_fingerprint


#: The service configurations an answer must not depend on.  Each one is a
#: named case of the parity tests below, pinned bit for bit against the
#: direct explainer; a ``result_cache`` entry names a store file that
#: :func:`_service` opens under the test's ``tmp_path``.
_PROCESS = {"backend": "process", "workers": 2}
SERVICE_CONFIGS = {
    "default": {},
    "process": _PROCESS,
    "process-4-dispatchers": {**_PROCESS, "dispatchers": 4},
    "process-4-dispatchers-fused": {
        **_PROCESS, "dispatchers": 4, "continuous_batching": True,
    },
    "process-result-cache": {**_PROCESS, "result_cache": "results.cache"},
    "process-result-cache-fused-4-dispatchers": {
        **_PROCESS,
        "dispatchers": 4,
        "continuous_batching": True,
        "result_cache": "results.cache",
    },
}


def _service(name, fast_config, tmp_path):
    options = dict(SERVICE_CONFIGS[name])
    if "result_cache" in options:
        options["result_cache"] = tmp_path / options["result_cache"]
    return ExplanationService(model="crude", config=fast_config, **options)


def _assert_configuration_ran(name, stats):
    """The service's own stats show each configured mechanism at work."""
    options = SERVICE_CONFIGS[name]
    assert {s.backend.split()[0] for s in stats.session_stats.values()} == {
        options.get("backend", "serial")
    }
    assert stats.dispatchers == options.get("dispatchers", 1)
    assert stats.fusion.enabled is options.get("continuous_batching", False)
    if stats.fusion.enabled:
        assert stats.fusion.ticks > 0
    assert (stats.result_cache is not None) is ("result_cache" in options)


def _direct(block, seed, fast_config):
    model = CachedCostModel(AnalyticalCostModel("hsw"))
    return CometExplainer(model, fast_config).explain(block, rng=seed)


class TestServiceParity:
    @pytest.mark.parametrize("name", SERVICE_CONFIGS)
    def test_single_block_matches_direct_explainer_bit_for_bit(
        self, fast_config, tiny_blocks, tmp_path, name
    ):
        with _service(name, fast_config, tmp_path) as service:
            for seed, block in enumerate(tiny_blocks):
                served = service.explain(block, seed=seed)[0]
                direct = _direct(block, seed, fast_config)
                assert explanation_fingerprint(served) == explanation_fingerprint(direct)
                # Same prediction, precision and coverage to the last bit.
                assert served.prediction == direct.prediction
                assert served.precision == direct.precision
                assert served.coverage == direct.coverage
            _assert_configuration_ran(name, service.stats())

    @pytest.mark.parametrize("name", SERVICE_CONFIGS)
    def test_fleet_request_matches_direct_explain_many(
        self, fast_config, tiny_blocks, tmp_path, name
    ):
        fleet = list(tiny_blocks) + [tiny_blocks[0]]  # include a repeat
        direct = [
            explanation_fingerprint(e)
            for e in CometExplainer(
                CachedCostModel(AnalyticalCostModel("hsw")), fast_config
            ).explain_many(fleet, rng=9)
        ]
        with _service(name, fast_config, tmp_path) as service:
            first = service.explain(fleet, seed=9)
            cold = service.stats()
            second = service.explain(fleet, seed=9)
            warm = service.stats()
        assert [explanation_fingerprint(e) for e in first] == direct
        assert [explanation_fingerprint(e) for e in second] == direct
        _assert_configuration_ran(name, warm)
        if warm.result_cache is not None:
            # The second pass is answered from the store, every position.
            assert cold.result_cache.hits == 0
            assert warm.result_cache.hits == len(fleet)

    @pytest.mark.parametrize("shards", ["auto", 2])
    def test_sharded_fleet_request_matches_unsharded(
        self, fast_config, tiny_blocks, shards
    ):
        workload = list(tiny_blocks) + [tiny_blocks[0]]  # include a repeat
        with ExplanationService(
            model="crude", config=fast_config, backend="process", workers=2
        ) as service:
            unsharded = service.explain(workload, seed=4, shards=None)
            sharded = service.explain(workload, seed=4, shards=shards)
        assert [explanation_fingerprint(e) for e in sharded] == [
            explanation_fingerprint(e) for e in unsharded
        ]


class TestMultiDispatcherParity:
    """The multi-dispatcher acceptance bar: a 4-dispatcher service answers
    every request bit-for-bit like the single-dispatcher oracle, under
    serial and concurrent submission, same-key and cross-key workloads."""

    def _workload(self, tiny_blocks):
        # Mixed keys: the same blocks explained on both microarchitectures,
        # several seeds each — distinct keys actually exercise concurrent
        # dispatchers while same-key requests exercise mutual exclusion.
        return [
            (block, seed, uarch)
            for uarch in ("hsw", "skl")
            for seed in range(2)
            for block in tiny_blocks
        ]

    def _serve_all(
        self, fast_config, workload, dispatchers, concurrent=False, fused=False
    ):
        with ExplanationService(
            model="crude",
            config=fast_config,
            dispatchers=dispatchers,
            continuous_batching=fused,
        ) as service:
            if not concurrent:
                return {
                    (block.key(), seed, uarch): explanation_fingerprint(
                        service.explain(block, seed=seed, uarch=uarch)[0]
                    )
                    for block, seed, uarch in workload
                }
            results = {}
            results_lock = threading.Lock()
            errors = []
            barrier = threading.Barrier(8)

            def client(items):
                try:
                    barrier.wait(timeout=30)
                    for block, seed, uarch in items:
                        explanation = service.explain(
                            block, seed=seed, uarch=uarch, timeout=120
                        )[0]
                        with results_lock:
                            results[(block.key(), seed, uarch)] = (
                                explanation_fingerprint(explanation)
                            )
                except Exception as error:  # surfaced to the main thread
                    errors.append(error)

            threads = [
                threading.Thread(target=client, args=(workload[i::8],))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert not errors
            return results

    def test_four_dispatchers_match_single_dispatcher_oracle(
        self, fast_config, tiny_blocks
    ):
        workload = self._workload(tiny_blocks)
        oracle = self._serve_all(fast_config, workload, dispatchers=1)
        served = self._serve_all(fast_config, workload, dispatchers=4)
        assert served == oracle

    def test_concurrent_clients_on_four_dispatchers_match_oracle(
        self, fast_config, tiny_blocks
    ):
        workload = self._workload(tiny_blocks)
        oracle = self._serve_all(fast_config, workload, dispatchers=1)
        served = self._serve_all(
            fast_config, workload, dispatchers=4, concurrent=True
        )
        assert served == oracle

    def test_fused_concurrent_clients_match_oracle(self, fast_config, tiny_blocks):
        """Continuous batching on top of 4 dispatchers: same-key requests
        share fused ticks, yet every client still gets the oracle's bits."""
        workload = self._workload(tiny_blocks)
        oracle = self._serve_all(fast_config, workload, dispatchers=1)
        served = self._serve_all(
            fast_config, workload, dispatchers=4, concurrent=True, fused=True
        )
        assert served == oracle

    def test_fleet_requests_match_oracle_across_dispatchers(
        self, fast_config, tiny_blocks
    ):
        workload = list(tiny_blocks) + [tiny_blocks[0]]  # include a repeat
        with ExplanationService(
            model="crude", config=fast_config, dispatchers=1
        ) as service:
            oracle = service.explain(workload, seed=11)
        with ExplanationService(
            model="crude", config=fast_config, dispatchers=4
        ) as service:
            served = service.explain(workload, seed=11)
        assert [explanation_fingerprint(e) for e in served] == [
            explanation_fingerprint(e) for e in oracle
        ]


class TestConcurrentClients:
    def test_concurrent_submission_equals_serial_submission(
        self, fast_config, tiny_blocks
    ):
        """N threads through one warm session == the same requests serially.

        Every client's (block, seed) pair must produce the identical seeded
        explanation whether it queued alone or raced seven other threads —
        the single-dispatcher design makes execution order irrelevant to
        results because each request's rng is self-contained.
        """
        workload = [
            (block, seed)
            for seed in range(4)
            for block in tiny_blocks
        ]

        # Serial reference: one warm service, requests submitted one by one.
        with ExplanationService(model="crude", config=fast_config) as service:
            serial = {
                (block.key(), seed): explanation_fingerprint(
                    service.explain(block, seed=seed)[0]
                )
                for block, seed in workload
            }

        # Concurrent run: one warm service, eight client threads.
        with ExplanationService(model="crude", config=fast_config) as service:
            results = {}
            results_lock = threading.Lock()
            errors = []
            barrier = threading.Barrier(8)

            def client(items):
                try:
                    barrier.wait(timeout=30)
                    for block, seed in items:
                        explanation = service.explain(block, seed=seed, timeout=60)[0]
                        with results_lock:
                            results[(block.key(), seed)] = explanation_fingerprint(
                                explanation
                            )
                except Exception as error:  # surfaced to the main thread
                    errors.append(error)

            threads = [
                threading.Thread(target=client, args=(workload[i::8],))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            stats = service.stats()

        assert not errors
        assert results == serial
        assert stats.served == len(workload)
        assert stats.sessions == (("crude", "hsw"),)  # one warm session did it all

    def test_concurrent_submit_then_collect(self, fast_config, tiny_blocks):
        """The async surface (submit now, collect later) is race-free too."""
        with ExplanationService(model="crude", config=fast_config) as service:
            expected = {
                seed: explanation_fingerprint(
                    service.explain(tiny_blocks[0], seed=seed)[0]
                )
                for seed in range(6)
            }
            ids = {}
            ids_lock = threading.Lock()

            def submitter(seed):
                request_id = service.submit(tiny_blocks[0], seed=seed, timeout=30)
                with ids_lock:
                    ids[seed] = request_id

            threads = [threading.Thread(target=submitter, args=(s,)) for s in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert len(ids) == 6
            for seed, request_id in ids.items():
                result = service.result(request_id, timeout=60)
                assert result.ok
                assert explanation_fingerprint(result.explanations[0]) == expected[seed]
