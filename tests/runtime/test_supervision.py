"""Tests for the supervised process backend (worker-death recovery).

A process-pool worker that dies (OOM kill, segfault) poisons the whole
``ProcessPoolExecutor``; the supervised backend must rebuild the pool and
retry the batch so deterministic work completes bit-for-bit, surface
counters for the restarts, and honour the retry policy's exhaustion and
fallback semantics.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.models.mca import PortPressureCostModel
from repro.runtime.backend import (
    BackendRetryPolicy,
    ProcessBackend,
    SerialBackend,
)
from repro.utils.errors import BackendError


def _square(x):
    return x * x


def _die_in_worker(x):
    # Kills only pool workers: the serial fallback runs in the parent, where
    # parent_process() is None, and must survive.
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return x * x


def _fast_retry(**overrides):
    params = dict(max_restarts=2, backoff=0.0, max_backoff=0.0)
    params.update(overrides)
    return BackendRetryPolicy(**params)


def _kill_pool_workers(backend):
    """SIGKILL every live worker of the backend's current pool."""
    pool = backend._pool
    assert pool is not None, "pool must be warm before the kill"
    pids = list(pool._processes)
    assert pids
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    # Wait for the kills to land so the next submit sees a broken pool
    # instead of racing a half-dead worker.
    deadline = time.monotonic() + 10.0
    for process in list(pool._processes.values()):
        process.join(max(deadline - time.monotonic(), 0.1))
    return pids


class TestRetryPolicy:
    def test_defaults(self):
        policy = BackendRetryPolicy()
        assert policy.max_restarts == 2
        assert policy.fallback is None

    def test_delay_is_capped_exponential(self):
        policy = BackendRetryPolicy(backoff=0.1, max_backoff=0.35)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.35)  # capped
        assert policy.delay(10) == pytest.approx(0.35)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_restarts"):
            BackendRetryPolicy(max_restarts=-1)
        with pytest.raises(ValueError, match="backoff"):
            BackendRetryPolicy(backoff=-0.1)
        with pytest.raises(ValueError, match="fallback"):
            BackendRetryPolicy(fallback="thread")

    def test_serial_fallback_accepted(self):
        assert BackendRetryPolicy(fallback="serial").fallback == "serial"


class TestWorkerStats:
    def test_in_process_backends_report_zeros(self):
        stats = SerialBackend().worker_stats()
        assert stats["restarts"] == 0
        assert stats["retries"] == 0
        assert stats["fallbacks"] == 0

    def test_fresh_process_backend_reports_zeros(self):
        backend = ProcessBackend(2)
        assert backend.worker_stats() == {
            "workers": 2,
            "restarts": 0,
            "retries": 0,
            "fallbacks": 0,
        }


class TestSigkillRecovery:
    def test_predict_blocks_survives_sigkilled_workers(self, block_fleet):
        """Kill the whole worker fleet; the rebuilt pool must reproduce the
        original batch bit-for-bit and count exactly one restart."""
        blocks = list(block_fleet[:8])
        model = PortPressureCostModel("hsw")
        expected = [model._predict(block) for block in blocks]
        with ProcessBackend(2, retry=_fast_retry()) as backend:
            assert backend.predict_blocks(model, blocks) == expected
            _kill_pool_workers(backend)
            assert backend.predict_blocks(model, blocks) == expected
            stats = backend.worker_stats()
        assert stats["restarts"] >= 1
        assert stats["retries"] >= 1
        assert stats["fallbacks"] == 0

    def test_map_batch_survives_sigkilled_workers(self):
        with ProcessBackend(2, retry=_fast_retry()) as backend:
            assert backend.map_batch(_square, list(range(16))) == [
                x * x for x in range(16)
            ]
            _kill_pool_workers(backend)
            assert backend.map_batch(_square, list(range(16))) == [
                x * x for x in range(16)
            ]
            assert backend.worker_stats()["restarts"] >= 1

    def test_backend_stays_usable_after_recovery(self, block_fleet):
        blocks = list(block_fleet[:4])
        model = PortPressureCostModel("hsw")
        expected = [model._predict(block) for block in blocks]
        with ProcessBackend(2, retry=_fast_retry()) as backend:
            backend.predict_blocks(model, blocks)
            _kill_pool_workers(backend)
            for _ in range(3):  # recovered pool keeps serving
                assert backend.predict_blocks(model, blocks) == expected


class TestRetryExhaustion:
    def test_persistent_crash_raises_backend_error(self):
        """A workload that kills its worker every time exhausts the restart
        budget and surfaces a BackendError naming the fallback escape."""
        with ProcessBackend(2, retry=_fast_retry(max_restarts=1)) as backend:
            with pytest.raises(BackendError, match="could not be restored"):
                backend.map_batch(_die_in_worker, list(range(8)))
            stats = backend.worker_stats()
        assert stats["restarts"] == 1  # budget spent, then the raise
        assert stats["fallbacks"] == 0

    def test_zero_restarts_disables_supervision(self):
        with ProcessBackend(2, retry=_fast_retry(max_restarts=0)) as backend:
            with pytest.raises(BackendError):
                backend.map_batch(_die_in_worker, list(range(8)))
            assert backend.worker_stats()["restarts"] == 0

    def test_serial_fallback_completes_the_batch(self):
        policy = _fast_retry(max_restarts=1, fallback="serial")
        with ProcessBackend(2, retry=policy) as backend:
            assert backend.map_batch(_die_in_worker, list(range(8))) == [
                x * x for x in range(8)
            ]
            stats = backend.worker_stats()
        assert stats["fallbacks"] == 1
        assert stats["restarts"] == 1

    def test_backend_usable_after_exhaustion(self, block_fleet):
        """An exhausted batch must not poison the next one: the pool was
        torn down, so healthy work simply rebuilds it."""
        blocks = list(block_fleet[:4])
        model = PortPressureCostModel("hsw")
        with ProcessBackend(2, retry=_fast_retry(max_restarts=0)) as backend:
            with pytest.raises(BackendError):
                backend.map_batch(_die_in_worker, list(range(8)))
            assert backend.predict_blocks(model, blocks) == [
                model._predict(block) for block in blocks
            ]


class TestSessionIntegration:
    def test_session_stats_surface_worker_counters(self, block_fleet, fast_config):
        from repro.models.analytical import AnalyticalCostModel
        from repro.runtime.session import ExplanationSession

        blocks = list(block_fleet[:4])
        backend = ProcessBackend(2, retry=_fast_retry())
        with ExplanationSession(
            AnalyticalCostModel("hsw"), fast_config, backend=backend
        ) as session:
            session.explain_many(blocks, rng=0)
            _kill_pool_workers(backend)
            session.explain_many(blocks, rng=0)
            stats = session.stats()
        backend.close()
        assert stats.worker_restarts >= 1
        assert stats.worker_retries >= 1
        assert "worker restarts" in stats.describe()
