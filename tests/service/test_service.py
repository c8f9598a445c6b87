"""Tests for the warm-session explanation service: lifecycle, queueing,
session pooling and request semantics.

Tests that inject toy (lambda-backed) models via ``session_factory`` run
their sessions on the ``serial`` backend: lambdas cannot cross a process
boundary.
"""

import threading
import time

import pytest

from repro.bb.block import BasicBlock
from repro.models.base import CachedCostModel, CallableCostModel
from repro.runtime.session import ExplanationSession
from repro.runtime import blocking
from repro.service import ExplanationRequest, ExplanationService, RequestStatus
from repro.utils.errors import (
    QueueFullError,
    ServiceClosedError,
    ServiceError,
)

from tests.conftest import FAST_CONFIG


def _toy_factory(
    fast_config, *, gate: "threading.Event" = None, built=None, release_slot=False
):
    """A session factory over a cheap in-process model.

    ``gate``, when given, makes every prediction wait — the dispatcher then
    blocks mid-request, which is how the queueing tests create a backlog.
    With ``release_slot`` the wait frees the scheduler's execution slot, as
    a wait on process-backend workers does.  ``built`` collects one entry
    per factory call, for session-reuse tests.
    """

    def predict(block):
        if gate is not None:
            if release_slot:
                with blocking():
                    gate.wait(timeout=30)
            else:
                gate.wait(timeout=30)
        return float(block.num_instructions)

    def factory(model_name, uarch):
        if built is not None:
            built.append((model_name, uarch))
        model = CachedCostModel(CallableCostModel(predict, name=model_name))
        return ExplanationSession(model, fast_config, backend="serial")

    return factory


@pytest.fixture
def service(fast_config):
    instance = ExplanationService(
        config=fast_config, session_factory=_toy_factory(fast_config)
    )
    yield instance
    instance.close()


class TestLifecycle:
    def test_start_is_idempotent(self, service):
        assert service.start() is service
        first = service._scheduler
        service.start()
        assert service._scheduler is first

    def test_close_is_idempotent(self, service):
        service.start()
        service.close()
        service.close()
        assert service.closed

    def test_close_is_idempotent_without_drain(self, service):
        service.start()
        service.close(drain=False)
        service.close(drain=False)
        service.close()  # and mixing drain modes after the fact is fine too
        assert service.closed

    def test_concurrent_close_is_safe(self, fast_config, tiny_block):
        """Racing close() calls: every caller returns only once the service
        is fully shut down, and the shutdown happens exactly once."""
        instance = ExplanationService(
            config=fast_config, session_factory=_toy_factory(fast_config)
        )
        instance.explain(tiny_block)
        errors = []
        barrier = threading.Barrier(4)

        def closer():
            try:
                barrier.wait(timeout=10)
                instance.close()
                # By the time any close() returns, the pool must be gone.
                assert instance.pool.closed
            except Exception as error:  # surfaced to the main thread
                errors.append(error)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert instance.closed

    def test_close_without_start_is_fine(self, fast_config):
        instance = ExplanationService(config=fast_config)
        instance.close()
        assert instance.closed

    def test_drain_on_idle_service_returns_immediately(self, service):
        assert service.drain(timeout=1.0)

    def test_submit_after_close_rejected(self, service, tiny_block):
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(tiny_block)

    def test_submit_after_close_without_drain_rejected(self, service, tiny_block):
        # ServiceClosedError is a ServiceError: both spellings must catch.
        service.close(drain=False)
        with pytest.raises(ServiceError):
            service.submit(tiny_block)
        with pytest.raises(ServiceClosedError):
            service.explain(tiny_block)

    def test_submit_racing_close_never_hangs(self, fast_config, tiny_block):
        """Submissions racing close() either raise ServiceClosedError or get
        a resolvable ticket — no request may be silently dropped."""
        gate = threading.Event()
        instance = ExplanationService(
            config=fast_config,
            session_factory=_toy_factory(fast_config, gate=gate),
        )
        first = instance.submit(tiny_block, seed=0)
        while instance.poll(first) is RequestStatus.QUEUED:
            time.sleep(0.005)
        outcomes = []
        outcomes_lock = threading.Lock()

        def submitter(seed):
            try:
                request_id = instance.submit(tiny_block, seed=seed)
                result = instance.result(request_id, timeout=30)
                with outcomes_lock:
                    outcomes.append(result.status)
            except ServiceClosedError:
                with outcomes_lock:
                    outcomes.append("rejected")

        threads = [threading.Thread(target=submitter, args=(s,)) for s in range(8)]
        for thread in threads:
            thread.start()
        gate.set()
        instance.close()  # drain: whatever got in, finishes
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 8
        assert all(
            outcome in ("rejected", RequestStatus.DONE, RequestStatus.CANCELLED)
            for outcome in outcomes
        )

    def test_start_after_close_rejected(self, service):
        service.close()
        with pytest.raises(ServiceClosedError):
            service.start()
        # And no dispatcher fleet was built by the refused start.
        assert service._scheduler is None

    def test_context_manager_closes(self, fast_config, tiny_block):
        with ExplanationService(
            config=fast_config, session_factory=_toy_factory(fast_config)
        ) as instance:
            instance.explain(tiny_block)
        assert instance.closed

    def test_close_drains_queued_requests(self, fast_config, tiny_block):
        instance = ExplanationService(
            config=fast_config, session_factory=_toy_factory(fast_config)
        )
        ids = [instance.submit(tiny_block, seed=seed) for seed in range(4)]
        instance.close()  # drain=True default: everything finishes first
        assert instance.stats().served == 4
        for request_id in ids:
            assert instance.result(request_id, timeout=1.0).ok

    def test_close_without_drain_cancels_queued(self, fast_config, tiny_block):
        gate = threading.Event()
        instance = ExplanationService(
            config=fast_config,
            session_factory=_toy_factory(fast_config, gate=gate),
        )
        first = instance.submit(tiny_block, seed=0)
        backlog = [instance.submit(tiny_block, seed=s) for s in (1, 2)]
        # Wait for the dispatcher to pick the first request up, then let it
        # finish while the backlog is cancelled.
        while instance.poll(first) is RequestStatus.QUEUED:
            time.sleep(0.005)
        gate.set()
        instance.close(drain=False)
        assert instance.result(first, timeout=5.0).ok
        for request_id in backlog:
            result = instance.result(request_id, timeout=1.0)
            assert result.status is RequestStatus.CANCELLED
            assert not result.ok
        stats = instance.stats()
        assert stats.cancelled == 2

    def test_close_closes_sessions_and_backends(self, fast_config, tiny_block):
        sessions = []

        def factory(model_name, uarch):
            session = ExplanationSession(
                CachedCostModel(CallableCostModel(lambda b: 1.0)),
                fast_config,
                backend="serial",
            )
            sessions.append(session)
            return session

        with ExplanationService(config=fast_config, session_factory=factory) as svc:
            svc.explain(tiny_block)
            backend = sessions[0].backend
            assert not backend.closed
        assert sessions[0].closed
        assert backend.closed


class TestQueueing:
    def test_invalid_bounds_rejected(self, fast_config):
        with pytest.raises(ValueError):
            ExplanationService(config=fast_config, max_queue=0)
        with pytest.raises(ValueError):
            ExplanationService(config=fast_config, max_sessions=0)

    def test_bounded_queue_backpressure(self, fast_config, tiny_block):
        gate = threading.Event()
        instance = ExplanationService(
            config=fast_config,
            max_queue=1,
            session_factory=_toy_factory(fast_config, gate=gate),
        )
        try:
            first = instance.submit(tiny_block, seed=0)
            # Dispatcher is now blocked on the gate; fill the 1-slot queue.
            while instance.poll(first) is RequestStatus.QUEUED:
                time.sleep(0.005)
            instance.submit(tiny_block, seed=1)
            with pytest.raises(QueueFullError):
                instance.submit(tiny_block, seed=2, block=False)
            with pytest.raises(QueueFullError):
                instance.submit(tiny_block, seed=3, timeout=0.05)
        finally:
            gate.set()
            instance.close()
        # The rejected submissions left no tickets behind.
        assert instance.stats().submitted == 2
        assert instance.stats().served == 2

    def test_blocking_submit_waits_for_room(self, fast_config, tiny_block):
        gate = threading.Event()
        instance = ExplanationService(
            config=fast_config,
            max_queue=1,
            session_factory=_toy_factory(fast_config, gate=gate),
        )
        try:
            instance.submit(tiny_block, seed=0)
            releaser = threading.Timer(0.1, gate.set)
            releaser.start()
            # Blocks until the gate opens the pipeline, then succeeds.
            second = instance.submit(tiny_block, seed=1, timeout=10.0)
            assert instance.result(second, timeout=10.0).ok
        finally:
            gate.set()
            instance.close()


class TestRequestSemantics:
    def test_submit_poll_result_roundtrip(self, service, tiny_block):
        request_id = service.submit(tiny_block, seed=3)
        result = service.result(request_id, timeout=10.0)
        assert result.ok
        assert result.request_id == request_id
        assert len(result.explanations) == 1
        assert result.seconds >= 0.0

    def test_result_consumes_the_ticket(self, service, tiny_block):
        request_id = service.submit(tiny_block)
        service.result(request_id, timeout=10.0)
        with pytest.raises(ServiceError):
            service.poll(request_id)
        with pytest.raises(ServiceError):
            service.result(request_id)

    def test_poll_unknown_id_rejected(self, service):
        with pytest.raises(ServiceError):
            service.poll("req-nope")

    def test_empty_request_rejected(self):
        with pytest.raises(ServiceError):
            ExplanationRequest(blocks=())

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", True),
            ("seed", False),
            ("shards", True),
            ("deadline", True),
            ("model", 5),
            ("model", ["x"]),
            ("uarch", ["x"]),
            ("uarch", b"hsw"),
        ],
    )
    def test_booleans_and_non_string_keys_rejected(self, tiny_block, field, value):
        # True would run as seed 1, one shard or a 1 s deadline; a list
        # uarch would fail inside the scheduler instead of in band.
        with pytest.raises(ServiceError, match=field):
            ExplanationRequest(blocks=(tiny_block,), **{field: value})

    def test_boolean_seed_refused_at_admission(self, service, tiny_block):
        with pytest.raises(ServiceError, match="seed"):
            service.submit(tiny_block, seed=True)
        assert service.stats().submitted == 0

    def test_scheduler_failure_leaves_no_ticket(self, service, tiny_block):
        """Whatever the scheduler raises, the ticket is dropped and the
        request is not counted as submitted."""
        service.start()

        def broken_submit(*args, **kwargs):
            raise TypeError("unhashable type: 'list'")

        service._scheduler.submit = broken_submit
        with pytest.raises(TypeError):
            service.submit(tiny_block)
        assert service.stats().submitted == 0
        assert not service._tickets

    def test_failed_request_reported_in_band(self, fast_config):
        block = BasicBlock.from_text("div rcx")
        # The default (registry) factory actually validates model names.
        with ExplanationService(config=fast_config) as instance:
            request_id = instance.submit(block, model="no-such-model")
            result = instance.result(request_id, timeout=10.0)
            assert result.status is RequestStatus.FAILED
            assert "unknown cost model" in result.error
            assert not result.ok
            with pytest.raises(ServiceError):
                # The synchronous wrapper surfaces the failure as an exception.
                instance.explain(block, model="no-such-model")
            # The service keeps serving after a failure.
            assert len(instance.explain(block)) == 1

    def test_multi_block_request(self, service, tiny_blocks):
        explanations = service.explain(tiny_blocks, seed=5)
        assert len(explanations) == len(tiny_blocks)

    def test_prepared_request_objects_accepted(self, service, tiny_blocks):
        request = ExplanationRequest(blocks=tuple(tiny_blocks), seed=2)
        request_id = service.submit(request)
        assert service.result(request_id, timeout=30.0).ok


class TestSessionPooling:
    def test_same_model_reuses_one_session(self, fast_config, tiny_block):
        built = []
        with ExplanationService(
            config=fast_config, session_factory=_toy_factory(fast_config, built=built)
        ) as instance:
            for seed in range(3):
                instance.explain(tiny_block, seed=seed)
            stats = instance.stats()
        assert built == [("crude", "hsw")]
        assert stats.sessions == (("crude", "hsw"),)
        assert stats.session_stats[("crude", "hsw")].explanations == 3

    def test_distinct_models_get_distinct_sessions(self, fast_config, tiny_block):
        built = []
        with ExplanationService(
            config=fast_config, session_factory=_toy_factory(fast_config, built=built)
        ) as instance:
            instance.explain(tiny_block, model="crude")
            instance.explain(tiny_block, model="uica")
            instance.explain(tiny_block, model="crude", uarch="skl")
        assert sorted(built) == [("crude", "hsw"), ("crude", "skl"), ("uica", "hsw")]

    def test_lru_session_evicted_and_closed(self, fast_config, tiny_block):
        built = []
        sessions = {}

        def factory(model_name, uarch):
            session = _toy_factory(fast_config, built=built)(model_name, uarch)
            sessions[(model_name, uarch)] = session
            return session

        with ExplanationService(
            config=fast_config, max_sessions=1, session_factory=factory
        ) as instance:
            instance.explain(tiny_block, model="a")
            instance.explain(tiny_block, model="b")
            assert sessions[("a", "hsw")].closed
            assert instance.pool.keys() == (("b", "hsw"),)
            assert instance.pool.stats().evictions == 1
        assert built == [("a", "hsw"), ("b", "hsw")]

    def test_stats_describe(self, service, tiny_block):
        service.explain(tiny_block)
        description = service.stats().describe()
        assert "1/1 requests served" in description
        assert "1 warm sessions" in description


class TestMultiDispatcher:
    def test_invalid_dispatcher_count_rejected(self, fast_config):
        with pytest.raises(ValueError):
            ExplanationService(config=fast_config, dispatchers=0)

    def test_distinct_keys_take_turns(self, fast_config, tiny_block):
        """Two models submitted at once, but only one runs: the other stays
        queued and unclaimed while the first holds the execution slot, even
        with an idle dispatcher around."""
        gate = threading.Event()
        instance = ExplanationService(
            config=fast_config,
            dispatchers=2,
            session_factory=_toy_factory(fast_config, gate=gate),
        )
        try:
            first = instance.submit(tiny_block, model="a", seed=0)
            second = instance.submit(tiny_block, model="b", seed=0)
            deadline = time.monotonic() + 30
            while instance.poll(first) is not RequestStatus.RUNNING:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            # Give the idle dispatcher every chance to misbehave.
            time.sleep(0.1)
            assert instance.poll(second) is RequestStatus.QUEUED
            stats = instance.stats()
            assert (stats.in_flight, stats.queue_depth) == (1, 1)
            assert sum(d.busy for d in stats.dispatcher_stats) == 1
        finally:
            gate.set()
            instance.close()
        assert instance.stats().served == 2

    def test_distinct_keys_overlap_while_blocking(self, fast_config, tiny_block):
        """Two models in flight at once while their model waits outside
        the interpreter — the overlap a fleet of dispatchers buys."""
        gate = threading.Event()
        instance = ExplanationService(
            config=fast_config,
            dispatchers=2,
            session_factory=_toy_factory(fast_config, gate=gate, release_slot=True),
        )
        try:
            first = instance.submit(tiny_block, model="a", seed=0)
            second = instance.submit(tiny_block, model="b", seed=0)
            deadline = time.monotonic() + 30
            while not (
                instance.poll(first) is RequestStatus.RUNNING
                and instance.poll(second) is RequestStatus.RUNNING
            ):
                assert time.monotonic() < deadline, (
                    instance.poll(first), instance.poll(second)
                )
                time.sleep(0.005)
            stats = instance.stats()
            assert stats.in_flight == 2
            assert sum(d.busy for d in stats.dispatcher_stats) == 2
        finally:
            gate.set()
            instance.close()
        assert instance.stats().served == 2

    def test_lease_waiting_on_a_library_build_completes(
        self, fast_config, tiny_block
    ):
        """A dispatcher whose lease waits on a session that a library
        thread is building keeps the execution slot meanwhile, and still
        completes: the library thread holds no slot, so nothing it needs is
        held by the waiting dispatcher."""
        building = threading.Event()
        finish_build = threading.Event()
        built = []
        toy = _toy_factory(fast_config, built=built)

        def factory(model_name, uarch):
            building.set()
            assert finish_build.wait(timeout=30)
            return toy(model_name, uarch)

        instance = ExplanationService(
            config=fast_config, dispatchers=2, session_factory=factory
        )
        library = threading.Thread(
            target=lambda: instance.pool.lease("crude", "hsw")
        )
        try:
            library.start()
            assert building.wait(timeout=10)
            request_id = instance.submit(tiny_block, seed=0)
            deadline = time.monotonic() + 30
            while instance.poll(request_id) is not RequestStatus.RUNNING:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            time.sleep(0.05)  # let the dispatcher reach the build wait
            finish_build.set()
            assert instance.result(request_id, timeout=30).ok
            library.join(timeout=10)
            assert not library.is_alive()
            instance.pool.release("crude", "hsw")
        finally:
            finish_build.set()
            instance.close()
        assert built == [("crude", "hsw")]  # built once, by the library

    def test_same_key_never_runs_concurrently(self, fast_config, tiny_block):
        """Per-key mutual exclusion: the second request of one key stays
        queued while the first runs, even with idle dispatchers around."""
        gate = threading.Event()
        instance = ExplanationService(
            config=fast_config,
            dispatchers=4,
            session_factory=_toy_factory(fast_config, gate=gate),
        )
        try:
            first = instance.submit(tiny_block, seed=0)
            second = instance.submit(tiny_block, seed=1)
            while instance.poll(first) is not RequestStatus.RUNNING:
                time.sleep(0.005)
            # Give the three idle dispatchers every chance to misbehave.
            time.sleep(0.1)
            assert instance.poll(second) is RequestStatus.QUEUED
            assert instance.stats().in_flight == 1
        finally:
            gate.set()
            instance.close()
        assert instance.stats().served == 2

    def test_dispatcher_counters_account_for_all_requests(
        self, fast_config, tiny_block
    ):
        with ExplanationService(
            config=fast_config,
            dispatchers=2,
            session_factory=_toy_factory(fast_config),
        ) as instance:
            for seed in range(5):
                instance.explain(tiny_block, seed=seed, model=f"m{seed % 3}")
            stats = instance.stats()
        assert stats.dispatchers == 2
        assert len(stats.dispatcher_stats) == 2
        assert sum(d.executed for d in stats.dispatcher_stats) == 5
        assert stats.pool is not None
        assert stats.pool.sessions == 3
        assert stats.pool.builds == 3


class TestRegistryIntegration:
    def test_default_factory_builds_registry_models(self, fast_config, tiny_block):
        with ExplanationService(model="crude", config=fast_config) as instance:
            explanations = instance.explain(tiny_block, seed=0)
        assert len(explanations) == 1
        assert explanations[0].model_name == "crude-analytical-hsw"

    def test_unknown_default_model_fails_per_request(self, fast_config, tiny_block):
        with ExplanationService(model="nonsense", config=fast_config) as instance:
            request_id = instance.submit(tiny_block)
            result = instance.result(request_id, timeout=10.0)
        assert result.status is RequestStatus.FAILED
        assert "unknown cost model" in result.error
