"""Continuous batching: fused same-key serving equals the unfused oracle.

The acceptance bar for cross-request fusion mirrors the multi-dispatcher
one: a client must never be able to tell (from the explanation itself)
whether their request had a warm session to itself or shared every
cost-model invocation with seven other requests mid-flight.  On top of
bit-for-bit parity this suite pins the parts fusion could silently break:
exact per-request ``num_queries`` accounting, per-request cancellation and
deadline expiry inside a fused group, and the fused-tick observability
counters.
"""

import threading
import time

import pytest

from repro.bb.block import BasicBlock
from repro.cache.store import ResultCache
from repro.explain.config import ExplainerConfig
from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CachedCostModel
from repro.runtime.session import ExplanationSession
from repro.service import (
    ExplanationService,
    FusionCounters,
    RequestStatus,
    ServiceClient,
    SocketServer,
    run_fused_group,
)
from repro.service.batching import FusedEntry
from repro.utils.cancellation import CancelToken
from repro.utils.errors import RequestCancelledError

from tests.conftest import (
    FAST_CONFIG,
    CancelAfter,
    anchor_seed,
    explanation_dict_fingerprint,
    explanation_fingerprint,
)


def _oracle(workload, fast_config):
    """Single-dispatcher, fusion-off, cache-free serving — the behavioral
    reference.  The result cache is pinned off so that under the CI cache
    lanes (``REPRO_RESULT_CACHE`` exported) the oracle cannot pre-warm the
    ambient store the subject service would then trivially serve from —
    parity must be proven against an independent computation."""
    with ExplanationService(
        model="crude",
        config=fast_config,
        dispatchers=1,
        continuous_batching=False,
        result_cache=False,
    ) as service:
        return {
            (block.key(), seed, uarch): explanation_fingerprint(
                service.explain(block, seed=seed, uarch=uarch)[0]
            )
            for block, seed, uarch in workload
        }


class TestFusedParity:
    def _workload(self, tiny_blocks):
        return [
            (block, seed, uarch)
            for uarch in ("hsw", "skl")
            for seed in range(2)
            for block in tiny_blocks
        ]

    def test_fused_serial_submission_matches_oracle(self, fast_config, tiny_blocks):
        workload = self._workload(tiny_blocks)
        oracle = _oracle(workload, fast_config)
        with ExplanationService(
            model="crude", config=fast_config, continuous_batching=True
        ) as service:
            served = {
                (block.key(), seed, uarch): explanation_fingerprint(
                    service.explain(block, seed=seed, uarch=uarch)[0]
                )
                for block, seed, uarch in workload
            }
        assert served == oracle

    def test_fused_same_key_backlog_matches_oracle_and_actually_fuses(
        self, fast_config, tiny_blocks
    ):
        """Submit a same-key backlog up front: the first claim seeds the
        fused group, everything else is absorbed into shared ticks."""
        workload = [
            (block, seed, "hsw") for seed in range(4) for block in tiny_blocks
        ]
        oracle = _oracle(workload, fast_config)
        with ExplanationService(
            model="crude",
            config=fast_config,
            dispatchers=1,
            continuous_batching=True,
            # Cache off: this test asserts the fusion *mechanism* (ticks,
            # occupancy, absorption), which an ambient REPRO_RESULT_CACHE
            # would short-circuit — cache-hit requests retire without ticks.
            result_cache=False,
        ) as service:
            ids = {
                service.submit(block, seed=seed, uarch=uarch): (block, seed, uarch)
                for block, seed, uarch in workload
            }
            served = {}
            for request_id, (block, seed, uarch) in ids.items():
                result = service.result(request_id, timeout=120)
                assert result.ok, result.error
                served[(block.key(), seed, uarch)] = explanation_fingerprint(
                    result.explanations[0]
                )
            stats = service.stats()
        assert served == oracle
        fusion = stats.fusion
        assert fusion is not None and fusion.enabled
        assert fusion.requests_fused == len(workload)
        assert fusion.ticks > 0
        # The backlog was outstanding while the first request ran, so fused
        # ticks really carried more than one request on average.
        assert fusion.mean_occupancy > 1.0
        assert stats.absorbed >= 1
        assert sum(ticks for _, ticks in fusion.occupancy) == fusion.ticks
        assert "fused ticks" in stats.describe()

    def test_fused_socket_stress_matches_oracle(self, fast_config, tiny_blocks):
        """Mixed-key 8-client stress over TCP, fused at 4 dispatchers."""
        from repro.reporting.export import explanation_to_dict

        workload = self._workload(tiny_blocks)
        with ExplanationService(
            model="crude",
            config=fast_config,
            dispatchers=1,
            continuous_batching=False,
            result_cache=False,  # independent oracle, even in CI cache lanes
        ) as service:
            oracle = {
                (block.key(), seed, uarch): explanation_dict_fingerprint(
                    explanation_to_dict(
                        service.explain(block, seed=seed, uarch=uarch)[0]
                    )
                )
                for block, seed, uarch in workload
            }
        with ExplanationService(
            model="crude",
            config=fast_config,
            dispatchers=4,
            continuous_batching=True,
        ) as service:
            with SocketServer(service, port=0) as server:
                results = {}
                results_lock = threading.Lock()
                errors = []
                barrier = threading.Barrier(8)

                def client(items):
                    try:
                        with ServiceClient(*server.address, timeout=120) as remote:
                            barrier.wait(timeout=30)
                            for block, seed, uarch in items:
                                payload = remote.explain(
                                    block, seed=seed, uarch=uarch
                                )[0]
                                with results_lock:
                                    results[(block.key(), seed, uarch)] = (
                                        explanation_dict_fingerprint(payload)
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
                with ServiceClient(*server.address, timeout=30) as remote:
                    wire_stats = remote.stats()
        # Wire fingerprints against locally-computed oracle dicts: floats
        # survive the JSON round-trip exactly.
        assert results == oracle
        fusion = wire_stats["fusion"]
        assert fusion["enabled"] is True
        # Stats ops never enter the batcher; every explanation request did.
        assert fusion["requests_fused"] == len(workload)

    def test_fleet_requests_fused_match_oracle(self, fast_config, tiny_blocks):
        workload = list(tiny_blocks) + [tiny_blocks[0]]  # include a repeat
        with ExplanationService(
            model="crude", config=fast_config, dispatchers=1,
            continuous_batching=False,
            result_cache=False,  # independent oracle, even in CI cache lanes
        ) as service:
            oracle = service.explain(workload, seed=11)
        with ExplanationService(
            model="crude", config=fast_config, continuous_batching=True
        ) as service:
            served = service.explain(workload, seed=11)
        assert [explanation_fingerprint(e) for e in served] == [
            explanation_fingerprint(e) for e in oracle
        ]


class TestFusedQueryAccounting:
    def _counting_factory(self, holder):
        def factory(name, uarch):
            model = CachedCostModel(AnalyticalCostModel(uarch))
            holder[(name, uarch)] = model
            return ExplanationSession(model, FAST_CONFIG)

        return factory

    def test_fused_num_queries_sum_to_inner_model_work(self, tiny_blocks):
        """Per-request accounting is exact under fusion: summing
        ``num_queries`` over every fused request recovers precisely the
        inner-model evaluations the shared cache performed."""
        holder = {}
        with ExplanationService(
            model="crude",
            config=FAST_CONFIG,
            session_factory=self._counting_factory(holder),
            dispatchers=1,
            continuous_batching=True,
        ) as service:
            ids = [
                service.submit(block, seed=seed)
                for seed in range(3)
                for block in tiny_blocks
            ]
            total = 0
            for request_id in ids:
                result = service.result(request_id, timeout=120)
                assert result.ok, result.error
                total += sum(e.num_queries for e in result.explanations)
        model = holder[("crude", "hsw")]
        assert total == model.query_count

    def test_single_fused_request_num_queries_match_unfused(self, tiny_blocks):
        """A lone request in a fused group pays exactly what it pays unfused."""
        block = tiny_blocks[0]

        def serve(continuous_batching):
            with ExplanationService(
                model="crude",
                config=FAST_CONFIG,
                continuous_batching=continuous_batching,
                # Cache off: a memoized hit would return the stored count
                # and make this accounting comparison vacuous.
                result_cache=False,
            ) as service:
                return service.explain(block, seed=7)[0].num_queries

        assert serve(True) == serve(False)


class TestFusedFaultInjection:
    def test_cancel_one_fused_member_leaves_others_bit_for_bit(
        self, fast_config, tiny_blocks, block_fleet
    ):
        """Cancel a running fleet request mid-group: it retires CANCELLED at
        its next round boundary while the absorbed members finish unperturbed."""
        victim_blocks = list(block_fleet[:10])
        bystanders = [(block, seed) for seed in range(2) for block in tiny_blocks]
        oracle = _oracle(
            [(block, seed, "hsw") for block, seed in bystanders], fast_config
        )
        with ExplanationService(
            model="crude",
            config=fast_config,
            dispatchers=1,
            continuous_batching=True,
            # Cache off: the victim must actually *run* long enough to be
            # cancelled mid-group; ambient warmth could retire it instantly.
            result_cache=False,
        ) as service:
            victim = service.submit(victim_blocks, seed=0)
            deadline = time.monotonic() + 30
            while service.poll(victim) is RequestStatus.QUEUED:
                assert time.monotonic() < deadline, "victim never started"
                time.sleep(0.001)
            ids = [
                service.submit(block, seed=seed) for block, seed in bystanders
            ]
            assert service.cancel(victim) is True
            victim_result = service.result(victim, timeout=120)
            served = {}
            for request_id, (block, seed) in zip(ids, bystanders):
                result = service.result(request_id, timeout=120)
                assert result.ok, result.error
                served[(block.key(), seed, "hsw")] = explanation_fingerprint(
                    result.explanations[0]
                )
            stats = service.stats()
        assert victim_result.status is RequestStatus.CANCELLED
        assert served == oracle
        assert stats.cancelled == 1
        assert stats.served == len(bystanders)

    def test_deadline_expiry_inside_fused_group_is_isolated(
        self, fast_config, tiny_blocks, block_fleet
    ):
        """A member whose server-side deadline lapses mid-group fails with
        the deadline error; the rest of the group still matches the oracle."""
        bystanders = [(block, seed) for seed in range(2) for block in tiny_blocks]
        oracle = _oracle(
            [(block, seed, "hsw") for block, seed in bystanders], fast_config
        )
        with ExplanationService(
            model="crude",
            config=fast_config,
            dispatchers=1,
            continuous_batching=True,
            # Cache off: the doomed request's deadline must lapse while it
            # still has work; ambient warmth could finish it first.
            result_cache=False,
        ) as service:
            doomed = service.submit(
                list(block_fleet[:10]), seed=0, deadline=0.001
            )
            ids = [
                service.submit(block, seed=seed) for block, seed in bystanders
            ]
            doomed_result = service.result(doomed, timeout=120)
            served = {}
            for request_id, (block, seed) in zip(ids, bystanders):
                result = service.result(request_id, timeout=120)
                assert result.ok, result.error
                served[(block.key(), seed, "hsw")] = explanation_fingerprint(
                    result.explanations[0]
                )
            stats = service.stats()
        assert doomed_result.status is RequestStatus.FAILED
        assert "Deadline" in doomed_result.error
        assert served == oracle
        assert stats.deadline_expired == 1


class _SegmentedFaultModel(CachedCostModel):
    """A cache whose fused (multi-segment) calls always fail, forcing the
    batcher onto its per-segment isolation fallback, which answers each
    segment with a one-segment call."""

    def __init__(self, inner):
        super().__init__(inner)
        self.segmented_calls = 0

    def predict_batch_segmented(self, segments):
        if len(segments) == 1:
            return super().predict_batch_segmented(segments)
        self.segmented_calls += 1
        raise RuntimeError("fused path poisoned")


class _CountChecks(CancelToken):
    """A token that never fires and counts how often it was checked."""

    def __init__(self):
        super().__init__()
        self.checks = 0

    def check(self):
        self.checks += 1
        super().check()


class TestRunFusedGroupUnit:
    def _entry(self, blocks, seed, sink, token=None):
        def finish(explanations):
            assert "outcome" not in sink, "retired twice"
            sink["outcome"] = ("done", explanations)

        def fail(error):
            assert "outcome" not in sink, "retired twice"
            sink["outcome"] = ("failed", error)

        return FusedEntry(
            blocks=tuple(blocks), seed=seed, token=token, finish=finish, fail=fail
        )

    def test_fused_group_matches_session_explain(self, fast_config, tiny_blocks):
        with ExplanationSession(
            AnalyticalCostModel("hsw"), fast_config
        ) as session:
            expected = [
                explanation_fingerprint(session.explain(block, rng=seed))
                for seed, block in enumerate(tiny_blocks)
            ]
        with ExplanationSession(
            AnalyticalCostModel("hsw"), fast_config
        ) as session:
            sinks = [{} for _ in tiny_blocks]
            entries = [
                self._entry([block], seed, sink)
                for (seed, block), sink in zip(enumerate(tiny_blocks), sinks)
            ]
            counters = FusionCounters()
            run_fused_group(session, entries, counters=counters)
            assert session.explanations_produced == len(tiny_blocks)
        fused = []
        for sink in sinks:
            status, explanations = sink["outcome"]
            assert status == "done"
            fused.append(explanation_fingerprint(explanations[0]))
        assert fused == expected
        snapshot = counters.snapshot(enabled=True, max_fused_requests=8)
        assert snapshot.requests_fused == len(tiny_blocks)
        assert snapshot.mean_occupancy > 1.0
        assert "mean occupancy" in snapshot.describe()

    def test_fused_group_charges_its_session(self, fast_config, tiny_blocks):
        """Each retiring request charges its search and segment accounting
        to the session: the fused session counts what a direct one does."""
        with ExplanationSession(
            AnalyticalCostModel("hsw"), fast_config, backend="serial"
        ) as session:
            for seed, block in enumerate(tiny_blocks):
                session.explain(block, rng=seed)
            direct = session.stats()
        with ExplanationSession(
            AnalyticalCostModel("hsw"), fast_config, backend="serial"
        ) as session:
            sinks = [{} for _ in tiny_blocks]
            entries = [
                self._entry([block], seed, sink)
                for (seed, block), sink in zip(enumerate(tiny_blocks), sinks)
            ]
            run_fused_group(session, entries)
            fused = session.stats()
        answered = [sink["outcome"][1][0] for sink in sinks]
        assert fused.model_queries == sum(e.num_queries for e in answered)
        assert fused.model_queries == direct.model_queries > 0
        assert fused.perturbations == direct.perturbations > 0

    def test_fleet_repeats_are_memoized(self, tiny_blocks):
        """Every fleet position is memoized under its own child seed, as in
        ``explain_many``, repeats included."""
        repeated, once = tiny_blocks[0], tiny_blocks[1]
        sink = {}
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, result_cache=ResultCache()
        ) as session:
            run_fused_group(
                session, [self._entry([repeated, once, repeated], 5, sink)]
            )
            stats = session.result_cache.stats()
        assert sink["outcome"][0] == "done"
        assert stats.lookups == 3 and stats.memory.entries == 3

    def test_failed_request_still_charges_its_session(self, tiny_blocks):
        """A request retired by an error mid-search has already charged the
        work it did, exactly like a cancelled direct explain."""
        block = tiny_blocks[0]
        sink = {}
        entry = self._entry(
            [block], anchor_seed(block, empty=False), sink, token=CancelAfter(2)
        )
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="serial"
        ) as session:
            run_fused_group(session, [entry])
            stats = session.stats()
        assert sink["outcome"][0] == "failed"
        assert stats.explanations == 0
        assert stats.model_queries > 0 and stats.perturbations > 0

    def test_cancelled_fleet_counts_the_explanations_it_finished(self, tiny_blocks):
        """A fleet request cancelled between blocks counts its finished
        blocks, as ``explain_many`` does on the same seed."""
        first = BasicBlock.from_text("add rcx, rax\nmov rdx, rcx\npop rbx")
        second = tiny_blocks[1]
        counting = _CountChecks()
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="serial"
        ) as session:
            session.explain_many([first], rng=3, cancel=counting)
        # Fires on the check before the second block.
        checks = counting.checks
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="serial"
        ) as session:
            with pytest.raises(RequestCancelledError):
                session.explain_many(
                    [first, second], rng=3, cancel=CancelAfter(checks)
                )
            unfused = session.stats().explanations
        sink = {}
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="serial"
        ) as session:
            run_fused_group(
                session,
                [self._entry([first, second], 3, sink, token=CancelAfter(checks))],
            )
            fused = session.stats().explanations
        status, error = sink["outcome"]
        assert status == "failed" and isinstance(error, RequestCancelledError)
        assert fused == unfused == 1

    def test_segmented_failure_falls_back_per_request(
        self, fast_config, tiny_blocks
    ):
        """predict_batch_segmented blowing up retires nobody spuriously:
        each segment re-runs alone and every request still completes."""
        with ExplanationSession(
            AnalyticalCostModel("hsw"), fast_config
        ) as session:
            expected = [
                explanation_fingerprint(session.explain(block, rng=seed))
                for seed, block in enumerate(tiny_blocks)
            ]
        model = _SegmentedFaultModel(AnalyticalCostModel("hsw"))
        with ExplanationSession(model, fast_config) as session:
            sinks = [{} for _ in tiny_blocks]
            entries = [
                self._entry([block], seed, sink)
                for (seed, block), sink in zip(enumerate(tiny_blocks), sinks)
            ]
            run_fused_group(session, entries)
        assert model.segmented_calls > 0
        fused = []
        for sink in sinks:
            status, explanations = sink["outcome"]
            assert status == "done"
            fused.append(explanation_fingerprint(explanations[0]))
        assert fused == expected

    def test_fusion_stats_describe_when_off(self):
        snapshot = FusionCounters().snapshot(enabled=False, max_fused_requests=8)
        assert snapshot.describe() == "continuous batching off"
        assert snapshot.mean_occupancy == 0.0


class TestFusionConfigSurface:
    def test_env_defaults(self, monkeypatch):
        from repro.service import FUSED_ENV_VAR, default_continuous_batching
        from repro.utils.errors import ServiceError

        monkeypatch.delenv(FUSED_ENV_VAR, raising=False)
        assert default_continuous_batching() is False
        monkeypatch.setenv(FUSED_ENV_VAR, "1")
        assert default_continuous_batching() is True
        monkeypatch.setenv(FUSED_ENV_VAR, "off")
        assert default_continuous_batching() is False
        monkeypatch.setenv(FUSED_ENV_VAR, "sideways")
        with pytest.raises(ServiceError, match="boolean"):
            default_continuous_batching()

    def test_service_env_threading(self, monkeypatch, tiny_blocks):
        from repro.service import FUSED_ENV_VAR

        monkeypatch.setenv(FUSED_ENV_VAR, "true")
        with ExplanationService(model="crude", config=FAST_CONFIG) as service:
            assert service.continuous_batching is True
            assert service.max_fused_requests == 8
            service.explain(tiny_blocks[0], seed=0)
            assert service.stats().fusion.requests_fused == 1

    def test_explicit_arguments_beat_env(self, monkeypatch):
        from repro.service import FUSED_ENV_VAR

        monkeypatch.setenv(FUSED_ENV_VAR, "1")
        with ExplanationService(
            model="crude", config=FAST_CONFIG, continuous_batching=False
        ) as service:
            assert service.continuous_batching is False
            assert service.stats().fusion.enabled is False

    def test_max_fused_requests_validated(self):
        with pytest.raises(ValueError, match="max_fused_requests"):
            ExplanationService(
                model="crude", config=FAST_CONFIG, max_fused_requests=0
            )

    def test_max_fused_requests_caps_occupancy(self, fast_config, tiny_blocks):
        with ExplanationService(
            model="crude",
            config=fast_config,
            dispatchers=1,
            continuous_batching=True,
            max_fused_requests=2,
        ) as service:
            ids = [
                service.submit(block, seed=seed)
                for seed in range(3)
                for block in tiny_blocks
            ]
            for request_id in ids:
                assert service.result(request_id, timeout=120).ok
            fusion = service.stats().fusion
        assert fusion.max_fused_requests == 2
        assert all(occupancy <= 2 for occupancy, _ in fusion.occupancy)


class TestFusedWireStats:
    def test_stdio_stats_carry_fusion_block(self, fast_config, tiny_blocks):
        import io
        import json

        from repro.service import serve_stream

        lines = [
            json.dumps({"id": "a", "block": "add rcx, rax; mov rdx, rcx", "seed": 1}),
            json.dumps({"id": "b", "block": "add rcx, rax; mov rdx, rcx", "seed": 2}),
            json.dumps({"id": "s", "op": "stats"}),
        ]
        out = io.StringIO()
        with ExplanationService(
            model="crude",
            config=fast_config,
            continuous_batching=True,
            result_cache=False,  # ticks >= 1 requires real tick work below
        ) as service:
            serve_stream(service, lines, out)
        responses = {r["id"]: r for r in map(json.loads, out.getvalue().splitlines())}
        fusion = responses["s"]["stats"]["fusion"]
        assert fusion["enabled"] is True
        assert fusion["requests_fused"] == 2
        assert fusion["ticks"] >= 1
        assert fusion["max_fused_requests"] == 8
        assert set(fusion) >= {
            "rounds_fused", "shared_hits", "mean_occupancy", "occupancy", "absorbed",
        }
