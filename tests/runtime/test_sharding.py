"""Block-sharded ``explain_many``: parity, determinism and plan semantics.

Sharding partitions a fleet across process-backend workers, each shard
running full anchor searches.  The contract: for a fresh session and a fixed
seed, the sharded result payload is bit-for-bit the unsharded one, on every
backend, including fleets with repeated blocks (every search draws its own
population, so a position does not depend on which shard runs it).  A
backend with one worker never shards: it runs the plain loop.
"""

import threading

import numpy as np
import pytest

from repro.cache.store import ResultCache
from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CachedCostModel
from repro.models.mca import PortPressureCostModel
from repro.runtime.backend import ProcessBackend
from repro.runtime.session import ExplanationSession, _explain_shard_remote
from repro.utils.errors import BackendError

from tests.conftest import (
    FAST_CONFIG,
    count_population_draws,
    explanation_fingerprint,
    seed_past_empty_at,
)


def _workload(tiny_blocks):
    # Repeats included on purpose: they exercise the key-grouped partitioning
    # (all occurrences of one block land in one shard, in order, so a repeat
    # finds the query-cache entries its earlier occurrences left).
    return list(tiny_blocks) + [tiny_blocks[0], tiny_blocks[2], tiny_blocks[0]]


def _fleet(blocks, *, backend, shards, workers=3, model=None, seed=11):
    model = model or AnalyticalCostModel("hsw")
    with ExplanationSession(
        model, FAST_CONFIG, backend=backend, workers=workers
    ) as session:
        return [
            explanation_fingerprint(e)
            for e in session.explain_many(blocks, rng=seed, shards=shards)
        ]


class TestShardedParity:
    @pytest.fixture(scope="class")
    def baseline(self, tiny_blocks):
        return _fleet(_workload(tiny_blocks), backend="serial", shards=None)

    @pytest.mark.parametrize(
        "backend,shards",
        [
            ("serial", 3),
            ("process", 2),
            ("process", "auto"),
            ("process", 5),  # more shards than distinct-block groups
        ],
    )
    def test_sharded_matches_unsharded(self, tiny_blocks, baseline, backend, shards):
        assert _fleet(_workload(tiny_blocks), backend=backend, shards=shards) == baseline

    def test_sharded_deterministic_across_runs(self, tiny_blocks):
        first = _fleet(_workload(tiny_blocks), backend="process", shards="auto")
        second = _fleet(_workload(tiny_blocks), backend="process", shards="auto")
        assert first == second

    def test_process_sharding_on_simulator_model(self, tiny_blocks):
        # The motivating case: whole GIL-bound searches fan out per worker.
        serial = _fleet(
            tiny_blocks,
            backend="serial",
            shards=None,
            model=CachedCostModel(PortPressureCostModel("hsw")),
        )
        sharded = _fleet(
            tiny_blocks,
            backend="process",
            shards="auto",
            workers=2,
            model=CachedCostModel(PortPressureCostModel("hsw")),
        )
        assert sharded == serial

    def test_explainer_api_passes_shards_through(self, tiny_blocks):
        from repro.explain.explainer import CometExplainer

        baseline = CometExplainer(
            CachedCostModel(AnalyticalCostModel("hsw")), FAST_CONFIG
        ).explain_many(tiny_blocks, rng=3)
        with CometExplainer(
            CachedCostModel(AnalyticalCostModel("hsw")),
            FAST_CONFIG,
            backend="process",
            workers=2,
        ) as explainer:
            sharded = explainer.explain_many(tiny_blocks, rng=3, shards="auto")
        assert [explanation_fingerprint(e) for e in sharded] == [
            explanation_fingerprint(e) for e in baseline
        ]


class TestShardPlan:
    def _plan(self, blocks, shards, workers=4):
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="process", workers=workers
        ) as session:
            return session._shard_plan(blocks, shards)

    def test_default_is_sequential(self, tiny_blocks):
        assert self._plan(tiny_blocks, None) is None

    def test_zero_and_one_stay_sequential(self, tiny_blocks):
        assert self._plan(tiny_blocks, 0) is None
        assert self._plan(tiny_blocks, 1) is None

    def test_auto_sizes_to_workers(self, tiny_blocks):
        plan = self._plan(_workload(tiny_blocks), "auto", workers=2)
        assert len(plan) == 2

    def test_plan_covers_every_position_once(self, tiny_blocks):
        workload = _workload(tiny_blocks)
        plan = self._plan(workload, 3)
        positions = sorted(p for shard in plan for p in shard)
        assert positions == list(range(len(workload)))

    def test_duplicate_blocks_share_a_shard_in_order(self, tiny_blocks):
        workload = _workload(tiny_blocks)
        plan = self._plan(workload, 3)
        for shard in plan:
            assert shard == sorted(shard)
        # All occurrences of tiny_blocks[0] (positions 0, 3, 5) co-located.
        containing = [shard for shard in plan if 0 in shard]
        assert len(containing) == 1
        assert {3, 5} <= set(containing[0])

    def test_shard_count_capped_by_distinct_blocks(self, tiny_blocks):
        plan = self._plan(_workload(tiny_blocks), 16)
        assert len(plan) == len(tiny_blocks)  # 3 distinct keys

    def test_single_block_never_shards(self, tiny_blocks):
        assert self._plan(tiny_blocks[:1], 4) is None

    def test_invalid_shards_rejected(self, tiny_blocks):
        with pytest.raises(BackendError):
            self._plan(tiny_blocks, "most")

    def test_one_worker_never_shards(self, tiny_blocks):
        assert self._plan(_workload(tiny_blocks), 3, workers=1) is None


class TestOneWorkerBackends:
    """An explicit shard count on a one-worker backend runs the plain loop:
    no shard threads, no worker-side sessions, the same explanations."""

    @pytest.fixture(scope="class")
    def baseline(self, tiny_blocks):
        return _fleet(_workload(tiny_blocks), backend="serial", shards=None)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_serial_backend_starts_no_thread(
        self, tiny_blocks, baseline, monkeypatch, shards
    ):
        started = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        fleet = _fleet(_workload(tiny_blocks), backend="serial", shards=shards)
        assert started == []
        assert fleet == baseline

    def test_one_worker_process_backend_keeps_the_model_backend(
        self, tiny_blocks, baseline, monkeypatch
    ):
        mapped = []
        real_map_batch = ProcessBackend.map_batch

        def recording_map_batch(backend, fn, items):
            mapped.append(fn)
            return real_map_batch(backend, fn, items)

        monkeypatch.setattr(ProcessBackend, "map_batch", recording_map_batch)
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="process", workers=1
        ) as session:
            fleet = [
                explanation_fingerprint(e)
                for e in session.explain_many(_workload(tiny_blocks), rng=11, shards=3)
            ]
            assert session.model.execution_backend is session.backend
        assert mapped == []
        assert fleet == baseline


class TestPartlyWarmFleet:
    """With a result cache, only the misses of a fleet are planned into
    shards.  Misses that do not fill two shards run the plain loop on the
    session, which keeps its backend installed and open, whoever owns it."""

    @pytest.fixture(params=["session-owned", "model-owned"])
    def session(self, request):
        model = AnalyticalCostModel("hsw")
        if request.param == "session-owned":
            session = ExplanationSession(
                model,
                FAST_CONFIG,
                backend="process",
                workers=2,
                result_cache=ResultCache(),
            )
        else:
            model.set_backend(ProcessBackend(workers=2), own=True)
            session = ExplanationSession(model, FAST_CONFIG, result_cache=ResultCache())
        with session:
            yield session
        model.close()

    def test_lone_miss_keeps_the_session_backend(
        self, session, tiny_blocks, monkeypatch
    ):
        a, b, c = tiny_blocks
        session.explain_many([a, b], rng=5)
        mapped = []
        real_map_batch = ProcessBackend.map_batch

        def recording_map_batch(backend, fn, items):
            mapped.append(fn)
            return real_map_batch(backend, fn, items)

        monkeypatch.setattr(ProcessBackend, "map_batch", recording_map_batch)
        # Position 0 is a hit; the lone miss runs on the session itself.
        warm = session.explain_many([a, c], rng=5)
        assert _explain_shard_remote not in mapped
        assert session.model.execution_backend is session.backend
        assert not session.backend.closed
        assert [explanation_fingerprint(e) for e in warm] == _fleet(
            [a, c], backend="serial", shards=None, seed=5
        )
        # The backend still shards a later cold fleet across its workers.
        cold = session.explain_many([a, b, c], rng=9)
        assert _explain_shard_remote in mapped
        assert [explanation_fingerprint(e) for e in cold] == _fleet(
            [a, b, c], backend="serial", shards=None, seed=9
        )


class TestShardWorker:
    """The process-shard worker function, exercised in-process.

    ``_explain_shard_remote`` normally runs inside pool workers where
    coverage cannot see it; it is a plain function, so its contract — same
    explanations as the session path, one population per search, the
    shard's accounting returned with its results — is pinned directly here.
    """

    def test_worker_matches_session_results(self, tiny_blocks):
        from repro.utils.rng import spawn_rngs

        workload = _workload(tiny_blocks)
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            expected = [
                explanation_fingerprint(e)
                for e in session.explain_many(workload, rng=7)
            ]
        streams = spawn_rngs(7, len(workload))
        payload = (
            AnalyticalCostModel("hsw"),
            FAST_CONFIG,
            list(zip(range(len(workload)), workload, streams)),
            100_000,
        )
        pairs, spent = _explain_shard_remote(payload)
        assert [position for position, _ in pairs] == list(range(len(workload)))
        assert [explanation_fingerprint(e) for _, e in pairs] == expected
        assert spent.queries == sum(e.num_queries for _, e in pairs)
        assert spent.perturbations > 0

    def test_worker_draws_a_population_per_repeat(self, tiny_blocks, monkeypatch):
        from repro.utils.rng import spawn_rngs

        block = tiny_blocks[0]
        seed = seed_past_empty_at([block, block], [0, 1])
        streams = spawn_rngs(seed, 2)
        payload = (
            AnalyticalCostModel("hsw"),
            FAST_CONFIG,
            [(0, block, streams[0]), (1, block, streams[1])],
            100_000,
        )
        counted = count_population_draws(monkeypatch)
        pairs, _ = _explain_shard_remote(payload)
        assert [position for position, _ in pairs] == [0, 1]
        assert all(explanation.features for _, explanation in pairs)
        assert counted[block.key()] == 2

    def test_worker_leaves_a_live_model_backend_alone(self, tiny_blocks):
        """A backend that degrades to in-process execution hands the worker
        the session's live model; the shard must neither displace nor close
        the backend installed on it."""
        model = AnalyticalCostModel("hsw")
        backend = ProcessBackend(workers=2)
        model.set_backend(backend, own=True)
        payload = (
            model,
            FAST_CONFIG,
            [(0, tiny_blocks[0], np.random.default_rng(3))],
            100_000,
        )
        try:
            pairs, _ = _explain_shard_remote(payload)
            assert [position for position, _ in pairs] == [0]
            assert model.execution_backend is backend
            assert not backend.closed
        finally:
            model.close()


class TestRuntimeLazyExports:
    def test_session_importable_from_package_root(self):
        import repro.runtime as runtime

        assert runtime.ExplanationSession is ExplanationSession
        assert runtime.SessionStats is not None

    def test_unknown_attribute_rejected(self):
        import repro.runtime as runtime

        with pytest.raises(AttributeError):
            runtime.NoSuchThing


class TestShardedAccounting:
    """Per-explanation ``num_queries`` must not depend on the substrate.

    Each process shard starts from a cold query cache of its own, and the
    key-grouped partitioning keeps each block's cache history identical to
    the serial loop's.  The result: the *whole* ``num_queries`` vector of a
    fresh fleet run is equal on every backend, sharded or not, repeats
    included.
    """

    @pytest.fixture(scope="class")
    def baseline_queries(self, tiny_blocks):
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        with ExplanationSession(model, FAST_CONFIG, backend="serial") as session:
            return [
                e.num_queries
                for e in session.explain_many(_workload(tiny_blocks), rng=11, shards=None)
            ]

    @pytest.mark.parametrize(
        "backend,shards",
        [
            ("serial", None),
            ("serial", 3),
            ("process", 2),
            ("process", "auto"),
            ("process", 5),
        ],
    )
    def test_num_queries_matches_unsharded_serial(
        self, tiny_blocks, baseline_queries, backend, shards
    ):
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        with ExplanationSession(
            model, FAST_CONFIG, backend=backend, workers=3
        ) as session:
            queries = [
                e.num_queries
                for e in session.explain_many(_workload(tiny_blocks), rng=11, shards=shards)
            ]
        assert queries == baseline_queries
        assert all(q > 0 for q in queries[: len(tiny_blocks)])  # fresh blocks query

    def test_auto_sharding_is_now_the_fleet_default(self, tiny_blocks):
        """The default ``shards="auto"`` actually shards on parallel backends."""
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="process", workers=2
        ) as session:
            plan = session._shard_plan(_workload(tiny_blocks), "auto")
            assert plan is not None and len(plan) == 2
            import inspect

            signature = inspect.signature(session.explain_many)
            assert signature.parameters["shards"].default == "auto"

    def test_session_counts_every_explanation(self, tiny_blocks):
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="process", workers=2
        ) as session:
            session.explain_many(_workload(tiny_blocks), rng=0, shards="auto")
            assert session.explanations_produced == len(_workload(tiny_blocks))
