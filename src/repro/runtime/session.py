"""Explanation sessions: shared state for whole-dataset explanation runs.

The one-shot :class:`~repro.explain.explainer.CometExplainer` API treats each
explanation as an island: fresh cache history, a fresh background population
per search, and whatever execution substrate happens to be wired into the
model.  An :class:`ExplanationSession` makes the run the unit of ownership
instead.  One session holds

* the :class:`~repro.models.base.CachedCostModel` wrapper (so every block of
  a run shares one LRU-cached query history),
* the :class:`~repro.runtime.backend.ExecutionBackend` all batch prediction
  fans out on (installed on the model for the session's lifetime, released on
  ``close()``),
* one :class:`~repro.explain.coverage.PopulationRecord` per explained block —
  the background population and its vectorized presence index are drawn once
  and reused across every anchor beam level and every repeated explanation of
  that block in the run.

Determinism: the backend never touches the random stream (it only decides
where deterministic predictions execute), so seeded session runs are
bit-for-bit identical across serial, thread and process backends.  The first
explanation of each block is also bit-for-bit what the session-less explainer
produces; *repeated* explanations of one block reuse the recorded population
instead of redrawing it, which is exactly the state sharing the session is
for.  A record fills only when a search goes past the empty anchor, so the
explanation that draws a block's population is the first one that needs
coverage, not necessarily the first one of the block.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import List, Literal, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bb.block import BasicBlock
from repro.cache.fingerprint import cacheable_seed, result_fingerprint
from repro.cache.store import CacheStats, ResultCache
from repro.explain.anchors import AnchorSearch
from repro.explain.config import ExplainerConfig
from repro.explain.coverage import PopulationRecord
from repro.explain.explanation import Explanation
from repro.models.base import CachedCostModel, CostModel, QueryCounter
from repro.perturb.algorithm import perturb_tally, plan_cache_entries
from repro.perturb.batch import encoded_tally
from repro.runtime.backend import BackendSource, ExecutionBackend, resolve_backend
from repro.runtime.checkpoint import CheckpointJournal, run_fingerprint
from repro.utils.cancellation import CancelToken
from repro.utils.errors import BackendError, CheckpointError
from repro.utils.rng import RandomSource, as_rng, spawn_rngs, spawn_seeds

#: One unit of sharded work: (position in the fleet, block, its rng stream).
_ShardItem = Tuple[int, BasicBlock, np.random.Generator]


def _search_block(
    model: CostModel,
    block: BasicBlock,
    config: ExplainerConfig,
    generator: np.random.Generator,
    record: Optional[PopulationRecord],
    cancel: Optional[CancelToken] = None,
) -> Explanation:
    """Run one anchor search — the single code path every driver shares.

    Used by :meth:`ExplanationSession.explain`, the in-process shard runner
    and the process-shard worker, so a block's explanation is computed by
    byte-identical code no matter where it executes.  A ``cancel`` token is
    checked cooperatively between KL-LUCB rounds; a token that never fires
    leaves the random stream untouched.
    """
    with QueryCounter(model) as counter:
        search = AnchorSearch(
            model, block, config, generator, coverage_record=record, cancel=cancel
        )
        anchor = search.search()
    return Explanation.from_search(search, anchor, num_queries=counter.queries)


def _explain_shard(
    model: CostModel,
    config: ExplainerConfig,
    shard: Sequence[_ShardItem],
    cancel: Optional[CancelToken] = None,
) -> List[Tuple[int, Explanation]]:
    """Explain one shard with shard-local population records.

    Every sharded path — in-process threads and process workers alike — runs
    this exact loop, so shard results are byte-identical across backends.
    Records are *scoped to the shard* on purpose: sharing the session's LRU
    across concurrent shards would make reuse-vs-redraw depend on eviction
    timing, and all occurrences of a block key are routed to one shard
    anyway, so first-fill/reuse order within the shard matches the serial
    loop exactly.
    """
    records: dict = {}
    results: List[Tuple[int, Explanation]] = []
    for position, block, stream in shard:
        if cancel is not None:
            cancel.check()
        record = None
        if config.shared_background:
            key = (block.key(), config.coverage_samples)
            record = records.setdefault(key, PopulationRecord())
        results.append(
            (position, _search_block(model, block, config, stream, record, cancel))
        )
    return results


def _explain_shard_remote(payload) -> List[Tuple[int, Explanation]]:
    """Process-shard worker: the payload carries everything the shard needs
    (model, config, items, cache bound) because workers share no memory with
    the session.  Module-level so it pickles by reference."""
    model, config, shard, cache_entries = payload
    if not isinstance(model, CachedCostModel):
        model = CachedCostModel(model, max_entries=cache_entries)
    return _explain_shard(model, config, shard)


@dataclass(frozen=True)
class SessionStats:
    """Run-level accounting, snapshot via :meth:`ExplanationSession.stats`."""

    explanations: int
    model_queries: int
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    #: Drawn background populations the session holds.  A record whose
    #: searches all ended at the empty anchor holds none and is not counted.
    populations_cached: int
    backend: str
    worker_restarts: int = 0
    worker_retries: int = 0
    worker_fallbacks: int = 0
    checkpoint_skips: int = 0
    result_cache: Optional[CacheStats] = None
    #: Γ perturbations produced during this session (process-wide counters,
    #: diffed against the session's start snapshot).
    perturbations: int = 0
    #: Perturbations that silently fell back to the original block after
    #: ``max_block_attempts`` failed attempts — each injects a trivially
    #: preserving sample into precision estimates, so a high rate is a
    #: red flag for the perturbation configuration.
    perturb_fallbacks: int = 0
    #: Constraint-plan cache entries currently held by live perturbers (a
    #: gauge, not a counter — bounded per perturber by ``max_cached_plans``).
    plan_cache_entries: int = 0
    #: Encoded-pipeline coverage during this session: rows Γ emitted without
    #: constructing a block versus block constructions (emitted materialised
    #: plus materialised on demand).  A healthy encoded run keeps
    #: ``materialized_rows`` near the fallback count; ``materialized_rows``
    #: tracking ``encoded_rows`` means the fast path is being bypassed.
    encoded_rows: int = 0
    materialized_rows: int = 0

    def describe(self) -> str:
        resilience = ""
        if self.worker_restarts or self.worker_fallbacks or self.checkpoint_skips:
            resilience = (
                f", {self.worker_restarts} worker restarts "
                f"({self.worker_fallbacks} serial fallbacks), "
                f"{self.checkpoint_skips} checkpoint skips"
            )
        perturb = ""
        if self.perturb_fallbacks:
            perturb = (
                f", {self.perturb_fallbacks}/{self.perturbations} perturbation "
                f"fallbacks"
            )
        encoded = ""
        if self.encoded_rows:
            encoded = (
                f", {self.encoded_rows} encoded rows "
                f"({self.materialized_rows} materialized)"
            )
        memo = ""
        if self.result_cache is not None:
            memo = f", {self.result_cache.describe()}"
        return (
            f"{self.explanations} explanations, {self.model_queries} model "
            f"queries ({self.cache_hit_rate:.1%} cache hit rate), "
            f"{self.populations_cached} background populations, "
            f"backend {self.backend}{resilience}{perturb}{encoded}{memo}"
        )


class ExplanationSession:
    """Owns the shared state of one explanation run.

    Parameters
    ----------
    model:
        The cost model to explain.  Wrapped in a
        :class:`~repro.models.base.CachedCostModel` unless it already is one,
        so the whole run shares one query cache.
    config:
        Explanation hyperparameters (shared by every explanation of the run).
    backend:
        Execution substrate — a short name (``"serial"``/``"thread"``/
        ``"process"``), a constructed backend, or ``None`` for the
        environment-controlled default.  The session owns backends it
        resolves from names and closes them; a backend *instance* passed in
        stays caller-owned.
    rng:
        Random source for explanations that do not bring their own stream.
    cache_entries:
        LRU capacity used when the session wraps the model itself.
    max_population_records:
        How many per-block background populations (plus presence indexes)
        the session keeps alive at once, least-recently-used first.  Bounds
        memory on fleets of distinct blocks, where a record pays off only if
        its block comes around again.
    result_cache:
        Whole-explanation memoization: a :class:`~repro.cache.ResultCache`
        instance (caller-owned), a path to build a disk-backed store from
        (session-owned, closed with the session), or ``None``/``False`` to
        disable.
        With a cache installed, every *cache-eligible* computation — one
        driven by an integer seed — runs **history-free** with call-scoped
        population records (the same semantics the explanation service
        applies per request), so each memoized result is a pure function of
        ``(block, model, uarch, config, seed)`` and a hit is bit-for-bit
        what the computation would have produced.  Explanations driven by a
        live generator (or the session's ambient rng) bypass the cache and
        keep the legacy session-scoped record sharing.

    Population records fill lazily.  A search draws its block's background
    population only when it continues past the empty anchor (the empty set's
    coverage is 1 by definition), so an explanation that ends at the empty
    anchor leaves the shared record empty.  A later explanation of that block
    that needs coverage then draws the population from its own random stream,
    and explanations after it reuse that draw.

    Use as a context manager (or call :meth:`close`) so pooled workers are
    released deterministically::

        with ExplanationSession(model, config, backend="process") as session:
            explanations = session.explain_many(blocks, rng=0)
            print(session.stats().describe())
    """

    def __init__(
        self,
        model: CostModel,
        config: Optional[ExplainerConfig] = None,
        *,
        backend: BackendSource = None,
        workers: Optional[int] = None,
        rng: RandomSource = None,
        cache_entries: int = 100_000,
        max_population_records: int = 256,
        result_cache: Union["ResultCache", str, Path, Literal[False], None] = None,
    ) -> None:
        if max_population_records < 1:
            raise ValueError("max_population_records must be >= 1")
        self.max_population_records = max_population_records
        self.config = config or ExplainerConfig()
        self.model: CachedCostModel = (
            model
            if isinstance(model, CachedCostModel)
            else CachedCostModel(model, max_entries=cache_entries)
        )
        installed = self.model.execution_backend
        if backend is None and installed is not None:
            # No explicit request: a substrate the caller already configured
            # on the model (backend=/batch_workers) beats the ambient
            # default — borrow it and leave its ownership untouched.
            self.backend = installed
            self._owns_backend = False
        else:
            self._owns_backend = not isinstance(backend, ExecutionBackend)
            self.backend = resolve_backend(backend, workers)
            if installed is not self.backend:
                self.model.set_backend(self.backend)
        self._rng = as_rng(rng)
        if isinstance(result_cache, ResultCache):
            self.result_cache: Optional[ResultCache] = result_cache
            self._owns_result_cache = False
        elif result_cache is None or result_cache is False:
            self.result_cache = None
            self._owns_result_cache = False
        else:
            self.result_cache = ResultCache(result_cache)
            self._owns_result_cache = True
        self._records: "OrderedDict[Tuple, PopulationRecord]" = OrderedDict()
        # Sharded explain_many runs shards on concurrent threads that all
        # look up records through this session; the lock keeps the LRU
        # bookkeeping (and record creation) race-free.
        self._records_lock = threading.Lock()
        self.explanations_produced = 0
        self.checkpoint_skips = 0
        self._query_base = self.model.query_count
        self._hit_base = self.model.hits
        self._miss_base = self.model.misses
        self._perturb_base = perturb_tally()
        self._encoded_base = encoded_tally()
        self._closed = False

    # -------------------------------------------------------------- explain

    def coverage_record(self, block: BasicBlock) -> Optional[PopulationRecord]:
        """The shared population record for ``block`` (``None`` when disabled)."""
        if not self.config.shared_background:
            return None
        key = (block.key(), self.config.coverage_samples)
        with self._records_lock:
            record = self._records.get(key)
            if record is None:
                record = self._records[key] = PopulationRecord()
            self._records.move_to_end(key)
            while len(self._records) > self.max_population_records:
                self._records.popitem(last=False)
        return record

    def reset_population_records(self) -> None:
        """Drop the per-block background populations (keep cache and backend).

        Population reuse is *stateful*: a search whose block already has a
        recorded population skips the draw and therefore consumes its random
        stream differently than a fresh search would.  Callers that promise
        history-independent seeded results — the explanation service resets
        before every request — scope records with this; the query cache and
        the backend stay warm because they never change what a search
        computes, only how fast.
        """
        with self._records_lock:
            self._records.clear()

    # --------------------------------------------------------- result cache

    def _result_fingerprint(self, block: BasicBlock, seed: int) -> str:
        return result_fingerprint(
            block=block,
            model_name=self.model.name,
            uarch=self.model.microarch,
            config=self.config,
            seed=int(seed),
        )

    def result_cache_lookup(
        self, block: BasicBlock, seed: RandomSource
    ) -> Optional[Explanation]:
        """The memoized explanation for ``(block, seed)``, or ``None``.

        ``None`` when there is no cache, the seed is not an integer (live
        generators are history-dependent and never memoized), or the entry
        is simply absent.  Used by the fused batching tick so cache-hit
        requests retire without consuming a KL-LUCB round.
        """
        if self.result_cache is None or not cacheable_seed(seed):
            return None
        return self.result_cache.get(self._result_fingerprint(block, int(seed)))

    def result_cache_store(
        self, block: BasicBlock, seed: RandomSource, explanation: Explanation
    ) -> None:
        """Memoize a history-free result computed for ``(block, seed)``.

        The caller asserts purity: the explanation must have been computed
        with a fresh (call-scoped) population record from
        ``default_rng(seed)`` — exactly what :meth:`explain` does when a
        cache is installed and what the service's per-request record reset
        guarantees.
        """
        if self.result_cache is None or not cacheable_seed(seed):
            return
        self.result_cache.put(self._result_fingerprint(block, int(seed)), explanation)

    def explain(
        self,
        block: BasicBlock,
        rng: RandomSource = None,
        *,
        cancel: Optional[CancelToken] = None,
    ) -> Explanation:
        """Explain one block using the session's shared state.

        ``cancel`` is checked cooperatively between KL-LUCB rounds; a token
        that never fires leaves the result bit-for-bit unchanged.

        With a :class:`result cache <repro.cache.ResultCache>` installed and
        an integer ``rng`` seed, the call is memoized: a hit returns the
        stored explanation verbatim — including its ``num_queries``, which
        by the cache's attribution rule is the query count of the
        computation that *stored* the entry, since a hit itself queries the
        model zero times — and a miss computes with a fresh call-scoped
        population record (history-free, so the stored result is a pure
        function of the fingerprint) and stores it on the way out.
        """
        self._check_open()
        if self.result_cache is not None and cacheable_seed(rng):
            seed = int(rng)  # type: ignore[arg-type]
            fingerprint = self._result_fingerprint(block, seed)
            cached = self.result_cache.get(fingerprint)
            if cached is not None:
                self.explanations_produced += 1
                return cached
            record = PopulationRecord() if self.config.shared_background else None
            explanation = _search_block(
                self.model, block, self.config, as_rng(seed), record, cancel
            )
            self.result_cache.put(fingerprint, explanation)
            self.explanations_produced += 1
            return explanation
        generator = as_rng(rng) if rng is not None else self._rng
        explanation = _search_block(
            self.model,
            block,
            self.config,
            generator,
            self.coverage_record(block),
            cancel,
        )
        self.explanations_produced += 1
        return explanation

    def explain_many(
        self,
        blocks: Sequence[BasicBlock],
        rng: RandomSource = None,
        *,
        shards: Union[int, str, None] = "auto",
        checkpoint: Union[str, Path, None] = None,
        cancel: Optional[CancelToken] = None,
    ) -> List[Explanation]:
        """Explain a whole dataset with independent per-block random streams.

        Stream spawning matches the session-less ``explain_many`` exactly, so
        moving a fleet onto a session changes where the work runs and what is
        shared — never which random numbers each block's search consumes.

        ``shards`` controls the block-level parallelism layered on top of the
        query-level batching: the fleet is partitioned into that many shards,
        each shard runs its full anchor searches on one backend worker, and
        the results are merged back in input order.  ``"auto"`` (the default)
        sizes the shard count to the backend's workers — on the serial
        backend that is 1, so fleets stay sequential until a parallel
        backend is selected; an explicit count pins it; ``None``/``0``/``1``
        force the sequential loop.
        Sharding is seeded-deterministic and result-identical to the unsharded
        path for a fresh run: all occurrences of one block key are routed to
        the same shard in their original order, so population-record
        first-fill/reuse happens exactly where the serial loop would have,
        and every block consumes only its own spawned stream.  Per-explanation
        ``num_queries`` matches the sequential loop too: searches measure
        their queries through thread-scoped tallies
        (:meth:`~repro.models.base.CostModel.query_tally`), so concurrent
        shards cannot pollute each other's counts (exact as long as distinct
        block keys do not collide in the query cache, which key-grouped
        sharding makes the overwhelmingly common case).  Two caveats, both
        deterministic: records are scoped to the call (a sharded call
        neither sees nor feeds the session's cross-call record cache), and
        parity with the serial loop is exact as long as the fleet's distinct
        blocks fit ``max_population_records`` — under eviction pressure the
        serial loop redraws where shard-local records reuse.

        ``checkpoint`` names a crash-safe journal file: every completed
        explanation is journaled as it finishes, and re-running the *same*
        call (same blocks, model, config, integer seed) after an
        interruption skips the journaled positions and produces results
        bit-for-bit identical to an uninterrupted run.  Checkpointed runs
        require an integer ``rng`` seed (a live generator's state dies with
        the crash) and run block-sequentially with position-independent
        searches — each position draws its own background population — so
        which positions were already journaled can never change what the
        remaining positions compute.

        ``cancel`` is checked between blocks and between KL-LUCB rounds on
        the in-process paths (serial and thread backends, and all
        checkpointed runs); process-sharded fleets check between shards
        only, since the token cannot cross a process boundary.

        With a result cache installed and an integer ``rng`` seed, fleet
        positions whose block key is unique within the call are memoized
        under their spawned child seed: hits are returned verbatim without
        running a search, misses compute with call-scoped records and are
        stored.  Positions sharing a block key bypass the cache and keep
        their within-call record sharing bit-for-bit.
        """
        self._check_open()
        blocks = list(blocks)
        if checkpoint is not None:
            return self._explain_many_checkpointed(
                blocks, rng, checkpoint=checkpoint, shards=shards, cancel=cancel
            )
        results: List[Optional[Explanation]] = [None] * len(blocks)
        fingerprints: dict = {}
        use_cache = self.result_cache is not None and cacheable_seed(rng)
        if use_cache:
            # Each fleet position's stream is fully determined by its spawned
            # child seed, so positions are memoized under (block, child seed).
            # Only positions whose block key is *unique in this fleet* take
            # part: duplicate-key positions share a population record within
            # the call (later occurrences reuse the first one's draw), so
            # their results are not pure functions of their own seed — they
            # bypass the cache and compute exactly as they always did.
            seeds = spawn_seeds(int(rng), len(blocks))  # type: ignore[arg-type]
            streams = [np.random.default_rng(s) for s in seeds]
            key_counts: dict = {}
            for block in blocks:
                key_counts[block.key()] = key_counts.get(block.key(), 0) + 1
            assert self.result_cache is not None
            for position, (block, seed) in enumerate(zip(blocks, seeds)):
                if key_counts[block.key()] == 1:
                    fingerprint = self._result_fingerprint(block, seed)
                    fingerprints[position] = fingerprint
                    results[position] = self.result_cache.get(fingerprint)
        else:
            streams = list(
                spawn_rngs(rng if rng is not None else self._rng, len(blocks))
            )
        items: List[_ShardItem] = [
            (position, block, stream)
            for position, (block, stream) in enumerate(zip(blocks, streams))
            if results[position] is None
        ]
        plan = self._shard_plan([block for _, block, _ in items], shards)
        if not items:
            pairs: List[Tuple[int, Explanation]] = []
        elif plan is None:
            if use_cache:
                # Call-scoped records (the history-free contract, see
                # ``result_cache`` in the class docstring) — the exact loop
                # every shard runs, so cache on/off changes nothing for a
                # fresh session and the computed results are safe to store.
                pairs = _explain_shard(self.model, self.config, items, cancel)
            else:
                return [
                    self.explain(block, rng=stream, cancel=cancel)
                    for block, stream in zip(blocks, streams)
                ]
        else:
            shard_lists = [[items[i] for i in indices] for indices in plan]
            if self.backend.shares_memory:
                pairs = self._run_shards_inprocess(shard_lists, cancel=cancel)
            else:
                if cancel is not None:
                    cancel.check()
                payloads = [
                    (self.model.inner, self.config, shard, self.model.max_entries)
                    for shard in shard_lists
                ]
                pairs = [
                    pair
                    for shard_result in self.backend.map_batch(
                        _explain_shard_remote, payloads
                    )
                    for pair in shard_result
                ]
        self.explanations_produced += len(blocks)
        for position, explanation in pairs:
            results[position] = explanation
            fingerprint = fingerprints.get(position)
            if fingerprint is not None:
                assert self.result_cache is not None
                self.result_cache.put(fingerprint, explanation)
        return results  # type: ignore[return-value]

    def _explain_many_checkpointed(
        self,
        blocks: List[BasicBlock],
        rng: RandomSource,
        *,
        checkpoint: Union[str, Path],
        shards: Union[int, str, None],
        cancel: Optional[CancelToken],
    ) -> List[Explanation]:
        """The journaled ``explain_many`` path — see the public docstring.

        Sequential with ``record=None`` per position on purpose: population
        reuse and sharding both make a position's result depend on which
        *other* positions ran in this process, and a resumed run has not run
        the journaled ones.  Position-independent searches are what make
        skip-and-resume provably bit-for-bit; each position still fans its
        query batches out through the session's backend, so the run keeps
        its batch-level parallelism.
        """
        if not isinstance(rng, (int, np.integer)) or isinstance(rng, bool):
            raise CheckpointError(
                "checkpointed explain_many requires an integer seed: resuming "
                "a run driven by a live generator is unreproducible (its "
                f"state advanced with the crash); got {type(rng).__name__}"
            )
        fingerprint = run_fingerprint(
            blocks=blocks,
            model_name=self.model.name,
            uarch=self.model.microarch,
            config=self.config,
            seed=int(rng),
            shards_normalised=str(shards),
        )
        streams = spawn_rngs(int(rng), len(blocks))
        results: List[Optional[Explanation]] = [None] * len(blocks)
        with CheckpointJournal(
            checkpoint, fingerprint=fingerprint, fleet_size=len(blocks)
        ) as journal:
            journal.verify_entry_keys(blocks)
            for position, explanation in journal.completed.items():
                results[position] = explanation
            self.checkpoint_skips += journal.skipped
            for position, (block, stream) in enumerate(zip(blocks, streams)):
                if results[position] is not None:
                    continue
                if cancel is not None:
                    cancel.check()
                explanation = _search_block(
                    self.model, block, self.config, stream, None, cancel
                )
                journal.record(position, block, explanation)
                results[position] = explanation
                self.explanations_produced += 1
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------- sharding

    def _shard_plan(
        self, blocks: Sequence[BasicBlock], shards: Union[int, str, None]
    ) -> Optional[List[List[int]]]:
        """Partition fleet positions into shards (``None`` = stay sequential).

        Blocks are grouped by content key and whole groups are dealt
        round-robin across shards in first-occurrence order; positions inside
        a shard stay ascending.  Keeping a key's occurrences together is what
        makes sharded output bit-for-bit equal to the serial loop: the first
        occurrence fills the population record, later ones reuse it, exactly
        as they would have serially.
        """
        if shards is None:
            return None
        if isinstance(shards, str):
            if shards.strip().lower() != "auto":
                raise BackendError(
                    f"shards must be an integer, 'auto' or None, got {shards!r}"
                )
            requested = self.backend.workers
        else:
            requested = int(shards)
        if requested <= 1 or len(blocks) <= 1:
            return None
        groups: "OrderedDict[tuple, List[int]]" = OrderedDict()
        for position, block in enumerate(blocks):
            groups.setdefault(block.key(), []).append(position)
        count = min(requested, len(groups))
        if count <= 1:
            return None
        plan: List[List[int]] = [[] for _ in range(count)]
        for group_index, positions in enumerate(groups.values()):
            plan[group_index % count].extend(positions)
        for shard in plan:
            shard.sort()
        return plan

    def _run_shards_inprocess(
        self,
        shard_lists: List[List[_ShardItem]],
        cancel: Optional[CancelToken] = None,
    ) -> List[Tuple[int, Explanation]]:
        """Run shards on session-owned threads (sharing the query cache).

        A dedicated executor — not the backend's own pool — carries the
        shards: a shard's searches fan their query batches out through the
        backend, and routing both levels through one thread pool would let
        shards occupy every worker and deadlock waiting for their own query
        tasks.  Shard threads are cheap next to the seconds of search work
        they carry.  The shared cache is safe (it locks internally and hits
        never change values); population records are shard-local via
        :func:`_explain_shard`, see there.
        """

        def run(shard: List[_ShardItem]) -> List[Tuple[int, Explanation]]:
            return _explain_shard(self.model, self.config, shard, cancel)

        with ThreadPoolExecutor(max_workers=len(shard_lists)) as executor:
            shard_results = list(executor.map(run, shard_lists))
        return [pair for shard_result in shard_results for pair in shard_result]

    def global_explainer(self, blocks: Sequence[BasicBlock], **kwargs):
        """A :class:`~repro.globalx.global_explainer.GlobalExplainer` whose
        block-set scoring runs through this session's cached, backend-driven
        model (one batched query for the whole dataset)."""
        from repro.globalx.global_explainer import GlobalExplainer

        self._check_open()
        return GlobalExplainer(self.model, blocks, **kwargs)

    # ----------------------------------------------------------------- stats

    def stats(self) -> SessionStats:
        """Accounting since the session started (inner-model work only)."""
        hits = self.model.hits - self._hit_base
        misses = self.model.misses - self._miss_base
        lookups = hits + misses
        worker = self.backend.worker_stats()
        perturb = perturb_tally().delta(self._perturb_base)
        encoded = encoded_tally().delta(self._encoded_base)
        with self._records_lock:
            populations = sum(1 for r in self._records.values() if r.population)
        return SessionStats(
            explanations=self.explanations_produced,
            model_queries=self.model.query_count - self._query_base,
            cache_hits=hits,
            cache_misses=misses,
            cache_hit_rate=hits / lookups if lookups else 0.0,
            populations_cached=populations,
            backend=self.backend.describe(),
            worker_restarts=worker.get("restarts", 0),
            worker_retries=worker.get("retries", 0),
            worker_fallbacks=worker.get("fallbacks", 0),
            checkpoint_skips=self.checkpoint_skips,
            result_cache=(
                self.result_cache.stats() if self.result_cache is not None else None
            ),
            perturbations=perturb.perturbations,
            perturb_fallbacks=perturb.fallbacks,
            plan_cache_entries=plan_cache_entries(),
            encoded_rows=encoded.encoded,
            materialized_rows=encoded.materialized,
        )

    # ------------------------------------------------------------- lifecycle

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise BackendError("this explanation session has been closed")

    def close(self) -> None:
        """Release the session's backend (if it owns one).  Idempotent.

        A caller-owned backend instance stays installed on the model — the
        caller selected that substrate for the model's lifetime, and the
        session merely borrowed it for the run.
        """
        if self._closed:
            return
        if self._owns_backend:
            self.model.set_backend(None)
            self.backend.close()
        if self._owns_result_cache and self.result_cache is not None:
            self.result_cache.close()
        self._records.clear()
        self._closed = True

    def __enter__(self) -> "ExplanationSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
