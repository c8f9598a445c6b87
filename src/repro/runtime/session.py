"""Explanation sessions: shared state for whole-dataset explanation runs.

The one-shot :class:`~repro.explain.explainer.CometExplainer` API treats each
explanation as an island: fresh cache history and whatever execution
substrate happens to be wired into the model.  An :class:`ExplanationSession`
makes the run the unit of ownership instead.  One session holds

* the :class:`~repro.models.base.CachedCostModel` wrapper (so every block of
  a run shares one LRU-cached query history),
* the :class:`~repro.runtime.backend.ExecutionBackend` all batch prediction
  fans out on (installed on the model for the session's lifetime, released on
  ``close()``),
* optionally a :class:`~repro.cache.ResultCache` of whole explanations.

None of these changes what a search computes, only how fast, so a session
is history-free: it keeps no per-block state between calls.  A block's
background population (Eq. 6) lives for one search — shared by the beam
levels of that search and by nothing else, repeats of the block within one
``explain_many`` call included — so every search is position-independent.

Determinism: the backend never touches the random stream (it only decides
where deterministic predictions execute), so seeded session runs are
bit-for-bit identical across the serial and process backends, and every
``explain`` call is bit-for-bit what the session-less explainer produces for
the same seed, whatever the session explained before.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.bb.block import BasicBlock
from repro.cache.fingerprint import cacheable_seed, result_fingerprint
from repro.cache.store import (
    CacheStats,
    ResultCache,
    ResultCacheSource,
    resolve_result_cache,
)
from repro.explain.config import ExplainerConfig
from repro.explain.explainer import Answer, answer_rounds, search_block_rounds
from repro.explain.explanation import Explanation
from repro.models.base import CachedCostModel, CostModel, QueryTally
from repro.runtime.backend import BackendSource, ExecutionBackend, resolve_backend
from repro.utils.cancellation import CancelToken
from repro.utils.errors import BackendError, CheckpointError
from repro.utils.rng import RandomSource, as_rng, spawn_seeds

#: One unit of sharded work: (position in the fleet, block, its rng stream).
_ShardItem = Tuple[int, BasicBlock, np.random.Generator]


def _explain_shard(
    session: "ExplanationSession",
    shard: Sequence[_ShardItem],
    cancel: Optional[CancelToken] = None,
) -> Iterator[Tuple[int, Explanation]]:
    """Explain one shard, one :meth:`ExplanationSession.explain` per block,
    yielding each ``(position, explanation)`` as it finishes.

    The sequential loop and every process shard run this exact loop, and
    each search depends only on its own block and stream, so results are
    byte-identical across backends.
    """
    for position, block, rng in shard:
        if cancel is not None:
            cancel.check()
        yield position, session.explain(block, rng, cancel=cancel)


def _explain_shard_remote(payload) -> Tuple[List[Tuple[int, Explanation]], QueryTally]:
    """Process-shard worker: the payload carries everything the shard needs
    (model, config, items, cache bound) because workers share no memory with
    the session.  The shard runs on a serial session of its own, whose
    accounting travels back with the results.  Module-level so it pickles by
    reference.

    The shard searches a copy of the model: when the backend degrades to
    in-process execution, the payload's model is the session's live one, and
    the shard session installing its serial backend on it would displace —
    or, for a model-owned backend, close — the backend the session runs on.
    """
    model, config, shard, cache_entries = payload
    with ExplanationSession(
        copy.copy(model), config, backend="serial", cache_entries=cache_entries
    ) as session:
        return list(_explain_shard(session, shard)), session._work


@dataclass(frozen=True)
class SessionStats:
    """Run-level accounting, snapshot via :meth:`ExplanationSession.stats`.

    The work counters — ``model_queries``, ``cache_hits``, ``cache_misses``,
    ``perturbations`` and ``perturb_fallbacks`` — are the sum of what the
    session's own explanation paths measured, process-shard workers and
    fused service ticks included, and nothing another session did.  Queries
    issued on ``session.model`` outside an explanation (such as
    :meth:`~ExplanationSession.global_explainer` scoring) show on the
    model's own counters instead.
    """

    explanations: int
    model_queries: int
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    backend: str
    worker_restarts: int = 0
    worker_retries: int = 0
    worker_fallbacks: int = 0
    checkpoint_skips: int = 0
    result_cache: Optional[CacheStats] = None
    #: Γ perturbations the session's searches drew.
    perturbations: int = 0
    #: Perturbations that silently fell back to the original block after
    #: ``max_block_attempts`` failed attempts — each injects a trivially
    #: preserving sample into precision estimates, so a high rate is a
    #: red flag for the perturbation configuration.
    perturb_fallbacks: int = 0

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
        memo = ""
        if self.result_cache is not None:
            memo = f", {self.result_cache.describe()}"
        return (
            f"{self.explanations} explanations, {self.model_queries} model "
            f"queries ({self.cache_hit_rate:.1%} cache hit rate), "
            f"backend {self.backend}{resilience}{perturb}{memo}"
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
        Execution substrate — a short name (``"serial"``/``"process"``),
        a constructed backend, or ``None`` for the backend already installed
        on the model (serial if there is none).  The session owns backends it
        resolves from names and closes them; a backend *instance* passed in
        stays caller-owned.
    rng:
        Random source for explanations that do not bring their own stream.
    cache_entries:
        LRU capacity used when the session wraps the model itself.
    result_cache:
        Whole-explanation memoization: a :class:`~repro.cache.ResultCache`
        instance (caller-owned), a path to open a disk-backed store at or
        ``True`` for a memory-only store (both session-owned, closed with
        the session), or ``None``/``False`` to disable (see
        :func:`~repro.cache.resolve_result_cache`).
        Every computation is history-free, so a result driven by an integer
        seed is a pure function of ``(block, model, uarch, config, seed)``
        and a hit is bit-for-bit what the computation would have produced.
        Explanations driven by a live generator (or the session's ambient
        rng) bypass the cache.

    The session keeps no per-block state between calls: a background
    population is drawn by the search that needs it (one that continues past
    the empty anchor, whose coverage is 1 by definition) and dropped when
    that search ends, so each call answers exactly what a fresh session
    would.

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
        result_cache: ResultCacheSource = None,
    ) -> None:
        self.config = config or ExplainerConfig()
        self.model: CachedCostModel = (
            model
            if isinstance(model, CachedCostModel)
            else CachedCostModel(model, max_entries=cache_entries)
        )
        installed = self.model.execution_backend
        if backend is None and installed is not None:
            # No explicit request: a substrate the caller already configured
            # on the model (backend=) beats the serial default — borrow it
            # and leave its ownership untouched.
            self.backend = installed
            self._owns_backend = False
        else:
            self._owns_backend = not isinstance(backend, ExecutionBackend)
            self.backend = resolve_backend(backend, workers)
            if installed is not self.backend:
                self.model.set_backend(self.backend)
        self._rng = as_rng(rng)
        self.result_cache, self._owns_result_cache = resolve_result_cache(result_cache)
        self.explanations_produced = 0
        self.checkpoint_skips = 0
        # Fused ticks and library callers on other threads may charge at once.
        self._work = QueryTally(0)
        self._work_lock = threading.Lock()
        self._closed = False

    def charge(self, tally: QueryTally) -> None:
        """Add work done for this session to its :meth:`stats`.

        Every search charges its total once, when it ends
        (:func:`~repro.explain.explainer.search_block_rounds`); fused ticks
        and library callers on other threads may charge concurrently.
        """
        with self._work_lock:
            self._work = self._work + tally

    def _result_fingerprint(self, block: BasicBlock, seed: int) -> str:
        return result_fingerprint(
            block=block,
            model_name=self.model.name,
            uarch=self.model.microarch,
            config=self.config,
            seed=int(seed),
        )

    def explain(
        self,
        block: BasicBlock,
        rng: RandomSource = None,
        *,
        cancel: Optional[CancelToken] = None,
    ) -> Explanation:
        """Explain one block using the session's shared state.

        The blocking form of :meth:`explain_rounds`: each KL-LUCB round is
        answered with one call on the session's model.
        """
        return answer_rounds(self.explain_rounds(block, rng, cancel=cancel), self.model)

    def explain_rounds(
        self,
        block: BasicBlock,
        rng: RandomSource = None,
        *,
        cancel: Optional[CancelToken] = None,
    ) -> Generator[List[BasicBlock], Answer, Explanation]:
        """Explain one block as a round generator — every session search runs
        through here.

        Yields each KL-LUCB round's perturbed blocks and takes back
        ``(predictions, tally)`` (see
        :func:`~repro.explain.explainer.search_block_rounds`); the
        explanation arrives through ``StopIteration.value``.
        :meth:`explain` answers the rounds one at a time; the service's
        fused tick answers many requests' rounds together.

        ``cancel`` is checked cooperatively between KL-LUCB rounds; a token
        that never fires leaves the result bit-for-bit unchanged.

        With a :class:`result cache <repro.cache.ResultCache>` installed and
        an integer ``rng`` seed, the search is memoized: a hit returns the
        stored explanation verbatim without yielding a round — including its
        ``num_queries``, which by the cache's attribution rule is the query
        count of the computation that *stored* the entry, since a hit itself
        queries the model zero times — and a miss computes and stores it on
        the way out.
        """
        self._check_open()
        cache = self.result_cache if cacheable_seed(rng) else None
        fingerprint = explanation = None
        if cache is not None:
            fingerprint = self._result_fingerprint(block, rng)
            explanation = cache.get(fingerprint)
        if explanation is None:
            explanation = yield from search_block_rounds(
                self.model,
                block,
                self.config,
                as_rng(rng) if rng is not None else self._rng,
                cancel=cancel,
                charge=self.charge,
            )
            if cache is not None:
                cache.put(fingerprint, explanation)
        with self._work_lock:
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
        moving a fleet onto a session changes where the work runs — never
        which random numbers each block's search consumes.  Every search draws
        its own background population, so each position is a pure function
        of (block, model, uarch, config, spawned stream), repeats of a block
        included, and the plain, sharded, memoized and checkpointed forms of
        one call agree at every position.

        ``shards`` controls the block-level parallelism layered on top of the
        query-level batching: on a process backend with more than one worker
        the fleet is partitioned into that many shards, each shard runs its
        full anchor searches in one worker process, and the results are
        merged back in input order.  ``"auto"`` (the default) sizes the shard
        count to the backend's workers; an explicit count pins it;
        ``None``/``0``/``1`` force the sequential loop, and so does a backend
        with one worker (the serial backend included), whatever the count.
        Every search runs through :meth:`explain`, one call per computed
        position, on this session or, for process shards, on a worker's own
        serial session.  Per-explanation ``num_queries`` matches the
        sequential loop too on a fresh session (see :meth:`_shard_plan`).

        With a result cache installed and an integer ``rng`` seed, every
        position is memoized under its spawned child seed: all positions are
        looked up first, hits are returned verbatim without running a
        search, and only the misses are run (and sharded).  The sequential
        loop stores each miss the moment it finishes, so an interrupted call
        keeps the positions it finished; process shards store theirs when
        they return.

        ``checkpoint`` names a crash-safe :class:`~repro.cache.ResultCache`
        store that the sequential loop uses in place of the session's result
        cache, so re-running the call after an interruption skips the stored
        positions (counted as ``checkpoint_skips``) and produces results
        bit-for-bit identical to an uninterrupted run.  The file is an
        ordinary result-cache store, interchangeable with
        ``ExplanationSession(result_cache=path)`` and ``repro serve
        --result-cache`` for every fleet; it keeps entries of other runs,
        and a resumed fleet that differs at some positions recomputes only
        those.  Checkpointed runs require an integer ``rng`` seed (a live
        generator's state dies with the crash) and run block-sequentially.

        ``cancel`` is checked between blocks and between KL-LUCB rounds on
        the sequential loop (which every checkpointed run takes);
        process-sharded fleets check it once before the shards start, since
        the token cannot cross a process boundary.
        """
        self._check_open()
        blocks = list(blocks)
        if checkpoint is None:
            store = self.result_cache if cacheable_seed(rng) else None
            return self._explain_fleet(
                blocks, rng if rng is not None else self._rng, shards, store, cancel
            )
        if not cacheable_seed(rng):
            raise CheckpointError(
                "checkpointed explain_many requires an integer seed: resuming "
                "a run driven by a live generator is unreproducible (its "
                f"state advanced with the crash); got {type(rng).__name__}"
            )
        with ResultCache(checkpoint) as store:
            return self._explain_fleet(blocks, rng, None, store, cancel)

    def _explain_fleet(
        self,
        blocks: List[BasicBlock],
        rng: RandomSource,
        shards: Union[int, str, None],
        store: Optional[ResultCache],
        cancel: Optional[CancelToken],
    ) -> List[Explanation]:
        """The ``explain_many`` loop, over an optional store: the session's
        result cache or a checkpoint file (integer ``rng`` only).

        Every position is looked up under its child-seed fingerprint before
        anything runs — a result-cache hit counts as an explanation, as in
        :meth:`explain_rounds`, a checkpoint hit as a checkpoint skip — and
        only the misses are planned into shards.  Each miss searches from
        ``default_rng(child_seed)``, the stream its fingerprint names, and is
        stored as it comes back: the moment it finishes on the sequential
        loop, so an interrupted call keeps the positions it finished, or when
        its shard returns.
        """
        seeds = spawn_seeds(rng, len(blocks))
        results: List[Optional[Explanation]] = [None] * len(blocks)
        fingerprints: List[str] = []
        if store is not None:
            fingerprints = [
                self._result_fingerprint(block, seed)
                for block, seed in zip(blocks, seeds)
            ]
            results = [store.get(fingerprint) for fingerprint in fingerprints]
            hits = sum(explanation is not None for explanation in results)
            with self._work_lock:
                if store is self.result_cache:
                    self.explanations_produced += hits
                else:
                    self.checkpoint_skips += hits
        items: List[_ShardItem] = [
            (position, block, np.random.default_rng(seed))
            for position, (block, seed) in enumerate(zip(blocks, seeds))
            if results[position] is None
        ]
        plan = self._shard_plan([block for _, block, _ in items], shards)
        if plan is None:
            pairs: Iterable[Tuple[int, Explanation]] = _explain_shard(
                self, items, cancel
            )
        else:
            pairs = self._run_shards_remote(
                [[items[i] for i in indices] for indices in plan], cancel
            )
        for position, explanation in pairs:
            results[position] = explanation
            if store is not None:
                store.put(fingerprints[position], explanation)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------- sharding

    def _shard_plan(
        self, blocks: Sequence[BasicBlock], shards: Union[int, str, None]
    ) -> Optional[List[List[int]]]:
        """Partition fleet positions into shards (``None`` = stay sequential).

        Only a backend with more than one worker shards: the shards run in
        its worker processes (:meth:`_run_shards_remote`).  Blocks are
        grouped by content key and whole groups are dealt round-robin across
        shards in first-occurrence order; positions inside a shard stay
        ascending.  Searches are position-independent, so any partition
        gives the same explanations; keeping a key's occurrences together
        keeps query-cache warmth as the serial loop has it — each shard
        starts cold, as the serial loop is for a block key it has not met,
        and a repeat finds what the earlier occurrences of its block cached —
        so each shard's ``num_queries`` matches the serial loop's (exact as
        long as distinct block keys do not collide in the query cache).
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
        if requested <= 1 or len(blocks) <= 1 or self.backend.workers <= 1:
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

    def _run_shards_remote(
        self,
        shard_lists: List[List[_ShardItem]],
        cancel: Optional[CancelToken] = None,
    ) -> List[Tuple[int, Explanation]]:
        """Run shards on the backend's worker processes.

        Each worker explains its shard on a serial session of its own (see
        :func:`_explain_shard_remote`); its accounting and explanation count
        are added to this session as the results come back.  ``cancel`` is
        checked once before the shards start — the token cannot cross a
        process boundary.
        """
        if cancel is not None:
            cancel.check()
        payloads = [
            (self.model.inner, self.config, shard, self.model.max_entries)
            for shard in shard_lists
        ]
        pairs: List[Tuple[int, Explanation]] = []
        for shard_pairs, spent in self.backend.map_batch(
            _explain_shard_remote, payloads
        ):
            pairs.extend(shard_pairs)
            self.charge(spent)
        with self._work_lock:
            self.explanations_produced += len(pairs)
        return pairs

    def global_explainer(self, blocks: Sequence[BasicBlock], **kwargs):
        """A :class:`~repro.globalx.global_explainer.GlobalExplainer` whose
        block-set scoring runs through this session's cached, backend-driven
        model (one batched query for the whole dataset)."""
        from repro.globalx.global_explainer import GlobalExplainer

        self._check_open()
        return GlobalExplainer(self.model, blocks, **kwargs)

    # ----------------------------------------------------------------- stats

    def stats(self) -> SessionStats:
        """Accounting since the session started (see :class:`SessionStats`)."""
        work = self._work
        lookups = work.hits + work.misses
        worker = self.backend.worker_stats()
        return SessionStats(
            explanations=self.explanations_produced,
            model_queries=work.queries,
            cache_hits=work.hits,
            cache_misses=work.misses,
            cache_hit_rate=work.hits / lookups if lookups else 0.0,
            backend=self.backend.describe(),
            worker_restarts=worker.get("restarts", 0),
            worker_retries=worker.get("retries", 0),
            worker_fallbacks=worker.get("fallbacks", 0),
            checkpoint_skips=self.checkpoint_skips,
            result_cache=(
                self.result_cache.stats() if self.result_cache is not None else None
            ),
            perturbations=work.perturbations,
            perturb_fallbacks=work.perturb_fallbacks,
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
        self._closed = True

    def __enter__(self) -> "ExplanationSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
