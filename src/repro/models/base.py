"""The cost-model query interface and common wrappers.

COMET assumes *query access only* (Section 4): a cost model is any object
that maps a valid basic block to a real-valued cost.  The explanation
framework never inspects model internals, so every model here — analytical,
simulation-based or neural — hides behind the same two-method interface.

Queries come in two shapes:

* :meth:`CostModel.predict` — one block at a time (the paper's interface),
* :meth:`CostModel.predict_batch` — a whole batch in one call, which is what
  the batched explanation pipeline issues.  Subclasses override
  :meth:`CostModel._predict_batch` with vectorized (or fanned-out)
  implementations; the default simply loops, so every model is batch-safe.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bb.block import BasicBlock
from repro.runtime.backend import ExecutionBackend, ThreadBackend
from repro.uarch.microarch import MicroArchitecture, get_microarch
from repro.utils.errors import ModelError

_MISSING = object()


@dataclass(frozen=True)
class QueryTally:
    """A snapshot of one thread's query accounting on one model.

    ``queries`` counts inner-model evaluations; ``hits``/``misses`` are the
    cache-lookup split (always zero for uncached models).  Snapshots are
    per-thread, so deltas taken around a piece of work measure exactly that
    work even while other threads hammer the same shared model — which is
    what makes per-explanation ``num_queries`` exact under block sharding.

    ``perturbations``/``perturb_fallbacks`` mirror the same per-thread
    semantics for the Γ engine: how many perturbed blocks the calling thread
    drew, and how many of those silently fell back to the unperturbed block
    after ``max_block_attempts`` rejected candidates (see
    :func:`repro.perturb.algorithm.thread_perturb_tally`).
    """

    queries: int
    hits: int = 0
    misses: int = 0
    perturbations: int = 0
    perturb_fallbacks: int = 0

    def delta(self, since: "QueryTally") -> "QueryTally":
        """The accounting accrued between ``since`` and this snapshot."""
        return QueryTally(
            queries=self.queries - since.queries,
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            perturbations=self.perturbations - since.perturbations,
            perturb_fallbacks=self.perturb_fallbacks - since.perturb_fallbacks,
        )


class _ThreadTallies(threading.local):
    """Per-thread query/hit/miss accumulators (zero-initialised per thread)."""

    def __init__(self) -> None:
        self.queries = 0
        self.hits = 0
        self.misses = 0


class CostModel(ABC):
    """Abstract cost model: maps basic blocks to throughput costs (cycles)."""

    #: Human-readable model name (used in experiment tables).
    name: str = "cost-model"

    def __init__(self, microarch="hsw") -> None:
        self.microarch: MicroArchitecture = get_microarch(microarch)
        self.query_count = 0
        # Counter updates must be exact under concurrent callers (block
        # sharding runs shard threads against one shared model): the lock
        # makes the global totals lost-update-free, and the thread-local
        # tallies give each caller an interference-free per-request view.
        self._tally_lock = threading.Lock()
        self._thread_tallies = _ThreadTallies()
        #: Number of workers :meth:`_fanout_predict_batch` may use when no
        #: explicit backend is installed; ``0``/``1`` keeps batch prediction
        #: sequential.  Simulator-style models expose this knob in their
        #: constructors as a convenience — the model then builds (and owns)
        #: a :class:`~repro.runtime.backend.ThreadBackend` lazily.
        self.batch_workers = 0
        self._backend: Optional[ExecutionBackend] = None
        self._owns_backend = False

    @abstractmethod
    def _predict(self, block: BasicBlock) -> float:
        """Model-specific prediction (implemented by subclasses)."""

    def _predict_batch(self, blocks: Sequence[BasicBlock]) -> List[float]:
        """Model-specific batch prediction.

        The default loops over :meth:`_predict`; subclasses with a cheaper
        batched formulation (vectorized numpy, batched recurrence, backend
        fan-out) override this hook.  Implementations must return one cost per
        block, in input order, and must be numerically identical to the
        sequential path wherever exactness is achievable.
        """
        return [float(self._predict(block)) for block in blocks]

    # ------------------------------------------------------ execution backend

    @property
    def execution_backend(self) -> Optional[ExecutionBackend]:
        """The installed backend, materialising the ``batch_workers`` one.

        Returns ``None`` when prediction is (and should stay) in-process:
        no backend was installed and ``batch_workers`` does not ask for one.
        """
        if self._backend is None and self.batch_workers > 1:
            # Legacy knob: the model owns this backend and closes it.
            self._backend = ThreadBackend(self.batch_workers)
            self._owns_backend = True
        return self._backend

    def set_backend(
        self, backend: Optional[ExecutionBackend], *, own: bool = False
    ) -> "CostModel":
        """Install the execution backend batch prediction fans out on.

        The backend is validated against this model immediately (the process
        backend rejects non-picklable models here, with a clear error, rather
        than mid-search).  When ``own`` is true, :meth:`close` shuts the
        backend down; callers that share one backend across models (e.g. an
        :class:`~repro.runtime.session.ExplanationSession`) keep ownership.
        Any previously *owned* backend is closed.
        """
        if backend is not None:
            backend.prepare_model(self)
        if self._owns_backend and self._backend is not None and self._backend is not backend:
            self._backend.close()
        self._backend = backend
        self._owns_backend = own and backend is not None
        return self

    @contextmanager
    def using_backend(self, backend: ExecutionBackend):
        """Temporarily route batch prediction through ``backend``.

        The previous backend (and its ownership) is restored on exit, and is
        *not* closed — unlike :meth:`set_backend`, this is a borrow, for
        callers that need fan-out for one bounded piece of work (e.g. scoring
        a block set) without disturbing the model's configured substrate.
        """
        backend.prepare_model(self)
        prior, prior_owned = self._backend, self._owns_backend
        self._backend, self._owns_backend = backend, False
        try:
            yield self
        finally:
            self._backend, self._owns_backend = prior, prior_owned

    def _fanout_predict_batch(self, blocks: Sequence[BasicBlock]) -> List[float]:
        """Evaluate ``_predict`` through the execution backend (in order).

        Useful for simulator-style models whose per-block work is substantial
        and independent.  Without a backend (and without ``batch_workers``)
        this is a plain sequential loop.
        """
        backend = self.execution_backend
        if backend is None or backend.workers <= 1 or len(blocks) <= 1:
            return [float(self._predict(block)) for block in blocks]
        return [float(v) for v in backend.predict_blocks(self, blocks)]

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release execution resources owned by this model.  Idempotent."""
        if self._owns_backend and self._backend is not None:
            self._backend.close()
        self._backend = None
        self._owns_backend = False

    def __enter__(self) -> "CostModel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __getstate__(self) -> dict:
        # Backends hold live pools and must not travel with the model (the
        # process backend pickles models into its workers; a worker-side
        # model predicts in-process).  Locks and thread-locals do not pickle;
        # they are rebuilt fresh on the receiving side.
        state = dict(self.__dict__)
        state["_backend"] = None
        state["_owns_backend"] = False
        state["_tally_lock"] = None
        state["_thread_tallies"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._tally_lock = threading.Lock()
        self._thread_tallies = _ThreadTallies()

    # ------------------------------------------------------ query accounting

    def _count_queries(self, count: int) -> None:
        """Record ``count`` inner-model evaluations, exactly.

        The global total is updated under the tally lock (concurrent shard
        threads must not lose updates); the calling thread's tally needs no
        lock because only that thread touches it.
        """
        with self._tally_lock:
            self.query_count += count
        self._thread_tallies.queries += count

    def query_tally(self) -> QueryTally:
        """The calling thread's accounting snapshot (see :class:`QueryTally`)."""
        # Imported lazily: repro.perturb.algorithm imports the model layer's
        # consumers, and the Γ counters are process-global per thread (not
        # per model), so the model interface only reads them on snapshot.
        from repro.perturb.algorithm import thread_perturb_tally

        tallies = self._thread_tallies
        perturb = thread_perturb_tally()
        return QueryTally(
            queries=tallies.queries,
            hits=tallies.hits,
            misses=tallies.misses,
            perturbations=perturb.perturbations,
            perturb_fallbacks=perturb.fallbacks,
        )

    def predict(self, block: BasicBlock) -> float:
        """Predicted throughput of ``block`` in cycles per iteration.

        Increments the query counter; COMET's evaluation reports how many
        queries an explanation required.
        """
        self._count_queries(1)
        value = float(self._predict(block))
        if not value >= 0.0:
            raise ModelError(
                f"{self.name} produced an invalid cost {value!r} for block:\n{block.text}"
            )
        return value

    def predict_batch(self, blocks: Sequence[BasicBlock]) -> List[float]:
        """Predict a batch of blocks through the batched query path.

        Counts one query per block (batching amortises cost, it does not hide
        work) and validates every prediction like :meth:`predict`.
        """
        blocks = list(blocks)
        if not blocks:
            return []
        self._count_queries(len(blocks))
        values = [float(v) for v in self._predict_batch(blocks)]
        if len(values) != len(blocks):
            raise ModelError(
                f"{self.name} returned {len(values)} predictions for "
                f"{len(blocks)} blocks"
            )
        for value, block in zip(values, blocks):
            if not value >= 0.0:
                raise ModelError(
                    f"{self.name} produced an invalid cost {value!r} for block:\n{block.text}"
                )
        return values

    def predict_batch_segmented(
        self, segments: Sequence[Sequence[BasicBlock]]
    ) -> Tuple[List[List[float]], List[QueryTally], int]:
        """Predict several callers' block batches in one fused invocation.

        ``segments`` holds one block batch per logical caller (e.g. one per
        request whose KL-LUCB round was fused into this tick).  The
        concatenation is evaluated through a single :meth:`predict_batch`
        call and the predictions are split back per segment.

        Returns ``(values, tallies, shared_hits)``: ``values[i]`` are segment
        ``i``'s predictions in order, ``tallies[i]`` is its exact share of
        the query accounting (the tallies sum to what one fused
        :meth:`predict_batch` charges in total), and ``shared_hits`` counts
        lookups served by work another segment of the same fused batch paid
        for — always zero for uncached models, where every block is an
        inner evaluation charged to its own segment.
        """
        batches = [list(batch) for batch in segments]
        flat = [block for batch in batches for block in batch]
        values = self.predict_batch(flat)
        out: List[List[float]] = []
        offset = 0
        for batch in batches:
            out.append(values[offset : offset + len(batch)])
            offset += len(batch)
        tallies = [QueryTally(queries=len(batch)) for batch in batches]
        return out, tallies, 0

    def predict_many(self, blocks: Iterable[BasicBlock]) -> List[float]:
        """Predict a batch of blocks (sequentially by default)."""
        return [self.predict(block) for block in blocks]

    def __call__(self, block: BasicBlock) -> float:
        return self.predict(block)

    def describe(self) -> str:
        """One-line description used in logs and reports."""
        return f"{self.name} ({self.microarch.name})"


class CallableCostModel(CostModel):
    """Adapter turning any ``block -> float`` callable into a :class:`CostModel`.

    Useful for testing the explainer against synthetic models (e.g. the
    "8 instructions costs 2 cycles" toy model ``M1`` of Section 4).
    """

    def __init__(self, fn: Callable[[BasicBlock], float], name: str = "callable", microarch="hsw") -> None:
        super().__init__(microarch)
        self._fn = fn
        self.name = name

    def _predict(self, block: BasicBlock) -> float:
        return float(self._fn(block))


class CachedCostModel(CostModel):
    """Memoising LRU wrapper around another cost model.

    The perturbation-based search frequently re-queries identical blocks
    (e.g. the unperturbed block, or perturbations that happen to collide);
    caching by block content avoids repeated simulator or neural-network
    work without changing observable behaviour.  When the cache fills up the
    least-recently-used entry is evicted, so long explanation campaigns keep
    their working set hot instead of silently degrading to no caching.

    Query accounting: :attr:`query_count` reflects *inner-model* work only —
    cache hits are free, so :class:`QueryCounter` reports how many real model
    evaluations a piece of code cost.  Global totals are exact under
    concurrent callers (lock-protected), and every counting site also feeds
    the calling thread's :meth:`~CostModel.query_tally` so per-request
    deltas are interference-free under block sharding.
    """

    def __init__(self, inner: CostModel, max_entries: int = 100_000) -> None:
        super().__init__(inner.microarch)
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.inner = inner
        self.name = inner.name
        self.max_entries = max_entries
        self._cache: "OrderedDict[tuple, float]" = OrderedDict()
        # Cache bookkeeping must survive concurrent callers (block-sharded
        # explain_many runs shard threads against one shared wrapper): the
        # lock covers lookups, stores, LRU eviction and the hit/miss
        # counters.  It is never held while the inner model computes, so
        # misses from different threads still run concurrently.
        self._cache_lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_cache_lock"] = None  # locks do not pickle (process workers)
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._cache_lock = threading.Lock()

    @property
    def execution_backend(self) -> Optional[ExecutionBackend]:
        return self.inner.execution_backend

    def set_backend(
        self, backend: Optional[ExecutionBackend], *, own: bool = False
    ) -> "CostModel":
        """Backends belong to the inner model — misses fan out, hits are free."""
        self.inner.set_backend(backend, own=own)
        return self

    def using_backend(self, backend: ExecutionBackend):
        return self.inner.using_backend(backend)

    def close(self) -> None:
        self.inner.close()
        super().close()

    # ----------------------------------------------------------- cache plumbing

    def _store(self, key: tuple, value: float) -> None:
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)

    def _lookup(self, key: tuple):
        value = self._cache.get(key, _MISSING)
        if value is not _MISSING:
            self._cache.move_to_end(key)
        return value

    # ------------------------------------------------------------------ queries

    def _predict(self, block: BasicBlock) -> float:
        return self.predict(block)

    def predict(self, block: BasicBlock) -> float:
        key = block.key()
        tallies = self._thread_tallies
        with self._cache_lock:
            value = self._lookup(key)
            if value is not _MISSING:
                self.hits += 1
                tallies.hits += 1
                return value
            self.misses += 1
            self.query_count += 1
            tallies.misses += 1
            tallies.queries += 1
        value = self.inner.predict(block)
        with self._cache_lock:
            self._store(key, value)
        return value

    def predict_batch(self, blocks: Sequence[BasicBlock]) -> List[float]:
        """Batch prediction with intra-batch dedup.

        The batch is deduplicated by block content: cache hits are served
        directly, each distinct missing block is queried exactly once through
        one ``inner.predict_batch`` call, and duplicates within the batch
        share the result (they count as hits, exactly as they would have on
        the sequential path).
        """
        blocks = list(blocks)
        if not blocks:
            return []
        keys = [block.key() for block in blocks]
        results: List[Optional[float]] = [None] * len(blocks)
        miss_order: List[tuple] = []
        miss_blocks: List[BasicBlock] = []
        pending: Dict[tuple, List[int]] = {}
        tallies = self._thread_tallies
        hit_count = 0
        with self._cache_lock:
            # The loop body runs once per query of the whole explanation hot
            # path, so the counters are accumulated locally and flushed once
            # per batch (same totals, a fraction of the attribute traffic).
            cache_get = self._cache.get
            cache_touch = self._cache.move_to_end
            for position, (block, key) in enumerate(zip(blocks, keys)):
                bucket = pending.get(key)
                if bucket is not None:
                    # Duplicate of a block already being queried in this batch.
                    hit_count += 1
                    bucket.append(position)
                    continue
                value = cache_get(key, _MISSING)
                if value is not _MISSING:
                    cache_touch(key)
                    hit_count += 1
                    results[position] = value
                    continue
                pending[key] = [position]
                miss_order.append(key)
                miss_blocks.append(block)
            miss_count = len(miss_blocks)
            self.hits += hit_count
            tallies.hits += hit_count
            self.misses += miss_count
            tallies.misses += miss_count
            if miss_blocks:
                self.query_count += miss_count
                tallies.queries += miss_count
        if miss_blocks:
            values = self.inner.predict_batch(miss_blocks)
            with self._cache_lock:
                for key, value in zip(miss_order, values):
                    self._store(key, value)
                    for position in pending[key]:
                        results[position] = value
        return results  # type: ignore[return-value]

    def predict_batch_segmented(
        self, segments: Sequence[Sequence[BasicBlock]]
    ) -> Tuple[List[List[float]], List[QueryTally], int]:
        """Fused batch prediction with per-segment query accounting.

        Cache semantics match :meth:`predict_batch` on the concatenation
        exactly — same dedup, same global totals, same single
        ``inner.predict_batch`` call.  On top of that, every lookup is
        attributed to the segment it belongs to: a distinct missing block is
        a miss (and one inner query) for the *first* segment that asks for
        it; later occurrences anywhere in the fused batch are hits for the
        segment they appear in, and those served across segment boundaries
        are additionally reported as ``shared_hits`` — the dedupe the fused
        tick got for free by batching requests together.
        """
        batches = [list(segment) for segment in segments]
        results: List[List[Optional[float]]] = [[None] * len(batch) for batch in batches]
        miss_order: List[tuple] = []
        miss_blocks: List[BasicBlock] = []
        pending: Dict[tuple, List[Tuple[int, int]]] = {}
        first_segment: Dict[tuple, int] = {}
        per_segment = [[0, 0, 0] for _ in batches]  # queries, hits, misses
        shared_hits = 0
        tallies = self._thread_tallies
        with self._cache_lock:
            for index, batch in enumerate(batches):
                for position, block in enumerate(batch):
                    key = block.key()
                    if key in pending:
                        # Duplicate of a block already being queried in this
                        # fused batch (same or earlier segment).
                        self.hits += 1
                        tallies.hits += 1
                        per_segment[index][1] += 1
                        if first_segment[key] != index:
                            shared_hits += 1
                        pending[key].append((index, position))
                        continue
                    value = self._lookup(key)
                    if value is not _MISSING:
                        self.hits += 1
                        tallies.hits += 1
                        per_segment[index][1] += 1
                        results[index][position] = value
                        continue
                    self.misses += 1
                    tallies.misses += 1
                    per_segment[index][2] += 1
                    pending[key] = [(index, position)]
                    first_segment[key] = index
                    miss_order.append(key)
                    miss_blocks.append(block)
            if miss_blocks:
                self.query_count += len(miss_blocks)
                tallies.queries += len(miss_blocks)
                for key in miss_order:
                    per_segment[first_segment[key]][0] += 1
        if miss_blocks:
            values = self.inner.predict_batch(miss_blocks)
            with self._cache_lock:
                for key, value in zip(miss_order, values):
                    self._store(key, value)
                    for index, position in pending[key]:
                        results[index][position] = value
        segment_tallies = [
            QueryTally(queries=q, hits=h, misses=m) for q, h, m in per_segment
        ]
        return results, segment_tallies, shared_hits  # type: ignore[return-value]

    @property
    def hit_rate(self) -> float:
        """Cache hit rate over the lifetime of this wrapper."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class QueryCounter:
    """Context manager measuring how many queries a piece of code issued.

    The measurement is scoped to the *calling thread* (via
    :meth:`CostModel.query_tally`), so a search running on one shard thread
    counts exactly its own queries even while other shards hammer the same
    shared model — this is what makes per-explanation ``num_queries``
    identical between the sequential loop and sharded ``explain_many``.
    ``hits``/``misses`` carry the cache-lookup split for cached models.
    """

    def __init__(self, model: CostModel) -> None:
        self.model = model
        self.start = QueryTally(0)
        self.queries = 0
        self.hits = 0
        self.misses = 0

    def __enter__(self) -> "QueryCounter":
        self.start = self.model.query_tally()
        return self

    def __exit__(self, *exc_info) -> None:
        delta = self.model.query_tally().delta(self.start)
        self.queries = delta.queries
        self.hits = delta.hits
        self.misses = delta.misses
