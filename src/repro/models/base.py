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
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.bb.block import BasicBlock
from repro.runtime.backend import ExecutionBackend
from repro.uarch.microarch import MicroArchitecture, get_microarch
from repro.utils.errors import ModelError

_MISSING = object()


class QueryTally(NamedTuple):
    """The query accounting of one piece of work on one model.

    ``queries`` counts inner-model evaluations; ``hits``/``misses`` are the
    cache-lookup split (always zero for uncached models).  Every model call
    a search makes returns the tally of that call
    (:meth:`CostModel.predict_counted`,
    :meth:`CostModel.predict_batch_segmented`), so a search's
    ``num_queries`` is the sum of what its own calls did, whichever thread
    made them and whatever other threads did to the same shared model.

    ``perturbations``/``perturb_fallbacks`` carry a search's Γ work: how
    many perturbed blocks its sampler drew, and how many of those silently
    fell back to the unperturbed block after ``max_block_attempts``
    rejected candidates.
    """

    queries: int
    hits: int = 0
    misses: int = 0
    perturbations: int = 0
    perturb_fallbacks: int = 0

    # A named tuple built positionally, not a frozen dataclass: a search
    # adds up one tally per KL-LUCB round (see
    # repro.explain.explainer.search_block_rounds), and a frozen dataclass
    # costs about four times as much to build.

    def __add__(self, other: "QueryTally") -> "QueryTally":
        """The accounting of two pieces of work together."""
        return QueryTally(
            self.queries + other.queries,
            self.hits + other.hits,
            self.misses + other.misses,
            self.perturbations + other.perturbations,
            self.perturb_fallbacks + other.perturb_fallbacks,
        )


#: The accounting of no work (shared: tallies are immutable).
NO_QUERIES = QueryTally(0)
#: One inner-model evaluation, one cache hit, and one miss (one query).
_ONE_QUERY = QueryTally(1)
_ONE_HIT = QueryTally(0, 1, 0)
_ONE_MISS = QueryTally(1, 0, 1)


class CostModel(ABC):
    """Abstract cost model: maps basic blocks to throughput costs (cycles)."""

    #: Human-readable model name (used in experiment tables).
    name: str = "cost-model"

    def __init__(self, microarch="hsw") -> None:
        self.microarch: MicroArchitecture = get_microarch(microarch)
        self.query_count = 0
        # Counter updates must be exact under concurrent callers (service
        # dispatchers and library threads may share one model): the lock
        # makes the global totals lost-update-free.  Per-request views come
        # from the tallies the calls return, not from these totals.
        self._tally_lock = threading.Lock()
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
        """The installed backend (``None``: prediction stays in-process)."""
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
        and independent.  Without a backend this is a plain sequential loop.
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
        # model predicts in-process).  Locks do not pickle; they are rebuilt
        # fresh on the receiving side.
        state = dict(self.__dict__)
        state["_backend"] = None
        state["_owns_backend"] = False
        state["_tally_lock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._tally_lock = threading.Lock()

    # ------------------------------------------------------ query accounting

    def _count_queries(self, count: int) -> None:
        """Record ``count`` inner-model evaluations, exactly (concurrent
        callers must not lose updates)."""
        with self._tally_lock:
            self.query_count += count

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

    def predict_counted(self, block: BasicBlock) -> Tuple[float, QueryTally]:
        """:meth:`predict` plus the accounting of that one call.

        An uncached model evaluates every block it is asked for, so the
        call costs one query.
        """
        return self.predict(block), _ONE_QUERY

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
    cache hits are free.  Every call returns its own :class:`QueryTally`
    (:meth:`predict_counted`, :meth:`predict_batch_segmented`), and the
    lock-protected totals grow by exactly that tally once the call has
    answered, so they are the sum of every tally the wrapper returned; a
    call that raises counts nothing here (its inner model's own
    ``query_count`` still counts the attempt).
    """

    def __init__(self, inner: CostModel, max_entries: int = 100_000) -> None:
        super().__init__(inner.microarch)
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.inner = inner
        self.name = inner.name
        self.max_entries = max_entries
        self._cache: "OrderedDict[tuple, float]" = OrderedDict()
        # Cache bookkeeping must survive concurrent callers (library callers
        # and service dispatchers may share one wrapper across threads): the
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

    # ------------------------------------------------------------------ queries

    def _predict(self, block: BasicBlock) -> float:
        return self.predict(block)

    def predict(self, block: BasicBlock) -> float:
        return self.predict_counted(block)[0]

    def predict_counted(self, block: BasicBlock) -> Tuple[float, QueryTally]:
        """Single-block lookup: a hit is served from the cache, a miss is one
        ``inner.predict``.  Returns the prediction and the call's tally."""
        key = block.key()
        with self._cache_lock:
            value = self._cache.get(key, _MISSING)
            if value is not _MISSING:
                self._cache.move_to_end(key)
                self.hits += 1
                return value, _ONE_HIT
        value = self.inner.predict(block)
        with self._cache_lock:
            self._store(key, value)
            self.misses += 1
            self.query_count += 1
        return value, _ONE_MISS

    def predict_batch(self, blocks: Sequence[BasicBlock]) -> List[float]:
        """Batch prediction with intra-batch dedupe: one segment of
        :meth:`predict_batch_segmented`."""
        return self.predict_batch_segmented((blocks,))[0][0]

    def predict_batch_segmented(
        self, segments: Sequence[Sequence[BasicBlock]]
    ) -> Tuple[List[List[float]], List[QueryTally], int]:
        """Batch prediction with dedupe and per-segment query accounting.

        ``segments`` holds one block batch per logical caller (one per
        request whose KL-LUCB round was fused into a tick; a plain
        :meth:`predict_batch` is one segment).  The concatenation is
        deduplicated by block content: cache hits are served directly, each
        distinct missing block is queried exactly once through one
        ``inner.predict_batch`` call, and duplicates share the result (they
        count as hits, exactly as they would have on the sequential path).

        Every lookup is attributed to the segment it belongs to: a distinct
        missing block is a miss (and one inner query) for the *first*
        segment that asks for it; later occurrences anywhere in the call are
        hits for the segment they appear in, and those served across segment
        boundaries are additionally reported as ``shared_hits`` — the dedupe
        a fused tick got for free by batching requests together.
        """
        batches = [list(segment) for segment in segments]
        keys = [[block.key() for block in batch] for batch in batches]
        results: List[Optional[float]] = [None] * sum(map(len, batches))
        miss_keys: List[tuple] = []
        miss_blocks: List[BasicBlock] = []
        # Block key -> the flat positions waiting on its miss, first asker first.
        pending: Dict[tuple, List[int]] = {}
        tallies: List[QueryTally] = []
        hit_total = shared_hits = start = 0
        with self._cache_lock:
            # The loop body runs once per query of the whole explanation hot
            # path, so the lookups are bound and the counters accumulated
            # locally (same totals, a fraction of the attribute traffic).
            cache_get = self._cache.get
            cache_touch = self._cache.move_to_end
            for batch, batch_keys in zip(batches, keys):
                hits = 0
                misses_before = len(miss_blocks)
                for position, (block, key) in enumerate(zip(batch, batch_keys), start):
                    bucket = pending.get(key)
                    if bucket is not None:
                        # Duplicate of a block already being queried in this
                        # call; shared when an earlier segment asked first.
                        hits += 1
                        if bucket[0] < start:
                            shared_hits += 1
                        bucket.append(position)
                        continue
                    value = cache_get(key, _MISSING)
                    if value is not _MISSING:
                        cache_touch(key)
                        hits += 1
                        results[position] = value
                        continue
                    pending[key] = [position]
                    miss_keys.append(key)
                    miss_blocks.append(block)
                misses = len(miss_blocks) - misses_before
                tallies.append(QueryTally(misses, hits, misses))
                hit_total += hits
                start += len(batch)
        miss_count = len(miss_blocks)
        values = self.inner.predict_batch(miss_blocks) if miss_blocks else ()
        with self._cache_lock:
            for key, value in zip(miss_keys, values):
                self._store(key, value)
                for position in pending[key]:
                    results[position] = value
            # The call has answered: its tallies join the totals.
            self.hits += hit_total
            self.misses += miss_count
            self.query_count += miss_count
        out: List[List[float]] = []
        start = 0
        for batch in batches:
            out.append(results[start : start + len(batch)])  # type: ignore[arg-type]
            start += len(batch)
        return out, tallies, shared_hits

    @property
    def hit_rate(self) -> float:
        """Cache hit rate over the lifetime of this wrapper."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

