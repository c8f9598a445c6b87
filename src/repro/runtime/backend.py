"""The execution substrate of the explanation runtime.

COMET's workload — thousands of independent cost-model queries per
explanation — is separable from *how* those queries execute: inline or
across processes.  This module makes that decision an explicit
:class:`ExecutionBackend` interface so every layer (models, explainer,
evaluation harnesses, CLI, benchmarks) selects the substrate the same way.

Two backends are provided:

* :class:`SerialBackend` — in-process, in-order.  The default; zero overhead
  and trivially deterministic.
* :class:`ProcessBackend` — a process pool that escapes the GIL.  The cost
  model is shipped to each worker *once* (via the pool initializer) rather
  than per task, so per-batch IPC is just the blocks out and the floats back.

Threads are not a backend: the search is pure-Python Γ and KL-LUCB work, so
under the GIL they add overhead without adding compute.

All backends preserve input order, so seeded explanations are bit-for-bit
identical across backends for deterministic models: the backend decides only
*where* a prediction runs, never *what* it computes.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, TypeVar, Union

from repro.utils.errors import BackendError

T = TypeVar("T")
R = TypeVar("R")

#: Anything accepted where a backend is expected: an instance, a short name,
#: or ``None`` for the serial backend.
BackendSource = Union[None, str, "ExecutionBackend"]

#: ``release``: a context-manager factory that frees the calling thread's
#: execution slot for its body and retakes it afterwards.  The service's
#: scheduler sets it on each dispatcher thread; other threads have none.
blocking_hook = threading.local()


@contextmanager
def blocking() -> Iterator[None]:
    """Free the calling thread's execution slot, if it holds one, for the body.

    Wrap only waits that need no interpreter time (a blocking call into
    other processes): another dispatcher runs meanwhile, and the slot is
    retaken before the caller goes on.  Nested uses are no-ops, and a
    thread that holds no slot (every library caller) passes through.
    Never enter it holding a lock that another slot holder may take: that
    holder would wait for the lock while holding the slot this caller
    needs back.
    """
    release = getattr(blocking_hook, "release", None)
    if release is None:
        yield
        return
    blocking_hook.release = None
    try:
        with release():
            yield
    finally:
        blocking_hook.release = release


@dataclass(frozen=True)
class BackendRetryPolicy:
    """How a supervised backend reacts to worker death.

    A process-pool worker that is OOM-killed or segfaults poisons the whole
    ``ProcessPoolExecutor``: every future call raises ``BrokenProcessPool``
    forever.  The supervised :class:`ProcessBackend` instead rebuilds the
    pool (re-installing the resident model) and retries the failed batch —
    deterministic models make the retry bit-for-bit equivalent to a run
    that never crashed.

    Parameters
    ----------
    max_restarts:
        Pool rebuilds allowed per batch before giving up.  ``0`` disables
        supervision (the first worker death raises).
    backoff:
        Base sleep before the first retry; doubles per attempt (capped at
        ``max_backoff``) so a crash-looping worker does not spin the host.
    max_backoff:
        Upper bound on one retry sleep, in seconds.
    fallback:
        What to do once restarts are exhausted: ``None`` (the default)
        raises :class:`~repro.utils.errors.BackendError` so CI and
        operators see hard failures, ``"serial"`` degrades gracefully by
        running the batch in-process — slower, but the request completes.
    """

    max_restarts: int = 2
    backoff: float = 0.05
    max_backoff: float = 2.0
    fallback: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff values must be >= 0")
        if self.fallback not in (None, "serial"):
            raise ValueError(
                f"fallback must be None or 'serial', got {self.fallback!r}"
            )

    def delay(self, attempt: int) -> float:
        """The capped-exponential sleep before retry number ``attempt``."""
        return min(self.backoff * (2**attempt), self.max_backoff)


class ExecutionBackend(ABC):
    """Where and how batches of independent work items execute.

    The interface is deliberately small: an order-preserving
    :meth:`map_batch`, a model-aware :meth:`predict_blocks` fast path that
    backends may specialise (the process backend installs the model in each
    worker once), lifecycle management (:meth:`close`, context-manager
    support) and introspection (:attr:`workers`, :meth:`describe`).
    """

    #: Short name used by the CLI/config layer (``serial``/``process``).
    name: str = "backend"

    def __init__(self) -> None:
        self._closed = False

    # ------------------------------------------------------------- execution

    @abstractmethod
    def map_batch(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, returning results in input order."""

    def predict_blocks(self, model, blocks: Sequence) -> List[float]:
        """Evaluate ``model._predict`` over ``blocks`` (order-preserving).

        The generic implementation simply maps the bound method; backends
        with per-worker state (the process pool) override this to avoid
        re-shipping the model with every batch.
        """
        return self.map_batch(model._predict, blocks)

    def prepare_model(self, model) -> None:
        """Validate that ``model`` can execute on this backend.

        In-process backends accept anything; the process backend requires a
        picklable model and raises :class:`BackendError` early (at selection
        time) rather than deep inside the first refinement round.
        """

    # ------------------------------------------------------------- lifecycle

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release pooled resources.  Idempotent."""
        self._closed = True

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise BackendError(f"{self.name} backend has been closed")

    # ---------------------------------------------------------- introspection

    @property
    @abstractmethod
    def workers(self) -> int:
        """Degree of parallelism this backend can offer (1 for serial)."""

    def describe(self) -> str:
        """One-line description used in logs and benchmark reports."""
        return f"{self.name} (workers={self.workers})"

    def worker_stats(self) -> Dict[str, int]:
        """Failure-surface counters for this backend.

        In-process backends have no workers to lose, so the base
        implementation reports zeros; the supervised process backend
        overrides this with its real restart/retry/fallback tallies.
        """
        return {"workers": self.workers, "restarts": 0, "retries": 0, "fallbacks": 0}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<{type(self).__name__} {self.describe()} [{state}]>"


class SerialBackend(ExecutionBackend):
    """In-process, in-order execution (the default substrate)."""

    name = "serial"

    def map_batch(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        self._check_open()
        return [fn(item) for item in items]

    @property
    def workers(self) -> int:
        return 1


# ---------------------------------------------------------------------------
# Process backend: worker-resident model.
#
# The model is pickled once and installed into every worker by the pool
# initializer; batches then ship only the blocks.  The functions below must be
# module-level so the (cheap) per-task callable pickles by reference.

_WORKER_MODEL = None


def _install_worker_model(payload: bytes) -> None:
    global _WORKER_MODEL
    _WORKER_MODEL = pickle.loads(payload)


def _worker_predict(block) -> float:
    return float(_WORKER_MODEL._predict(block))


class ProcessBackend(ExecutionBackend):
    """Process-pool execution: true parallelism for GIL-bound models.

    Simulator-style models (``uica``, ``port-pressure``) do substantial pure
    Python work per block, which only separate interpreters run
    concurrently.  This backend fans batches out across worker processes;
    the model travels to each worker once, at pool (re)construction, and
    stays resident.

    Requirements: the model must be picklable (rules out ``CallableCostModel``
    wrappers around lambdas/closures — :meth:`prepare_model` reports this with
    an actionable error) and ``_predict`` must be deterministic, which every
    bundled model satisfies.  Worker-side ``query_count`` drift is invisible:
    accounting happens in the parent's ``predict_batch``.

    The backend is *supervised*: a worker death (OOM kill, segfault) breaks
    the whole pool, but instead of surfacing ``BrokenProcessPool`` to the
    explanation loop — which would poison every later request through this
    backend — the pool is rebuilt (re-installing the resident model) and the
    failed batch retried under the :class:`BackendRetryPolicy`.  Retries are
    whole-batch and the models are deterministic, so a recovered run is
    bit-for-bit identical to one that never crashed.  Restart, retry and
    fallback tallies are surfaced via :meth:`worker_stats`.
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        retry: Optional[BackendRetryPolicy] = None,
    ) -> None:
        super().__init__()
        if workers is None:
            workers = os.cpu_count() or 1
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"process backend workers must be >= 1, got {workers}")
        self._workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        # Strong reference to the model the pool workers hold resident; also
        # prevents id-reuse confusion if the caller drops their reference.
        self._bound_model = None
        self.retry_policy = retry if retry is not None else BackendRetryPolicy()
        # Failure-surface counters (worker_stats); guarded by a lock because
        # concurrent callers may share one backend instance.
        self._stats_lock = threading.Lock()
        self._restarts = 0
        self._retries = 0
        self._fallbacks = 0

    # ------------------------------------------------------------- validation

    @staticmethod
    def _pickle_model(model) -> bytes:
        try:
            return pickle.dumps(model)
        except Exception as error:
            raise BackendError(
                f"cost model {getattr(model, 'name', model)!r} is not picklable "
                f"and cannot run on the process backend ({error}); use the "
                f"serial backend, or make the model's callable a module-level "
                f"function"
            ) from error

    def prepare_model(self, model) -> None:
        self._pickle_model(model)

    # -------------------------------------------------------------- execution

    def _chunksize(self, count: int) -> int:
        # A few chunks per worker balances scheduling against IPC overhead.
        return max(1, count // (self._workers * 4))

    def map_batch(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Generic map: ``fn`` must be picklable (module-level)."""
        self._check_open()
        if len(items) <= 1 or self._workers <= 1:
            return [fn(item) for item in items]
        return self._supervised(
            lambda: list(
                self._generic_pool().map(
                    fn, items, chunksize=self._chunksize(len(items))
                )
            ),
            lambda: [fn(item) for item in items],
        )

    def predict_blocks(self, model, blocks: Sequence) -> List[float]:
        self._check_open()
        if len(blocks) <= 1 or self._workers <= 1:
            return [float(model._predict(block)) for block in blocks]
        return self._supervised(
            lambda: list(
                self._model_pool(model).map(
                    _worker_predict, blocks, chunksize=self._chunksize(len(blocks))
                )
            ),
            lambda: [float(model._predict(block)) for block in blocks],
        )

    # ------------------------------------------------------------ supervision

    def _supervised(self, run: Callable[[], List[R]], serial: Callable[[], List[R]]) -> List[R]:
        """Run one batch, restarting the pool on worker death.

        ``run`` acquires its pool lazily on every attempt (``_model_pool`` /
        ``_generic_pool`` rebuild a pool that was shut down), so each retry
        starts from a fresh worker fleet with the model re-installed.  After
        ``max_restarts`` rebuilds the policy decides: raise a
        :class:`~repro.utils.errors.BackendError` (default — failures stay
        loud) or degrade to ``serial``, the in-process fallback.

        ``run`` waits on the workers and the backoff sleeps, so both free
        the caller's execution slot (:func:`blocking`): another dispatcher
        runs its search meanwhile.  The serial fallback keeps the slot.
        """
        policy = self.retry_policy
        attempt = 0
        while True:
            try:
                with blocking():
                    return run()
            except BrokenProcessPool as error:
                # The pool is unusable no matter what happens next; tear it
                # down so the next attempt (or the next caller) rebuilds.
                self._shutdown_pool()
                if attempt >= policy.max_restarts:
                    if policy.fallback == "serial":
                        with self._stats_lock:
                            self._fallbacks += 1
                        return serial()
                    raise BackendError(
                        f"process-pool worker died and the pool could not be "
                        f"restored after {policy.max_restarts} restart(s); "
                        f"set BackendRetryPolicy(fallback='serial') to degrade "
                        f"to in-process execution instead ({error})"
                    ) from error
                with self._stats_lock:
                    self._restarts += 1
                    self._retries += 1
                with blocking():
                    time.sleep(policy.delay(attempt))
                attempt += 1

    def worker_stats(self) -> Dict[str, int]:
        """Restart/retry/fallback counters accumulated over this backend's life."""
        with self._stats_lock:
            return {
                "workers": self._workers,
                "restarts": self._restarts,
                "retries": self._retries,
                "fallbacks": self._fallbacks,
            }

    # ----------------------------------------------------------------- pools

    def _generic_pool(self) -> ProcessPoolExecutor:
        """A pool bound to no model (rebuilds a model-bound pool if needed)."""
        if self._pool is not None and self._bound_model is not None:
            self._shutdown_pool()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._workers)
            self._bound_model = None
        return self._pool

    def _model_pool(self, model) -> ProcessPoolExecutor:
        """A pool whose workers hold ``model`` resident."""
        if self._pool is not None and self._bound_model is not model:
            self._shutdown_pool()
        if self._pool is None:
            payload = self._pickle_model(model)
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers,
                initializer=_install_worker_model,
                initargs=(payload,),
            )
            self._bound_model = model
        return self._pool

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._bound_model = None

    def close(self) -> None:
        self._shutdown_pool()
        super().close()

    @property
    def workers(self) -> int:
        return self._workers


# ---------------------------------------------------------------------------
# Resolution


def available_backends() -> tuple:
    """Short names accepted by :func:`resolve_backend` (and the CLI)."""
    return ("serial", "process")


def resolve_backend(
    source: BackendSource = None, workers: Optional[int] = None
) -> ExecutionBackend:
    """Normalise ``source`` into an :class:`ExecutionBackend`.

    ``None`` is the serial backend; strings name a backend kind; an existing
    backend instance is returned as-is (``workers`` must then be omitted).
    """
    if isinstance(source, ExecutionBackend):
        if workers is not None:
            raise BackendError(
                "cannot override workers on an already-constructed backend"
            )
        return source
    key = "serial" if source is None else str(source).strip().lower()
    if key == "serial":
        return SerialBackend()
    if key in ("process", "processes"):
        return ProcessBackend(workers)
    raise BackendError(
        f"unknown execution backend {source!r}; available: {available_backends()}"
    )
