"""Cross-request continuous batching for the explanation service.

The scheduler serializes requests per session key — ``(model, uarch)`` —
so a warm session used to answer exactly one request per cost-model
invocation while same-key requests queued behind it.  This module is the
iteration-level (Orca/vLLM-style) alternative: requests are admitted and
retired at *KL-LUCB round* granularity, not request granularity.

One fused tick group runs per key, on the one dispatcher thread that holds
the key.  Each member request is a round generator over its blocks, each
block searched by
:meth:`~repro.runtime.session.ExplanationSession.explain_rounds` — the
search loop, memoization and accounting every session search runs through,
so the fused path adds only the driving.  Every tick the
group concatenates the members' pending perturbed-block batches, issues
**one** :meth:`~repro.models.base.CachedCostModel.predict_batch_segmented`
through the shared warm model (cross-request intra-tick dedupe comes free),
scatters predictions and exact per-segment query accounting back, and lets
finished requests retire while newly queued same-key work is absorbed
mid-stream (see :meth:`~repro.service.scheduler.Scheduler.claim_extra`).

Determinism contract: each block of a request is searched from its own
integer seed and draws its own background population, exactly as the
unfused execution path does, so the fused service's results are bit-for-bit
identical to the ``dispatchers=1``, fusion-off oracle regardless of which
requests happened to share a tick.  Fusion changes only which model
invocation served a round — arrival order can shift cache hits between
requests (``num_queries`` is substrate-dependent by design), never the
explanation payload.

Cancellation: every request's :class:`~repro.utils.cancellation.CancelToken`
is checked at its own round boundaries (inside the search) and before
each block's search starts, so a cancelled or deadline-expired request
raises out of *its* generator between fused ticks and is retired without
perturbing the other members of the group.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.bb.block import BasicBlock
from repro.explain.explainer import Answer, answer_round
from repro.explain.explanation import Explanation
from repro.runtime.session import ExplanationSession
from repro.utils.cancellation import CancelToken
from repro.utils.rng import spawn_seeds

#: Default bound on requests resident in one fused tick group.
MAX_FUSED_REQUESTS = 8


@dataclass(frozen=True)
class FusionStats:
    """Continuous-batching counters (snapshot via ``ExplanationService.stats``).

    ``mean_occupancy`` is requests per fused tick; values above 1.0 mean
    cross-request fusion actually happened.  ``shared_hits`` counts cache
    lookups one request got for free because another request in the same
    tick (or an earlier fused segment) already paid for the block.
    """

    enabled: bool = False
    max_fused_requests: int = 0
    ticks: int = 0
    rounds_fused: int = 0
    requests_fused: int = 0
    shared_hits: int = 0
    #: Requests-per-tick histogram as ``(occupancy, ticks)`` pairs, ascending.
    occupancy: Tuple[Tuple[int, int], ...] = ()

    @property
    def mean_occupancy(self) -> float:
        return self.rounds_fused / self.ticks if self.ticks else 0.0

    def describe(self) -> str:
        if not self.enabled:
            return "continuous batching off"
        return (
            f"{self.ticks} fused ticks, {self.rounds_fused} rounds fused "
            f"({self.mean_occupancy:.2f} mean occupancy, "
            f"{self.requests_fused} requests, {self.shared_hits} shared hits)"
        )


class FusionCounters:
    """Thread-safe accumulator behind :class:`FusionStats`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ticks = 0
        self._rounds = 0
        self._requests = 0
        self._shared_hits = 0
        self._occupancy: Dict[int, int] = {}

    def record_request(self) -> None:
        with self._lock:
            self._requests += 1

    def record_tick(self, occupancy: int, shared_hits: int) -> None:
        with self._lock:
            self._ticks += 1
            self._rounds += occupancy
            self._shared_hits += shared_hits
            self._occupancy[occupancy] = self._occupancy.get(occupancy, 0) + 1

    def snapshot(self, *, enabled: bool, max_fused_requests: int) -> FusionStats:
        with self._lock:
            return FusionStats(
                enabled=enabled,
                max_fused_requests=max_fused_requests,
                ticks=self._ticks,
                rounds_fused=self._rounds,
                requests_fused=self._requests,
                shared_hits=self._shared_hits,
                occupancy=tuple(sorted(self._occupancy.items())),
            )


@dataclass
class FusedEntry:
    """One request handed to a fused tick group by the service.

    The service keeps all ticket semantics to itself: ``finish`` receives
    the completed explanations in block order, ``fail`` the exception that
    retired the request (cancellation, deadline expiry or a model error).
    Exactly one of the two is called, once, on the group's thread.
    """

    blocks: Tuple[BasicBlock, ...]
    seed: int
    token: Optional[CancelToken]
    finish: Callable[[List[Explanation]], None]
    fail: Callable[[BaseException], None]


def _request_rounds(
    session: ExplanationSession, entry: FusedEntry
) -> Generator[List[BasicBlock], Answer, List[Explanation]]:
    """One fused request as a round generator over its blocks.

    Seeds each block as the unfused path does: a single-block request
    searches from its seed (as ``session.explain`` would), a fleet request
    gives each position its spawned child seed (as ``explain_many`` would).
    Every position searches from its integer seed, so it is memoized under
    the same fingerprint as in ``explain_many``, repeats included.  The
    token is checked before each block.
    """
    blocks = entry.blocks
    seeds = [entry.seed] if len(blocks) == 1 else spawn_seeds(entry.seed, len(blocks))
    explanations: List[Explanation] = []
    for block, seed in zip(blocks, seeds):
        if entry.token is not None:
            entry.token.check()
        explanation = yield from session.explain_rounds(block, seed, cancel=entry.token)
        explanations.append(explanation)
    return explanations


def run_fused_group(
    session: ExplanationSession,
    entries: Sequence[FusedEntry],
    *,
    absorb: Optional[Callable[[int], List[FusedEntry]]] = None,
    max_fused_requests: int = MAX_FUSED_REQUESTS,
    counters: Optional[FusionCounters] = None,
) -> None:
    """Run one per-key fused tick group to completion.

    ``entries`` seed the group (admission order is preserved in segment
    order); ``absorb`` is polled between ticks for newly queued same-key
    work, up to ``max_fused_requests`` concurrently resident requests.
    Every entry is retired through its own ``finish``/``fail`` callback; a
    request that raises — cancellation, deadline expiry, a model error —
    leaves the remaining members of the group untouched.
    """
    model = session.model
    # (request, its round generator, the blocks its next round needs)
    pending: List[Tuple[FusedEntry, Generator, List[BasicBlock]]] = []

    def step(entry: FusedEntry, rounds: Generator, answer: Optional[Answer]) -> None:
        """Resume one request; park it for the next tick or retire it."""
        try:
            blocks = rounds.send(answer)
        except StopIteration as done:
            entry.finish(done.value)
        except Exception as error:  # noqa: BLE001 - reported per request
            entry.fail(error)
        else:
            pending.append((entry, rounds, blocks))

    def admit(entry: FusedEntry) -> None:
        if counters is not None:
            counters.record_request()
        step(entry, _request_rounds(session, entry), None)

    for entry in entries:
        admit(entry)
    while True:
        if absorb is not None and len(pending) < max_fused_requests:
            for entry in absorb(max_fused_requests - len(pending)):
                admit(entry)
        if not pending:
            break
        batch, pending = pending, []
        try:
            values, tallies, shared_hits = model.predict_batch_segmented(
                [blocks for _, _, blocks in batch]
            )
        except Exception:  # noqa: BLE001 - isolate the poisoned segment
            # One request's blocks made the fused call fail; re-serve each
            # segment on its own so only the failing request retires with
            # the error.
            for entry, rounds, blocks in batch:
                try:
                    answer = answer_round(rounds, blocks, model)
                except Exception as error:  # noqa: BLE001
                    entry.fail(error)
                    continue
                step(entry, rounds, answer)
            continue
        if counters is not None:
            counters.record_tick(len(batch), shared_hits)
        for (entry, rounds, _), answers, tally in zip(batch, values, tallies):
            step(entry, rounds, (answers, tally))
