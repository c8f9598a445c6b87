"""The public COMET explainer API."""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.bb.block import BasicBlock
from repro.explain.anchors import AnchorSearch
from repro.explain.config import ExplainerConfig
from repro.explain.explanation import Explanation
from repro.models.base import NO_QUERIES, CostModel, QueryTally
from repro.runtime.backend import BackendSource, ExecutionBackend, resolve_backend
from repro.utils.cancellation import CancelToken
from repro.utils.rng import RandomSource, as_rng

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.runtime.session import ExplanationSession

#: What a round generator takes back: the round's predictions and the
#: accounting of the call that produced them.
Answer = Tuple[Sequence[float], QueryTally]
T = TypeVar("T")


def search_block_rounds(
    model: CostModel,
    block: BasicBlock,
    config: ExplainerConfig,
    rng: RandomSource,
    *,
    cancel: Optional[CancelToken] = None,
    charge: Optional[Callable[[QueryTally], None]] = None,
) -> Generator[List[BasicBlock], Answer, Explanation]:
    """One anchor search as a round generator — the single search loop.

    Yields the perturbed blocks each KL-LUCB round needs and takes back
    ``(predictions, tally)``: the round's predictions and the accounting of
    the call that produced them.  The explanation arrives through
    ``StopIteration.value``.  :func:`answer_rounds` drives it with one model
    call per round; the service's fused tick answers the rounds of many
    searches with one segmented call.

    The search draws its own background population, so the explanation is
    a pure function of (block, model, config, seed).  A ``cancel`` token is
    checked cooperatively between KL-LUCB rounds; a token that never fires
    leaves the random stream untouched.  The search's total is
    :attr:`AnchorSearch.queried` (the summed tallies of its own calls and of
    every answered round) plus its perturber's Γ counters, so it is exact
    whichever thread resumes the search or answers its rounds.  ``charge``
    receives that total once, also when the search is cancelled, fails or
    is closed mid-stream.
    """
    spent = NO_QUERIES
    search = None
    try:
        search = AnchorSearch(model, block, config, rng, cancel=cancel)
        anchor = yield from search.search_rounds()
    finally:
        if search is not None:
            perturber = search.sampler.perturber
            spent = search.queried + QueryTally(
                0, 0, 0, perturber.perturbations, perturber.fallbacks
            )
        if charge is not None:
            charge(spent)
    return Explanation.from_search(search, anchor, num_queries=spent.queries)


def answer_round(
    rounds: Generator, blocks: Sequence[BasicBlock], model: CostModel
) -> Answer:
    """Answer one round of ``rounds`` with one
    ``model.predict_batch_segmented`` call of one segment.

    Returns what the generator takes back: the predictions and the call's
    tally.  If the call fails, the generator is closed (charging its own
    work; the failed call counts nothing) and the error propagates.
    """
    try:
        values, tallies, _ = model.predict_batch_segmented((blocks,))
    except BaseException:
        rounds.close()
        raise
    return values[0], tallies[0]


def answer_rounds(
    rounds: Generator[List[BasicBlock], Answer, T], model: CostModel
) -> T:
    """Drive a round generator to completion — the one blocking driver.

    Every round is answered by :func:`answer_round`; the generator charges
    the work.
    """
    answer = None
    while True:
        try:
            blocks = rounds.send(answer)
        except StopIteration as done:
            return done.value
        answer = answer_round(rounds, blocks, model)


class CometExplainer:
    """Generates COMET explanations for a given cost model.

    Parameters
    ----------
    model:
        Any object implementing the :class:`~repro.models.base.CostModel`
        query interface.  Wrapping it in
        :class:`~repro.models.base.CachedCostModel` is recommended for
        expensive models (:meth:`explain_many` does this automatically, via
        its session).
    config:
        Explanation hyperparameters; the defaults follow the paper.
    rng:
        Random source controlling both the perturbation algorithm and the
        sampling order (pass an int for reproducible explanations).
    backend:
        Execution substrate for the model's batch prediction — a short name
        (``"serial"``/``"process"``), a constructed
        :class:`~repro.runtime.backend.ExecutionBackend`, or ``None`` to
        leave the model's current substrate untouched.  Backends only decide
        *where* deterministic predictions run, so seeded explanations are
        identical across all of them.  Call :meth:`close` (or use the
        explainer as a context manager) to release a backend resolved here.
    workers:
        Worker count for a backend resolved from a name.

    Example
    -------
    >>> from repro.bb import BasicBlock
    >>> from repro.models import AnalyticalCostModel
    >>> from repro.explain import CometExplainer, ExplainerConfig
    >>> model = AnalyticalCostModel("hsw")
    >>> block = BasicBlock.from_text("add rcx, rax\\nmov rdx, rcx\\npop rbx")
    >>> explainer = CometExplainer(model, ExplainerConfig(epsilon=0.25))
    >>> explanation = explainer.explain(block)
    >>> explanation.precision >= 0.0
    True
    """

    def __init__(
        self,
        model: CostModel,
        config: Optional[ExplainerConfig] = None,
        rng: RandomSource = None,
        *,
        backend: BackendSource = None,
        workers: Optional[int] = None,
    ) -> None:
        self.model = model
        self.config = config or ExplainerConfig()
        self._rng = as_rng(rng)
        self._owns_backend = backend is not None and not isinstance(
            backend, ExecutionBackend
        )
        self._backend: Optional[ExecutionBackend] = None
        if backend is not None:
            self._backend = resolve_backend(backend, workers)
            self.model.set_backend(self._backend)

    def explain(self, block: BasicBlock, rng: RandomSource = None) -> Explanation:
        """Explain the model's prediction for ``block``."""
        generator = as_rng(rng) if rng is not None else self._rng
        return answer_rounds(
            search_block_rounds(self.model, block, self.config, generator), self.model
        )

    def session(self, rng: RandomSource = None) -> "ExplanationSession":
        """An :class:`~repro.runtime.session.ExplanationSession` over this
        explainer's model, configuration and (when set) backend.

        The session adds the run-level shared state — one cache wrapper, one
        backend and, optionally, a result cache — that the one-shot API
        leaves on the floor.  Close it (it is a context manager) when the
        run ends.
        """
        from repro.runtime.session import ExplanationSession

        return ExplanationSession(
            self.model,
            self.config,
            # Borrow whichever backend is already driving this model (set
            # here or installed on the model directly); otherwise the
            # session runs serially.
            backend=self._backend or self.model.execution_backend,
            rng=rng if rng is not None else self._rng,
        )

    def explain_many(
        self,
        blocks: Sequence[BasicBlock],
        rng: RandomSource = None,
        *,
        shards: Union[int, str, None] = "auto",
    ) -> List[Explanation]:
        """Explain several blocks with independent random streams.

        The fleet path: the whole dataset is routed through one session, so
        every block shares the query cache and the execution backend.
        Per-block random streams are spawned exactly as they always were, and
        every search draws its own background population, so each position
        is bit-for-bit what :meth:`explain` produces for its spawned stream,
        repeated blocks included.

        ``shards`` controls block-level parallelism (``"auto"``, the default,
        = one shard per backend worker; ``None`` forces the sequential loop,
        and so does any count on a one-worker backend such as the serial
        one) on top of the query-level batching: the fleet is partitioned
        across the process backend's workers, each shard runs full anchor
        searches in one worker, and results merge back in input order,
        seeded-deterministic (see
        :meth:`~repro.runtime.session.ExplanationSession.explain_many`).
        """
        with self.session() as session:
            return session.explain_many(blocks, rng=rng, shards=shards)

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release a backend this explainer resolved from a name.  Idempotent."""
        if self._owns_backend and self._backend is not None:
            self.model.set_backend(None)
            self._backend.close()
        self._backend = None
        self._owns_backend = False

    def __enter__(self) -> "CometExplainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def explain_block(
    model: CostModel,
    block: BasicBlock,
    *,
    config: Optional[ExplainerConfig] = None,
    rng: RandomSource = None,
) -> Explanation:
    """One-shot convenience wrapper around :class:`CometExplainer`."""
    return CometExplainer(model, config, rng).explain(block)
