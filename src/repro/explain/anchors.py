"""Anchors-style beam search over candidate feature sets (Section 5.2).

Starting from the empty set, candidate explanations are grown one feature at
a time.  At each level the KL-LUCB estimator identifies the most precise
candidates with as few cost-model queries as possible; the survivors are
checked against the precision threshold, and the search stops at the first
level where a candidate clears it (adding features can only shrink coverage
— Theorem 1 — so the earliest valid anchor has the best coverage).  Among the
valid candidates of that level the one with maximum coverage is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bb.block import BasicBlock
from repro.bb.features import Feature, extract_features
from repro.explain.config import ExplainerConfig
from repro.explain.coverage import CoverageEstimator
from repro.explain.precision import PrecisionEstimator
from repro.models.base import CostModel
from repro.perturb.sampler import PerturbationSampler
from repro.utils.cancellation import CancelToken
from repro.utils.rng import RandomSource


@dataclass(frozen=True)
class AnchorCandidate:
    """One evaluated candidate feature set."""

    features: Tuple[Feature, ...]
    precision: float
    precision_samples: int
    coverage: float
    meets_threshold: bool

    @property
    def size(self) -> int:
        return len(self.features)


class AnchorSearch:
    """Beam search bound to one (cost model, block) pair."""

    def __init__(
        self,
        model: CostModel,
        block: BasicBlock,
        config: Optional[ExplainerConfig] = None,
        rng: RandomSource = None,
        *,
        cancel: Optional[CancelToken] = None,
    ) -> None:
        self.model = model
        self.block = block
        self.config = config or ExplainerConfig()
        # Checked cooperatively between KL-LUCB rounds and beam levels; a
        # token that never fires leaves the random stream untouched.
        self.cancel = cancel
        self.sampler = PerturbationSampler(block, self.config.perturbation, rng)
        # Every search draws its own background population, as the paper's
        # setup does, so the explanation depends on its seed alone.
        self.coverage_estimator = CoverageEstimator(
            self.sampler, self.config.coverage_samples
        )
        # The search's own model queries (the original prediction and, in
        # sequential mode, every draw): their summed tallies.
        self.original_prediction, self.queried = model.predict_counted(block)
        self.tolerance = self.config.tolerance_for(self.original_prediction)
        self.candidate_features: List[Feature] = extract_features(block)
        self.evaluated: List[AnchorCandidate] = []

    # ------------------------------------------------------------- sampling

    def _make_estimator(
        self, candidates: Sequence[Tuple[Feature, ...]]
    ) -> PrecisionEstimator:
        """Externally-served estimator over ``candidates``.

        The estimator only tracks arm statistics and round structure; its
        draw requests are served by :meth:`_serve_requests` (batched or
        sequential per config) through the round-generator protocol.
        """
        config = self.config
        return PrecisionEstimator(
            num_arms=len(candidates),
            confidence_delta=config.confidence_delta,
            batch_size=config.batch_size,
            min_samples=config.min_precision_samples,
            max_samples=config.max_precision_samples,
            cancel=self.cancel,
        )

    def _serve_requests(
        self, requests: Sequence[Tuple[int, int]], candidates: Sequence[Tuple[Feature, ...]]
    ):
        """Serve one refinement round of ``(arm, count)`` draw requests.

        Sub-generator of :meth:`search_rounds`.  Perturbations are drawn per
        request in request order, so the random stream is consumed exactly the
        same way in both modes.  In batched mode the round's blocks are yielded
        outward — the driver answers with one prediction array, typically from
        a single ``predict_batch`` call (possibly fused with other requests'
        rounds) — and the tolerance-ball comparison is vectorized.  In
        sequential mode (``config.batch_queries = False``) each perturbed
        block is queried through ``model.predict_counted`` on its own (kept
        in :attr:`queried`), and nothing is yielded.
        """
        if not self.config.batch_queries:
            outcome_batches: List[List[bool]] = []
            for arm, count in requests:
                perturbed = self.sampler.sample(candidates[arm], count)
                outcomes = []
                for candidate in perturbed:
                    prediction, tally = self.model.predict_counted(candidate)
                    self.queried += tally
                    outcomes.append(
                        abs(prediction - self.original_prediction) <= self.tolerance
                    )
                outcome_batches.append(outcomes)
            return outcome_batches

        segment_sizes: List[int] = []
        blocks: List[BasicBlock] = []
        for arm, count in requests:
            perturbed = self.sampler.sample(candidates[arm], count)
            segment_sizes.append(len(perturbed))
            blocks.extend(perturbed)
        if not blocks:
            return [np.zeros(0, dtype=bool) for _ in requests]
        predictions = yield blocks
        outcomes = (
            np.abs(np.asarray(predictions) - self.original_prediction) <= self.tolerance
        )
        # Slice per-request segments by cumulative index rather than a
        # Python offset walk; np.split returns zero-copy views of the
        # round's outcome vector.
        boundaries = np.cumsum(segment_sizes[:-1])
        return np.split(outcomes, boundaries)

    def _pump(self, estimator_rounds, candidates: Sequence[Tuple[Feature, ...]]):
        """Drive an estimator round generator, serving each round it requests.

        Sub-generator: block batches needed by the rounds propagate outward
        through ``yield`` (see :meth:`_serve_requests`) and the estimator
        generator's final value is returned.
        """
        payload = None
        while True:
            try:
                requests = estimator_rounds.send(payload)
            except StopIteration as stop:
                return stop.value
            payload = yield from self._serve_requests(requests, candidates)

    def _evaluate(
        self,
        estimator: PrecisionEstimator,
        arm: int,
        features: Tuple[Feature, ...],
        candidates: Sequence[Tuple[Feature, ...]],
    ):
        """Certify one candidate (sub-generator; see :meth:`search_rounds`)."""
        meets, stats = yield from self._pump(
            estimator.certify_threshold_rounds(arm, self.config.precision_threshold),
            candidates,
        )
        candidate = AnchorCandidate(
            features=features,
            precision=stats.mean,
            precision_samples=stats.samples,
            coverage=self.coverage_estimator.coverage(features),
            meets_threshold=meets,
        )
        self.evaluated.append(candidate)
        return candidate

    # --------------------------------------------------------------- search

    def search(self) -> AnchorCandidate:
        """Run the beam search and return the selected anchor.

        If no candidate clears the precision threshold within
        ``max_anchor_size`` features, the most precise candidate found is
        returned with ``meets_threshold=False`` (callers can inspect the flag).
        """
        generator = self.search_rounds()
        payload = None
        while True:
            try:
                blocks = generator.send(payload)
            except StopIteration as stop:
                return stop.value
            payload = np.asarray(self.model.predict_batch(blocks))

    def search_rounds(self):
        """Generator form of :meth:`search`, resumable at round granularity.

        Yields the perturbed-block batch each KL-LUCB round needs and expects
        the corresponding prediction array back via ``send``; the selected
        :class:`AnchorCandidate` arrives through ``StopIteration.value``.
        :meth:`search` is a driver that answers every round with its own
        ``predict_batch`` call; the service layer's continuous batcher instead
        interleaves the rounds of many concurrent searches and answers them
        from fused cost-model queries.  In sequential mode
        (``config.batch_queries = False``) queries are issued inline and the
        generator finishes without yielding at all.
        """
        config = self.config

        # The empty anchor: if the model's prediction is already stable under
        # arbitrary perturbations, no feature is needed to explain it.
        empty_candidates: List[Tuple[Feature, ...]] = [()]
        empty_estimator = self._make_estimator(empty_candidates)
        empty_candidate = yield from self._evaluate(
            empty_estimator, 0, (), empty_candidates
        )
        if empty_candidate.meets_threshold:
            return empty_candidate
        # The empty set's coverage needs no population, so the search first
        # needs it here.  Drawing it now — before the first beam level's
        # precision rounds — keeps every later draw at the stream position
        # the seeded goldens pin.
        self.coverage_estimator.population()

        beams: List[Tuple[Feature, ...]] = [()]
        best_fallback = empty_candidate
        seen: set = set()

        for _ in range(config.max_anchor_size):
            if self.cancel is not None:
                self.cancel.check()
            candidates: List[Tuple[Feature, ...]] = []
            for beam in beams:
                beam_set = frozenset(beam)
                for feature in self.candidate_features:
                    if feature in beam_set:
                        continue
                    extended = beam + (feature,)
                    key = frozenset(extended)
                    if key in seen:
                        continue
                    seen.add(key)
                    candidates.append(extended)
            if not candidates:
                break

            estimator = self._make_estimator(candidates)
            top_arms = yield from self._pump(
                estimator.select_top_rounds(
                    config.beam_width, tolerance=config.lucb_tolerance
                ),
                candidates,
            )

            valid: List[AnchorCandidate] = []
            level_candidates: List[AnchorCandidate] = []
            for arm in top_arms:
                candidate = yield from self._evaluate(
                    estimator, arm, candidates[arm], candidates
                )
                level_candidates.append(candidate)
                if candidate.meets_threshold:
                    valid.append(candidate)
                if candidate.precision > best_fallback.precision:
                    best_fallback = candidate

            if valid:
                return max(valid, key=lambda c: (c.coverage, c.precision))
            beams = [candidate.features for candidate in level_candidates]

        return best_fallback
