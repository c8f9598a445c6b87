"""Precision estimation with KL-LUCB confidence bounds.

The precision of a candidate feature set ``F`` (Eq. 4) is the probability
that a perturbation drawn from ``D_F`` keeps the cost model's prediction
inside the acceptance ball ``T``.  Each candidate is a Bernoulli arm; the
anchor search needs to (i) identify the best arms at each beam level and
(ii) certify whether a candidate's precision exceeds the threshold — both
with as few model queries as possible.  Following the paper (and Ribeiro et
al., 2018), we use the KL-LUCB bandit algorithm of Kaufmann &
Kalyanakrishnan (2013): confidence bounds are derived from the
Kullback–Leibler divergence between Bernoulli distributions, which is much
tighter than Hoeffding bounds for probabilities near 0 or 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.cancellation import CancelToken


def kl_bernoulli(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q)."""
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    q = min(max(q, 1e-12), 1.0 - 1e-12)
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


# Memo over completed bisections.  KL-LUCB rounds re-request the same small
# ``(successes, trials, level)`` triples heavily — early rounds see identical
# arm statistics across candidates and repeats across rounds — so the scalar
# bisections (the ≤32-arm delegate path below, plus every per-arm
# ``ArmStatistics``/``_ArmView`` bound) cache on their full argument tuple.
# The bound is a pure function of the key, so concurrent explain threads can
# race on the dict benignly.  Cleared wholesale when full: the working set per
# explanation is a few thousand keys, so eviction order does not matter.
_BOUND_MEMO: Dict[tuple, float] = {}
_BOUND_MEMO_LIMIT = 65536


def bernoulli_upper_bound(p_hat: float, n: int, beta: float, tolerance: float = 1e-5) -> float:
    """Largest ``q ≥ p_hat`` with ``n · KL(p_hat, q) ≤ beta`` (bisection)."""
    if n <= 0:
        return 1.0
    key = (True, p_hat, n, beta, tolerance)
    cached = _BOUND_MEMO.get(key)
    if cached is not None:
        return cached
    level = beta / n
    low, high = p_hat, 1.0
    while high - low > tolerance:
        mid = (low + high) / 2.0
        if kl_bernoulli(p_hat, mid) > level:
            high = mid
        else:
            low = mid
    value = (low + high) / 2.0
    if len(_BOUND_MEMO) >= _BOUND_MEMO_LIMIT:
        _BOUND_MEMO.clear()
    _BOUND_MEMO[key] = value
    return value


def bernoulli_lower_bound(p_hat: float, n: int, beta: float, tolerance: float = 1e-5) -> float:
    """Smallest ``q ≤ p_hat`` with ``n · KL(p_hat, q) ≤ beta`` (bisection)."""
    if n <= 0:
        return 0.0
    key = (False, p_hat, n, beta, tolerance)
    cached = _BOUND_MEMO.get(key)
    if cached is not None:
        return cached
    level = beta / n
    low, high = 0.0, p_hat
    while high - low > tolerance:
        mid = (low + high) / 2.0
        if kl_bernoulli(p_hat, mid) > level:
            low = mid
        else:
            high = mid
    value = (low + high) / 2.0
    if len(_BOUND_MEMO) >= _BOUND_MEMO_LIMIT:
        _BOUND_MEMO.clear()
    _BOUND_MEMO[key] = value
    return value


def _kl_bernoulli_vec(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Elementwise Bernoulli KL divergence (vector form of :func:`kl_bernoulli`)."""
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    q = np.clip(q, 1e-12, 1.0 - 1e-12)
    return p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q))


def _bernoulli_bounds_vec(
    p_hats: np.ndarray,
    ns: np.ndarray,
    beta: float,
    upper,
    tolerance: float,
) -> np.ndarray:
    """One vectorized bisection refining every arm's bound simultaneously.

    ``upper`` selects the bracket (``[p, 1]`` vs ``[0, p]``) and which side a
    KL excess moves; it may be a scalar bool or a per-element boolean array,
    so one call can refine a KL-LUCB round's winner *lower* bounds and
    challenger *upper* bounds together.  Unsampled arms get the vacuous
    bound.  The empirical-side KL terms are constant across bisection steps,
    so they are hoisted out of the loop (``KL(p, q) = H-term(p) − p·log(q) −
    (1−p)·log(1−q)``).
    """
    p = np.asarray(p_hats, dtype=float)
    n = np.asarray(ns, dtype=float)
    if p.size == 0:
        return p.copy()
    upper_flags = np.broadcast_to(np.asarray(upper, dtype=bool), p.shape)
    if p.size <= 32:
        # KL-LUCB rounds refine a handful of winner/challenger arms at a
        # time; at those sizes ~17 bisection steps of numpy dispatch cost
        # more than the arithmetic.  Delegate to the scalar bisections
        # (which small-array callers are also tested for equivalence
        # against) and keep the vectorized loop for wide sweeps.
        out = np.empty(p.shape, dtype=float)
        flat_p, flat_n = p.ravel(), n.ravel()
        flat_u, flat_o = upper_flags.ravel(), out.ravel()
        for i in range(flat_p.shape[0]):
            if flat_u[i]:
                flat_o[i] = bernoulli_upper_bound(
                    float(flat_p[i]), int(flat_n[i]), beta, tolerance
                )
            else:
                flat_o[i] = bernoulli_lower_bound(
                    float(flat_p[i]), int(flat_n[i]), beta, tolerance
                )
        return out
    level = np.divide(beta, n, out=np.full_like(p, np.inf), where=n > 0)
    upper_mask = upper_flags
    low = np.where(upper_mask, p, 0.0)
    high = np.where(upper_mask, 1.0, p)
    pc = np.clip(p, 1e-12, 1.0 - 1e-12)
    one_minus_pc = 1.0 - pc
    entropy = pc * np.log(pc) + one_minus_pc * np.log(one_minus_pc)
    while float(np.max(high - low)) > tolerance:
        mid = 0.5 * (low + high)
        qc = np.clip(mid, 1e-12, 1.0 - 1e-12)
        kl = entropy - pc * np.log(qc) - one_minus_pc * np.log(1.0 - qc)
        # An excess tightens toward the empirical mean: down from above for
        # upper bounds, up from below for lower bounds.
        set_high = (kl > level) == upper_mask
        high = np.where(set_high, mid, high)
        low = np.where(set_high, low, mid)
    return np.where(n > 0, 0.5 * (low + high), np.where(upper_mask, 1.0, 0.0))


def bernoulli_upper_bounds(
    p_hats: np.ndarray, ns: np.ndarray, beta: float, tolerance: float = 1e-5
) -> np.ndarray:
    """Vectorized :func:`bernoulli_upper_bound` over arrays of arms."""
    return _bernoulli_bounds_vec(p_hats, ns, beta, upper=True, tolerance=tolerance)


def bernoulli_lower_bounds(
    p_hats: np.ndarray, ns: np.ndarray, beta: float, tolerance: float = 1e-5
) -> np.ndarray:
    """Vectorized :func:`bernoulli_lower_bound` over arrays of arms."""
    return _bernoulli_bounds_vec(p_hats, ns, beta, upper=False, tolerance=tolerance)


def confidence_beta(num_arms: int, round_index: int, delta: float) -> float:
    """Exploration rate ``beta(t, δ)`` of KL-LUCB (Kaufmann & Kalyanakrishnan).

    Uses the same constants as the reference Anchors implementation
    (``alpha = 1.1``, ``k = 405.5``).
    """
    alpha = 1.1
    k = 405.5
    t = max(round_index, 1)
    inner = math.log(k * max(num_arms, 1) * (t**alpha) / delta)
    return inner + math.log(max(inner, 1e-12))


@dataclass
class ArmStatistics:
    """Sampling statistics of one candidate feature set (one bandit arm)."""

    samples: int = 0
    positives: int = 0

    @property
    def mean(self) -> float:
        """Empirical precision estimate."""
        return self.positives / self.samples if self.samples else 0.0

    def update(self, outcomes: Sequence[bool]) -> None:
        """Record a batch of Bernoulli outcomes.

        Accepts plain sequences and numpy boolean arrays alike;
        ``count_nonzero`` keeps the tally C-speed for batched outcomes
        instead of a Python-level ``sum(bool(o) ...)`` loop.
        """
        self.samples += len(outcomes)
        self.positives += int(np.count_nonzero(outcomes))

    def upper(self, beta: float) -> float:
        return bernoulli_upper_bound(self.mean, self.samples, beta)

    def lower(self, beta: float) -> float:
        return bernoulli_lower_bound(self.mean, self.samples, beta)


class _ArmView:
    """One arm's live view of the estimator's contiguous stat arrays.

    The estimator keeps its round state as ``(successes, trials)`` int64
    arrays (one vectorized mean/bound computation per round instead of a
    Python-object walk); this view re-exposes the :class:`ArmStatistics`
    API — ``samples``/``positives``/``mean``/``update`` and the scalar
    bounds — so estimator consumers are unchanged.
    """

    __slots__ = ("_estimator", "_arm")

    def __init__(self, estimator: "PrecisionEstimator", arm: int) -> None:
        self._estimator = estimator
        self._arm = arm

    @property
    def samples(self) -> int:
        return int(self._estimator._trials[self._arm])

    @property
    def positives(self) -> int:
        return int(self._estimator._successes[self._arm])

    @property
    def mean(self) -> float:
        """Empirical precision estimate."""
        trials = self.samples
        return self.positives / trials if trials else 0.0

    def update(self, outcomes: Sequence[bool]) -> None:
        """Record a batch of Bernoulli outcomes into the estimator arrays."""
        self._estimator._trials[self._arm] += len(outcomes)
        self._estimator._successes[self._arm] += int(np.count_nonzero(outcomes))

    def upper(self, beta: float) -> float:
        return bernoulli_upper_bound(self.mean, self.samples, beta)

    def lower(self, beta: float) -> float:
        return bernoulli_lower_bound(self.mean, self.samples, beta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_ArmView(samples={self.samples}, positives={self.positives})"


#: A function that draws ``n`` Bernoulli outcomes for one arm.
SampleFunction = Callable[[int], Sequence[bool]]

#: A function that serves a whole refinement round: it receives ``(arm,
#: count)`` requests and returns one outcome sequence per request, in request
#: order.  Implementations are expected to funnel all of the round's
#: cost-model queries through a single ``predict_batch`` call.
BatchSampleFunction = Callable[[Sequence[Tuple[int, int]]], Sequence[Sequence[bool]]]

#: One refinement round of already-clamped ``(arm, count)`` draw requests.
RoundRequest = List[Tuple[int, int]]

#: The generator form of an estimator run: yields :data:`RoundRequest` rounds,
#: receives one outcome sequence per request (via ``send``), and returns the
#: final result through ``StopIteration.value``.
RoundOutcomes = Sequence[Sequence[bool]]


class PrecisionEstimator:
    """KL-LUCB estimator over a set of candidate arms.

    Parameters
    ----------
    sample_functions:
        One sampling callback per arm.  Each call performs perturbations and
        cost-model queries, so the estimator's job is to spend as few calls
        as possible.
    batch_sampler:
        Alternative to ``sample_functions``: one callback serving a whole
        refinement round of ``(arm, count)`` requests at once, so the arm
        samples of a round share a single batched cost-model query
        (``num_arms`` is then required).  Requests are issued in a
        deterministic order — ascending arm for the minimum fill, winner
        before challenger during refinement — matching the sequential path's
        rng-consumption order exactly.
    confidence_delta:
        Failure probability of the confidence bounds.
    batch_size:
        Number of fresh samples drawn per arm per refinement step.
    min_samples / max_samples:
        Per-arm sampling budget.
    cancel:
        Optional :class:`~repro.utils.cancellation.CancelToken`, checked at
        the top of every refinement round (the natural boundary between two
        batched cost-model queries).  A token that never fires does not
        touch the sampling loop, so seeded results are bit-for-bit
        unchanged by passing one.
    """

    def __init__(
        self,
        sample_functions: Optional[Sequence[SampleFunction]] = None,
        *,
        batch_sampler: Optional[BatchSampleFunction] = None,
        num_arms: Optional[int] = None,
        confidence_delta: float = 0.05,
        batch_size: int = 12,
        min_samples: int = 20,
        max_samples: int = 150,
        cancel: Optional[CancelToken] = None,
    ) -> None:
        if batch_sampler is not None:
            if sample_functions:
                raise ValueError("pass either sample_functions or batch_sampler, not both")
            if not num_arms or num_arms < 1:
                raise ValueError("batch_sampler requires num_arms >= 1")
            self.sample_functions: Optional[List[SampleFunction]] = None
            arms = num_arms
        elif sample_functions:
            self.sample_functions = list(sample_functions)
            arms = len(self.sample_functions)
        elif num_arms and num_arms >= 1:
            # Externally served: the caller drives the ``*_rounds`` generators
            # and supplies each round's outcomes itself (continuous batching).
            self.sample_functions = None
            arms = num_arms
        else:
            raise ValueError("need at least one arm")
        self.batch_sampler = batch_sampler
        self.confidence_delta = confidence_delta
        self.batch_size = batch_size
        self.min_samples = min_samples
        self.max_samples = max_samples
        # Contiguous per-arm round state: one vectorized mean/bound
        # computation per KL-LUCB round reads these directly; `stats` holds
        # per-arm views with the ArmStatistics API for everything else.
        self._successes = np.zeros(arms, dtype=np.int64)
        self._trials = np.zeros(arms, dtype=np.int64)
        self.stats: List[_ArmView] = [_ArmView(self, arm) for arm in range(arms)]
        self.rounds = 0
        self.cancel = cancel

    # ------------------------------------------------------------- sampling

    def _clamp_round(self, requests: Sequence[Tuple[int, int]]) -> RoundRequest:
        """Clamp a round's draw requests to each arm's remaining budget.

        Repeats of the same arm within one round are tracked so the combined
        count never exceeds ``max_samples``; zero-count requests are dropped.
        """
        clamped: RoundRequest = []
        pending: Dict[int, int] = {}
        trials = self._trials
        for arm, count in requests:
            taken = int(trials[arm]) + pending.get(arm, 0)
            count = min(count, max(self.max_samples - taken, 0))
            if count <= 0:
                continue
            pending[arm] = pending.get(arm, 0) + count
            clamped.append((arm, count))
        return clamped

    def _record_round(self, clamped: RoundRequest, outcome_batches: RoundOutcomes) -> None:
        """Fold one served round's outcomes into the arm stat arrays."""
        if len(outcome_batches) != len(clamped):
            raise ValueError(
                f"batch sampler returned {len(outcome_batches)} outcome "
                f"sequences for {len(clamped)} requests"
            )
        for (arm, _), outcomes in zip(clamped, outcome_batches):
            self._trials[arm] += len(outcomes)
            self._successes[arm] += int(np.count_nonzero(outcomes))

    def _request_round(self, requests: Sequence[Tuple[int, int]]):
        """Generator step: clamp a round, yield it for serving, record outcomes.

        The shared building block of the ``*_rounds`` generators: a round that
        clamps to nothing is skipped without yielding, so external drivers only
        ever see rounds that actually need cost-model queries.
        """
        clamped = self._clamp_round(requests)
        if not clamped:
            return
        outcome_batches = yield clamped
        self._record_round(clamped, outcome_batches)

    def _serve_round(self, clamped: RoundRequest) -> RoundOutcomes:
        """Serve one clamped round through the configured sampler.

        Used by the blocking API (:meth:`select_top` / :meth:`certify_threshold`)
        to drive the round generators in-process; requests are served either by
        the round-level ``batch_sampler`` — one batched cost-model query for the
        whole round — or arm by arm through the per-arm sample functions.
        """
        if self.batch_sampler is not None:
            return self.batch_sampler(clamped)
        if self.sample_functions is None:
            raise ValueError(
                "estimator has no sampler configured; drive the *_rounds "
                "generators externally instead"
            )
        return [self.sample_functions[arm](count) for arm, count in clamped]

    def _drive(self, generator):
        """Run a round generator to completion with the in-process sampler."""
        payload: Optional[RoundOutcomes] = None
        while True:
            try:
                clamped = generator.send(payload)
            except StopIteration as stop:
                return stop.value
            payload = self._serve_round(clamped)

    def _draw_many(self, requests: Sequence[Tuple[int, int]]) -> None:
        """Draw fresh outcomes for several arms in one refinement round."""
        self._drive(self._request_round(requests))

    def _draw(self, arm: int, count: int) -> None:
        self._draw_many([(arm, count)])

    def _minimum_fill_requests(self) -> List[Tuple[int, int]]:
        trials = self._trials
        minimum = self.min_samples
        return [
            (arm, minimum - int(trials[arm]))
            for arm in range(trials.shape[0])
            if trials[arm] < minimum
        ]

    def _ensure_minimum(self) -> None:
        self._draw_many(self._minimum_fill_requests())

    # ------------------------------------------------------- top-n selection

    def select_top(self, top_n: int, tolerance: float = 0.15) -> List[int]:
        """Indices of (approximately) the ``top_n`` most precise arms.

        Implements the LUCB stopping rule: refine the provisional winners'
        lower bounds and the best challenger's upper bound until they are
        separated by ``tolerance`` or the sampling budget runs out.
        """
        return self._drive(self.select_top_rounds(top_n, tolerance))

    def select_top_rounds(self, top_n: int, tolerance: float = 0.15):
        """Round-generator form of :meth:`select_top`.

        Yields one clamped :data:`RoundRequest` per refinement round and
        expects the served outcome sequences back via ``send``; the winner
        list arrives through ``StopIteration.value``.  This is the estimator
        half of the continuous-batching step API: an external driver can
        interleave many estimators' rounds into fused cost-model queries.
        The round structure, clamping and rng-relevant request order are
        identical to the blocking method, which is just a driver over this
        generator.
        """
        num_arms = int(self._trials.shape[0])
        top_n = min(top_n, num_arms)
        yield from self._request_round(self._minimum_fill_requests())

        while True:
            if self.cancel is not None:
                self.cancel.check()
            self.rounds += 1
            beta = confidence_beta(num_arms, self.rounds, self.confidence_delta)
            samples = self._trials.astype(float)
            means = np.divide(
                self._successes,
                samples,
                out=np.zeros(num_arms, dtype=float),
                where=self._trials > 0,
            )
            # Stable descending sort: matches sorted(..., reverse=True) on ties.
            order = np.argsort(-means, kind="stable")
            winners = [int(i) for i in order[:top_n]]
            challengers = order[top_n:]
            if challengers.size == 0:
                return winners

            # One combined bisection refines the winners' lower bounds and
            # the challengers' upper bounds together (the `upper` mask
            # selects per element).
            lucb_index = np.concatenate(
                (np.array(winners, dtype=np.intp), challengers)
            )
            upper_mask = np.zeros(lucb_index.shape[0], dtype=bool)
            upper_mask[top_n:] = True
            bounds = _bernoulli_bounds_vec(
                means[lucb_index], samples[lucb_index], beta, upper_mask, 1e-5
            )
            winner_lowers = bounds[:top_n]
            challenger_uppers = bounds[top_n:]
            weakest_winner = winners[int(np.argmin(winner_lowers))]
            strongest_challenger = int(challengers[int(np.argmax(challenger_uppers))])
            gap = float(np.max(challenger_uppers) - np.min(winner_lowers))
            if gap <= tolerance:
                return winners

            exhausted_winner = self._trials[weakest_winner] >= self.max_samples
            exhausted_challenger = (
                self._trials[strongest_challenger] >= self.max_samples
            )
            if exhausted_winner and exhausted_challenger:
                return winners
            # Both arms' fresh samples form one refinement round, so a
            # round-level batch sampler serves them with a single batched
            # cost-model query (winner first, matching the sequential order).
            round_requests: List[Tuple[int, int]] = []
            if not exhausted_winner:
                round_requests.append((weakest_winner, self.batch_size))
            if not exhausted_challenger:
                round_requests.append((strongest_challenger, self.batch_size))
            yield from self._request_round(round_requests)

    # ------------------------------------------------------ threshold check

    def certify_threshold(
        self, arm: int, threshold: float, tolerance: float = 0.05
    ) -> Tuple[bool, ArmStatistics]:
        """Decide whether ``arm``'s precision exceeds ``threshold``.

        Samples the arm until its confidence interval clears the threshold on
        one side (within ``tolerance``) or the budget is exhausted; returns
        the decision and the final statistics.
        """
        return self._drive(self.certify_threshold_rounds(arm, threshold, tolerance))

    def certify_threshold_rounds(
        self, arm: int, threshold: float, tolerance: float = 0.05
    ):
        """Round-generator form of :meth:`certify_threshold`.

        Same protocol as :meth:`select_top_rounds`; the ``(meets, stats)``
        decision arrives through ``StopIteration.value``.
        """
        stats = self.stats[arm]
        if stats.samples < self.min_samples:
            yield from self._request_round([(arm, self.min_samples - stats.samples)])
        while True:
            if self.cancel is not None:
                self.cancel.check()
            self.rounds += 1
            beta = confidence_beta(len(self.stats), self.rounds, self.confidence_delta)
            lower = stats.lower(beta)
            upper = stats.upper(beta)
            if lower >= threshold - tolerance:
                return True, stats
            if upper < threshold:
                return False, stats
            if stats.samples >= self.max_samples:
                return stats.mean >= threshold, stats
            yield from self._request_round([(arm, self.batch_size)])

    # ------------------------------------------------------------ reporting

    def summary(self) -> List[Dict[str, float]]:
        """Mean/sample-count summary per arm (used in diagnostics and tests)."""
        return [
            {"mean": s.mean, "samples": float(s.samples), "positives": float(s.positives)}
            for s in self.stats
        ]
