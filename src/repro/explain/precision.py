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
from typing import Dict, List, Optional, Sequence, Tuple

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
# bisections (the ≤32-arm delegate path below, plus the threshold check's
# per-arm bounds) cache on their full argument tuple.
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


#: One refinement round of already-clamped ``(arm, count)`` draw requests.
RoundRequest = List[Tuple[int, int]]

#: What a round generator takes back for a :data:`RoundRequest` (via
#: ``send``): one outcome sequence per request, in request order.
RoundOutcomes = Sequence[Sequence[bool]]


class PrecisionEstimator:
    """KL-LUCB estimator over ``num_arms`` candidate arms.

    The estimator keeps each arm's ``(successes, trials)`` counts and the
    round structure; it draws nothing itself.  :meth:`select_top_rounds` and
    :meth:`certify_threshold_rounds` are round generators: each yields one
    clamped :data:`RoundRequest` per refinement round and takes back one
    outcome sequence per request, so the caller decides how a round's
    samples are drawn and queried (the anchor search answers a whole round
    with one batched cost-model query, possibly fused with other searches'
    rounds).  Requests are issued in a deterministic order — ascending arm
    for the minimum fill, winner before challenger during refinement — so a
    caller that draws per request in request order consumes its random
    stream the same way however it queries the model.

    Parameters
    ----------
    num_arms:
        Number of candidate arms (at least one).
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
        num_arms: int,
        *,
        confidence_delta: float = 0.05,
        batch_size: int = 12,
        min_samples: int = 20,
        max_samples: int = 150,
        cancel: Optional[CancelToken] = None,
    ) -> None:
        if num_arms < 1:
            raise ValueError("need at least one arm")
        if batch_size < 1:
            # A round of zero draws per arm never refines a bound, so the
            # round generators would never end.
            raise ValueError("batch_size must be >= 1")
        self.confidence_delta = confidence_delta
        self.batch_size = batch_size
        self.min_samples = min_samples
        self.max_samples = max_samples
        # Contiguous per-arm round state: one vectorized mean/bound
        # computation per KL-LUCB round reads these directly.
        self._successes = np.zeros(num_arms, dtype=np.int64)
        self._trials = np.zeros(num_arms, dtype=np.int64)
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
                f"round answered with {len(outcome_batches)} outcome "
                f"sequences for {len(clamped)} requests"
            )
        for (arm, _), outcomes in zip(clamped, outcome_batches):
            self._trials[arm] += len(outcomes)
            self._successes[arm] += int(np.count_nonzero(outcomes))

    def _request_round(self, requests: Sequence[Tuple[int, int]]):
        """Generator step: clamp a round, yield it for serving, record outcomes.

        The shared building block of the ``*_rounds`` generators: a round that
        clamps to nothing is skipped without yielding, so callers only ever
        see rounds that actually need cost-model queries.
        """
        clamped = self._clamp_round(requests)
        if not clamped:
            return
        outcome_batches = yield clamped
        self._record_round(clamped, outcome_batches)

    def _minimum_fill_requests(self) -> List[Tuple[int, int]]:
        trials = self._trials
        minimum = self.min_samples
        return [
            (arm, minimum - int(trials[arm]))
            for arm in range(trials.shape[0])
            if trials[arm] < minimum
        ]

    # ------------------------------------------------------- top-n selection

    def select_top_rounds(self, top_n: int, tolerance: float = 0.15):
        """Indices of (approximately) the ``top_n`` most precise arms.

        Implements the LUCB stopping rule: refine the provisional winners'
        lower bounds and the best challenger's upper bound until they are
        separated by ``tolerance`` or the sampling budget runs out.  Yields
        one clamped :data:`RoundRequest` per refinement round and expects the
        served outcome sequences back via ``send``; the winner list arrives
        through ``StopIteration.value``.
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
            # Both arms' fresh samples form one refinement round, so the
            # caller serves them with a single batched cost-model query
            # (winner first, matching the sequential order).
            round_requests: List[Tuple[int, int]] = []
            if not exhausted_winner:
                round_requests.append((weakest_winner, self.batch_size))
            if not exhausted_challenger:
                round_requests.append((strongest_challenger, self.batch_size))
            yield from self._request_round(round_requests)

    # ------------------------------------------------------ threshold check

    def certify_threshold_rounds(
        self, arm: int, threshold: float, tolerance: float = 0.05
    ):
        """Decide whether ``arm``'s precision exceeds ``threshold``.

        Samples the arm until its confidence interval clears the threshold on
        one side (within ``tolerance``) or its budget is exhausted.  Same
        round protocol as :meth:`select_top_rounds`; ``(meets, precision,
        samples)`` — the decision, the arm's empirical precision and its
        sample count — arrives through ``StopIteration.value``.
        """
        num_arms = int(self._trials.shape[0])
        trials = int(self._trials[arm])
        if trials < self.min_samples:
            yield from self._request_round([(arm, self.min_samples - trials)])
        while True:
            if self.cancel is not None:
                self.cancel.check()
            self.rounds += 1
            beta = confidence_beta(num_arms, self.rounds, self.confidence_delta)
            # Python ints, so every memoised bound key is a plain float/int.
            samples = int(self._trials[arm])
            precision = int(self._successes[arm]) / samples if samples else 0.0
            if bernoulli_lower_bound(precision, samples, beta) >= threshold - tolerance:
                return True, precision, samples
            if bernoulli_upper_bound(precision, samples, beta) < threshold:
                return False, precision, samples
            if samples >= self.max_samples:
                return precision >= threshold, precision, samples
            yield from self._request_round([(arm, self.batch_size)])
