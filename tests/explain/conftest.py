"""Helpers for the explanation-search suites.

``answer_estimator_rounds`` answers a
:class:`~repro.explain.precision.PrecisionEstimator` round generator from
per-arm success probabilities — the stand-in for the anchor search's
perturb-and-query step when a test exercises the KL-LUCB estimator alone.
"""

import numpy as np


def answer_estimator_rounds(rounds, probabilities, seed):
    """Drive ``rounds`` to completion, answering each ``(arm, count)``
    request with ``count`` Bernoulli draws at ``probabilities[arm]`` from one
    seeded stream.

    Returns the generator's result and the list of rounds it yielded.
    """
    rng = np.random.default_rng(seed)
    answered = []
    outcomes = None
    while True:
        try:
            requests = rounds.send(outcomes)
        except StopIteration as done:
            return done.value, answered
        answered.append(list(requests))
        outcomes = [rng.random(count) < probabilities[arm] for arm, count in requests]
