"""The estimator's array round state and its vectorized bounds.

The KL-LUCB estimator keeps its per-arm round state as contiguous
``(successes, trials)`` int64 arrays.  This suite checks that folding a
served round into them equals a plain per-arm Python sum, and that the
vectorized bound bisection matches the scalar bisections element for
element on both sides of its small-size fast-path cutoff.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.explain.precision import (
    PrecisionEstimator,
    _bernoulli_bounds_vec,
    bernoulli_lower_bound,
    bernoulli_upper_bound,
)

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def update_schedules(draw):
    """A multi-arm sequence of outcome batches: (arm, outcomes) pairs."""
    num_arms = draw(st.integers(min_value=1, max_value=5))
    schedule = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_arms - 1),
                st.lists(st.booleans(), min_size=0, max_size=12),
            ),
            min_size=0,
            max_size=15,
        )
    )
    return num_arms, schedule


@given(spec=update_schedules())
@settings(**_SETTINGS)
def test_record_round_matches_per_arm_sums(spec):
    """Folding a served round into the arrays equals a plain per-arm sum."""
    num_arms, schedule = spec
    estimator = PrecisionEstimator(num_arms)
    requests = [(arm, len(outcomes)) for arm, outcomes in schedule]
    estimator._record_round(requests, [outcomes for _, outcomes in schedule])
    for arm in range(num_arms):
        drawn = [outcomes for owner, outcomes in schedule if owner == arm]
        assert int(estimator._trials[arm]) == sum(len(o) for o in drawn)
        assert int(estimator._successes[arm]) == sum(sum(o) for o in drawn)


@given(
    p_hats=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64),
    samples=st.data(),
    beta=st.floats(min_value=0.01, max_value=20.0),
)
@settings(**_SETTINGS)
def test_vector_bounds_match_scalar_bisection(p_hats, samples, beta):
    """``_bernoulli_bounds_vec`` equals the scalar bisections per element,
    on both sides of the ``size <= 32`` fast-path cutoff (the strategy spans
    sizes 1–64) and under a mixed per-element upper/lower mask."""
    p = np.array(p_hats, dtype=float)
    n = np.array(
        [samples.draw(st.integers(min_value=0, max_value=200)) for _ in p_hats],
        dtype=float,
    )
    upper_mask = np.array(
        [samples.draw(st.booleans()) for _ in p_hats], dtype=bool
    )

    bounds = _bernoulli_bounds_vec(p, n, beta, upper_mask, 1e-5)
    for i in range(p.shape[0]):
        if upper_mask[i]:
            expected = bernoulli_upper_bound(float(p[i]), int(n[i]), beta)
        else:
            expected = bernoulli_lower_bound(float(p[i]), int(n[i]), beta)
        assert abs(bounds[i] - expected) <= 2e-5, (
            f"element {i}: vec={bounds[i]!r} scalar={expected!r} "
            f"(p={p[i]}, n={n[i]}, upper={upper_mask[i]})"
        )
