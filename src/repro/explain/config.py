"""Hyperparameters of the COMET explainer.

Defaults follow Section 6 and Appendix E of the paper where a value is given
(``delta`` = 0.3 so the precision threshold is 0.7; ``epsilon`` = 0.5 cycles
for practical cost models), and the Anchors defaults where the paper defers
to them (beam width, confidence).  Sample budgets are configurable because
the reproduction's benchmark harness trades a little estimator tightness for
wall-clock time; the paper-scale budgets can be restored by raising
``coverage_samples`` and ``max_precision_samples``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.perturb.config import PerturbationConfig


@dataclass(frozen=True)
class ExplainerConfig:
    """All knobs of the explanation search.

    Attributes
    ----------
    epsilon:
        Radius of the cost ball ``T`` around the original prediction: a
        perturbed block counts as "same prediction" if the model's output
        moves by at most ``epsilon`` cycles (Appendix E uses 0.5 for Ithemal
        and uiCA, 0.25 for the crude analytical model).
    relative_epsilon:
        Optional relative component: when set, the ball radius is
        ``max(epsilon, relative_epsilon * |M(β)|)``, which keeps the target
        meaningful for very slow blocks (e.g. division-bound blocks at
        30+ cycles).
    delta:
        Precision threshold is ``1 − delta`` (paper default 0.3 → 0.7).
    confidence_delta:
        Failure probability of the KL-LUCB confidence bounds (Anchors uses
        0.05).
    beam_width:
        Number of candidate feature sets kept per beam-search level.
    max_anchor_size:
        Largest explanation size considered before giving up and returning
        the most precise candidate found.
    batch_size / min_precision_samples / max_precision_samples:
        Sampling budget per candidate when estimating precision.
    coverage_samples:
        Size of the background population each search draws for its
        coverage estimates (shared by the search's beam levels, never by
        two searches, so an explanation depends on its own seed alone).
    lucb_tolerance:
        KL-LUCB stops once the upper bound of the best challenger and the
        lower bound of the provisional winners are within this tolerance.
    batch_queries:
        When true (the default), all perturbed blocks of a precision
        refinement round are routed through a single batched model call so
        vectorized/batched cost models amortise per-query overhead.  When
        false the search queries one block at a time — the sequential
        reference path the batched one is checked against.  Both paths
        consume the random stream identically, so for models whose batch
        path is numerically exact (analytical, the simulators,
        cached wrappers around them) seeded explanations are bit-for-bit
        independent of this flag.  The neural model's batched recurrence may
        differ from its sequential path in the last float ulps (BLAS
        summation order), which can in principle flip an outcome that lands
        exactly on the tolerance-ball boundary.
    perturbation:
        Configuration of the perturbation algorithm Γ.
    """

    epsilon: float = 0.5
    relative_epsilon: float = 0.1
    delta: float = 0.3
    confidence_delta: float = 0.05
    beam_width: int = 2
    max_anchor_size: int = 3
    batch_size: int = 12
    min_precision_samples: int = 24
    max_precision_samples: int = 150
    coverage_samples: int = 400
    lucb_tolerance: float = 0.15
    batch_queries: bool = True
    perturbation: PerturbationConfig = PerturbationConfig()

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if not 0.0 < self.confidence_delta < 1.0:
            raise ValueError("confidence_delta must be in (0, 1)")
        if self.beam_width < 1 or self.max_anchor_size < 1:
            raise ValueError("beam_width and max_anchor_size must be >= 1")
        if self.batch_size < 1:
            # A round of zero draws per arm never refines a bound, so the
            # KL-LUCB loops would never end.
            raise ValueError("batch_size must be >= 1")
        if self.min_precision_samples > self.max_precision_samples:
            raise ValueError("min_precision_samples cannot exceed max_precision_samples")
        if self.coverage_samples < 1:
            raise ValueError("coverage_samples must be >= 1")

    @property
    def precision_threshold(self) -> float:
        """The precision an explanation must exceed (``1 − delta``)."""
        return 1.0 - self.delta

    def tolerance_for(self, prediction: float) -> float:
        """Radius of the acceptance ball ``T`` for a given original prediction."""
        return max(self.epsilon, self.relative_epsilon * abs(prediction))

    def with_overrides(self, **changes) -> "ExplainerConfig":
        """A copy of this configuration with the given fields replaced."""
        return replace(self, **changes)
