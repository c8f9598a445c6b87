"""Sampling interface over the perturbation distributions D_F and D.

The explanation search needs two sampling primitives (Section 5.2):

* samples from ``D_F`` — perturbations that *retain* a candidate feature set
  ``F`` — used to estimate precision (Eq. 4),
* samples from ``D = D_∅`` — unconstrained perturbations — used to estimate
  coverage (Eq. 6).

``D`` is the special case ``F = ∅``, so one sampler built around
:class:`~repro.perturb.algorithm.BlockPerturber` serves both.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.bb.block import BasicBlock
from repro.bb.features import Feature, features_present
from repro.perturb.algorithm import BlockPerturber
from repro.perturb.config import PerturbationConfig
from repro.utils.rng import RandomSource, as_rng


class PerturbationSampler:
    """Draws perturbed blocks conditioned on retained feature sets.

    Parameters
    ----------
    block:
        The block being explained.
    config:
        Perturbation hyperparameters (paper defaults when omitted).
    rng:
        Random source; pass an int for reproducible explanation runs.
    """

    def __init__(
        self,
        block: BasicBlock,
        config: Optional[PerturbationConfig] = None,
        rng: RandomSource = None,
    ) -> None:
        self.block = block
        self.config = config or PerturbationConfig()
        self._rng = as_rng(rng)
        self._perturber = BlockPerturber(block, self.config, self._rng)
        self._background: List[BasicBlock] = []
        self.samples_drawn = 0

    # ------------------------------------------------------------ sampling

    def sample(
        self, features: Iterable[Feature] = (), count: int = 1
    ) -> List[BasicBlock]:
        """Draw ``count`` perturbations retaining ``features`` (from D_F)."""
        self.samples_drawn += count
        return self._perturber.perturb_many(count, features, rng=self._rng)

    # Kept only because the repository benchmark's layer tracer names this
    # entry point (``perfbench/layer_trace.py``); nothing in the library
    # calls it.  Drop it together with that tracer row.
    sample_encoded = sample

    def sample_unconstrained(self, count: int = 1) -> List[BasicBlock]:
        """Draw ``count`` unconstrained perturbations (from D = D_∅)."""
        return self.sample((), count)

    # ----------------------------------------------------------- background

    def background_population(self, size: int) -> List[BasicBlock]:
        """A cached pool of unconstrained perturbations for coverage estimates.

        The anchor search evaluates the coverage of many candidate feature
        sets against the *same* background population (as the Anchors
        implementation does), so the pool is drawn once and reused.
        """
        if len(self._background) < size:
            self._background.extend(
                self.sample_unconstrained(size - len(self._background))
            )
        return self._background[:size]

    def coverage_of(self, features: Iterable[Feature], population_size: int = 1000) -> float:
        """Empirical coverage of ``features`` over the background population."""
        population = self.background_population(population_size)
        if not population:
            return 0.0
        feature_tuple = tuple(features)
        hits = sum(
            1 for candidate in population if features_present(feature_tuple, candidate)
        )
        return hits / len(population)

    # ----------------------------------------------------------- diagnostics

    def preservation_rate(
        self, features: Iterable[Feature], count: int = 200
    ) -> float:
        """Fraction of D_F samples in which ``features`` are actually present.

        Γ preserves features by construction, but corner cases (e.g. an opcode
        replacement elsewhere shadowing a preserved dependency) can drop one;
        this diagnostic quantifies how rare that is and is exercised by the
        property-based tests.
        """
        feature_tuple = tuple(features)
        samples = self.sample(feature_tuple, count)
        if not samples:
            return 1.0
        hits = sum(1 for s in samples if features_present(feature_tuple, s))
        return hits / len(samples)
