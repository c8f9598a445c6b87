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

from typing import Iterable, List, Optional

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
        self.perturber = BlockPerturber(block, self.config, self._rng)
        self.samples_drawn = 0

    # ------------------------------------------------------------ sampling

    def sample(
        self, features: Iterable[Feature] = (), count: int = 1
    ) -> List[BasicBlock]:
        """Draw ``count`` perturbations retaining ``features`` (from D_F)."""
        self.samples_drawn += count
        return self.perturber.perturb_many(count, features, rng=self._rng)

    def sample_unconstrained(self, count: int = 1) -> List[BasicBlock]:
        """Draw ``count`` unconstrained perturbations (from D = D_∅)."""
        return self.sample((), count)

    # Kept only because the repository benchmark's layer tracer names these
    # entry points (``perfbench/layer_trace.py``); nothing in the library
    # calls them.  Drop them together with those tracer rows.
    sample_encoded = sample
    background_population = sample_unconstrained

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
