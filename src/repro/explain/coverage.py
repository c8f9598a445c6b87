"""Coverage estimation (Eq. 6).

Coverage of a feature set ``F`` is the probability that a random,
*unconstrained* perturbation of the original block still contains all the
features of ``F``.  It is the generalisability/simplicity surrogate that the
anchor search maximises among sufficiently precise candidates.  All candidate
sets are scored against the same background population of perturbations so
their coverages are directly comparable.

Scoring is vectorized: the population is indexed once — each block's feature
signatures (instruction content, dependency hazards, instruction count) are
extracted into hash sets and a count array — and every feature's presence
across the whole population becomes one boolean numpy row.  Coverage of a
feature set is then the mean of the AND of its rows, instead of the seed
implementation's per-feature re-scan of every block's instruction list.

Each search owns one :class:`CoverageEstimator`, so the population and its
index belong to that search alone: its beam levels share them, and no other
search does — not even a repeat of the same block — so an explanation is a
pure function of its own seed.  The empty set needs no population (its
coverage is 1 by definition), so a search that ends at the empty anchor
never draws one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.bb.block import BasicBlock
from repro.bb.dependencies import dependency_signatures
from repro.bb.features import (
    DependencyFeature,
    Feature,
    InstructionFeature,
    NumInstructionsFeature,
    feature_present,
)
from repro.perturb.sampler import PerturbationSampler


class CoverageEstimator:
    """Empirical coverage over one search's background population.

    The population is drawn through ``sampler`` the first time it is needed,
    so the random stream is consumed at that point and nowhere else, and its
    presence index is built on the first presence query; both live as long
    as the estimator.
    """

    def __init__(
        self, sampler: PerturbationSampler, population_size: int = 400
    ) -> None:
        self.sampler = sampler
        self.population_size = population_size
        self._population: Optional[List[BasicBlock]] = None
        self._counts: Optional[np.ndarray] = None
        self._instruction_sets: List[frozenset] = []
        self._dependency_sets: List[frozenset] = []
        self._presence: Dict[Feature, np.ndarray] = {}

    # ------------------------------------------------------------ population

    def population(self) -> List[BasicBlock]:
        """The background population (drawn lazily, then cached)."""
        if self._population is None:
            self._population = self.sampler.sample_unconstrained(self.population_size)
        return self._population

    def _build_index(self) -> None:
        """Extract the feature signatures of every population block."""
        population = self.population()
        for block in population:
            # Instruction.key() is exactly the (mnemonic, formatted operands)
            # signature this index matches against, and it is memoised per
            # instance — population blocks share instruction objects with the
            # block-key computation of the model cache, so most keys are
            # already formatted by the time the index is built.
            self._instruction_sets.append(
                frozenset(inst.key() for inst in block)
            )
            # The hazard signatures straight from the dependency scan: the
            # index needs no Dependency objects, and no order.
            self._dependency_sets.append(dependency_signatures(block.instructions))
        self._counts = np.array(
            [block.num_instructions for block in population], dtype=np.int64
        )

    # -------------------------------------------------------------- presence

    def _presence_row(self, feature: Feature) -> np.ndarray:
        """Boolean presence of one feature across the population (memoised)."""
        row = self._presence.get(feature)
        if row is None:
            if self._counts is None:
                self._build_index()
            row = self._compute_row(feature)
            row.setflags(write=False)
            self._presence[feature] = row
        return row

    def _compute_row(self, feature: Feature) -> np.ndarray:
        population = self.population()
        size = len(population)
        if isinstance(feature, NumInstructionsFeature):
            return self._counts == feature.count
        if isinstance(feature, InstructionFeature):
            signature = (feature.mnemonic, feature.operand_text)
            return np.fromiter(
                (signature in block_set for block_set in self._instruction_sets),
                dtype=bool,
                count=size,
            )
        if isinstance(feature, DependencyFeature):
            signature = (
                feature.dep_kind,
                feature.location_space,
                feature.source_mnemonic,
                feature.destination_mnemonic,
            )
            return np.fromiter(
                (signature in block_set for block_set in self._dependency_sets),
                dtype=bool,
                count=size,
            )
        # Unknown feature subtype: fall back to the generic per-block check.
        return np.fromiter(
            (feature_present(feature, block) for block in population),
            dtype=bool,
            count=size,
        )

    # -------------------------------------------------------------- coverage

    def coverage(self, features: Iterable[Feature]) -> float:
        """Empirical coverage of a feature set (1.0 for the empty set).

        Every perturbation contains the empty set, so its coverage is
        answered without drawing the population: a search that ends at the
        empty anchor never pays for one.
        """
        feature_list = list(features)
        if not feature_list:
            return 1.0
        population = self.population()
        if not population:
            return 0.0
        joint = self._presence_row(feature_list[0])
        if len(feature_list) > 1:
            joint = np.logical_and.reduce(
                np.vstack([self._presence_row(feature) for feature in feature_list]),
                axis=0,
            )
        return int(np.count_nonzero(joint)) / len(population)

    def coverage_many(self, candidates: Sequence[Iterable[Feature]]) -> List[float]:
        """Coverage of several candidate sets against the same population."""
        return [self.coverage(candidate) for candidate in candidates]
