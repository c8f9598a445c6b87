"""The crude interpretable analytical cost model ``C`` (Section 6, Appendix G).

``C`` predicts a block's cost as the maximum over the costs of its individual
features::

    C(β) = max( cost_η(n),  max_i cost_inst(inst_i),  max_{δij} cost_dep(δij) )

with (Appendix G):

* ``cost_inst(inst)`` — the instruction's reciprocal throughput on the target
  micro-architecture (our uops.info stand-in tables),
* ``cost_dep(δij)`` — 0 for WAR/WAW hazards (false dependencies removable by
  renaming), and ``cost_inst(i) + cost_inst(j)`` for RAW hazards (the two
  instructions must execute back-to-back),
* ``cost_η(n) = n / issue_width`` — the front-end bound of the simple baseline
  model in Abel & Reineke (2022).

Because ``C`` is analytical, the features attaining the maximum are its
ground-truth explanation ``GT(β)`` (Eq. 9), which is what Table 2 scores
COMET against.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.bb.block import BasicBlock
from repro.bb.dependencies import Dependency, DependencyKind, _tracked_accesses
from repro.bb.features import (
    DependencyFeature,
    Feature,
    InstructionFeature,
    NumInstructionsFeature,
)
from repro.isa.instructions import Instruction
from repro.models.base import CostModel
from repro.uarch.microarch import get_microarch
from repro.uarch.tables import instruction_cost_for

#: Costs attained by each feature of a block: feature -> cost contribution.
FeatureCosts = List[Tuple[Feature, float]]


class AnalyticalCostModel(CostModel):
    """The crude interpretable cost model ``C``."""

    def __init__(self, microarch="hsw") -> None:
        super().__init__(microarch)
        self.name = f"crude-analytical-{self.microarch.short_name}"
        # Instruction cost depends only on (mnemonic, loads, stores) for a
        # fixed micro-architecture, so batch prediction memoises the table
        # lookups on that key instead of re-deriving memory-form costs.
        self._throughput_memo: Dict[Tuple[str, bool, bool], float] = {}
        # Perturbed blocks share Instruction instances (replacements and
        # renames are cached objects), so the cost is additionally memoised
        # on the instance itself under a per-uarch attribute — the batch
        # loop then pays one dict lookup per instruction visit.
        self._cost_attr = f"_cost_{self.microarch.short_name}"

    # -------------------------------------------------------- cost functions

    def cost_instruction(self, block: BasicBlock, index: int) -> float:
        """``cost_inst`` of Appendix G: the instruction's reciprocal throughput."""
        return float(
            instruction_cost_for(block[index], self.microarch).throughput
        )

    def cost_dependency(self, block: BasicBlock, dependency: Dependency) -> float:
        """``cost_dep`` of Appendix G (Eq. 10)."""
        if dependency.kind is not DependencyKind.RAW:
            return 0.0
        return self.cost_instruction(block, dependency.source) + self.cost_instruction(
            block, dependency.destination
        )

    def cost_num_instructions(self, block: BasicBlock) -> float:
        """``cost_η`` of Appendix G: the front-end issue bound ``n / width``."""
        return block.num_instructions / self.microarch.issue_width

    # --------------------------------------------------------------- predict

    def _predict(self, block: BasicBlock) -> float:
        costs = [cost for _, cost in feature_costs(block, self)]
        return max(costs)

    # --------------------------------------------------------- batch predict

    def _memoised_throughput(self, instruction: Instruction) -> float:
        key = (instruction.mnemonic, instruction.loads_memory, instruction.stores_memory)
        value = self._throughput_memo.get(key)
        if value is None:
            value = float(instruction_cost_for(instruction, self.microarch).throughput)
            self._throughput_memo[key] = value
        return value

    def _predict_batch(self, blocks: Sequence[BasicBlock]) -> List[float]:
        """Batch prediction as one tight per-block loop.

        Explanation batches are many *small* blocks, the worst shape for
        array kernels: per-element dispatch would outweigh the arithmetic.
        The loop costs one instance-attribute lookup per instruction and a
        handful of float compares per block, and is bit-for-bit identical to
        the sequential :meth:`_predict` — the same table floats flow through
        the same IEEE additions, maxima and division.
        """
        cost_attr = self._cost_attr
        issue_width = self.microarch.issue_width
        out: List[float] = []
        for block in blocks:
            instructions = block.instructions
            costs: List[float] = []
            best = 0.0
            # One fused pass: instruction costs and RAW hazard costs
            # (nearest writer, the RAW pairs of ``block.dependencies``) in
            # the same traversal.  Pair deduplication is dropped because
            # ``max`` is idempotent — a duplicate hazard pair cannot change
            # the block maximum.
            last_writer: Dict[tuple, int] = {}
            last_writer_get = last_writer.get
            for index, instruction in enumerate(instructions):
                cost = instruction.__dict__.get(cost_attr)
                if cost is None:
                    cost = self._memoised_throughput(instruction)
                    instruction.__dict__[cost_attr] = cost
                costs.append(cost)
                if cost > best:
                    best = cost
                accesses = instruction.__dict__.get("_tracked_accesses")
                if accesses is None:
                    accesses = _tracked_accesses(instruction)
                reads, writes = accesses
                for loc in reads:
                    source = last_writer_get(loc)
                    if source is not None:
                        dependency_cost = costs[source] + cost
                        if dependency_cost > best:
                            best = dependency_cost
                for loc in writes:
                    last_writer[loc] = index
            front_end = len(instructions) / issue_width
            if front_end > best:
                best = front_end
            out.append(best)
        return out


def feature_costs(block: BasicBlock, model: AnalyticalCostModel) -> FeatureCosts:
    """Per-feature cost contributions of ``block`` under model ``C``.

    The feature objects are identical to the ones
    :func:`repro.bb.features.extract_features` produces, so ground-truth
    explanations and COMET explanations can be compared with set operations.
    """
    out: FeatureCosts = []
    for index in range(block.num_instructions):
        feature = InstructionFeature.of(index, block[index])
        out.append((feature, model.cost_instruction(block, index)))
    for dependency in block.dependencies:
        feature = DependencyFeature.of(block, dependency)
        out.append((feature, model.cost_dependency(block, dependency)))
    out.append(
        (NumInstructionsFeature(block.num_instructions), model.cost_num_instructions(block))
    )
    return out


def ground_truth_explanations(
    block: BasicBlock, model: AnalyticalCostModel, *, tolerance: float = 1e-9
) -> List[Feature]:
    """``GT(β)`` (Eq. 9): every feature whose cost equals ``C(β)``.

    The returned list may contain several features (ties are common: e.g. a
    RAW dependency between two division instructions and the divisions
    themselves), in which case an explanation is judged accurate if it names
    at least one of them and nothing else (Section 6).
    """
    costs = feature_costs(block, model)
    maximum = max(cost for _, cost in costs)
    return [feature for feature, cost in costs if abs(cost - maximum) <= tolerance]


def ground_truth_feature_kinds(
    block: BasicBlock, model: AnalyticalCostModel
) -> Dict[str, int]:
    """Histogram of feature kinds in ``GT(β)`` (used by the fixed baseline)."""
    histogram: Dict[str, int] = {}
    for feature in ground_truth_explanations(block, model):
        histogram[feature.kind.value] = histogram.get(feature.kind.value, 0) + 1
    return histogram
