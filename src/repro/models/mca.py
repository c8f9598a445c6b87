"""LLVM-MCA-style bound-based cost model.

LLVM-MCA estimates block throughput mainly from port pressure and the length
of dependency chains without simulating the front end cycle by cycle.  The
paper cites it as a higher-error traditional model (Abel & Reineke 2022,
Table 1); this reproduction includes an analogous baseline:

``predict(β) = max(front-end bound, port-pressure bound, RAW critical path / II)``

It is used as an additional comparison model in the examples and as a sanity
bound in tests (a correct simulator should rarely predict below it).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.bb.block import BasicBlock
from repro.bb.dependencies import DependencyKind
from repro.bb.multigraph import DependencyGraph
from repro.models.base import CostModel
from repro.runtime.backend import ExecutionBackend
from repro.uarch.tables import block_reciprocal_throughput_bound, instruction_cost_for


class PortPressureCostModel(CostModel):
    """Throughput prediction from static port-pressure and latency bounds."""

    def __init__(
        self,
        microarch="hsw",
        *,
        dependency_weight: float = 0.5,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        super().__init__(microarch)
        if not 0.0 <= dependency_weight <= 1.0:
            raise ValueError("dependency_weight must be in [0, 1]")
        self.dependency_weight = dependency_weight
        self.name = f"port-pressure-{self.microarch.short_name}"
        if backend is not None:
            self.set_backend(backend)

    def _predict(self, block: BasicBlock) -> float:
        resource_bound = block_reciprocal_throughput_bound(
            block.instructions, self.microarch
        )
        dependency_bound = self._loop_carried_latency(block)
        return max(resource_bound, self.dependency_weight * dependency_bound, 0.05)

    def _predict_batch(self, blocks: Sequence[BasicBlock]) -> List[float]:
        # Bound computations are independent per block; fan out when allowed.
        return self._fanout_predict_batch(blocks)

    def _loop_carried_latency(self, block: BasicBlock) -> float:
        """Longest RAW chain latency within one iteration of the block."""
        graph = DependencyGraph.of(block)

        def latency_of(index: int) -> float:
            return max(instruction_cost_for(block[index], self.microarch).latency, 1.0)

        return graph.critical_path_length(latency_of)
