"""Out-of-order pipeline simulator (the simulation substrate behind uiCA).

The paper evaluates COMET on uiCA, a hand-engineered simulator of recent
Intel pipelines.  uiCA itself is not available offline, so this module
implements a simplified out-of-order core simulator with the components that
dominate basic-block throughput on Haswell/Skylake-class machines:

* an in-order front end issuing ``issue_width`` micro-ops per cycle,
* per-port execution with port contention (a uop occupies the least-loaded
  port among the ports its instruction class may use),
* non-pipelined execution units (division) occupying their port for the
  instruction's full reciprocal throughput,
* true (RAW) register and memory dependencies, including loop-carried
  dependencies, with load-to-use latency and store-to-load forwarding,
* optional idiom handling (register move elimination, zero idioms) used by
  the "hardware oracle" configuration of the dataset generator.

The simulator executes the block in a steady-state loop (the BHive
measurement methodology) and reports cycles per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bb.block import BasicBlock
from repro.isa.instructions import Instruction, Location
from repro.isa.operands import RegisterOperand
from repro.uarch.microarch import MicroArchitecture, get_microarch
from repro.uarch.tables import InstructionCost, instruction_cost_for


@dataclass(frozen=True)
class SimulationConfig:
    """Detail knobs of the pipeline simulator.

    ``measured_iterations``/``warmup_iterations`` control the steady-state
    measurement; the elimination flags model renamer idioms that the more
    detailed "hardware oracle" configuration enables.
    """

    measured_iterations: int = 12
    warmup_iterations: int = 3
    move_elimination: bool = False
    zero_idiom_elimination: bool = False
    store_forwarding_latency: int = 5
    frontend_bandwidth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.measured_iterations < 1:
            raise ValueError("measured_iterations must be >= 1")
        if self.warmup_iterations < 0:
            raise ValueError("warmup_iterations must be >= 0")


@dataclass
class SimulationResult:
    """Outcome of simulating one block."""

    throughput: float
    total_cycles: float
    port_pressure: Dict[str, float]
    frontend_bound: float
    port_bound: float
    dependency_bound: float

    @property
    def bottleneck(self) -> str:
        """Which resource limits this block (``frontend``/``ports``/``dependencies``)."""
        bounds = {
            "frontend": self.frontend_bound,
            "ports": self.port_bound,
            "dependencies": self.dependency_bound,
        }
        return max(bounds, key=lambda k: bounds[k])


def _is_reg_move(instruction: Instruction) -> bool:
    return (
        instruction.mnemonic in ("mov", "movaps", "movups", "movdqa", "vmovaps", "vmovups")
        and len(instruction.operands) == 2
        and all(isinstance(op, RegisterOperand) for op in instruction.operands)
    )


def _is_zero_idiom(instruction: Instruction) -> bool:
    if instruction.mnemonic not in ("xor", "pxor", "xorps", "vpxor", "vxorps", "sub"):
        return False
    ops = instruction.operands
    if len(ops) == 2 and all(isinstance(op, RegisterOperand) for op in ops):
        return ops[0].register.root == ops[1].register.root
    if len(ops) == 3 and all(isinstance(op, RegisterOperand) for op in ops):
        return ops[1].register.root == ops[2].register.root
    return False


@dataclass
class _StaticInstruction:
    """Per-static-instruction data precomputed before the iteration loop."""

    instruction: Instruction
    cost: InstructionCost
    reads: Tuple[Location, ...]
    writes: Tuple[Location, ...]
    eliminated: bool
    breaks_dependency: bool


class PipelineSimulator:
    """Steady-state loop simulator for one micro-architecture."""

    def __init__(self, microarch="hsw", config: Optional[SimulationConfig] = None) -> None:
        self.microarch: MicroArchitecture = get_microarch(microarch)
        self.config = config or SimulationConfig()

    # ----------------------------------------------------------------- API

    def simulate(self, block: BasicBlock) -> SimulationResult:
        """Simulate ``block`` looped in steady state and return its metrics."""
        statics = [self._prepare(inst) for inst in block]
        config = self.config
        width = config.frontend_bandwidth or self.microarch.issue_width

        register_ready: Dict[Location, float] = {}
        port_free: Dict[str, float] = {p: 0.0 for p in self.microarch.ports}
        port_busy: Dict[str, float] = {p: 0.0 for p in self.microarch.ports}

        frontend_cycle = 0.0
        slots_left = float(width)

        total_iterations = config.warmup_iterations + config.measured_iterations
        iteration_end: List[float] = []
        last_finish = 0.0

        for _ in range(total_iterations):
            for static in statics:
                # -- front end ------------------------------------------------
                uop_count = 0 if static.eliminated else static.cost.total_uops
                uop_count = max(uop_count, 1)  # even eliminated uops are renamed
                issue_time = frontend_cycle
                remaining = uop_count
                while remaining > 0:
                    take = min(remaining, slots_left)
                    remaining -= take
                    slots_left -= take
                    issue_time = frontend_cycle
                    if slots_left <= 0:
                        frontend_cycle += 1.0
                        slots_left = float(width)

                if static.eliminated:
                    # Renamer handles the move/zero idiom: result is ready
                    # immediately after its sources (or unconditionally for
                    # zero idioms), no execution ports are used.
                    ready = issue_time
                    if not static.breaks_dependency:
                        for loc in static.reads:
                            ready = max(ready, register_ready.get(loc, 0.0))
                    finish = ready
                    for loc in static.writes:
                        register_ready[loc] = finish
                    last_finish = max(last_finish, finish)
                    continue

                # -- dependencies ---------------------------------------------
                ready = issue_time
                if not static.breaks_dependency:
                    for loc in static.reads:
                        ready = max(ready, register_ready.get(loc, 0.0))

                # -- execution ports ------------------------------------------
                start = ready
                dispatch_time = start
                for uop_index, uop in enumerate(static.cost.uops):
                    for _ in range(uop.count):
                        # Tie-break equally-loaded ports by name: port sets are
                        # frozensets of str, whose iteration order follows the
                        # per-process hash seed — an unkeyed min() would make
                        # simulated throughput differ between interpreter
                        # launches (and between spawn-style backend workers).
                        port = min(uop.ports, key=lambda p: (port_free[p], p))
                        port_start = max(start, port_free[port])
                        occupancy = 1.0
                        if uop_index == 0 and static.cost.throughput > 1.0:
                            occupancy = float(static.cost.throughput)
                        port_free[port] = port_start + occupancy
                        port_busy[port] += occupancy
                        dispatch_time = max(dispatch_time, port_start)

                finish = dispatch_time + max(static.cost.latency, 1.0)
                for loc in static.writes:
                    register_ready[loc] = finish
                last_finish = max(last_finish, finish)
            iteration_end.append(max(frontend_cycle, last_finish))

        warm = config.warmup_iterations
        if warm > 0:
            cycles = iteration_end[-1] - iteration_end[warm - 1]
        else:
            cycles = iteration_end[-1]
        throughput = max(cycles / config.measured_iterations, 0.05)

        total_uops = sum(
            max(1, 0 if s.eliminated else s.cost.total_uops) for s in statics
        )
        frontend_bound = total_uops / width
        port_bound = (
            max(port_busy.values()) / total_iterations if port_busy else 0.0
        )
        dependency_bound = self._dependency_bound(block, statics)

        return SimulationResult(
            throughput=throughput,
            total_cycles=iteration_end[-1],
            port_pressure={
                p: busy / total_iterations for p, busy in port_busy.items()
            },
            frontend_bound=frontend_bound,
            port_bound=port_bound,
            dependency_bound=dependency_bound,
        )

    def throughput(self, block: BasicBlock) -> float:
        """Convenience wrapper returning only the steady-state throughput.

        ``simulate`` keeps all mutable state in locals, so concurrent calls
        (e.g. :class:`~repro.models.uica.UiCACostModel`'s thread fan-out)
        are safe.
        """
        return self.simulate(block).throughput

    # ------------------------------------------------------------ internals

    def _prepare(self, instruction: Instruction) -> _StaticInstruction:
        cost = instruction_cost_for(instruction, self.microarch)
        eliminated = False
        breaks_dependency = False
        if self.config.zero_idiom_elimination and _is_zero_idiom(instruction):
            eliminated = True
            breaks_dependency = True
        elif self.config.move_elimination and _is_reg_move(instruction):
            eliminated = True
        # Flags and stack-pointer updates are renamed away: schedule over
        # the hazard-tracked accesses only.
        reads, writes = instruction.tracked_accesses
        return _StaticInstruction(
            instruction=instruction,
            cost=cost,
            reads=reads,
            writes=writes,
            eliminated=eliminated,
            breaks_dependency=breaks_dependency,
        )

    def _dependency_bound(
        self, block: BasicBlock, statics: List[_StaticInstruction]
    ) -> float:
        """Latency of the longest loop-carried RAW chain, per iteration.

        A cheap lower bound: sum of latencies along the longest RAW path when
        the path wraps around the loop (producer in one iteration feeding a
        consumer in the next).  Used only for bottleneck classification.
        """
        best = 0.0
        latencies = [max(s.cost.latency, 1.0) for s in statics]
        from repro.bb.dependencies import DependencyKind

        chain: Dict[int, float] = {}
        for dep in block.dependencies:
            if dep.kind is not DependencyKind.RAW:
                continue
            src_latency = chain.get(dep.source, latencies[dep.source])
            candidate = src_latency + latencies[dep.destination]
            if candidate > chain.get(dep.destination, 0.0):
                chain[dep.destination] = candidate
            best = max(best, candidate)
        return best
