"""Data-dependency analysis for basic blocks.

The paper's multigraph has one directed edge per data-dependency hazard
between an instruction pair, labelled with the hazard type (Appendix B):

* **RAW** (read-after-write, true dependency): a later instruction reads a
  location the earlier one wrote.
* **WAR** (write-after-read, anti dependency): a later instruction writes a
  location the earlier one read.
* **WAW** (write-after-write, output dependency): both write the same
  location.

Modelling choices (documented because they shape the feature space):

* Flags-register hazards are ignored — almost every ALU instruction writes
  flags, so including them would connect nearly every instruction pair and
  drown the meaningful dependencies (hardware renames flags anyway).
* Stack-pointer hazards from ``push``/``pop`` are ignored for the same reason
  (the stack engine renames ``rsp`` updates).  The excluded register roots
  are :data:`repro.isa.instructions.UNTRACKED_ROOTS`.
* Only the *nearest* hazard is reported: for RAW the reader depends on the
  last writer of the location; earlier writers are shadowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from repro.isa.instructions import Instruction, Location


class DependencyKind(str, Enum):
    """Hazard types between an instruction pair."""

    RAW = "RAW"
    WAR = "WAR"
    WAW = "WAW"

    @property
    def is_true_dependency(self) -> bool:
        """Whether this hazard is a true (dataflow) dependency."""
        return self is DependencyKind.RAW


@dataclass(frozen=True)
class Dependency:
    """One data-dependency hazard between two instructions of a block.

    ``source`` and ``destination`` are instruction indices with
    ``source < destination`` (program order); ``location`` is the symbolic
    register root or memory address over which the hazard occurs.
    """

    source: int
    destination: int
    kind: DependencyKind
    location: Location

    def __post_init__(self) -> None:
        if self.source >= self.destination:
            raise ValueError(
                f"dependency source {self.source} must precede destination "
                f"{self.destination}"
            )

    @property
    def location_space(self) -> str:
        """``"reg"`` or ``"mem"`` — where the hazard lives."""
        return self.location[0]

    def label(self) -> str:
        """Human-readable label, e.g. ``RAW(1→2 over rcx)``."""
        loc = self.location[1]
        loc_text = loc if isinstance(loc, str) else "mem"
        return f"{self.kind.value}({self.source}→{self.destination} over {loc_text})"


#: One hazard: ``(source, destination, kind, location)``.
Hazard = Tuple[int, int, DependencyKind, Location]

#: What the coverage index matches a dependency feature against:
#: ``(kind, location space, source mnemonic, destination mnemonic)``.
DependencySignature = Tuple[DependencyKind, str, str, str]


def _hazards(instructions: Sequence[Instruction]) -> Iterator[Hazard]:
    """Every nearest hazard, in scan order, possibly more than once.

    Reads the hazard-tracked accesses each instruction memoises
    (:attr:`~repro.isa.instructions.Instruction.tracked_accesses`: no flags,
    ``rsp`` or ``rip``).  Every writer and reader recorded so far precedes
    the instruction being scanned, so ``source < destination`` always.
    """
    last_writer: Dict[Location, int] = {}
    readers_since_write: Dict[Location, Set[int]] = {}
    for index, instruction in enumerate(instructions):
        reads, writes = instruction.tracked_accesses
        for loc in reads:
            writer = last_writer.get(loc)
            if writer is not None:
                yield writer, index, DependencyKind.RAW, loc
        for loc in writes:
            writer = last_writer.get(loc)
            if writer is not None:
                yield writer, index, DependencyKind.WAW, loc
            for reader in readers_since_write.get(loc, ()):
                yield reader, index, DependencyKind.WAR, loc

        for loc in reads:
            readers_since_write.setdefault(loc, set()).add(index)
        for loc in writes:
            last_writer[loc] = index
            readers_since_write[loc] = set()


def find_dependencies(instructions: Sequence[Instruction]) -> List[Dependency]:
    """All data-dependency hazards of a block, in program order.

    Multiple hazards (possibly of different kinds) may exist between the same
    instruction pair; each is reported separately, matching the multigraph
    construction of Section 5.1.
    """
    seen: Set[Hazard] = set()
    dependencies: List[Dependency] = []
    for hazard in _hazards(instructions):
        if hazard not in seen:
            seen.add(hazard)
            dependencies.append(Dependency(*hazard))
    dependencies.sort(key=lambda d: (d.source, d.destination, d.kind.value, str(d.location)))
    return dependencies


def dependency_signatures(
    instructions: Sequence[Instruction],
) -> FrozenSet[DependencySignature]:
    """The :data:`DependencySignature` of every hazard :func:`find_dependencies`
    reports, from the same scan, without building or sorting
    :class:`Dependency` objects."""
    return frozenset(
        (kind, location[0], instructions[source].mnemonic, instructions[destination].mnemonic)
        for source, destination, kind, location in _hazards(instructions)
    )


def dependencies_between(
    dependencies: Sequence[Dependency], source: int, destination: int
) -> List[Dependency]:
    """All hazards between one ordered instruction pair."""
    return [
        d
        for d in dependencies
        if d.source == source and d.destination == destination
    ]


def true_dependency_chains(
    instructions: Sequence[Instruction], dependencies: Sequence[Dependency]
) -> List[List[int]]:
    """Maximal RAW chains (used by tests and by the analytical case studies)."""
    raw_successors: Dict[int, List[int]] = {}
    has_predecessor: Set[int] = set()
    for dep in dependencies:
        if dep.kind is DependencyKind.RAW:
            raw_successors.setdefault(dep.source, []).append(dep.destination)
            has_predecessor.add(dep.destination)

    chains: List[List[int]] = []

    def walk(node: int, path: List[int]) -> None:
        successors = raw_successors.get(node, [])
        if not successors:
            if len(path) > 1:
                chains.append(list(path))
            return
        for nxt in successors:
            walk(nxt, path + [nxt])

    for start in range(len(instructions)):
        if start not in has_predecessor and start in raw_successors:
            walk(start, [start])
    return chains
