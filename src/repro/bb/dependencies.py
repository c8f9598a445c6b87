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
  (the stack engine renames ``rsp`` updates).
* Only the *nearest* hazard is reported: for RAW the reader depends on the
  last writer of the location; earlier writers are shadowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence, Set, Tuple

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


#: Locations excluded from hazard detection (see module docstring).
_IGNORED_ROOTS = {"rflags", "rsp", "rip"}


def _tracked(location: Location) -> bool:
    space, payload = location
    if space == "flags":
        return False
    if space == "reg" and payload in _IGNORED_ROOTS:
        return False
    return True


def _tracked_accesses(
    instruction: Instruction,
) -> Tuple[Tuple[Location, ...], Tuple[Location, ...]]:
    """The instruction's hazard-tracked ``(reads, writes)``, memoised.

    Perturbed blocks share :class:`Instruction` instances heavily (opcode
    replacements and renames are cached objects), and both the dependency
    scan and the batched analytical model re-filter the same read/write sets
    thousands of times per explanation; caching the filtered tuples on the
    instance makes the filter a dict lookup after the first visit.
    """
    cached = instruction.__dict__.get("_tracked_accesses")
    if cached is None:
        reads = tuple(loc for loc in instruction.reads if _tracked(loc))
        writes = tuple(loc for loc in instruction.writes if _tracked(loc))
        cached = instruction.__dict__["_tracked_accesses"] = (reads, writes)
    return cached


def find_dependencies(instructions: Sequence[Instruction]) -> List[Dependency]:
    """All data-dependency hazards of a block, in program order.

    Multiple hazards (possibly of different kinds) may exist between the same
    instruction pair; each is reported separately, matching the multigraph
    construction of Section 5.1.
    """
    last_writer: Dict[Location, int] = {}
    readers_since_write: Dict[Location, Set[int]] = {}
    dependencies: List[Dependency] = []
    seen: Set[Tuple[int, int, DependencyKind, Location]] = set()

    def emit(src: int, dst: int, kind: DependencyKind, loc: Location) -> None:
        key = (src, dst, kind, loc)
        if src < dst and key not in seen:
            seen.add(key)
            dependencies.append(Dependency(src, dst, kind, loc))

    for index, instruction in enumerate(instructions):
        reads, writes = _tracked_accesses(instruction)

        for loc in reads:
            if loc in last_writer:
                emit(last_writer[loc], index, DependencyKind.RAW, loc)
        for loc in writes:
            if loc in last_writer:
                emit(last_writer[loc], index, DependencyKind.WAW, loc)
            for reader in readers_since_write.get(loc, ()):  # WAR hazards
                if reader != index:
                    emit(reader, index, DependencyKind.WAR, loc)

        for loc in reads:
            readers_since_write.setdefault(loc, set()).add(index)
        for loc in writes:
            last_writer[loc] = index
            readers_since_write[loc] = set()

    dependencies.sort(key=lambda d: (d.source, d.destination, d.kind.value, str(d.location)))
    return dependencies


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
