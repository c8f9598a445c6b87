"""Operand model: registers, memory references, immediates.

Operands are immutable value objects.  The perturbation algorithm rewrites
instructions by *replacing* operands rather than mutating them, which keeps
perturbed blocks independent of the original block object.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet, Optional, Tuple

from repro.isa.registers import Register


class OperandKind(str, Enum):
    """Operand kinds used in opcode signatures.

    ``AGEN`` is the address-generation operand of ``lea``: syntactically a
    memory reference but semantically neither a load nor a store.  Keeping it
    a separate kind means no other opcode's signature matches an ``lea``
    instruction, which reproduces the paper's observation (Appendix D) that
    ``lea`` has no valid opcode replacements.
    """

    REGISTER = "reg"
    MEMORY = "mem"
    IMMEDIATE = "imm"
    AGEN = "agen"
    LABEL = "label"


class Operand:
    """Base class for all operand types."""

    kind: OperandKind
    size: int

    def registers_read(self) -> Tuple[Register, ...]:
        """Registers read merely by *evaluating* this operand (e.g. address)."""
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.isa.formatter import format_operand

        return f"<{type(self).__name__} {format_operand(self)}>"


@dataclass(frozen=True, repr=False)
class RegisterOperand(Operand):
    """A direct register operand."""

    register: Register

    @property
    def kind(self) -> OperandKind:
        return OperandKind.REGISTER

    @property
    def size(self) -> int:
        return self.register.width

    def registers_read(self) -> Tuple[Register, ...]:
        return ()

    def with_register(self, new_register: Register) -> "RegisterOperand":
        """Return a copy referring to ``new_register``."""
        return RegisterOperand(new_register)


@dataclass(frozen=True, repr=False)
class MemoryOperand(Operand):
    """A memory reference ``[base + index*scale + displacement]``.

    ``access_size`` is the width of the memory access in bits (from the
    ``qword ptr`` style prefix, or inferred from the other operand during
    parsing).  ``is_agen`` marks the operand of ``lea``.
    """

    base: Optional[Register] = None
    index: Optional[Register] = None
    scale: int = 1
    displacement: int = 0
    access_size: int = 64
    is_agen: bool = False

    def __post_init__(self) -> None:
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"invalid scale {self.scale}; must be 1, 2, 4 or 8")
        if self.base is None and self.index is None and self.displacement == 0:
            raise ValueError("memory operand needs a base, index or displacement")

    @property
    def kind(self) -> OperandKind:
        return OperandKind.AGEN if self.is_agen else OperandKind.MEMORY

    @property
    def size(self) -> int:
        return self.access_size

    def registers_read(self) -> Tuple[Register, ...]:
        regs = []
        if self.base is not None:
            regs.append(self.base)
        if self.index is not None:
            regs.append(self.index)
        return tuple(regs)

    def address_key(self) -> Tuple[Optional[str], Optional[str], int, int]:
        """A hashable key identifying the symbolic address.

        Two memory operands with equal keys refer to the same location for
        dependency purposes; differing keys are conservatively treated as
        distinct locations (the same simplification BHive-style tooling makes
        for straight-line code).
        """
        return (
            self.base.root if self.base else None,
            self.index.root if self.index else None,
            self.scale,
            self.displacement,
        )

    def with_fields(self, **changes) -> "MemoryOperand":
        """Return a copy with the given fields replaced.

        Γ renames address registers and shifts displacements through here,
        so the copy fills its instance dict directly instead of going
        through :func:`dataclasses.replace`, then runs the same checks.
        """
        copy = object.__new__(MemoryOperand)
        fields = copy.__dict__
        fields.update(self.__dict__)
        for name, value in changes.items():
            if name not in fields:
                raise TypeError(f"MemoryOperand has no field {name!r}")
            fields[name] = value
        copy.__post_init__()
        return copy


@dataclass(frozen=True, repr=False)
class ImmediateOperand(Operand):
    """A constant operand."""

    value: int
    width: int = 32

    @property
    def kind(self) -> OperandKind:
        return OperandKind.IMMEDIATE

    @property
    def size(self) -> int:
        return self.width

    def with_value(self, value: int) -> "ImmediateOperand":
        """Return a copy holding ``value``."""
        return ImmediateOperand(value, self.width)


@dataclass(frozen=True, repr=False)
class LabelOperand(Operand):
    """A symbolic label (only used to reject branch-like instructions)."""

    name: str

    @property
    def kind(self) -> OperandKind:
        return OperandKind.LABEL

    @property
    def size(self) -> int:
        return 0


def operand_kinds(operands: Tuple[Operand, ...]) -> Tuple[OperandKind, ...]:
    """Kinds of each operand, in order."""
    return tuple(op.kind for op in operands)


def memory_operands(operands: Tuple[Operand, ...]) -> Tuple[MemoryOperand, ...]:
    """All true memory (non-AGEN) operands among ``operands``."""
    return tuple(
        op for op in operands if isinstance(op, MemoryOperand) and not op.is_agen
    )


ALL_KINDS: FrozenSet[OperandKind] = frozenset(OperandKind)
