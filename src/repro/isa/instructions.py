"""The :class:`Instruction` value object and the data derived from it.

An instruction's locations, memory flags and hazard-tracked accesses come
from one :class:`AccessPlan` per mnemonic (built once from its
:class:`~repro.isa.opcodes.OpcodeSpec`) and its operands.  Derived data is
memoised on the instance that owns it, never in a table keyed by
:meth:`Instruction.key`: the key drops immediate widths, so two unequal
instructions can share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.isa.formatter import format_instruction, format_operand
from repro.isa.opcodes import OpcodeSpec, opcode_spec
from repro.isa.operands import (
    ImmediateOperand,
    MemoryOperand,
    Operand,
    RegisterOperand,
)
from repro.utils.memo import memoized_property

#: Symbolic location read or written by an instruction.  Register locations
#: are ``("reg", root)``; memory locations are ``("mem", address_key)``;
#: the flags register is ``("flags", "rflags")``.
Location = Tuple[str, object]

#: Register roots no hazard is tracked over: the hardware renames the flags,
#: and the stack engine renames ``rsp`` updates (see
#: :mod:`repro.bb.dependencies`).  Flags locations are never tracked either.
UNTRACKED_ROOTS: FrozenSet[str] = frozenset({"rflags", "rsp", "rip"})

_FLAGS: Location = ("flags", "rflags")

#: Memos that depend only on the mnemonic and each operand's (type, kind,
#: size), so a rewrite that keeps that shape shares them with its source:
#: the memory flags, validity (:mod:`repro.isa.validation`) and what other
#: layers add through :func:`declare_shape_memo`.
_SHAPE_MEMOS: Tuple[str, ...] = ("loads_memory", "stores_memory", "_is_valid")


def declare_shape_memo(name: str) -> None:
    """Declare ``name`` an instance memo that depends only on the shape, so
    same-shape rewrites carry it (the analytical model's per-uarch cost).

    The tuple is replaced, never mutated, so a concurrent rewrite iterates
    a consistent one; a declaration lost to a race only costs a recompute.
    """
    global _SHAPE_MEMOS
    if name not in _SHAPE_MEMOS:
        _SHAPE_MEMOS = _SHAPE_MEMOS + (name,)


@dataclass(frozen=True)
class AccessPlan:
    """How every instruction with one mnemonic accesses its locations.

    ``reads``/``writes`` are the implicit locations (implicit registers and
    the flags) and ``tracked_reads``/``tracked_writes`` their hazard-tracked
    part.  ``operand_reads``/``operand_writes`` hold the access of each
    explicit operand position; a position past the opcode's arity is read.
    ``loads``/``stores`` mark the implicit stack access of ``pop``/``push``.
    """

    reads: Tuple[Location, ...]
    writes: Tuple[Location, ...]
    tracked_reads: Tuple[Location, ...]
    tracked_writes: Tuple[Location, ...]
    operand_reads: Tuple[bool, ...]
    operand_writes: Tuple[bool, ...]
    loads: bool
    stores: bool

    @classmethod
    def of(cls, mnemonic: str, spec: OpcodeSpec) -> "AccessPlan":
        reads = tuple(("reg", root) for root in dict.fromkeys(spec.implicit_reads))
        writes = tuple(("reg", root) for root in dict.fromkeys(spec.implicit_writes))
        tracked_reads = tuple(loc for loc in reads if loc[1] not in UNTRACKED_ROOTS)
        tracked_writes = tuple(loc for loc in writes if loc[1] not in UNTRACKED_ROOTS)
        return cls(
            reads + ((_FLAGS,) if spec.reads_flags else ()),
            writes + ((_FLAGS,) if spec.writes_flags else ()),
            tracked_reads,
            tracked_writes,
            tuple(access.reads for access in spec.access),
            tuple(access.writes for access in spec.access),
            loads=mnemonic == "pop",
            stores=mnemonic == "push",
        )


_PLANS: Dict[str, AccessPlan] = {}


def access_plan(mnemonic: str) -> AccessPlan:
    """The (memoised) access plan of ``mnemonic``.

    Raises :class:`~repro.utils.errors.UnknownOpcodeError` for a mnemonic
    the opcode database does not know.
    """
    plan = _PLANS.get(mnemonic)
    if plan is None:
        plan = _PLANS[mnemonic] = AccessPlan.of(mnemonic, opcode_spec(mnemonic))
    return plan


def _locations(
    plan: AccessPlan,
    operands: Sequence[Operand],
    untracked: FrozenSet[str],
    reads: List[Location],
    writes: List[Location],
) -> Tuple[Tuple[Location, ...], Tuple[Location, ...]]:
    """Add the operands' locations to the implicit ``reads``/``writes``.

    Register roots in ``untracked`` are left out, and so is a location the
    list already holds.
    """
    operand_reads = plan.operand_reads
    operand_writes = plan.operand_writes
    arity = len(operand_reads)
    for position, operand in enumerate(operands):
        if isinstance(operand, RegisterOperand):
            root = operand.register.root
            if root in untracked:
                continue
            location: Location = ("reg", root)
        elif isinstance(operand, MemoryOperand):
            # Address registers are read, even for a pure-write operand.
            for register in (operand.base, operand.index):
                if register is not None and register.root not in untracked:
                    address: Location = ("reg", register.root)
                    if address not in reads:
                        reads.append(address)
            if operand.is_agen:
                continue
            location = ("mem", operand.address_key())
        else:
            continue
        if position >= arity:
            if location not in reads:
                reads.append(location)
            continue
        if operand_reads[position] and location not in reads:
            reads.append(location)
        if operand_writes[position] and location not in writes:
            writes.append(location)
    return tuple(reads), tuple(writes)


def _touches_memory(
    operands: Sequence[Operand], access: Tuple[bool, ...], past_arity: bool
) -> bool:
    """Whether a true memory operand sits at a position ``access`` marks
    (``past_arity`` stands for the positions beyond the opcode's arity)."""
    for position, operand in enumerate(operands):
        if isinstance(operand, MemoryOperand) and not operand.is_agen:
            if access[position] if position < len(access) else past_arity:
                return True
    return False


@dataclass(frozen=True)
class Instruction:
    """One x86 instruction: a mnemonic plus explicit operands.

    Instances are immutable; the perturbation algorithm builds modified
    copies via :meth:`with_mnemonic` / :meth:`with_operands`.
    """

    mnemonic: str
    operands: Tuple[Operand, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mnemonic", self.mnemonic.lower())

    # ------------------------------------------------------------------ spec

    @property
    def spec(self) -> OpcodeSpec:
        """The opcode database entry for this instruction's mnemonic."""
        return opcode_spec(self.mnemonic)

    @property
    def arity(self) -> int:
        return len(self.operands)

    # -------------------------------------------------------------- rewrites
    #
    # Every rewrite fills the copy's instance dict directly (skipping the
    # frozen-dataclass ``__init__``) and derives its key from this
    # instruction's key, formatting only the operands it changed.

    def _rewrite(
        self,
        mnemonic: str,
        operands: Tuple[Operand, ...],
        texts: Tuple[str, ...],
        same_shape: bool = False,
    ) -> "Instruction":
        fresh = object.__new__(Instruction)
        fields = fresh.__dict__
        fields["mnemonic"] = mnemonic
        fields["operands"] = operands
        fields["_key"] = (mnemonic, texts)
        if same_shape:
            source = self.__dict__
            for name in _SHAPE_MEMOS:
                if name in source:
                    fields[name] = source[name]
        return fresh

    def with_mnemonic(self, mnemonic: str) -> "Instruction":
        """Copy of this instruction with a different opcode."""
        mnemonic = mnemonic.lower()
        return self._rewrite(mnemonic, self.operands, self.key()[1])

    def with_operands(
        self, operands: Sequence[Operand], *, same_shape: bool = False
    ) -> "Instruction":
        """Copy of this instruction with a different operand tuple.

        ``same_shape=True`` promises each operand keeps its (type, kind,
        size) — a width-preserving register rename or a displacement
        shift — so the copy shares this instruction's memory flags,
        validity and per-uarch cost memos.
        """
        operands = tuple(operands)
        previous = self.operands
        if len(operands) == len(previous):
            texts = tuple(
                text if new is old else format_operand(new)
                for text, new, old in zip(self.key()[1], operands, previous)
            )
        else:
            texts = tuple(format_operand(op) for op in operands)
        return self._rewrite(self.mnemonic, operands, texts, same_shape)

    def with_operand(
        self, index: int, operand: Operand, *, same_shape: bool = False
    ) -> "Instruction":
        """Copy of this instruction with operand ``index`` replaced
        (``same_shape`` as for :meth:`with_operands`)."""
        operands = list(self.operands)
        operands[index] = operand
        return self.with_operands(operands, same_shape=same_shape)

    # ----------------------------------------------------- read / write sets

    @memoized_property
    def tracked_accesses(self) -> Tuple[Tuple[Location, ...], Tuple[Location, ...]]:
        """The hazard-tracked ``(reads, writes)``, each without duplicates.

        The dependency scan, the batched analytical model and the pipeline
        simulator read this one memo; it leaves out the flags and the
        :data:`UNTRACKED_ROOTS` registers, and never builds :attr:`reads`
        or :attr:`writes`.
        """
        plan = access_plan(self.mnemonic)
        return _locations(
            plan,
            self.operands,
            UNTRACKED_ROOTS,
            list(plan.tracked_reads),
            list(plan.tracked_writes),
        )

    def _all_locations(self) -> Tuple[Tuple[Location, ...], Tuple[Location, ...]]:
        plan = access_plan(self.mnemonic)
        return _locations(
            plan, self.operands, frozenset(), list(plan.reads), list(plan.writes)
        )

    @memoized_property
    def reads(self) -> FrozenSet[Location]:
        """Symbolic locations read by this instruction."""
        return frozenset(self._all_locations()[0])

    @memoized_property
    def writes(self) -> FrozenSet[Location]:
        """Symbolic locations written by this instruction."""
        return frozenset(self._all_locations()[1])

    # ------------------------------------------------------- classification

    @memoized_property
    def loads_memory(self) -> bool:
        """Whether this instruction reads from memory."""
        plan = access_plan(self.mnemonic)
        return plan.loads or _touches_memory(self.operands, plan.operand_reads, True)

    @memoized_property
    def stores_memory(self) -> bool:
        """Whether this instruction writes to memory."""
        plan = access_plan(self.mnemonic)
        return plan.stores or _touches_memory(self.operands, plan.operand_writes, False)

    @property
    def is_vector(self) -> bool:
        """Whether this is an SSE/AVX instruction."""
        return self.spec.is_vector

    @property
    def category(self) -> str:
        """The opcode's coarse category (used by the cost tables)."""
        return self.spec.category

    def memory_operand(self) -> Optional[MemoryOperand]:
        """The first true memory operand, if any."""
        for operand in self.operands:
            if isinstance(operand, MemoryOperand) and not operand.is_agen:
                return operand
        return None

    def register_operands(self) -> Tuple[RegisterOperand, ...]:
        """All explicit register operands."""
        return tuple(op for op in self.operands if isinstance(op, RegisterOperand))

    def immediate_operands(self) -> Tuple[ImmediateOperand, ...]:
        """All explicit immediate operands."""
        return tuple(op for op in self.operands if isinstance(op, ImmediateOperand))

    # ---------------------------------------------------------------- dunder

    def __str__(self) -> str:
        return format_instruction(self)

    def key(self) -> Tuple:
        """A hashable identity key (mnemonic plus formatted operands).

        Memoised per instance: instructions are immutable and shared between
        the original block and its perturbations, so block-level cache keys
        are mostly assembled from already-formatted parts.  Rewrites carry
        theirs from the start.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = (self.mnemonic, tuple(format_operand(op) for op in self.operands))
            self.__dict__["_key"] = cached
        return cached
