"""The :class:`BasicBlock` value object.

A basic block is an ordered sequence of instructions with no control flow in
or out of the middle.  Blocks are immutable: the perturbation algorithm always
builds new blocks rather than mutating existing ones, so a cost model's cache
or an explanation's record of the original block can never be corrupted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from repro.bb.dependencies import Dependency, find_dependencies
from repro.isa.formatter import format_block_lines, format_instruction
from repro.isa.instructions import Instruction
from repro.isa.parser import parse_block_text
from repro.isa.validation import validate_block_instructions
from repro.utils.errors import ValidationError
from repro.utils.memo import memoized_property

_EMPTY_BLOCK = "a basic block must contain at least one instruction"


class BlockCategory(str, Enum):
    """BHive-style block categories (Chen et al., 2019; paper Appendix H.1).

    Blocks that touch memory are categorised by their access pattern; pure
    compute blocks by whether they use scalar, vector or both kinds of
    instructions.
    """

    LOAD = "Load"
    STORE = "Store"
    LOAD_STORE = "Load/Store"
    SCALAR = "Scalar"
    VECTOR = "Vector"
    SCALAR_VECTOR = "Scalar/Vector"


@dataclass(frozen=True)
class BasicBlock:
    """An immutable sequence of instructions plus optional metadata.

    Attributes
    ----------
    instructions:
        The instructions in program order.
    source:
        Optional provenance tag mimicking BHive's "source" partition
        (e.g. ``"clang"`` or ``"openblas"``).
    block_id:
        Optional stable identifier assigned by the dataset generator.
    """

    instructions: Tuple[Instruction, ...]
    source: Optional[str] = None
    block_id: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", tuple(self.instructions))
        if len(self.instructions) == 0:
            raise ValidationError(_EMPTY_BLOCK)

    # ------------------------------------------------------------- creation

    @classmethod
    def from_text(
        cls,
        text: str,
        *,
        source: Optional[str] = None,
        block_id: Optional[str] = None,
        validate: bool = True,
    ) -> "BasicBlock":
        """Parse a multi-line Intel-syntax listing into a block."""
        instructions = tuple(parse_block_text(text))
        if validate:
            validate_block_instructions(instructions)
        return cls(instructions, source=source, block_id=block_id)

    @classmethod
    def from_instructions(
        cls,
        instructions: Sequence[Instruction],
        *,
        source: Optional[str] = None,
        block_id: Optional[str] = None,
        validate: bool = True,
    ) -> "BasicBlock":
        """Build a block from already-constructed instructions."""
        instructions = tuple(instructions)
        if validate:
            validate_block_instructions(instructions)
        return cls(instructions, source=source, block_id=block_id)

    # ------------------------------------------------------------ properties

    @property
    def num_instructions(self) -> int:
        """Number of instructions in the block (the paper's ``η`` feature)."""
        return len(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    @memoized_property
    def text(self) -> str:
        """The block formatted back to Intel syntax, one instruction per line."""
        return format_block_lines(self.instructions)

    @memoized_property
    def dependencies(self) -> Tuple[Dependency, ...]:
        """All data-dependency hazards of this block."""
        return tuple(find_dependencies(self.instructions))

    @memoized_property
    def category(self) -> BlockCategory:
        """The BHive-style category of this block."""
        return classify_block(self)

    def key(self) -> Tuple:
        """Hashable content key (ignores metadata) for caching and dedup.

        Memoised on the instance: the query cache, session sharding and the
        result cache all re-key the same block objects in hot loops.
        """
        key = self.__dict__.get("_key")
        if key is None:
            # Inlined Instruction.key() memo: perturbed blocks are keyed once
            # each on the model-cache hot path, where the per-instruction
            # method-call overhead was measurable.
            key = self.__dict__["_key"] = tuple(
                inst.__dict__.get("_key") or inst.key()
                for inst in self.instructions
            )
        return key

    def __hash__(self) -> int:
        return hash(self.key())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasicBlock):
            return NotImplemented
        return self.key() == other.key()

    # -------------------------------------------------------------- rewrite

    def with_instructions(self, instructions: Sequence[Instruction]) -> "BasicBlock":
        """A copy of this block (keeping metadata) with new instructions.

        Γ builds every perturbed block through here, so the copy skips the
        frozen-dataclass ``__init__`` (one ``object.__setattr__`` per field
        plus ``__post_init__``) and fills the instance dict directly.  The
        result is indistinguishable from ``BasicBlock(...)``.
        """
        instructions = tuple(instructions)
        if not instructions:
            raise ValidationError(_EMPTY_BLOCK)
        block = object.__new__(BasicBlock)
        fields = block.__dict__
        fields["instructions"] = instructions
        fields["source"] = self.source
        fields["block_id"] = self.block_id
        return block

    def replace_instruction(self, index: int, instruction: Instruction) -> "BasicBlock":
        """A copy with the instruction at ``index`` replaced."""
        new = list(self.instructions)
        new[index] = instruction
        return self.with_instructions(new)

    def delete_instruction(self, index: int) -> "BasicBlock":
        """A copy with the instruction at ``index`` removed."""
        new = list(self.instructions)
        del new[index]
        return self.with_instructions(new)

    # --------------------------------------------------------------- dunder

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        summary = "; ".join(format_instruction(i) for i in self.instructions[:3])
        if len(self.instructions) > 3:
            summary += "; ..."
        return f"<BasicBlock n={self.num_instructions} [{summary}]>"


def classify_block(block: BasicBlock) -> BlockCategory:
    """Assign a BHive-style category to ``block`` (see :class:`BlockCategory`)."""
    loads = any(inst.loads_memory for inst in block)
    stores = any(inst.stores_memory for inst in block)
    if loads and stores:
        return BlockCategory.LOAD_STORE
    if loads:
        return BlockCategory.LOAD
    if stores:
        return BlockCategory.STORE
    vector = any(inst.is_vector for inst in block)
    scalar = any(not inst.is_vector and inst.category != "nop" for inst in block)
    if vector and scalar:
        return BlockCategory.SCALAR_VECTOR
    if vector:
        return BlockCategory.VECTOR
    return BlockCategory.SCALAR
