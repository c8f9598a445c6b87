"""Replacement pools used by the perturbation algorithm.

Two kinds of perturbation primitives need candidate pools:

* **opcode replacement** (vertex perturbation): all opcodes that accept the
  instruction's existing operand list (Section 5.2 / Appendix D),
* **register renaming** (edge perturbation): all registers of the same class
  and width that can stand in for an operand register when a data dependency
  is broken.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bb.block import BasicBlock
from repro.isa.instructions import Instruction
from repro.isa.opcodes import replacement_candidates
from repro.isa.operands import ImmediateOperand, MemoryOperand, Operand, RegisterOperand
from repro.isa.registers import Register, same_size_registers
from repro.utils.rng import choice


def opcode_replacements(instruction: Instruction) -> List[str]:
    """All opcodes that could replace ``instruction``'s mnemonic.

    Thin wrapper over :func:`repro.isa.opcodes.replacement_candidates`; kept
    here so the perturber has a single import point and so the replacement
    policy can be tightened in one place if needed.
    """
    return replacement_candidates(instruction.mnemonic, instruction.operands)


def block_register_roots(block: BasicBlock) -> Set[str]:
    """Roots of every register referenced anywhere in ``block``."""
    roots: Set[str] = set()
    for instruction in block:
        for operand in instruction.operands:
            if isinstance(operand, RegisterOperand):
                roots.add(operand.register.root)
            elif isinstance(operand, MemoryOperand):
                for reg in operand.registers_read():
                    roots.add(reg.root)
    return roots


def register_renaming_candidates(
    register: Register,
    *,
    forbidden_roots: Sequence[str] = (),
    prefer_unused_in: Optional[BasicBlock] = None,
) -> List[Register]:
    """Registers that may replace ``register`` when breaking a dependency.

    Candidates have the same class and width and do not alias any root in
    ``forbidden_roots``.  When ``prefer_unused_in`` is given and at least one
    candidate is not referenced by that block, the candidate list is narrowed
    to those unused registers so that the renaming does not accidentally
    introduce a *new* dependency.
    """
    forbidden = set(forbidden_roots)
    candidates = [
        reg
        for reg in same_size_registers(register)
        if reg.root not in forbidden
    ]
    if prefer_unused_in is not None and candidates:
        used = block_register_roots(prefer_unused_in)
        unused = [reg for reg in candidates if reg.root not in used]
        if unused:
            return unused
    return candidates


def random_register_rename(
    rng: np.random.Generator,
    register: Register,
    *,
    forbidden_roots: Sequence[str] = (),
    prefer_unused_in: Optional[BasicBlock] = None,
) -> Optional[Register]:
    """Pick a replacement register uniformly, or ``None`` if none exists."""
    candidates = register_renaming_candidates(
        register,
        forbidden_roots=forbidden_roots,
        prefer_unused_in=prefer_unused_in,
    )
    if not candidates:
        return None
    return choice(rng, candidates)


def random_immediate(rng: np.random.Generator, operand: ImmediateOperand) -> ImmediateOperand:
    """A random immediate of the same width (used by whole-instruction replacement)."""
    if operand.width <= 8:
        value = int(rng.integers(0, 128))
    else:
        value = int(rng.integers(0, 4096))
    return operand.with_value(value)


#: (root, width) -> Register, filled lazily; the register file is static.
_FAMILY_MEMBERS: Dict[Tuple[str, int], Optional[Register]] = {}


def _family_member(root: str, width: int) -> Optional[Register]:
    key = (root, width)
    if key not in _FAMILY_MEMBERS:
        from repro.isa.registers import REGISTERS

        found = None
        for reg in REGISTERS.values():
            if reg.root == root and reg.width == width:
                found = reg
                break
        _FAMILY_MEMBERS[key] = found
    return _FAMILY_MEMBERS[key]


def rename_register_in_instruction(
    instruction: Instruction,
    old_root: str,
    new_register: Register,
) -> Instruction:
    """Replace every reference to ``old_root`` in ``instruction``.

    Register operands keep their width: renaming ``ecx`` to the ``rbx`` family
    yields ``ebx``.  Memory base/index registers are renamed to the 64-bit
    member of the new family (addresses are always 64-bit in our blocks).
    A width-preserving rename keeps every operand's shape, so the copy
    shares the instruction's shape memos (see
    :meth:`~repro.isa.instructions.Instruction.with_operands`).
    """
    reshaped = False

    def family_member(width: int) -> Register:
        nonlocal reshaped
        member = _family_member(new_register.root, width)
        if member is None:
            reshaped = True
            return new_register
        return member

    new_operands: List[Operand] = []
    for operand in instruction.operands:
        if isinstance(operand, RegisterOperand) and operand.register.root == old_root:
            new_operands.append(operand.with_register(family_member(operand.register.width)))
        elif isinstance(operand, MemoryOperand):
            base = operand.base
            index = operand.index
            changed = False
            if base is not None and base.root == old_root:
                base = family_member(base.width)
                changed = True
            if index is not None and index.root == old_root:
                index = family_member(index.width)
                changed = True
            if changed:
                new_operands.append(operand.with_fields(base=base, index=index))
            else:
                new_operands.append(operand)
        else:
            new_operands.append(operand)
    return instruction.with_operands(new_operands, same_shape=not reshaped)


def perturb_memory_displacement(
    rng: np.random.Generator, operand: MemoryOperand
) -> MemoryOperand:
    """Shift a memory operand's displacement so its address key changes."""
    delta = int(choice(rng, [-64, -32, -16, -8, 8, 16, 32, 64]))
    new_disp = operand.displacement + delta
    if new_disp == operand.displacement:  # pragma: no cover - delta is never 0
        new_disp += 8
    return operand.with_fields(displacement=new_disp)


def registers_in_operand(operand: Operand) -> Tuple[Register, ...]:
    """Every register referenced by ``operand`` (value or address)."""
    if isinstance(operand, RegisterOperand):
        return (operand.register,)
    if isinstance(operand, MemoryOperand):
        return operand.registers_read()
    return ()


def cache_opcode_replacements(block: BasicBlock) -> Dict[int, List[str]]:
    """Pre-compute the opcode replacement pool of every instruction of ``block``.

    The sampler calls Γ thousands of times per explanation; caching the pools
    (which only depend on the original instruction) removes the dominant
    repeated cost.
    """
    return {
        index: opcode_replacements(instruction)
        for index, instruction in enumerate(block)
    }
