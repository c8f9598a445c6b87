"""The lock-free memoised property behind Instruction and BasicBlock memos."""

from dataclasses import dataclass

from repro.bb.block import BasicBlock
from repro.isa.instructions import Instruction
from repro.isa.parser import parse_instruction
from repro.utils.memo import memoized_property


@dataclass(frozen=True)
class _Point:
    x: int

    @memoized_property
    def double(self) -> int:
        """Twice ``x``."""
        _Point.calls.append(self.x)
        return 2 * self.x


_Point.calls = []


def test_computes_once_and_keeps_the_value_on_the_instance():
    _Point.calls.clear()
    point = _Point(3)
    assert "double" not in point.__dict__
    assert point.double == 6
    assert point.double == 6
    assert point.__dict__["double"] == 6
    assert _Point.calls == [3]
    # Each instance keeps its own value.
    assert _Point(4).double == 8
    assert _Point.calls == [3, 4]


def test_class_access_returns_the_descriptor():
    assert isinstance(_Point.double, memoized_property)
    assert _Point.double.__doc__ == "Twice ``x``."
    assert isinstance(Instruction.tracked_accesses, memoized_property)
    assert isinstance(BasicBlock.dependencies, memoized_property)


def test_instruction_memos_live_in_the_instance_dict():
    instruction = parse_instruction("div rcx")
    for name in ("tracked_accesses", "reads", "writes", "loads_memory", "stores_memory"):
        assert name not in instruction.__dict__
        getattr(instruction, name)
        assert name in instruction.__dict__
    # A memo is not a field: equality and hashing ignore it.
    assert instruction == Instruction("div", instruction.operands)
    assert hash(instruction) == hash(Instruction("div", instruction.operands))
