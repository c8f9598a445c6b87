"""Tests for the BasicBlock value object and category classification."""

import dataclasses
import pickle

import pytest

from repro.bb.block import BasicBlock, BlockCategory, classify_block
from repro.isa.parser import parse_instruction
from repro.utils.errors import ParseError, ValidationError


SIMPLE = "add rcx, rax\nmov rdx, rcx\npop rbx"


class TestConstruction:
    def test_from_text(self):
        block = BasicBlock.from_text(SIMPLE)
        assert block.num_instructions == 3
        assert block[0].mnemonic == "add"

    def test_from_instructions(self):
        insts = [parse_instruction("add rcx, rax"), parse_instruction("nop")]
        block = BasicBlock.from_instructions(insts)
        assert len(block) == 2

    def test_empty_block_rejected(self):
        with pytest.raises(ValidationError):
            BasicBlock.from_text("\n\n")

    def test_control_transfer_rejected(self):
        # ``jmp`` parses (it is a real opcode) but basic-block validation
        # rejects it because control transfer cannot appear inside a block.
        with pytest.raises(ValidationError):
            BasicBlock.from_text("jmp target\nadd rax, rbx")

    def test_metadata_preserved(self):
        block = BasicBlock.from_text(SIMPLE, source="clang", block_id="b-1")
        assert block.source == "clang" and block.block_id == "b-1"

    def test_iteration_and_indexing(self):
        block = BasicBlock.from_text(SIMPLE)
        assert [i.mnemonic for i in block] == ["add", "mov", "pop"]
        assert block[2].mnemonic == "pop"


class TestEqualityAndHashing:
    def test_content_equality_ignores_metadata(self):
        a = BasicBlock.from_text(SIMPLE, source="clang")
        b = BasicBlock.from_text(SIMPLE, source="openblas")
        assert a == b
        assert hash(a) == hash(b)

    def test_different_content_differs(self):
        a = BasicBlock.from_text(SIMPLE)
        b = BasicBlock.from_text("add rcx, rax\nmov rdx, rcx\npush rbx")
        assert a != b

    def test_text_round_trip(self):
        block = BasicBlock.from_text(SIMPLE)
        assert BasicBlock.from_text(block.text) == block


class TestRewrites:
    def test_replace_instruction(self):
        block = BasicBlock.from_text(SIMPLE)
        new = block.replace_instruction(2, parse_instruction("push rbx"))
        assert new[2].mnemonic == "push"
        assert block[2].mnemonic == "pop"  # original untouched

    def test_delete_instruction(self):
        block = BasicBlock.from_text(SIMPLE)
        new = block.delete_instruction(1)
        assert new.num_instructions == 2
        assert [i.mnemonic for i in new] == ["add", "pop"]

    def test_with_instructions_keeps_metadata(self):
        block = BasicBlock.from_text(SIMPLE, source="clang", block_id="b7")
        instructions = [parse_instruction("mov rdx, rcx"), parse_instruction("nop")]
        new = block.with_instructions(iter(instructions))
        assert new.source == "clang"
        assert new.block_id == "b7"
        # The dict-filling copy must be indistinguishable from a block built
        # through the dataclass constructor.
        built = BasicBlock(tuple(instructions), source="clang", block_id="b7")
        assert isinstance(new.instructions, tuple)
        assert new.key() == built.key()
        assert hash(new) == hash(built)
        assert new == built
        assert new.text == built.text
        assert new.dependencies == built.dependencies
        restored = pickle.loads(pickle.dumps(new))
        assert restored == new
        assert (restored.source, restored.block_id) == ("clang", "b7")

    def test_with_instructions_rejects_empty(self):
        block = BasicBlock.from_text(SIMPLE)
        with pytest.raises(ValidationError):
            block.with_instructions([])
        single = BasicBlock.from_text("nop")
        with pytest.raises(ValidationError):
            single.delete_instruction(0)


class TestFastCopy:
    """``with_instructions`` skips the dataclass constructor and fills the
    instance dict itself; Γ builds every perturbed block that way, so the
    copy must be indistinguishable from ``BasicBlock(...)`` on every kind of
    block the cost models see."""

    TEMPLATE = "imul rax, rbx\nsub rsi, 4"

    @pytest.mark.parametrize(
        "text",
        [
            "add rcx, rax\nmov rdx, rcx\nimul rdx, rcx\npop rbx",
            "mov rax, qword ptr [rdi]\nadd rax, rbx\nmov rcx, rax",
            "mov qword ptr [rdi], rax\nadd rax, rbx\nmov qword ptr [rdi + 8], rax",
            "mov qword ptr [rsi], rdx\nmov rax, qword ptr [rsi]\nadd rax, 1",
            "vmulss xmm0, xmm1, xmm2\nvaddss xmm3, xmm0, xmm1",
            "div rcx",
        ],
        ids=["scalar", "load", "store", "memory-dependency", "vector", "single"],
    )
    def test_copy_matches_constructor(self, text):
        template = BasicBlock.from_text(self.TEMPLATE, source="openblas", block_id="t1")
        instructions = BasicBlock.from_text(text).instructions
        copy = template.with_instructions(list(instructions))
        built = BasicBlock(instructions, source="openblas", block_id="t1")
        assert vars(copy) == vars(built)
        assert copy == built and hash(copy) == hash(built)
        assert copy.key() == built.key()
        assert copy.text == built.text
        assert copy.dependencies == built.dependencies
        assert copy.category is built.category
        assert copy.num_instructions == built.num_instructions

    def test_copy_is_frozen(self):
        copy = BasicBlock.from_text(SIMPLE).with_instructions(
            [parse_instruction("nop")]
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.source = "clang"

    def test_copy_does_not_inherit_template_memos(self):
        template = BasicBlock.from_text(SIMPLE)
        # Warm every per-instance memo of the template first.
        template.key(), template.text, template.dependencies, template.category
        copy = template.with_instructions(template.instructions[:1])
        assert set(vars(copy)) == {"instructions", "source", "block_id"}
        assert copy.key() != template.key()
        assert copy.text == "add rcx, rax"
        assert copy.dependencies == ()

    def test_copy_supports_dataclass_replace(self):
        template = BasicBlock.from_text(SIMPLE, source="clang", block_id="b7")
        copy = template.with_instructions(template.instructions[1:])
        renamed = dataclasses.replace(copy, block_id="b8")
        assert renamed == copy
        assert (renamed.source, renamed.block_id) == ("clang", "b8")

    def test_rewrites_keep_metadata(self):
        block = BasicBlock.from_text(SIMPLE, source="clang", block_id="b7")
        push = parse_instruction("push rbx")
        replaced = block.replace_instruction(2, push)
        deleted = block.delete_instruction(0)
        assert replaced == BasicBlock(block.instructions[:2] + (push,))
        assert deleted == BasicBlock(block.instructions[1:])
        for rewritten in (replaced, deleted):
            assert (rewritten.source, rewritten.block_id) == ("clang", "b7")


class TestCategories:
    def test_load_category(self):
        block = BasicBlock.from_text("mov rax, qword ptr [rdi]\nadd rax, rbx")
        assert block.category is BlockCategory.LOAD

    def test_store_category(self):
        block = BasicBlock.from_text("mov qword ptr [rdi], rax\nadd rax, rbx")
        assert block.category is BlockCategory.STORE

    def test_load_store_category(self):
        block = BasicBlock.from_text(
            "mov rax, qword ptr [rdi]\nmov qword ptr [rsi], rax"
        )
        assert block.category is BlockCategory.LOAD_STORE

    def test_scalar_category(self):
        block = BasicBlock.from_text("add rcx, rax\nimul rax, rbx")
        assert block.category is BlockCategory.SCALAR

    def test_vector_category(self):
        block = BasicBlock.from_text("vmulss xmm0, xmm1, xmm2\nvaddss xmm3, xmm0, xmm1")
        assert block.category is BlockCategory.VECTOR

    def test_scalar_vector_category(self):
        block = BasicBlock.from_text("add rcx, rax\nvmulss xmm0, xmm1, xmm2")
        assert block.category is BlockCategory.SCALAR_VECTOR

    def test_memory_takes_precedence_over_vector(self):
        block = BasicBlock.from_text("movss xmm0, dword ptr [rdi]\nmulss xmm0, xmm1")
        assert block.category is BlockCategory.LOAD

    def test_classify_function_matches_property(self):
        block = BasicBlock.from_text(SIMPLE)
        assert classify_block(block) is block.category
