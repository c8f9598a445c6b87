"""The per-mnemonic access plan and the rewrites that inherit their key.

Every instruction derives its locations, memory flags and hazard-tracked
accesses from its mnemonic's :class:`AccessPlan`, and every Γ rewrite
derives its key from its source's key.  These properties pin both against
the reference they replace: the straightforward walk over the opcode spec
(kept here as a test-local oracle) and ``format_operand`` over every
operand.  They run over parsed instructions, over Γ's outputs on
synthesized blocks (both engines and both replacement schemes), and over
each rewrite applied directly.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bb.block import BasicBlock
from repro.data.synthesis import BlockSynthesizer
from repro.isa.formatter import format_operand
from repro.isa.instructions import Instruction, access_plan
from repro.isa.opcodes import Access, opcode_spec, replacement_candidates
from repro.isa.operands import ImmediateOperand, MemoryOperand, RegisterOperand
from repro.isa.parser import parse_instruction
from repro.isa.registers import REGISTERS
from repro.isa.validation import is_valid_instruction
from repro.models.analytical import AnalyticalCostModel
from repro.perturb.algorithm import BlockPerturber
from repro.perturb.config import PerturbationConfig, ReplacementScheme
from repro.perturb.replacements import (
    register_renaming_candidates,
    rename_register_in_instruction,
)
from repro.uarch.tables import instruction_cost_for
from tests.isa.test_property_roundtrip import _instruction_texts

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_UNTRACKED = {"rflags", "rsp", "rip"}


# ----------------------------------------------------------------- oracle


def _spec_walk(instruction):
    """The spec walk the access plan replaces: ``(reads, writes)`` sets."""
    spec = opcode_spec(instruction.mnemonic)
    reads = {("reg", root) for root in spec.implicit_reads}
    writes = {("reg", root) for root in spec.implicit_writes}
    if spec.reads_flags:
        reads.add(("flags", "rflags"))
    if spec.writes_flags:
        writes.add(("flags", "rflags"))
    for index, operand in enumerate(instruction.operands):
        access = spec.access[index] if index < spec.arity else Access.READ
        for register in operand.registers_read():
            reads.add(("reg", register.root))
        if isinstance(operand, RegisterOperand):
            location = ("reg", operand.register.root)
        elif isinstance(operand, MemoryOperand) and not operand.is_agen:
            location = ("mem", operand.address_key())
        else:
            continue
        if access.reads:
            reads.add(location)
        if access.writes:
            writes.add(location)
    return reads, writes


def _tracked(locations):
    return {
        loc
        for loc in locations
        if loc[0] != "flags" and not (loc[0] == "reg" and loc[1] in _UNTRACKED)
    }


def _formatted_key(instruction):
    return (
        instruction.mnemonic,
        tuple(format_operand(op) for op in instruction.operands),
    )


def assert_matches_spec_walk(instruction):
    """Every plan-derived datum of ``instruction`` equals the oracle's."""
    reads, writes = _spec_walk(instruction)
    tracked_reads, tracked_writes = instruction.tracked_accesses
    assert len(set(tracked_reads)) == len(tracked_reads)
    assert len(set(tracked_writes)) == len(tracked_writes)
    assert set(tracked_reads) == _tracked(reads)
    assert set(tracked_writes) == _tracked(writes)
    assert instruction.reads == frozenset(reads)
    assert instruction.writes == frozenset(writes)
    loads = any(loc[0] == "mem" for loc in reads) or instruction.mnemonic == "pop"
    stores = any(loc[0] == "mem" for loc in writes) or instruction.mnemonic == "push"
    assert instruction.loads_memory is loads
    assert instruction.stores_memory is stores
    assert instruction.key() == _formatted_key(instruction)


def assert_shape_memos_hold(instruction):
    """Memos a rewrite inherited equal what a fresh copy computes."""
    fresh = Instruction(instruction.mnemonic, instruction.operands)
    memos = instruction.__dict__
    if "_is_valid" in memos:
        assert memos["_is_valid"] is is_valid_instruction(fresh)
    for name in ("loads_memory", "stores_memory"):
        if name in memos:
            assert memos[name] is getattr(fresh, name)
    if "_cost_hsw" in memos:
        assert memos["_cost_hsw"] == float(instruction_cost_for(fresh, "hsw").throughput)


def _fresh_copy(instruction):
    """The same instruction with no memo at all."""
    return Instruction(instruction.mnemonic, instruction.operands)


@st.composite
def _synthesized_blocks(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    size = draw(st.integers(min_value=2, max_value=9))
    return BlockSynthesizer(seed).generate(size)


_CONFIGS = st.sampled_from(
    (
        PerturbationConfig(),
        PerturbationConfig(vectorized=False),
        PerturbationConfig(replacement_scheme=ReplacementScheme.WHOLE_INSTRUCTION),
    )
)


# ------------------------------------------------------------------ tests


@given(text=_instruction_texts())
@settings(**_SETTINGS)
def test_parsed_instructions_match_the_spec_walk(text):
    assert_matches_spec_walk(parse_instruction(text))


@given(
    block=_synthesized_blocks(),
    config=_CONFIGS,
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(**_SETTINGS)
def test_gamma_outputs_match_the_spec_walk(block, config, seed):
    # Costs on the original instructions first, so rewrites have cost
    # memos to inherit, as they do inside a search.
    AnalyticalCostModel("hsw").predict_batch([block])
    perturber = BlockPerturber(block, config, rng=seed)
    seen = set()
    for perturbed in perturber.perturb_many(12):
        for instruction in perturbed:
            if id(instruction) in seen:
                continue
            seen.add(id(instruction))
            assert_shape_memos_hold(instruction)
            assert_matches_spec_walk(instruction)
            assert_matches_spec_walk(_fresh_copy(instruction))


@given(text=_instruction_texts(), data=st.data())
@settings(**_SETTINGS)
def test_rewrites_inherit_their_key_and_shape_memos(text, data):
    source = parse_instruction(text)
    assert is_valid_instruction(source)
    assert source.loads_memory in (True, False)
    assert source.stores_memory in (True, False)
    AnalyticalCostModel("hsw").predict_batch([BasicBlock((source,))])

    rewrites = []
    candidates = replacement_candidates(source.mnemonic, source.operands)
    if candidates:
        rewrites.append(source.with_mnemonic(data.draw(st.sampled_from(candidates))))
    for position, operand in enumerate(source.operands):
        if isinstance(operand, RegisterOperand):
            register = operand.register
            pool = register_renaming_candidates(register, forbidden_roots=[register.root])
            if pool:
                new_register = data.draw(st.sampled_from(pool))
                rewrites.append(
                    rename_register_in_instruction(source, register.root, new_register)
                )
                rewrites.append(
                    source.with_operand(position, operand.with_register(new_register))
                )
        elif isinstance(operand, MemoryOperand):
            displacement = operand.displacement + data.draw(st.sampled_from((-64, -8, 8, 64)))
            if displacement or operand.registers_read():
                shifted = operand.with_fields(displacement=displacement)
                rewrites.append(source.with_operand(position, shifted, same_shape=True))
            for register in operand.registers_read():
                pool = register_renaming_candidates(register, forbidden_roots=[register.root])
                if pool:
                    rewrites.append(
                        rename_register_in_instruction(
                            source, register.root, data.draw(st.sampled_from(pool))
                        )
                    )
        elif isinstance(operand, ImmediateOperand):
            replaced = operand.with_value(data.draw(st.integers(0, 4095)))
            rewrites.append(source.with_operand(position, replaced))
    # A whole new operand tuple that shares some operands with the source.
    rewrites.append(source.with_operands(tuple(reversed(source.operands))))
    for rewrite in rewrites:
        assert rewrite.key() == _formatted_key(rewrite)
        assert_shape_memos_hold(rewrite)
        assert_matches_spec_walk(rewrite)


def test_access_plan_is_built_once_per_mnemonic():
    assert access_plan("div") is access_plan("div")
    plan = access_plan("div")
    assert plan.tracked_reads == (("reg", "rax"), ("reg", "rdx"))
    assert plan.operand_reads == (True,) and plan.operand_writes == (False,)
    push = access_plan("push")
    assert push.stores and not push.loads
    assert ("reg", "rsp") in push.reads and ("reg", "rsp") not in push.tracked_reads


def test_operands_past_the_arity_are_read():
    # Not valid x86, but the derived data must still follow the spec walk.
    extra = Instruction(
        "div", (RegisterOperand(REGISTERS["rcx"]), RegisterOperand(REGISTERS["rbx"]))
    )
    assert ("reg", "rbx") in extra.tracked_accesses[0]
    assert_matches_spec_walk(extra)


def test_rewrite_formats_only_what_changed():
    source = parse_instruction("add rcx, qword ptr [rax + 8]")
    texts = source.key()[1]
    renamed = rename_register_in_instruction(source, "rcx", REGISTERS["rbx"])
    # The untouched memory operand is the same object, and so is its text.
    assert renamed.operands[1] is source.operands[1]
    assert renamed.key()[1][1] is texts[1]
    assert renamed.key() == ("add", ("rbx", "qword ptr [rax + 8]"))


class TestImmediateWidthsStaySeparate:
    """``key()`` drops the immediate width, so no memo may be keyed by it."""

    def test_parsed_and_synthesized_add_share_a_key_not_an_identity(self):
        parsed = parse_instruction("add eax, 5")
        built = Instruction(
            "add", (RegisterOperand(REGISTERS["eax"]), ImmediateOperand(5, 32))
        )
        assert parsed.operands[1].width == 8
        assert parsed.key() == built.key()
        assert parsed != built
        for instruction in (parsed, built):
            assert_matches_spec_walk(instruction)

    def test_each_keeps_its_own_validity_and_passes_it_on(self):
        # shl takes only an 8-bit immediate: equal keys, opposite validity.
        for first in ("parsed", "built"):
            parsed = parse_instruction("shl eax, 5")
            built = Instruction(
                "shl", (RegisterOperand(REGISTERS["eax"]), ImmediateOperand(5, 32))
            )
            assert parsed.key() == built.key()
            order = (parsed, built) if first == "parsed" else (built, parsed)
            for instruction in order:
                is_valid_instruction(instruction)
            assert is_valid_instruction(parsed) is True
            assert is_valid_instruction(built) is False
            renamed_parsed = rename_register_in_instruction(parsed, "rax", REGISTERS["rbx"])
            renamed_built = rename_register_in_instruction(built, "rax", REGISTERS["rbx"])
            assert renamed_parsed.key() == renamed_built.key()
            assert renamed_parsed.__dict__["_is_valid"] is True
            assert renamed_built.__dict__["_is_valid"] is False
            assert is_valid_instruction(_fresh_copy(renamed_built)) is False
