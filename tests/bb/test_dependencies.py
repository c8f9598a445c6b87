"""Tests for data-dependency (hazard) detection."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bb.block import BasicBlock
from repro.bb.dependencies import (
    Dependency,
    DependencyKind,
    dependencies_between,
    dependency_signatures,
    find_dependencies,
    true_dependency_chains,
)
from repro.data.synthesis import BlockSynthesizer
from repro.isa.parser import parse_block_text
from repro.perturb.algorithm import BlockPerturber


def deps_of(text):
    return find_dependencies(parse_block_text(text))


def kinds_between(deps, src, dst):
    return {d.kind for d in deps if d.source == src and d.destination == dst}


class TestRawDependencies:
    def test_simple_raw(self):
        deps = deps_of("add rcx, rax\nmov rdx, rcx")
        assert kinds_between(deps, 0, 1) == {DependencyKind.RAW}

    def test_raw_through_register_alias(self):
        deps = deps_of("mov ecx, edx\nmov rax, rcx")
        assert DependencyKind.RAW in kinds_between(deps, 0, 1)

    def test_raw_through_memory(self):
        deps = deps_of(
            "mov qword ptr [rdi + 8], rax\nmov rbx, qword ptr [rdi + 8]"
        )
        raw = [d for d in deps if d.kind is DependencyKind.RAW]
        assert any(d.location_space == "mem" for d in raw)

    def test_different_addresses_do_not_conflict(self):
        deps = deps_of(
            "mov qword ptr [rdi + 8], rax\nmov rbx, qword ptr [rdi + 16]"
        )
        assert not any(d.location_space == "mem" for d in deps)

    def test_raw_shadowed_by_intervening_write(self):
        # Instruction 1 overwrites rcx, so instruction 2 depends on 1, not 0.
        deps = deps_of("add rcx, rax\nmov rcx, rbx\nmov rdx, rcx")
        assert DependencyKind.RAW in kinds_between(deps, 1, 2)
        assert DependencyKind.RAW not in kinds_between(deps, 0, 2)

    def test_address_register_read_creates_raw(self):
        deps = deps_of("add rdi, rax\nmov rbx, qword ptr [rdi]")
        assert DependencyKind.RAW in kinds_between(deps, 0, 1)


class TestWarWawDependencies:
    def test_war(self):
        # Paper case study 2: instruction 1 reads edx, instruction 2 writes it.
        deps = deps_of("mov ecx, edx\nxor edx, edx")
        assert DependencyKind.WAR in kinds_between(deps, 0, 1)

    def test_waw(self):
        deps = deps_of("mov rax, rbx\nmov rax, rcx")
        assert DependencyKind.WAW in kinds_between(deps, 0, 1)

    def test_multiple_hazards_between_same_pair(self):
        # add writes rcx (read+written by the second add): RAW and WAW and WAR.
        deps = deps_of("add rcx, rax\nadd rcx, rbx")
        kinds = kinds_between(deps, 0, 1)
        assert DependencyKind.RAW in kinds and DependencyKind.WAW in kinds


class TestIgnoredLocations:
    def test_flags_do_not_create_dependencies(self):
        deps = deps_of("add rax, rbx\nadd rcx, rdx")
        assert deps == []

    def test_stack_pointer_ignored(self):
        deps = deps_of("push rax\npush rbx")
        assert deps == []

    def test_push_value_still_tracked(self):
        deps = deps_of("add rax, rbx\npush rax")
        assert DependencyKind.RAW in kinds_between(deps, 0, 1)


class TestStructure:
    def test_sources_precede_destinations(self):
        text = """
            mov ecx, edx
            xor edx, edx
            lea rax, [rcx + rax - 1]
            div rcx
            mov rdx, rcx
            imul rax, rcx
        """
        for dep in deps_of(text):
            assert dep.source < dep.destination

    def test_constructor_rejects_backwards_edge(self):
        with pytest.raises(ValueError):
            Dependency(3, 1, DependencyKind.RAW, ("reg", "rax"))

    def test_label_rendering(self):
        dep = Dependency(0, 2, DependencyKind.RAW, ("reg", "rcx"))
        assert dep.label() == "RAW(0→2 over rcx)"

    def test_dependencies_between_helper(self):
        deps = deps_of("add rcx, rax\nmov rdx, rcx\nmov rbx, rcx")
        assert len(dependencies_between(deps, 0, 1)) >= 1
        assert dependencies_between(deps, 1, 0) == []

    def test_block_dependencies_cached_property(self):
        block = BasicBlock.from_text("add rcx, rax\nmov rdx, rcx")
        assert block.dependencies is block.dependencies  # cached

    def test_paper_case_study_2_dependencies(self):
        block = BasicBlock.from_text(
            """
            mov ecx, edx
            xor edx, edx
            lea rax, [rcx + rax - 1]
            div rcx
            mov rdx, rcx
            imul rax, rcx
            """
        )
        deps = {(d.source, d.destination, d.kind, d.location) for d in block.dependencies}
        # The paper highlights a RAW dependency into instruction 6 (index 5)
        # over rax.  Our analysis models div's implicit write to rax, so the
        # nearest producer is the div (index 3) rather than the lea (index 2);
        # either way imul must have an incoming RAW hazard over rax.
        assert any(
            dst == 5 and kind is DependencyKind.RAW and loc == ("reg", "rax")
            for (_, dst, kind, loc) in deps
        )
        # WAR between instructions 1 and 2 (indices 0 and 1) via edx.
        assert (0, 1, DependencyKind.WAR, ("reg", "rdx")) in deps


class TestChains:
    def test_true_dependency_chains(self):
        instructions = parse_block_text(
            "add rax, rbx\nadd rcx, rax\nadd rdx, rcx"
        )
        deps = find_dependencies(instructions)
        chains = true_dependency_chains(instructions, deps)
        assert any(len(chain) >= 3 for chain in chains)

    def test_no_chains_for_independent_block(self):
        instructions = parse_block_text("add rax, rbx\nadd rcx, rdx")
        assert true_dependency_chains(instructions, find_dependencies(instructions)) == []


def _signatures_of(instructions):
    return frozenset(
        (dep.kind, dep.location_space, instructions[dep.source].mnemonic,
         instructions[dep.destination].mnemonic)
        for dep in find_dependencies(instructions)
    )


class TestSignatureScan:
    """``dependency_signatures`` is the coverage index's view of
    ``find_dependencies``: the same hazards, without Dependency objects."""

    def test_case_study_signatures(self):
        instructions = parse_block_text(
            "mov ecx, edx\nxor edx, edx\nlea rax, [rcx + rax - 1]\ndiv rcx\n"
            "mov qword ptr [rdi], rax\nmov rbx, qword ptr [rdi]"
        )
        signatures = dependency_signatures(instructions)
        assert signatures == _signatures_of(instructions)
        assert (DependencyKind.RAW, "reg", "mov", "div") in signatures
        assert (DependencyKind.RAW, "mem", "mov", "mov") in signatures

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.integers(min_value=2, max_value=10),
        perturb_seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_find_dependencies_on_gamma_outputs(self, seed, size, perturb_seed):
        block = BlockSynthesizer(seed).generate(size)
        blocks = [block, *BlockPerturber(block, rng=perturb_seed).perturb_many(10)]
        for candidate in blocks:
            instructions = candidate.instructions
            assert dependency_signatures(instructions) == _signatures_of(instructions)
