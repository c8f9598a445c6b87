"""The basic-block perturbation algorithm Γ (Algorithm 1 of the paper).

Γ takes the original block ``β`` and a set of features ``F ⊆ P̂`` to preserve,
and returns a random valid block ``β′`` that keeps the features in ``F`` while
independently perturbing the remaining features:

* *vertex perturbation* — each non-preserved instruction is, with probability
  ``1 − p_instruction_retain``, either deleted (probability ``p_delete``, only
  when the instruction count need not be preserved) or has its opcode replaced
  by another opcode that accepts the same operands,
* *edge perturbation* — each non-preserved data dependency is, unless
  explicitly retained, broken by renaming the registers (or shifting the
  memory address) that cause it.

Preserving a dependency feature also pins the opcodes of its two endpoint
instructions and the operand causing the hazard, exactly as described in
Section 5.2.
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bb.block import BasicBlock
from repro.bb.dependencies import Dependency
from repro.bb.features import (
    DependencyFeature,
    Feature,
    InstructionFeature,
    NumInstructionsFeature,
)
from repro.isa.instructions import Instruction
from repro.isa.operands import ImmediateOperand, MemoryOperand, RegisterOperand
from repro.isa.validation import is_valid_instruction
from repro.perturb.config import PerturbationConfig, ReplacementScheme
from repro.perturb.replacements import (
    cache_opcode_replacements,
    perturb_memory_displacement,
    random_immediate,
    register_renaming_candidates,
    rename_register_in_instruction,
)
from repro.utils.errors import PerturbationError
from repro.utils.rng import RandomSource, as_rng, choice, coin

#: The displacement shifts :func:`perturb_memory_displacement` picks from;
#: mirrored here so the wave engine can cache the eight possible rewritten
#: instructions per memory endpoint instead of rebuilding fresh objects.
_MEMORY_DELTAS = (-64, -32, -16, -8, 8, 16, 32, 64)

#: Staleness sentinel for the wave engine's per-endpoint root tracking: a
#: dynamic dependency break picks its replacement register outside the static
#: tables, so the rewritten endpoint is treated as stale for every root.
_ALL_ROOTS = object()


@dataclass(frozen=True)
class PerturbTally:
    """Cumulative Γ accounting (process-wide), snapshot via :func:`perturb_tally`.

    ``fallbacks`` counts perturbations that silently returned the original
    block after ``max_block_attempts`` failed attempts — each one injects a
    trivially-preserving sample into precision estimates, so runs watch the
    rate through :class:`~repro.runtime.session.SessionStats`.
    """

    perturbations: int = 0
    fallbacks: int = 0

    def delta(self, since: "PerturbTally") -> "PerturbTally":
        """Counters accumulated since an earlier snapshot."""
        return PerturbTally(
            perturbations=self.perturbations - since.perturbations,
            fallbacks=self.fallbacks - since.fallbacks,
        )


_accounting_lock = threading.Lock()
_perturbations_total = 0
_fallbacks_total = 0


#: Fallback-rate warning thresholds (satellite of the silent-fallback bugfix):
#: warn once per perturber when more than ``_FALLBACK_WARNING_RATE`` of at
#: least ``_FALLBACK_WARNING_MIN`` perturbations fell back to the original.
_FALLBACK_WARNING_MIN = 40
_FALLBACK_WARNING_RATE = 0.2


def perturb_tally() -> PerturbTally:
    """Process-wide Γ counters; diff two snapshots with :meth:`PerturbTally.delta`."""
    with _accounting_lock:
        return PerturbTally(
            perturbations=_perturbations_total, fallbacks=_fallbacks_total
        )


@dataclass(frozen=True)
class PreservationConstraints:
    """What Γ must keep unchanged, derived from a feature set ``F``.

    Attributes
    ----------
    locked_instructions:
        Indices whose full instruction (opcode and operands) is preserved
        because an :class:`InstructionFeature` names them.
    locked_opcodes:
        Indices whose opcode is preserved (endpoints of preserved
        dependencies, plus all locked instructions).
    locked_register_roots:
        For each index, register roots that must not be renamed there
        (operands carrying a preserved dependency).
    locked_memory:
        Indices whose memory operand must not be displaced (endpoints of a
        preserved memory dependency).
    preserved_dependencies:
        The original-block dependencies that must survive.
    preserve_count:
        Whether the number of instructions must stay fixed (a
        :class:`NumInstructionsFeature` is preserved), which forbids deletion.
    """

    locked_instructions: FrozenSet[int]
    locked_opcodes: FrozenSet[int]
    locked_register_roots: Dict[int, FrozenSet[str]]
    locked_memory: FrozenSet[int]
    preserved_dependencies: Tuple[Dependency, ...]
    preserve_count: bool

    @classmethod
    def from_features(
        cls, block: BasicBlock, features: Iterable[Feature]
    ) -> "PreservationConstraints":
        """Translate a feature set into concrete preservation constraints."""
        locked_instructions: Set[int] = set()
        locked_opcodes: Set[int] = set()
        locked_roots: Dict[int, Set[str]] = {}
        locked_memory: Set[int] = set()
        preserved_deps: List[Dependency] = []
        preserve_count = False

        for feature in features:
            if isinstance(feature, InstructionFeature):
                if not 0 <= feature.index < block.num_instructions:
                    raise PerturbationError(
                        f"instruction feature index {feature.index} outside block "
                        f"of size {block.num_instructions}"
                    )
                locked_instructions.add(feature.index)
                locked_opcodes.add(feature.index)
            elif isinstance(feature, NumInstructionsFeature):
                preserve_count = True
            elif isinstance(feature, DependencyFeature):
                dependency = _match_dependency(block, feature)
                preserved_deps.append(dependency)
                locked_opcodes.add(dependency.source)
                locked_opcodes.add(dependency.destination)
                space, payload = dependency.location
                if space == "reg":
                    for endpoint in (dependency.source, dependency.destination):
                        locked_roots.setdefault(endpoint, set()).add(str(payload))
                else:
                    locked_memory.add(dependency.source)
                    locked_memory.add(dependency.destination)
            else:
                raise PerturbationError(f"unsupported feature type {type(feature)!r}")

        return cls(
            locked_instructions=frozenset(locked_instructions),
            locked_opcodes=frozenset(locked_opcodes),
            locked_register_roots={
                idx: frozenset(roots) for idx, roots in locked_roots.items()
            },
            locked_memory=frozenset(locked_memory),
            preserved_dependencies=tuple(preserved_deps),
            preserve_count=preserve_count,
        )

    def undeletable(self) -> FrozenSet[int]:
        """Indices that may never be deleted."""
        return self.locked_instructions | self.locked_opcodes | self.locked_memory

    def roots_locked_at(self, index: int) -> FrozenSet[str]:
        """Register roots that must not be renamed in instruction ``index``."""
        return self.locked_register_roots.get(index, frozenset())

    def all_locked_roots(self) -> FrozenSet[str]:
        """Every register root involved in a preserved dependency."""
        roots: set = set()
        for locked in self.locked_register_roots.values():
            roots |= locked
        return frozenset(roots)

    def shadowing_writes_forbidden(self, index: int) -> FrozenSet[str]:
        """Register roots instruction ``index`` must not *start* writing.

        If an instruction strictly between the endpoints of a preserved
        register dependency started writing the dependency's register (e.g.
        ``div rcx`` replaced by ``inc rcx``), the nearest-writer analysis
        would re-attribute the hazard and the preserved feature would vanish.
        """
        roots: set = set()
        for dep in self.preserved_dependencies:
            space, payload = dep.location
            if space != "reg":
                continue
            if dep.source < index < dep.destination:
                roots.add(str(payload))
        return frozenset(roots)


def _match_dependency(block: BasicBlock, feature: DependencyFeature) -> Dependency:
    """Find the original-block dependency a :class:`DependencyFeature` refers to."""
    for dep in block.dependencies:
        if (
            dep.source == feature.source
            and dep.destination == feature.destination
            and dep.kind is feature.dep_kind
            and dep.location_space == feature.location_space
        ):
            return dep
    raise PerturbationError(
        f"dependency feature {feature.describe()} does not match any dependency "
        "of the block being perturbed"
    )


@dataclass(frozen=True)
class _ConstraintPlan:
    """A feature set's constraints plus everything derivable without rng.

    Built once per distinct feature set and cached on the perturber: the
    precision loop redraws the same candidate arms hundreds of times, so the
    feature-to-constraint translation and the derived index sets must not be
    recomputed per perturbation.
    """

    constraints: PreservationConstraints
    unlocked_indices: Tuple[int, ...]
    undeletable: FrozenSet[int]
    deletion_allowed: bool
    preserved_keys: FrozenSet[tuple]
    all_locked_roots: FrozenSet[str]
    #: (endpoint, root, register name) -> rename candidate pool, filled
    #: lazily; keyed per plan because the forbidden roots depend on the
    #: preserved feature set.
    break_pools: Dict[tuple, list] = field(default_factory=dict)
    #: Lazily-built struct-of-arrays tables for the wave engine (one entry,
    #: ``"tables"``); held on the plan so LRU eviction drops both together.
    soa: Dict[str, "_SoaTables"] = field(default_factory=dict)


class _SoaTables:
    """Flat per-plan decision tables driving the struct-of-arrays Γ engine.

    Everything rng-independent about a feature set's perturbations is
    precomputed here once: which indices are unlocked and deletable, the
    *effective* opcode-replacement table per index (validity and
    shadowing-write rejection already folded in, so a pick is a pure table
    lookup), and per-dependency break metadata resolved against the original
    instructions (which endpoint the reference engine would rewrite, through
    which rename pool or memory operand).  The wave engine then reduces each
    perturbation to mask arithmetic plus one bounded-integer draw per
    decision site.
    """

    __slots__ = (
        "n_unlocked",
        "unlocked",
        "can_delete",
        "pool_sizes",
        "replacements",
        "n_deps",
        "dep_entries",
        "pool_bounds",
        "dep_bounds",
    )

    def __init__(
        self,
        unlocked: List[int],
        can_delete: List[bool],
        pool_sizes: List[int],
        replacements: List[List[Instruction]],
        dep_entries: List[tuple],
    ) -> None:
        self.n_unlocked = len(unlocked)
        self.unlocked = unlocked
        self.can_delete = can_delete
        self.pool_sizes = pool_sizes
        self.replacements = replacements
        self.n_deps = len(dep_entries)
        self.dep_entries = dep_entries
        # Per-site pick bounds for the batched pick rectangles (sites with no
        # real choice get bound 1 so one call covers the whole batch; their
        # draws are discarded).
        self.pool_bounds = np.array(
            [max(size, 1) for size in pool_sizes], dtype=np.int64
        )
        self.dep_bounds = np.array(
            [
                len(meta[3]) if meta is not None and meta[0] == "reg"
                else len(_MEMORY_DELTAS) if meta is not None
                else 1
                for _, meta, _ in dep_entries
            ],
            dtype=np.int64,
        )


class BlockPerturber:
    """Stateful perturber bound to one original block.

    The perturber pre-computes the opcode replacement pools of the block
    once, caches the preservation constraints of every feature set it has
    seen and memoises register-rename candidate pools, then produces
    independent perturbations on every :meth:`perturb` call.  It is the
    object the explanation sampler queries thousands of times per
    explanation.

    Γ runs on one of two engines, chosen by ``PerturbationConfig.vectorized``:
    the struct-of-arrays *wave* engine (the default) or the scalar
    *reference* engine, which is the oracle and also serves the wave
    engine's retry attempts and the whole-instruction replacement scheme.
    """

    def __init__(
        self,
        block: BasicBlock,
        config: Optional[PerturbationConfig] = None,
        rng: RandomSource = None,
        *,
        max_cached_plans: int = 256,
    ) -> None:
        if max_cached_plans < 1:
            raise ValueError("max_cached_plans must be >= 1")
        self.block = block
        self.config = config or PerturbationConfig()
        self._rng = as_rng(rng)
        self._opcode_pools = cache_opcode_replacements(block)
        # Feature set -> constraint plan, LRU-bounded: a warm session
        # explaining many candidate sets of a large block previously grew
        # this without limit.
        self.max_cached_plans = max_cached_plans
        self._plan_cache: "OrderedDict[FrozenSet[Feature], _ConstraintPlan]" = (
            OrderedDict()
        )
        self._rename_pools: Dict[tuple, list] = {}
        # (index, mnemonic) -> replacement Instruction, or None when the
        # replacement is invalid there.  Opcode-only replacements depend only
        # on the original instruction, so the object (and its cached derived
        # properties: reads, writes, key) is shared across all perturbations.
        self._replacement_cache: Dict[Tuple[int, str], Optional[Instruction]] = {}
        # (instruction key, root, new register) -> renamed Instruction; the
        # dependency breaker keeps renaming the same few endpoint forms.
        self._rename_result_cache: Dict[tuple, Instruction] = {}
        # (instruction key, operand position, delta index) -> instruction
        # with the shifted memory displacement.  There are only eight deltas,
        # so memory-hazard breaking cycles through at most eight shared
        # objects per endpoint form — keeping downstream per-instance memos
        # (costs, reads/writes, validity) warm instead of rebuilding fresh
        # instructions every break.
        self._mem_variant_cache: Dict[tuple, Instruction] = {}
        # Γ accounting (see perturb_tally / SessionStats).
        self._perturbations = 0
        self._fallbacks = 0
        self._fallback_warning_emitted = False

    # ------------------------------------------------------------------ API

    @property
    def plan_cache_size(self) -> int:
        """Number of cached constraint plans (bounded by ``max_cached_plans``)."""
        return len(self._plan_cache)

    @property
    def fallbacks(self) -> int:
        """How many perturbations fell back to the original block."""
        return self._fallbacks

    @property
    def perturbations(self) -> int:
        """Total perturbations produced by this perturber."""
        return self._perturbations

    def _plan_for(self, features: Iterable[Feature]) -> _ConstraintPlan:
        """Constraints (and derived sets) for ``features``, cached LRU."""
        key = frozenset(features)
        plan = self._plan_cache.get(key)
        if plan is not None:
            self._plan_cache.move_to_end(key)
        else:
            constraints = PreservationConstraints.from_features(self.block, key)
            plan = _ConstraintPlan(
                constraints=constraints,
                unlocked_indices=tuple(
                    index
                    for index in range(self.block.num_instructions)
                    if index not in constraints.locked_opcodes
                ),
                undeletable=constraints.undeletable(),
                deletion_allowed=not constraints.preserve_count,
                preserved_keys=frozenset(
                    (d.source, d.destination, d.kind, d.location)
                    for d in constraints.preserved_dependencies
                ),
                all_locked_roots=constraints.all_locked_roots(),
            )
            self._plan_cache[key] = plan
            while len(self._plan_cache) > self.max_cached_plans:
                self._plan_cache.popitem(last=False)
        return plan

    def perturb(
        self,
        features: Iterable[Feature] = (),
        rng: RandomSource = None,
    ) -> BasicBlock:
        """Produce one perturbation of the block preserving ``features``."""
        return self.perturb_many(1, features, rng)[0]

    def perturb_many(
        self,
        count: int,
        features: Iterable[Feature] = (),
        rng: RandomSource = None,
    ) -> List[BasicBlock]:
        """Produce ``count`` independent perturbations preserving ``features``.

        A perturbation whose every attempt fails to build a valid block falls
        back to the original block (which trivially satisfies all
        constraints); fallbacks are counted — they skew precision estimates
        toward 1 — and surfaced through :func:`perturb_tally`,
        :class:`~repro.runtime.session.SessionStats` and a once-per-block
        warning when the rate crosses ``_FALLBACK_WARNING_RATE``.
        """
        generator = as_rng(rng) if rng is not None else self._rng
        plan = self._plan_for(features)
        if (
            self.config.vectorized
            and self.config.replacement_scheme is not ReplacementScheme.WHOLE_INSTRUCTION
        ):
            out, fallbacks = self._perturb_wave(plan, count, generator)
        else:
            out, fallbacks = self._perturb_loop(plan, count, generator)
        self._account(count, fallbacks)
        return out

    # ------------------------------------------------------------ internals

    def _perturb_loop(
        self, plan: _ConstraintPlan, count: int, rng: np.random.Generator
    ) -> Tuple[List[BasicBlock], int]:
        """The reference engine's outer loop (``vectorized=False``, and the
        whole-instruction scheme, which interleaves operand-randomisation
        coins with its picks — data-dependent rng — so it cannot wave)."""
        out: List[BasicBlock] = []
        fallbacks = 0
        for _ in range(count):
            perturbed = None
            for _ in range(self.config.max_block_attempts):
                perturbed = self._perturb_once_reference(plan, rng)
                if perturbed is not None:
                    break
            if perturbed is None:
                perturbed = self.block
                fallbacks += 1
            out.append(perturbed)
        return out, fallbacks

    def _account(self, count: int, fallbacks: int) -> None:
        global _perturbations_total, _fallbacks_total
        self._perturbations += count
        if fallbacks:
            self._fallbacks += fallbacks
        with _accounting_lock:
            _perturbations_total += count
            _fallbacks_total += fallbacks
        if (
            not self._fallback_warning_emitted
            and self._perturbations >= _FALLBACK_WARNING_MIN
            and self._fallbacks > _FALLBACK_WARNING_RATE * self._perturbations
        ):
            self._fallback_warning_emitted = True
            warnings.warn(
                f"Γ fell back to the original block for {self._fallbacks} of "
                f"{self._perturbations} perturbations of block "
                f"{self.block.text.splitlines()[0]!r}...; precision estimates "
                "over this block are skewed toward 1.0 (constraints likely "
                "leave no valid perturbation)",
                RuntimeWarning,
                stacklevel=3,
            )

    # ------------------------------------------- struct-of-arrays (wave) Γ

    def _soa_tables(self, plan: _ConstraintPlan) -> _SoaTables:
        tables = plan.soa.get("tables")
        if tables is None:
            tables = plan.soa["tables"] = self._build_soa_tables(plan)
        return tables

    def _build_soa_tables(self, plan: _ConstraintPlan) -> _SoaTables:
        """Flatten a plan into the wave engine's decision tables (rng-free).

        The per-index *effective* replacement tables fold in everything the
        reference engine checks after drawing a pick — replacement
        validity and the shadowing-write rejection — so a table entry of
        ``None`` means "this pick retains the original instruction", exactly
        as a failed replacement attempt does.  Keeping the full pool length
        (rather than dropping dead entries) keeps the pick stream identical
        to the reference engine's ``choice`` calls.
        """
        constraints = plan.constraints
        unlocked = list(plan.unlocked_indices)
        can_delete = [
            plan.deletion_allowed and index not in plan.undeletable
            for index in unlocked
        ]
        pool_sizes: List[int] = []
        replacements: List[List[Optional[Instruction]]] = []
        for index in unlocked:
            pool = self._opcode_pools.get(index, [])
            pool_sizes.append(len(pool))
            original = self.block.instructions[index]
            forbidden = constraints.shadowing_writes_forbidden(index)
            original_writes = (
                {loc[1] for loc in original.writes if loc[0] == "reg"}
                if forbidden
                else None
            )
            table: List[Optional[Instruction]] = []
            for mnemonic in pool:
                key = (index, mnemonic)
                if key in self._replacement_cache:
                    replaced = self._replacement_cache[key]
                else:
                    candidate = original.with_mnemonic(mnemonic)
                    replaced = candidate if is_valid_instruction(candidate) else None
                    self._replacement_cache[key] = replaced
                if replaced is not None and forbidden:
                    new_writes = {
                        loc[1] for loc in replaced.writes if loc[0] == "reg"
                    }
                    if (new_writes - original_writes) & forbidden:
                        replaced = None
                table.append(replaced)
            replacements.append(table)
        # Entries carry the hazard's register root (None for memory hazards)
        # so the wave engine can track staleness per root instead of per
        # instruction: a displacement shift touches no registers, and a
        # rename only invalidates walks over the renamed or introduced root.
        dep_entries = [
            (
                dep,
                self._resolve_dep_meta(dep, plan),
                str(dep.location[1]) if dep.location[0] == "reg" else None,
            )
            for dep in self.block.dependencies
            if (dep.source, dep.destination, dep.kind, dep.location)
            not in plan.preserved_keys
        ]
        return _SoaTables(unlocked, can_delete, pool_sizes, replacements, dep_entries)

    def _resolve_dep_meta(
        self, dep: Dependency, plan: _ConstraintPlan
    ) -> Optional[tuple]:
        """Statically resolve which endpoint a dependency break would rewrite.

        Mirrors :meth:`_break_dependency`'s endpoint walk against the
        *original* instructions.  The result stays valid for endpoints whose
        operands are unchanged at break time — opcode-only replacement shares
        the operand tuple, so only instructions rewritten by an earlier break
        of the same perturbation (marked dirty by the wave engine) force the
        dynamic path.  Returns ``("reg", endpoint, root, pool)``,
        ``("mem", endpoint, position, memory)`` or ``None`` when no endpoint
        is viable (the break is a no-op that consumes no randomness).
        """
        constraints = plan.constraints
        space, payload = dep.location
        for endpoint in (dep.destination, dep.source):
            instruction = self.block.instructions[endpoint]
            if endpoint in constraints.locked_instructions:
                continue
            if space == "reg":
                root = str(payload)
                if root in constraints.roots_locked_at(endpoint):
                    continue
                if endpoint in constraints.locked_memory and self._memory_uses_root(
                    instruction, root
                ):
                    continue
                target_register = self._find_register_with_root(instruction, root)
                if target_register is None:
                    continue
                pool_key = (endpoint, root, target_register.name)
                pool = plan.break_pools.get(pool_key)
                if pool is None:
                    forbidden = frozenset(
                        (
                            root,
                            *constraints.roots_locked_at(endpoint),
                            *plan.all_locked_roots,
                        )
                    )
                    pool = self._rename_pool(target_register, forbidden, True)
                    plan.break_pools[pool_key] = pool
                if not pool:
                    continue
                return ("reg", endpoint, root, pool)
            else:  # memory hazard
                if endpoint in constraints.locked_memory:
                    continue
                memory = instruction.memory_operand()
                if memory is None:
                    continue
                position = instruction.operands.index(memory)
                return ("mem", endpoint, position, memory)
        return None

    @staticmethod
    def _flip_rows(
        rng: np.random.Generator, rows: int, cols: int, probability: float
    ) -> List[List[bool]]:
        """``rows`` independent coin-flip rows in one rng call.

        One ``rng.random((rows, cols))`` draw consumes exactly the same
        random stream as ``rows`` sequential ``rng.random(cols)`` calls, and
        the degenerate probabilities (and empty shapes) consume none at all —
        the same contract :func:`~repro.utils.rng.coin` keeps per coin.
        Returns plain nested lists: the wave engine reads the flags one row
        at a time, where list indexing beats numpy scalar extraction.
        """
        if rows == 0:
            return []
        if cols == 0 or probability == 0.0:
            return [[False] * cols for _ in range(rows)]
        if probability == 1.0:
            return [[True] * cols for _ in range(rows)]
        return (rng.random((rows, cols)) < probability).tolist()

    def _perturb_wave(
        self, plan: _ConstraintPlan, count: int, rng: np.random.Generator
    ) -> Tuple[List[BasicBlock], int]:
        """Produce ``count`` perturbations with batch-drawn decisions.

        All four coin families (instruction-perturb, delete, dependency
        explicit-retain, dependency attempt) for the *whole batch* are drawn
        in O(1) rng calls up front; each row is then applied with one bounded
        integer draw per opcode pick batch and one per dependency break.  A
        row whose rewritten instructions fail validation retries immediately
        through the reference engine, so its retries sit at the stream
        position a row-by-row run would give them.
        """
        config = self.config
        tables = self._soa_tables(plan)
        n_unlocked = tables.n_unlocked
        n_deps = tables.n_deps
        p_perturb = 1.0 - config.p_instruction_retain
        p_delete = config.p_delete if plan.deletion_allowed else 0.0
        p_retain = config.p_dependency_explicit_retain
        p_attempt = config.p_dependency_perturb_attempt
        perturb_rows = self._flip_rows(rng, count, n_unlocked, p_perturb)
        delete_rows = self._flip_rows(rng, count, n_unlocked, p_delete)
        retain_rows = self._flip_rows(rng, count, n_deps, p_retain)
        attempt_rows = self._flip_rows(rng, count, n_deps, p_attempt)
        # With all coins degenerate the per-row pick draws are what keeps the
        # random stream bit-identical to the reference engine (the parity the
        # property suite certifies), so only non-degenerate waves pre-draw the
        # pick rectangles too — one bounded-integer call per decision family
        # for the whole batch, unused draws discarded (each pick is uniform
        # and independent either way).
        degenerate = all(
            p in (0.0, 1.0) for p in (p_perturb, p_delete, p_retain, p_attempt)
        )
        vertex_picks: Optional[List[List[int]]] = None
        dep_picks: Optional[List[List[int]]] = None
        if not degenerate:
            if n_unlocked:
                vertex_picks = rng.integers(
                    0, tables.pool_bounds, size=(count, n_unlocked)
                ).tolist()
            if n_deps:
                dep_picks = rng.integers(
                    0, tables.dep_bounds, size=(count, n_deps)
                ).tolist()
        out: List[BasicBlock] = []
        fallbacks = 0
        max_attempts = config.max_block_attempts
        for row in range(count):
            perturbed = self._apply_row(
                plan,
                tables,
                perturb_rows[row],
                delete_rows[row],
                retain_rows[row],
                attempt_rows[row],
                rng,
                vertex_picks[row] if vertex_picks is not None else None,
                dep_picks[row] if dep_picks is not None else None,
            )
            attempt = 1
            while perturbed is None and attempt < max_attempts:
                perturbed = self._perturb_once_reference(plan, rng)
                attempt += 1
            if perturbed is None:
                perturbed = self.block
                fallbacks += 1
            out.append(perturbed)
        return out, fallbacks

    def _apply_row(
        self,
        plan: _ConstraintPlan,
        tables: _SoaTables,
        perturb_row: List[bool],
        delete_row: List[bool],
        retain_row: List[bool],
        attempt_row: List[bool],
        rng: np.random.Generator,
        vertex_picks: Optional[List[int]] = None,
        dep_picks: Optional[List[int]] = None,
    ) -> Optional[BasicBlock]:
        """Build one perturbation from its pre-drawn decision row.

        ``vertex_picks``/``dep_picks`` carry the row's slice of the wave's
        pre-drawn pick rectangles; when absent (degenerate-coin waves) the
        picks are drawn here, in reference order.  Returns the perturbed
        block, the original block *instance* when the row changed nothing,
        or ``None`` when a rewritten instruction failed validation (the
        caller retries through the reference engine).
        """
        working: List[Optional[Instruction]] = list(self.block.instructions)
        live = len(working)
        changed = False

        # --- vertex perturbation: deletions, then the opcode picks ---------
        unlocked = tables.unlocked
        can_delete = tables.can_delete
        pool_sizes = tables.pool_sizes
        pick_slots: List[int] = []
        pick_bounds: List[int] = []
        for j in range(tables.n_unlocked):
            if not perturb_row[j]:
                continue
            if delete_row[j] and can_delete[j] and live > 1:
                working[unlocked[j]] = None
                live -= 1
                changed = True
                continue
            if not pool_sizes[j]:
                continue
            if vertex_picks is not None:
                replacement = tables.replacements[j][vertex_picks[j]]
                if replacement is not None:
                    working[unlocked[j]] = replacement
                    changed = True
            else:
                pick_slots.append(j)
                pick_bounds.append(pool_sizes[j])
        if pick_slots:
            picks = rng.integers(0, pick_bounds)
            for slot, pick in zip(pick_slots, picks):
                replacement = tables.replacements[slot][pick]
                if replacement is not None:
                    working[unlocked[slot]] = replacement
                    changed = True

        # --- edge perturbation: static break metadata, dirty fallback -----
        rewritten: List[int] = []
        affected: Dict[int, object] = {}
        for d in range(tables.n_deps):
            dep, meta, dep_root = tables.dep_entries[d]
            source, destination = dep.source, dep.destination
            if working[source] is None or working[destination] is None:
                continue  # deletion already removed the hazard
            if retain_row[d] or not attempt_row[d]:
                continue
            # The static metadata describes the oracle's destination-first
            # endpoint walk over the original operands.  Staleness is
            # tracked per register root: displacement shifts touch no
            # registers (and the memory fast path reads the *current*
            # operand anyway), and a rename only changes walk outcomes for
            # the renamed and introduced roots.  The destination's marks
            # always matter (the walk starts there); the source's only when
            # the walk would reach it (metadata points at the source, or
            # found no viable endpoint at all).
            if dep_root is not None:
                marks = affected.get(destination)
                stale = marks is not None and (
                    marks is _ALL_ROOTS or dep_root in marks
                )
                if not stale and (meta is None or meta[1] != destination):
                    marks = affected.get(source)
                    stale = marks is not None and (
                        marks is _ALL_ROOTS or dep_root in marks
                    )
                if stale:
                    # The oracle's dynamic walk; its rename pick is not in
                    # the static tables, so the endpoint it rewrote is
                    # stale for every root from here on.
                    touched = self._break_dependency(working, dep, plan, rng)
                    if touched is not None:
                        rewritten.append(touched)
                        affected[touched] = _ALL_ROOTS
                        changed = True
                    continue
            if meta is None:
                continue
            kind, endpoint, slot_a, slot_b = meta
            instruction = working[endpoint]
            if kind == "reg":
                root, pool = slot_a, slot_b
                if dep_picks is not None:
                    pick = dep_picks[d]
                else:
                    pick = int(rng.integers(0, len(pool)))
                new_register = pool[pick]
                cache_key = (instruction.key(), root, new_register.name)
                renamed = self._rename_result_cache.get(cache_key)
                if renamed is None:
                    renamed = rename_register_in_instruction(
                        instruction, root, new_register
                    )
                    self._rename_result_cache[cache_key] = renamed
                working[endpoint] = renamed
                marks = affected.get(endpoint)
                if marks is None:
                    affected[endpoint] = {root, new_register.root}
                elif marks is not _ALL_ROOTS:
                    marks.add(root)
                    marks.add(new_register.root)
            else:  # memory hazard: one of eight cached displacement variants
                position = slot_a
                if dep_picks is not None:
                    delta_index = dep_picks[d]
                else:
                    delta_index = int(rng.integers(0, len(_MEMORY_DELTAS)))
                cache_key = (instruction.key(), position, delta_index)
                variant = self._mem_variant_cache.get(cache_key)
                if variant is None:
                    memory = instruction.operands[position]
                    variant = instruction.with_operand(
                        position,
                        memory.with_fields(
                            displacement=memory.displacement
                            + _MEMORY_DELTAS[delta_index]
                        ),
                        same_shape=True,
                    )
                    self._mem_variant_cache[cache_key] = variant
                working[endpoint] = variant
            rewritten.append(endpoint)
            changed = True

        if not changed:
            # Nothing moved: hand back the original block *instance* so the
            # cost model's and dependency scan's per-instance memos stay
            # warm (block equality is by content, so downstream results are
            # bit-identical to a freshly-built copy).
            return self.block
        survivors = [inst for inst in working if inst is not None]
        if not survivors:
            return None
        for index in rewritten:
            instruction = working[index]
            if instruction is not None and not is_valid_instruction(instruction):
                return None
        return self.block.with_instructions(survivors)

    # ------------------------------------------------- reference (scalar) Γ

    def _perturb_once_reference(
        self, plan: _ConstraintPlan, rng: np.random.Generator
    ) -> Optional[BasicBlock]:
        """The scalar pre-batching engine, preserved verbatim.

        One coin flip per decision, uncached replacement construction and a
        full re-validation of every surviving instruction.  This is the
        sequential baseline measured by ``benchmarks/bench_query_engine.py``
        and the distributional oracle of the perturbation property tests.
        The explanation pipeline reaches it when
        ``PerturbationConfig.vectorized`` is switched off, for the
        whole-instruction replacement scheme, and for the wave engine's
        retry attempts.
        """
        config = self.config
        constraints = plan.constraints
        working: List[Optional[Instruction]] = list(self.block.instructions)

        for index in range(len(working)):
            if index in constraints.locked_opcodes:
                continue
            if not coin(rng, 1.0 - config.p_instruction_retain):
                continue
            can_delete = (
                plan.deletion_allowed
                and index not in plan.undeletable
                and self._live_count(working) > 1
            )
            if can_delete and coin(rng, config.p_delete):
                working[index] = None
                continue
            working[index] = self._replace_vertex_reference(
                working[index], index, constraints, rng
            )

        for dep in self.block.dependencies:
            key = (dep.source, dep.destination, dep.kind, dep.location)
            if key in plan.preserved_keys:
                continue
            if working[dep.source] is None or working[dep.destination] is None:
                continue  # deletion already removed the hazard
            if coin(rng, config.p_dependency_explicit_retain):
                continue
            if not coin(rng, config.p_dependency_perturb_attempt):
                continue
            self._break_dependency_reference(working, dep, constraints, rng)

        survivors = [inst for inst in working if inst is not None]
        if not survivors:
            return None
        if any(not is_valid_instruction(inst) for inst in survivors):
            return None
        return self.block.with_instructions(survivors)

    def _replace_vertex_reference(
        self,
        instruction: Instruction,
        index: int,
        constraints: PreservationConstraints,
        rng: np.random.Generator,
    ) -> Instruction:
        pool = self._opcode_pools.get(index, [])
        replaced = instruction
        if pool:
            replaced = instruction.with_mnemonic(choice(rng, pool))
        if self.config.replacement_scheme is ReplacementScheme.WHOLE_INSTRUCTION:
            replaced = self._randomise_operands(replaced, index, constraints, rng)
        if not is_valid_instruction(replaced):
            return instruction
        forbidden = constraints.shadowing_writes_forbidden(index)
        if forbidden:
            original_writes = {loc[1] for loc in instruction.writes if loc[0] == "reg"}
            new_writes = {loc[1] for loc in replaced.writes if loc[0] == "reg"}
            if (new_writes - original_writes) & forbidden:
                return instruction
        return replaced

    def _break_dependency_reference(
        self,
        working: List[Optional[Instruction]],
        dep: Dependency,
        constraints: PreservationConstraints,
        rng: np.random.Generator,
    ) -> None:
        space, payload = dep.location
        for endpoint in (dep.destination, dep.source):
            instruction = working[endpoint]
            if instruction is None:
                continue
            if endpoint in constraints.locked_instructions:
                continue
            if space == "reg":
                root = str(payload)
                if root in constraints.roots_locked_at(endpoint):
                    continue
                if endpoint in constraints.locked_memory and self._memory_uses_root(
                    instruction, root
                ):
                    # Renaming would rewrite the base/index of a memory
                    # operand pinned by a preserved memory dependency,
                    # silently moving the preserved address.
                    continue
                target_register = self._find_register_with_root(instruction, root)
                if target_register is None:
                    continue
                candidates = register_renaming_candidates(
                    target_register,
                    forbidden_roots=[
                        root,
                        *constraints.roots_locked_at(endpoint),
                        *constraints.all_locked_roots(),
                    ],
                    prefer_unused_in=self.block,
                )
                if not candidates:
                    continue
                working[endpoint] = rename_register_in_instruction(
                    instruction, root, choice(rng, candidates)
                )
                return
            else:  # memory hazard
                if endpoint in constraints.locked_memory:
                    continue
                memory = instruction.memory_operand()
                if memory is None:
                    continue
                new_memory = perturb_memory_displacement(rng, memory)
                position = instruction.operands.index(memory)
                working[endpoint] = instruction.with_operand(
                    position, new_memory, same_shape=True
                )
                return

    @staticmethod
    def _live_count(working: Sequence[Optional[Instruction]]) -> int:
        return sum(1 for inst in working if inst is not None)

    def _rename_pool(
        self, register, forbidden_roots: FrozenSet[str], prefer_unused: bool
    ) -> list:
        """Memoised register-rename candidate pool.

        The pool depends only on the register, the forbidden roots and
        whether unused-in-block registers are preferred — none of which vary
        across the thousands of perturbations of one explanation — so it is
        computed once per distinct key.  Candidate order is deterministic, so
        memoisation does not disturb the random stream.
        """
        key = (register.name, forbidden_roots, prefer_unused)
        pool = self._rename_pools.get(key)
        if pool is None:
            pool = register_renaming_candidates(
                register,
                forbidden_roots=forbidden_roots,
                prefer_unused_in=self.block if prefer_unused else None,
            )
            self._rename_pools[key] = pool
        return pool

    def _randomise_operands(
        self,
        instruction: Instruction,
        index: int,
        constraints: PreservationConstraints,
        rng: np.random.Generator,
    ) -> Instruction:
        locked_roots = constraints.roots_locked_at(index)
        result = instruction
        for pos, operand in enumerate(instruction.operands):
            if isinstance(operand, RegisterOperand):
                if operand.register.root in locked_roots:
                    continue
                pool = self._rename_pool(operand.register, locked_roots, False)
                new_reg = choice(rng, pool) if pool else None
                if new_reg is not None and coin(rng, 0.5):
                    result = result.with_operand(pos, operand.with_register(new_reg))
            elif isinstance(operand, ImmediateOperand) and coin(rng, 0.5):
                result = result.with_operand(pos, random_immediate(rng, operand))
        return result

    def _break_dependency(
        self,
        working: List[Optional[Instruction]],
        dep: Dependency,
        plan: _ConstraintPlan,
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Break one data dependency in place (best effort).

        Register hazards are broken by renaming the hazard register in one of
        the endpoint instructions; memory hazards by shifting the memory
        operand's displacement.  Endpoints whose relevant operand is locked by
        a preserved feature are skipped; if both endpoints are locked the
        dependency is retained (a failed perturbation attempt).  Returns the
        index of the rewritten instruction (``None`` when the dependency was
        retained) so the caller can validate exactly what changed.
        """
        constraints = plan.constraints
        space, payload = dep.location
        # Prefer rewriting the destination instruction; fall back to the source.
        for endpoint in (dep.destination, dep.source):
            instruction = working[endpoint]
            if instruction is None:
                continue
            if endpoint in constraints.locked_instructions:
                continue
            if space == "reg":
                root = str(payload)
                if root in constraints.roots_locked_at(endpoint):
                    continue
                if endpoint in constraints.locked_memory and self._memory_uses_root(
                    instruction, root
                ):
                    # A preserved memory dependency pins this instruction's
                    # memory operand; renaming a register that operand
                    # addresses through (base or index) would move the
                    # preserved address even though the displacement is
                    # untouched.  Treat the endpoint as locked for this root.
                    continue
                target_register = self._find_register_with_root(instruction, root)
                if target_register is None:
                    continue
                pool_key = (endpoint, root, target_register.name)
                pool = plan.break_pools.get(pool_key)
                if pool is None:
                    forbidden = frozenset(
                        (
                            root,
                            *constraints.roots_locked_at(endpoint),
                            *plan.all_locked_roots,
                        )
                    )
                    pool = self._rename_pool(target_register, forbidden, True)
                    plan.break_pools[pool_key] = pool
                new_register = choice(rng, pool) if pool else None
                if new_register is None:
                    continue
                cache_key = (instruction.key(), root, new_register.name)
                renamed = self._rename_result_cache.get(cache_key)
                if renamed is None:
                    renamed = rename_register_in_instruction(
                        instruction, root, new_register
                    )
                    self._rename_result_cache[cache_key] = renamed
                working[endpoint] = renamed
                return endpoint
            else:  # memory hazard
                if endpoint in constraints.locked_memory:
                    continue
                memory = instruction.memory_operand()
                if memory is None:
                    continue
                new_memory = perturb_memory_displacement(rng, memory)
                position = instruction.operands.index(memory)
                working[endpoint] = instruction.with_operand(
                    position, new_memory, same_shape=True
                )
                return endpoint

    @staticmethod
    def _memory_uses_root(instruction: Instruction, root: str) -> bool:
        """Whether the instruction's memory operand addresses through ``root``."""
        memory = instruction.memory_operand()
        if memory is None:
            return False
        return any(reg.root == root for reg in memory.registers_read())

    @staticmethod
    def _find_register_with_root(instruction: Instruction, root: str):
        """The first register referenced by ``instruction`` with the given root."""
        for operand in instruction.operands:
            if isinstance(operand, RegisterOperand) and operand.register.root == root:
                return operand.register
            if isinstance(operand, MemoryOperand):
                for reg in operand.registers_read():
                    if reg.root == root:
                        return reg
        return None
