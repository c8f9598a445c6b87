"""Shared test harness: the tiny-model/tiny-block builders every suite uses.

Before this existed, ``tests/explain/``, ``tests/runtime/`` and
``tests/models/`` each re-declared the same ad-hoc builders (a fast
``ExplainerConfig``, a synthesized handful of blocks, a crude model wrapped
in a session).  They live here once now:

``fast_config``
    An :class:`ExplainerConfig` with small sample budgets — explanation
    semantics at test speed.
``tiny_model``
    A fresh analytical cost model (the cheapest deterministic model).
``tiny_block`` / ``tiny_blocks`` / ``block_fleet``
    One hand-written two-instruction block; three seeded synthesized blocks
    (the shared-state workloads); twenty-five seeded synthesized blocks (the
    parity sweeps).  The synthesized sets are deterministic — fixed seeds —
    and session-scoped since blocks are immutable.
``seeded_session``
    A context-managed :class:`ExplanationSession` over ``tiny_model`` with
    ``fast_config`` and rng 0, closed after the test.

The constants (``FAST_CONFIG``) back the fixtures so module-level test
parameterisation can reuse them without requesting a fixture.
``anchor_seed`` finds a seed whose explanation of a block ends at (or goes
past) the empty anchor.
"""

import pytest

from repro.bb.block import BasicBlock
from repro.data.synthesis import BlockSynthesizer
from repro.explain.config import ExplainerConfig
from repro.models.analytical import AnalyticalCostModel
from repro.runtime.session import ExplanationSession


FAST_CONFIG = ExplainerConfig(
    epsilon=0.2,
    relative_epsilon=0.0,
    coverage_samples=80,
    max_precision_samples=40,
    min_precision_samples=12,
    batch_size=8,
)


@pytest.fixture
def fast_config() -> ExplainerConfig:
    return FAST_CONFIG


@pytest.fixture
def tiny_model() -> AnalyticalCostModel:
    return AnalyticalCostModel("hsw")


@pytest.fixture
def tiny_block() -> BasicBlock:
    return BasicBlock.from_text("add rcx, rax\nmov rdx, rcx")


@pytest.fixture(scope="session")
def tiny_blocks():
    return BlockSynthesizer(rng=5).generate_many(
        3, min_instructions=3, max_instructions=7, rng=6
    )


@pytest.fixture(scope="session")
def block_fleet():
    return BlockSynthesizer(rng=0).generate_many(
        25, min_instructions=2, max_instructions=10, rng=1
    )


@pytest.fixture
def seeded_session(tiny_model, fast_config):
    with ExplanationSession(tiny_model, fast_config, rng=0) as session:
        yield session


def anchor_seed(block, *, empty):
    """The first rng seed whose fresh ``FAST_CONFIG`` explanation of
    ``block`` ends at the empty anchor (``empty=True``) or goes past it.

    Which searches end at ∅ depends on the random stream, so tests that
    need one case or the other look a seed up instead of pinning one — a
    change to how Γ consumes the stream then moves the seed, not the test.
    """
    for seed in range(64):
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            explanation = session.explain(block, rng=seed)
        if (explanation.features == ()) == empty:
            return seed
    raise AssertionError(f"no seed below 64 gives empty={empty}")


def explanation_fingerprint(explanation):
    """The scientific payload of an explanation, for parity assertions.

    Everything result-defining is included; ``num_queries`` is deliberately
    not — query accounting depends on what a shared cache already held and
    on shard interleaving, which is substrate-dependent by design.
    """
    return (
        explanation.block.key(),
        explanation.model_name,
        explanation.prediction,
        tuple(f.describe() for f in explanation.features),
        explanation.precision,
        explanation.coverage,
        explanation.meets_threshold,
        explanation.epsilon,
        explanation.precision_samples,
        explanation.candidates_evaluated,
    )


def explanation_dict_fingerprint(payload):
    """The wire-format companion of :func:`explanation_fingerprint`.

    Socket clients receive explanations as the JSON dictionaries of
    :func:`repro.reporting.export.explanation_to_dict`; this extracts the
    same result-defining payload (floats survive a JSON round-trip exactly,
    so equality against a locally-computed dict is still bit-for-bit).
    ``num_queries`` is excluded for the same reason as in
    :func:`explanation_fingerprint`: it reflects shared-cache warmth.
    """
    return (
        tuple(payload["block"]),
        payload["model"],
        payload["prediction"],
        tuple(f["description"] for f in payload["features"]),
        payload["precision"],
        payload["coverage"],
        payload["meets_threshold"],
        payload["epsilon"],
        payload["precision_samples"],
        payload["candidates_evaluated"],
    )
