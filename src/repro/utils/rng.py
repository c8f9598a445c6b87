"""Deterministic random-number handling.

Every stochastic component in the library (the perturbation algorithm, the
synthetic dataset generator, the neural model initialisation, the anchor
search) accepts either an integer seed, an existing
:class:`numpy.random.Generator`, or ``None``.  :func:`as_rng` normalises all
three into a ``Generator`` so experiments are reproducible end to end.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

#: Anything accepted where a random source is expected.
RandomSource = Union[None, int, np.random.Generator]


def as_rng(source: RandomSource = None) -> np.random.Generator:
    """Normalise ``source`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    source:
        ``None`` for a non-deterministic generator, an ``int`` seed for a
        deterministic one, or an existing generator which is returned as-is.
    """
    if isinstance(source, np.random.Generator):
        return source
    if source is None:
        return np.random.default_rng()
    if isinstance(source, (int, np.integer)):
        return np.random.default_rng(int(source))
    raise TypeError(f"cannot build a random generator from {type(source)!r}")


def spawn_seeds(source: RandomSource, count: int) -> List[int]:
    """Draw the ``count`` integer child seeds ``source`` would spawn.

    This is the *identity* of each spawned stream: ``spawn_rngs`` builds its
    generators as ``default_rng(child_seed)``, so anything keyed on a child
    seed (the result-cache fingerprints checkpointed runs and fleet
    memoization store under) names exactly the stream that position
    consumes.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    root = as_rng(source)
    seeds = root.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [int(s) for s in seeds]


def spawn_rngs(source: RandomSource, count: int) -> Sequence[np.random.Generator]:
    """Spawn ``count`` independent generators derived from ``source``.

    Used when an experiment is repeated across seeds (the paper reports means
    over 5 seeds): each repetition receives an independent stream so results
    do not depend on evaluation order.
    """
    return [np.random.default_rng(s) for s in spawn_seeds(source, count)]


def coin(rng: np.random.Generator, probability: float) -> bool:
    """Return ``True`` with the given probability."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {probability}")
    if probability == 0.0:
        return False
    if probability == 1.0:
        return True
    return bool(rng.random() < probability)


def choice(rng: np.random.Generator, items: Sequence, size: Optional[int] = None):
    """Uniformly choose from ``items`` without converting them to an array.

    ``numpy.random.Generator.choice`` coerces object sequences into arrays,
    which both is slow and mangles tuples; this helper indexes instead.
    """
    if len(items) == 0:
        raise ValueError("cannot choose from an empty sequence")
    if size is None:
        return items[int(rng.integers(0, len(items)))]
    idx = rng.integers(0, len(items), size=size)
    return [items[int(i)] for i in idx]
