"""Cost-model registry: build models by name.

The evaluation harness and the example scripts refer to models by short names
(``"ithemal"``, ``"uica"``, ``"crude"``, ``"port-pressure"``); this module
centralises their construction so every experiment builds them the same way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CachedCostModel, CostModel
from repro.models.ithemal import IthemalConfig, IthemalCostModel, train_ithemal
from repro.models.mca import PortPressureCostModel
from repro.models.uica import UiCACostModel
from repro.runtime.backend import BackendSource, resolve_backend
from repro.utils.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.explain.config import ExplainerConfig
    from repro.runtime.session import ExplanationSession


def available_cost_models() -> Tuple[str, ...]:
    """Short names accepted by :func:`build_cost_model`."""
    return ("crude", "uica", "port-pressure", "ithemal")


def build_cost_model(
    name: str,
    microarch="hsw",
    *,
    training_blocks: Optional[Sequence] = None,
    training_throughputs: Optional[Sequence[float]] = None,
    ithemal_config: Optional[IthemalConfig] = None,
    cached: bool = True,
    backend: BackendSource = None,
    workers: Optional[int] = None,
) -> CostModel:
    """Build a cost model by short name.

    ``"ithemal"`` requires ``training_blocks``/``training_throughputs`` (the
    neural model must be trained before it can be explained); the other models
    are analytical or simulation based and need no data.  When ``cached`` is
    true the model is wrapped in a :class:`CachedCostModel`, which is what the
    explanation workload wants.

    ``backend`` selects the execution substrate batch prediction fans out on
    (a short name — ``"serial"``/``"process"`` — or a constructed
    :class:`~repro.runtime.backend.ExecutionBackend`); ``workers`` sizes it.
    The model owns a backend built here and releases it on ``close()``.
    """
    key = name.strip().lower()
    model: CostModel
    if key in ("crude", "analytical", "c"):
        model = AnalyticalCostModel(microarch)
    elif key == "uica":
        model = UiCACostModel(microarch)
    elif key in ("port-pressure", "mca", "llvm-mca"):
        model = PortPressureCostModel(microarch)
    elif key == "ithemal":
        if training_blocks is None or training_throughputs is None:
            raise ReproError(
                "building the ithemal model requires training_blocks and "
                "training_throughputs (see repro.data.BHiveDataset)"
            )
        model = train_ithemal(
            training_blocks, training_throughputs, microarch, ithemal_config
        )
    else:
        raise ReproError(
            f"unknown cost model {name!r}; available: {available_cost_models()}"
        )
    wrapped = CachedCostModel(model) if cached else model
    if backend is not None:
        wrapped.set_backend(resolve_backend(backend, workers), own=True)
    return wrapped


def build_session(
    name: str,
    microarch="hsw",
    *,
    config: Optional["ExplainerConfig"] = None,
    backend: BackendSource = None,
    workers: Optional[int] = None,
    rng=None,
    cache_entries: int = 100_000,
    result_cache=None,
    **model_kwargs,
) -> "ExplanationSession":
    """Build a warm :class:`~repro.runtime.session.ExplanationSession` by model name.

    This is the one construction path for every long-lived serving surface
    (the explanation service's per-model pool, benchmark warm runs, scripts):
    the registry builds the cached model, the session resolves — and owns —
    the execution backend and the run-level shared state.  Closing the
    returned session releases the backend; ``model_kwargs`` are forwarded to
    :func:`build_cost_model` (e.g. ``training_blocks`` for ``"ithemal"``).
    ``result_cache`` is the session's: a caller-owned
    :class:`~repro.cache.ResultCache`, a path or ``True`` for a
    session-owned disk or memory-only store, or ``None``/``False`` for off.
    """
    from repro.runtime.session import ExplanationSession

    # The session wraps the raw model itself so ``cache_entries`` actually
    # sizes the LRU (a pre-wrapped model would keep its own default bound).
    model = build_cost_model(name, microarch, cached=False, **model_kwargs)
    return ExplanationSession(
        model,
        config,
        backend=backend,
        workers=workers,
        rng=rng,
        cache_entries=cache_entries,
        result_cache=result_cache,
    )
