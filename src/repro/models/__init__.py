"""Cost models: the systems COMET explains.

All models implement the :class:`~repro.models.base.CostModel` query
interface (``predict(block) -> cycles``), which is the only access COMET
assumes (Section 4).  The package provides:

* :class:`AnalyticalCostModel` — the crude interpretable model ``C`` of
  Section 6 used to compute ground-truth explanations,
* :class:`UiCACostModel` — a simulation-based model built on the
  out-of-order pipeline simulator (stand-in for uiCA),
* :class:`PortPressureCostModel` — an LLVM-MCA-style bound-based baseline,
* :class:`IthemalCostModel` — a hierarchical LSTM neural model in pure NumPy
  (stand-in for Ithemal).
"""

from repro.models.base import (
    CostModel,
    CachedCostModel,
    QueryTally,
    CallableCostModel,
)
from repro.models.analytical import (
    AnalyticalCostModel,
    ground_truth_explanations,
    feature_costs,
)
from repro.models.pipeline import PipelineSimulator, SimulationConfig, SimulationResult
from repro.models.uica import UiCACostModel
from repro.models.mca import PortPressureCostModel
from repro.models.lstm import LSTMCell, LSTMLayer, sequence_final_state
from repro.models.ithemal import (
    IthemalCostModel,
    IthemalConfig,
    BlockTokenizer,
    train_ithemal,
)
from repro.models.registry import build_cost_model, available_cost_models

__all__ = [
    "CostModel",
    "CachedCostModel",
    "QueryTally",
    "CallableCostModel",
    "AnalyticalCostModel",
    "ground_truth_explanations",
    "feature_costs",
    "PipelineSimulator",
    "SimulationConfig",
    "SimulationResult",
    "UiCACostModel",
    "PortPressureCostModel",
    "LSTMCell",
    "LSTMLayer",
    "sequence_final_state",
    "IthemalCostModel",
    "IthemalConfig",
    "BlockTokenizer",
    "train_ithemal",
    "build_cost_model",
    "available_cost_models",
]
