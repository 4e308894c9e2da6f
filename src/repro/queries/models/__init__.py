"""Execution models for sensor queries (the §4 "solution models").

The paper names the candidate plans the Decision Maker chooses among:

* "all sensors would send their data to the base station.  The base
  station would then perform the computation" --
  :class:`~repro.queries.models.centralized.CentralizedModel`.
* "Cluster based models can enable the computation to be carried out in
  the sensor network" --
  :class:`~repro.queries.models.cluster.ClusterModel`.
* "Another way to perform in-network aggregation is to use aggregation
  trees" -- :class:`~repro.queries.models.tree.InNetworkTreeModel`.
* "Most importantly, the grid can be used to perform the computation" --
  :class:`~repro.queries.models.grid_offload.GridOffloadModel`.
* "The data is delivered to the base station/PDA, which perform the
  computation" -- :class:`~repro.queries.models.handheld.HandheldModel`.
* "instead of sending each sensor reading to the grid, one might only
  send the average reading from a region" --
  :class:`~repro.queries.models.region.RegionAverageModel`.

Every model builds its plan once, in an analytic
:meth:`~repro.queries.models.base.ExecutionModel.estimate` the Decision
Maker compares; :meth:`~repro.queries.models.base.ExecutionModel.execute`
runs the chosen estimate's plan in the DES, charges real batteries,
computes real values and reports *actuals* that deviate from estimates
through MAC contention and retransmission effects -- the estimate/actual
gap the adaptive learner closes.  The cluster model alone re-estimates at
execute: LEACH draws fresh heads from the ``clustering`` stream on every
formation, and results depend on that draw order.
"""

from repro.queries.models.base import (
    CostEstimate,
    ExecutionModel,
    ModelOutcome,
    QueryContext,
    complex_ops,
)
from repro.queries.models.centralized import CentralizedModel
from repro.queries.models.tree import InNetworkTreeModel
from repro.queries.models.cluster import ClusterModel
from repro.queries.models.grid_offload import GridOffloadModel
from repro.queries.models.handheld import HandheldModel
from repro.queries.models.region import RegionAverageModel

#: The default model registry, in a stable order.
ALL_MODELS = (
    CentralizedModel,
    InNetworkTreeModel,
    ClusterModel,
    GridOffloadModel,
    HandheldModel,
    RegionAverageModel,
)

__all__ = [
    "CostEstimate",
    "ExecutionModel",
    "ModelOutcome",
    "QueryContext",
    "complex_ops",
    "CentralizedModel",
    "InNetworkTreeModel",
    "ClusterModel",
    "GridOffloadModel",
    "HandheldModel",
    "RegionAverageModel",
    "ALL_MODELS",
]
