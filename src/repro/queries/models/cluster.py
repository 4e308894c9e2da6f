"""The cluster plan: LEACH-style heads aggregate, then relay to the base.

"Cluster based models can enable the computation to be carried out in the
sensor network.  Sensors are divided into clusters and each cluster has a
cluster head.  Cluster heads aggregate information from the sensors in
individual clusters and send it to the base station."
"""

from __future__ import annotations

from repro.network.routing.cluster import ClusterFormation
from repro.queries.ast import Query
from repro.queries.classifier import QueryClass, base_class
from repro.queries.functions import is_decomposable
from repro.queries.models.base import (
    CostEstimate,
    ExecutionModel,
    ModelOutcome,
    OnComplete,
    Plan,
    QueryContext,
    QUERY_BITS,
    READING_BITS,
    RESULT_BITS,
)


class ClusterModel(ExecutionModel):
    """Two-tier aggregation: members → heads → base station.

    Heads are re-elected per query round (LEACH rotation), so repeated
    executions spread the head burden -- visible in the lifetime
    experiment (E9).
    """

    name = "cluster"
    contention_coeff = 0.3

    def __init__(self, head_fraction: float = 0.15) -> None:
        if not 0.0 < head_fraction <= 1.0:
            raise ValueError("head_fraction must be in (0, 1]")
        self.head_fraction = head_fraction

    def supports(self, query: Query, ctx: QueryContext) -> bool:
        """Simple lookups and decomposable aggregates (heads merge)."""
        cls = base_class(query)
        if cls is QueryClass.SIMPLE:
            return True
        if cls is QueryClass.AGGREGATE:
            return all(is_decomposable(f) for f in query.functions)
        return False

    def _form(self, ctx: QueryContext) -> ClusterFormation:
        return ClusterFormation(
            ctx.deployment.topology,
            sink=ctx.deployment.base_station_id,
            rng=ctx.streams.get("clustering"),
            head_fraction=self.head_fraction,
        )

    def estimate(self, query: Query, ctx: QueryContext, targets: list[int]) -> CostEstimate:
        if not targets or not self.supports(query, ctx):
            return CostEstimate.INFEASIBLE
        flood = self._flood_cost(query, ctx)
        formation = self._form(ctx)
        # restrict member transmissions to the targeted sensors: model the
        # non-target members as silent this round
        target_set = set(targets)
        formation.membership = {
            n: h for n, h in formation.membership.items()
            if n in target_set or n in formation.heads
        }
        cost = formation.aggregated_collection(
            READING_BITS, 128.0, ctx.deployment.radio, ctx.deployment.energy_model
        )
        if not any(t in cost.participating for t in targets):
            return CostEstimate.INFEASIBLE
        plan = Plan(flood, cost, radio_s=flood.latency_s + cost.latency_s,
                    result_s=ctx.deployment.radio.hop_time(RESULT_BITS))
        return CostEstimate(
            energy_j=flood.energy_j + cost.energy_j,
            time_s=plan.time_s,
            data_bits=cost.bits_total + QUERY_BITS,
            ops=10.0 * cost.messages,
            plan=plan,
        )

    def _run_plan(self, query: Query, ctx: QueryContext, targets: list[int],
                  estimate: CostEstimate, on_complete: OnComplete) -> None:
        # LEACH rotation: every formation draws new heads from the
        # clustering stream, and the rounds it runs depend on that draw
        # order -- so execution elects afresh rather than reusing the
        # Decision Maker's election
        estimate = self.estimate(query, ctx, targets)
        if not estimate.feasible:
            on_complete(ModelOutcome(False, None, self.name, 0.0, 0.0, 0.0, 0, "heads unreachable"))
            return
        super()._run_plan(query, ctx, targets, estimate, on_complete)
