"""The centralized plan: raw readings to the base station, compute there.

"In a simple model, all sensors would send their data to the base
station.  The base station would then perform the computation over the
data." -- the paper's baseline ("sensors ... treated as dumb data
sources"), whose energy cost motivates everything else.
"""

from __future__ import annotations

from repro.queries.ast import Query
from repro.queries.models import collection
from repro.queries.models.base import (
    CostEstimate,
    ExecutionModel,
    Plan,
    QueryContext,
    QUERY_BITS,
    READING_BITS,
    RESULT_BITS,
)


class CentralizedModel(ExecutionModel):
    """Raw convergecast to the base station; computation at the base.

    Supports every query (the base sees all raw readings), but pays the
    full data-transfer energy and serializes the root's inlink -- high
    contention by construction.
    """

    name = "centralized"
    contention_coeff = 0.8

    def supports(self, query: Query, ctx: QueryContext) -> bool:
        """All queries are computable from raw readings at the base."""
        return True

    def estimate(self, query: Query, ctx: QueryContext, targets: list[int]) -> CostEstimate:
        if not targets:
            return CostEstimate.INFEASIBLE
        flood = self._flood_cost(query, ctx)
        collect = collection.raw_collection(ctx.deployment, targets, READING_BITS)
        if len(collect.participating) <= 1:
            return CostEstimate.INFEASIBLE
        ops = self.compute_ops(query, ctx, len(collect.participating) - 1)  # minus the root
        plan = Plan(flood, collect, radio_s=flood.latency_s + collect.latency_s,
                    compute_s=ops / ctx.base_rate,
                    result_s=ctx.deployment.radio.hop_time(RESULT_BITS))
        return CostEstimate(
            energy_j=flood.energy_j + collect.energy_j,
            time_s=plan.time_s,
            data_bits=collect.bits_total + QUERY_BITS,
            ops=ops,
            plan=plan,
        )
