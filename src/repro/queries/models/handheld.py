"""The handheld plan: compute on the fire fighter's device.

"The data is delivered to the base station/PDA, which perform the
computation."  Attractive when disconnected from the grid and the
computation is light; hopeless for the PDE (a handheld is ~5 orders of
magnitude slower than the grid).
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
)


class HandheldModel(ExecutionModel):
    """Raw collection to the base, forward to the handheld, compute there."""

    name = "handheld"
    contention_coeff = 0.8

    def supports(self, query: Query, ctx: QueryContext) -> bool:
        """All queries -- but the estimate exposes the compute penalty."""
        return ctx.deployment.n_handhelds > 0

    def estimate(self, query: Query, ctx: QueryContext, targets: list[int]) -> CostEstimate:
        if not targets or not self.supports(query, ctx):
            return CostEstimate.INFEASIBLE
        flood = self._flood_cost(query, ctx)
        collect = collection.raw_collection(ctx.deployment, targets, READING_BITS)
        if len(collect.participating) <= 1:
            return CostEstimate.INFEASIBLE
        ops = self.compute_ops(query, ctx, len(collect.participating) - 1)
        # forward all readings base -> handheld (one wireless hop)
        forward_s = ctx.deployment.radio.hop_time(collect.bits_total)
        plan = Plan(flood, collect,
                    radio_s=flood.latency_s + collect.latency_s + forward_s,
                    compute_s=ops / ctx.handheld_rate)
        return CostEstimate(
            energy_j=flood.energy_j + collect.energy_j,  # handheld is rechargeable
            time_s=plan.time_s,
            data_bits=collect.bits_total * 2 + QUERY_BITS,
            ops=ops,
            plan=plan,
        )
