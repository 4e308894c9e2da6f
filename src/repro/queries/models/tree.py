"""The TAG plan: in-network aggregation over an aggregation tree.

"Another way to perform in-network aggregation is to use aggregation
trees.  Data would be routed and aggregated through the aggregation
trees."  Only *decomposable* aggregates (and simple lookups, which are a
one-path special case) can run this way -- the restriction TAG itself has
and the reason the Decision Maker exists at all.
"""

from __future__ import annotations

from repro.queries.ast import Query
from repro.queries.classifier import QueryClass, base_class
from repro.queries.functions import DECOMPOSABLE, is_decomposable
from repro.queries.models import collection
from repro.queries.models.base import (
    CostEstimate,
    ExecutionModel,
    Plan,
    QueryContext,
    QUERY_BITS,
    RESULT_BITS,
)


class InNetworkTreeModel(ExecutionModel):
    """Aggregated convergecast: one partial-state record per tree node.

    Energy scales with node count (not reading count squared) and the
    root never congests -- the cheapest plan whenever it applies.
    """

    name = "tree"
    contention_coeff = 0.15

    def supports(self, query: Query, ctx: QueryContext) -> bool:
        """Simple lookups and decomposable aggregates only."""
        cls = base_class(query)
        if cls is QueryClass.SIMPLE:
            return True
        if cls is QueryClass.AGGREGATE:
            return all(is_decomposable(f) for f in query.functions)
        return False

    def _partial_bits(self, query: Query) -> float:
        """Wire size of the merged partial-state record for this query."""
        bits = 0.0
        for f in query.functions:
            bits += DECOMPOSABLE[f.upper()].state_size_bits
        return bits or 64.0  # simple query: one reading-sized record

    def estimate(self, query: Query, ctx: QueryContext, targets: list[int]) -> CostEstimate:
        if not targets or not self.supports(query, ctx):
            return CostEstimate.INFEASIBLE
        flood = self._flood_cost(query, ctx)
        collect = collection.aggregated_collection(
            ctx.deployment, targets, self._partial_bits(query)
        )
        if len(collect.participating) <= 1:
            return CostEstimate.INFEASIBLE
        # in-network merging produces exactly the aggregate value, so the
        # base only finalizes (trivially) and forwards the result
        plan = Plan(flood, collect, radio_s=flood.latency_s + collect.latency_s,
                    result_s=ctx.deployment.radio.hop_time(RESULT_BITS))
        return CostEstimate(
            energy_j=flood.energy_j + collect.energy_j,
            time_s=plan.time_s,
            data_bits=collect.bits_total + QUERY_BITS,
            ops=10.0 * collect.messages,
            plan=plan,
        )
