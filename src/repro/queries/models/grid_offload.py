"""The grid plan: ship the data out, compute on the wired grid.

"Most importantly, the grid can be used to perform the computation.  The
data would be transferred to the grid through the base station.  The
computation would be done in the grid and results would be returned to
the base station."  The only plan that makes complex (PDE) queries
interactive -- and the most data-hungry one.
"""

from __future__ import annotations

from repro.grid.job import ComputeJob
from repro.queries.ast import Query
from repro.queries.functions import COMPLEX_FUNCTIONS
from repro.queries.models import collection
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


class GridOffloadModel(ExecutionModel):
    """Raw collection to the base, uplink to the grid, compute, download."""

    name = "grid"
    contention_coeff = 0.8  # same raw convergecast as the centralized plan

    def supports(self, query: Query, ctx: QueryContext) -> bool:
        """Everything -- while the uplink is up (disconnected operation
        is exactly when the Decision Maker must keep computation local)."""
        return ctx.grid.online

    def _result_bits(self, query: Query, ctx: QueryContext) -> float:
        bits = 0.0
        for item in query.select:
            if item.func and item.func in COMPLEX_FUNCTIONS:
                per_point = COMPLEX_FUNCTIONS[item.func]["output_bits_per_point"]
                if item.func == "DISTRIBUTION":
                    n_points = ctx.grid_resolution**2
                elif item.func == "DISTRIBUTION3D":
                    n_points = ctx.grid_resolution**2 * max(ctx.grid_resolution // 4, 4)
                else:
                    n_points = 10
                bits += per_point * n_points
            else:
                bits += RESULT_BITS
        return bits

    def estimate(self, query: Query, ctx: QueryContext, targets: list[int]) -> CostEstimate:
        if not targets:
            return CostEstimate.INFEASIBLE
        flood = self._flood_cost(query, ctx)
        collect = collection.raw_collection(ctx.deployment, targets, READING_BITS)
        if len(collect.participating) <= 1:
            return CostEstimate.INFEASIBLE
        ops = self.compute_ops(query, ctx, len(collect.participating) - 1)
        job = ComputeJob(ops=ops, input_bits=collect.bits_total,
                         output_bits=self._result_bits(query, ctx))
        plan = Plan(flood, collect, radio_s=flood.latency_s + collect.latency_s,
                    compute_s=ctx.grid.estimate_offload_time(job),
                    result_s=ctx.deployment.radio.hop_time(RESULT_BITS), job=job)
        return CostEstimate(
            energy_j=flood.energy_j + collect.energy_j,  # uplink is mains-powered
            time_s=plan.time_s,
            data_bits=collect.bits_total + QUERY_BITS + job.input_bits + job.output_bits,
            ops=ops,
            plan=plan,
        )

    def _run_plan(self, query: Query, ctx: QueryContext, targets: list[int],
                  estimate: CostEstimate, on_complete: OnComplete) -> None:
        """Collect, then offload the answer to the grid; the measured
        offload replaces the plan's estimated compute time."""
        plan = estimate.plan
        readings, wireless_s, energy_j, close_collect = self._collect(query, ctx, targets, estimate)

        def start_offload() -> None:
            close_collect(bool(readings))
            if not readings:
                on_complete(ModelOutcome(False, None, self.name, wireless_s,
                                         energy_j, estimate.data_bits, 0, "no readings"))
                return
            plan.job.compute = lambda: self.compute_answer(query, ctx, readings)
            started_at = ctx.sim.now

            def grid_done(result) -> None:
                total_s = wireless_s + (ctx.sim.now - started_at) + plan.result_s
                on_complete(ModelOutcome(True, result.value, self.name, total_s,
                                         energy_j, estimate.data_bits, len(readings)))

            def grid_failed(reason: str) -> None:
                # the uplink dropped (or the job died) after the decision
                # was made -- fail cleanly with a typed reason (the
                # executor counts it) rather than leaking an exception
                # out of the event loop
                total_s = wireless_s + (ctx.sim.now - started_at)
                on_complete(ModelOutcome(False, None, self.name, total_s,
                                         energy_j, estimate.data_bits, len(readings), reason))

            ctx.grid.offload(plan.job, grid_done, on_failure=grid_failed)

        ctx.sim.schedule(wireless_s, start_offload, label=f"exec:{self.name}")
