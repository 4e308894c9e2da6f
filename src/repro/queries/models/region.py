"""The region-averaging plan: trade accuracy for data transfer.

"depending upon the accuracy of results required, instead of sending
each sensor reading to the grid, one might only send the average reading
from a region (the size of the region depending on the level of accuracy
needed)."

Targets are grouped into the spatial rooms grid; one averaged pseudo-
reading per occupied region travels to the base station (and on to the
grid for complex functions).  The answer is computed from the regional
averages, so it is *approximate*; the expected relative error shrinks as
``regions_per_side`` grows -- the knob COST ``accuracy`` clauses turn.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.grid.job import ComputeJob
from repro.queries.ast import Query
from repro.queries.classifier import QueryClass, base_class
from repro.queries.functions import COMPLEX_FUNCTIONS
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
from repro.sensors.node import Reading


@dataclasses.dataclass
class RegionPlan(Plan):
    """A region plan: members relay to one representative per region,
    whose averaged records make up :attr:`collect`."""

    groups: dict[int, list[int]] = dataclasses.field(default_factory=dict)
    reps: list[int] = dataclasses.field(default_factory=list)
    member_energy: np.ndarray | None = None
    member_msgs: int = 0

    @property
    def messages(self) -> int:
        return self.member_msgs + super().messages


class RegionAverageModel(ExecutionModel):
    """Regional averages instead of raw readings; compute at grid/base.

    Parameters
    ----------
    regions_per_side:
        Granularity of the averaging grid (higher = more accurate, more
        data).
    """

    name = "region"
    contention_coeff = 0.25

    def __init__(self, regions_per_side: int = 3) -> None:
        if regions_per_side < 1:
            raise ValueError("regions_per_side must be positive")
        self.regions_per_side = regions_per_side

    def supports(self, query: Query, ctx: QueryContext) -> bool:
        """Averaging-compatible queries: AVG/SUM/COUNT aggregates and
        complex functions (which interpolate anyway).  MAX/MIN/MEDIAN
        would be badly biased by averaging; simple lookups gain nothing."""
        cls = base_class(query)
        if cls is QueryClass.SIMPLE:
            return False
        ok_aggs = {"AVG", "SUM", "COUNT"}
        for f in query.functions:
            if f in ok_aggs or f in COMPLEX_FUNCTIONS:
                continue
            return False
        return True

    # ------------------------------------------------------------------
    def _region_of(self, ctx: QueryContext, pos: np.ndarray) -> int:
        cell = ctx.deployment.area_m / self.regions_per_side
        col = min(int(pos[0] / cell), self.regions_per_side - 1)
        row = min(int(pos[1] / cell), self.regions_per_side - 1)
        return row * self.regions_per_side + col

    def _region_groups(self, ctx: QueryContext, targets: list[int]) -> dict[int, list[int]]:
        groups: dict[int, list[int]] = {}
        for t in targets:
            pos = ctx.deployment.topology.position_of(t)
            groups.setdefault(self._region_of(ctx, pos), []).append(t)
        return groups

    def _representatives(self, ctx: QueryContext, groups: dict[int, list[int]]) -> list[int]:
        """One relay sensor per occupied region (lowest id: deterministic)."""
        return [min(members) for members in groups.values()]

    def _expected_rel_error(self, n_targets: int, n_regions: int) -> float:
        """Coarse error model: averaging n targets into k regions.

        Sub-sampling error shrinks like sqrt(k/n); exact when every
        target is its own region.
        """
        if n_targets <= 0 or n_regions <= 0:
            return 1.0
        if n_regions >= n_targets:
            return 0.0
        return 0.25 * float(np.sqrt(1.0 - n_regions / n_targets))

    def estimate(self, query: Query, ctx: QueryContext, targets: list[int]) -> CostEstimate:
        if not targets or not self.supports(query, ctx):
            return CostEstimate.INFEASIBLE
        groups = self._region_groups(ctx, targets)
        reps = self._representatives(ctx, groups)
        flood = self._flood_cost(query, ctx)
        # members send one reading to their region representative
        # (single-hop cluster assumption, as in LEACH), then reps send one
        # averaged record to the base
        topo = ctx.deployment.topology
        em = ctx.deployment.energy_model
        member_energy = np.zeros(topo.n_nodes)
        member_msgs = 0
        for rep, members in zip(reps, groups.values()):
            for m in members:
                if m == rep:
                    continue
                d = topo.distance(m, rep)
                member_energy[m] += em.tx_cost(READING_BITS, d)
                member_energy[rep] += em.rx_cost(READING_BITS) + em.cpu_cost(10.0)
                member_msgs += 1
        rep_collect = collection.raw_collection(ctx.deployment, reps, READING_BITS * 2)
        if len(rep_collect.participating) <= 1:
            return CostEstimate.INFEASIBLE
        member_latency = ctx.deployment.radio.hop_time(READING_BITS)
        # complex parts go to the grid when reachable; during an uplink
        # outage the base station computes them instead (slower, but the
        # regional reduction keeps the input small -- graceful degradation)
        needs_grid = any(f in COMPLEX_FUNCTIONS for f in query.functions) and ctx.grid.online
        ops = self.compute_ops(query, ctx, len(groups))
        if needs_grid:
            job = ComputeJob(ops=ops, input_bits=rep_collect.bits_total,
                             output_bits=COMPLEX_FUNCTIONS["DISTRIBUTION"]["output_bits_per_point"]
                             * ctx.grid_resolution**2)
            compute_s = ctx.grid.estimate_offload_time(job)
        else:
            compute_s = ops / ctx.base_rate
        plan = RegionPlan(
            flood, rep_collect,
            radio_s=flood.latency_s + member_latency + rep_collect.latency_s,
            compute_s=compute_s, result_s=ctx.deployment.radio.hop_time(RESULT_BITS),
            groups=groups, reps=reps, member_energy=member_energy, member_msgs=member_msgs,
        )
        return CostEstimate(
            energy_j=flood.energy_j + float(member_energy.sum()) + rep_collect.energy_j,
            time_s=plan.time_s,
            data_bits=QUERY_BITS + member_msgs * READING_BITS + rep_collect.bits_total,
            ops=ops,
            rel_error=self._expected_rel_error(len(targets), len(groups)),
            plan=plan,
        )

    def _collect(self, query: Query, ctx: QueryContext, targets: list[int], estimate: CostEstimate):
        """Sample every target and average per region: the readings are
        one pseudo-reading per occupied region."""
        plan = estimate.plan
        time_factor, energy_factor = self._actual_factors(
            ctx, plan.messages, collection.mean_target_depth(ctx.deployment, plan.reps),
        )
        self._charge(ctx, plan.flood.per_node_energy + plan.member_energy
                     + plan.collect.per_node_energy, energy_factor)
        ctx.mark_disseminated(query)

        # sample all targets, then regionally average into pseudo-readings
        readings = self._sample_targets(query, ctx, targets)
        by_region: dict[int, list[Reading]] = {}
        for r in readings:
            pos = ctx.deployment.topology.position_of(r.sensor_id)
            by_region.setdefault(self._region_of(ctx, pos), []).append(r)
        pseudo: list[Reading] = []
        for region, rs in sorted(by_region.items()):
            rep = min(r.sensor_id for r in rs)
            avg = float(np.mean([r.value for r in rs]))
            pseudo.append(Reading(sensor_id=rep, time=ctx.sim.now, value=avg,
                                  attribute=rs[0].attribute))

        wireless_s = plan.radio_s * time_factor
        close_collect = self._trace_collect(ctx, plan, len(targets), len(readings), wireless_s)
        return pseudo, wireless_s, estimate.energy_j * energy_factor, close_collect

    def _answer(self, query: Query, ctx: QueryContext,
                pseudo: list[Reading], plan: RegionPlan) -> typing.Any:
        """Evaluate over regional averages; SUM/COUNT re-weighted by
        region populations (an unweighted sum of averages would be
        nonsense)."""
        weights = {rep: len(members) for rep, members in zip(plan.reps, plan.groups.values())}
        answers: dict[str, typing.Any] = {}
        values = np.array([r.value for r in pseudo])
        counts = np.array([weights.get(r.sensor_id, 1) for r in pseudo], dtype=float)
        for item in query.select:
            key = str(item)
            if item.func == "AVG":
                answers[key] = float(np.average(values, weights=counts))
            elif item.func == "SUM":
                answers[key] = float(np.sum(values * counts))
            elif item.func == "COUNT":
                answers[key] = float(counts.sum())
            else:
                answers[key] = self.compute_answer(
                    Query(select=(item,), raw=query.raw), ctx, pseudo
                )
        if len(answers) == 1:
            return next(iter(answers.values()))
        return answers
