"""Namespaced metric conventions over the :class:`~repro.simkernel.monitor.Monitor`.

The monitor grew organically: ``net.sent``, ``queries.failed.no-targets``,
``resilience.breaker.trips`` -- useful, but ad hoc.  This module is the
single place where metric names are legislated:

* :data:`CONVENTIONS` -- the catalog of canonical instruments, each a
  :class:`MetricSpec` (``<subsystem>.<noun>[_<unit>]``, instrument type,
  unit, description).
* :data:`ALIASES` -- legacy monitor keys mapped onto canonical names, so
  existing recording sites keep working while summaries speak one
  language.
* :func:`canonical_summary` -- a monitor summary re-keyed canonically.
* :func:`rollup_by_subsystem` -- counters grouped by namespace for the
  report CLI and the examples' end-of-run tables.

New instrumentation should record straight into canonical names; the
alias table is how the old ones converge without a flag-day rename.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.simkernel.monitor import Monitor

#: Known instrument types (mirrors the Monitor's accessors).
INSTRUMENTS = ("counter", "gauge", "histogram", "series")


@dataclasses.dataclass(frozen=True)
class MetricSpec:
    """One canonical instrument.

    Attributes
    ----------
    name:
        Canonical dotted name; the first component is the subsystem.
    instrument:
        One of :data:`INSTRUMENTS`.
    unit:
        Unit suffix convention (``"1"`` for dimensionless counts).
    description:
        What the number means.
    """

    name: str
    instrument: str
    unit: str
    description: str

    def __post_init__(self) -> None:
        if self.instrument not in INSTRUMENTS:
            raise ValueError(f"instrument must be one of {INSTRUMENTS}")
        if "." not in self.name:
            raise ValueError("canonical metric names are '<subsystem>.<rest>'")

    @property
    def subsystem(self) -> str:
        return self.name.split(".", 1)[0]


def _catalog(specs: typing.Iterable[MetricSpec]) -> dict[str, MetricSpec]:
    out: dict[str, MetricSpec] = {}
    for spec in specs:
        if spec.name in out:
            raise ValueError(f"duplicate metric {spec.name!r}")
        out[spec.name] = spec
    return out


#: The canonical instrument catalog.
CONVENTIONS: dict[str, MetricSpec] = _catalog([
    # network
    MetricSpec("net.msgs_sent", "counter", "1", "unicast messages submitted"),
    MetricSpec("net.msgs_delivered", "counter", "1", "unicast messages delivered"),
    MetricSpec("net.msgs_dropped", "counter", "1", "unicast messages dropped"),
    MetricSpec("net.hops", "counter", "1", "hops traversed by delivered messages"),
    MetricSpec("net.node_deaths", "counter", "1", "nodes killed by battery depletion"),
    MetricSpec("net.latency", "series", "s", "per-delivery end-to-end latency"),
    MetricSpec("net.route_cache.hits", "counter", "1", "route queries answered from cache"),
    MetricSpec("net.route_cache.misses", "counter", "1",
               "first route query of a generation for a root's parent map or hop counts"),
    MetricSpec("net.route_cache.invalidations", "counter", "1",
               "cache flushes caused by topology changes"),
    # energy
    MetricSpec("energy.j_spent", "counter", "J", "radio energy drawn from batteries"),
    # queries
    MetricSpec("queries.submitted", "counter", "1", "queries accepted by the executor"),
    MetricSpec("queries.epochs", "counter", "1", "query epochs executed"),
    MetricSpec("queries.failed", "counter", "1", "epochs that produced no answer"),
    MetricSpec("queries.latency", "histogram", "s", "per-epoch turnaround"),
    # grid
    MetricSpec("grid.jobs_dispatched", "counter", "1", "jobs dispatched to a site"),
    MetricSpec("grid.jobs_resubmitted", "counter", "1", "checkpointed re-submissions"),
    MetricSpec("grid.uplink_transfers", "counter", "1", "WAN transfers started"),
    MetricSpec("grid.uplink_deferred", "counter", "1", "transfers queued through an outage"),
    MetricSpec("grid.queue_wait", "histogram", "s", "job queue waits"),
    # discovery (the replicated, event-sourced registry + broker group)
    MetricSpec("disc.advertise", "counter", "1", "advertisements appended (incl. refreshes)"),
    MetricSpec("disc.search", "counter", "1", "registry searches served"),
    MetricSpec("disc.withdraw", "counter", "1", "descriptions withdrawn (name or dead host)"),
    MetricSpec("disc.replay_events", "counter", "1",
               "log events replayed by catching-up registry views"),
    MetricSpec("disc.broker_down", "counter", "1", "active-broker losses"),
    MetricSpec("disc.failover", "counter", "1", "standby promotions completed"),
    MetricSpec("disc.failover_time", "histogram", "s",
               "outage length from active loss to standby promotion"),
    MetricSpec("disc.lookup_latency", "histogram", "s",
               "client-observed discovery lookup turnaround"),
    # composition
    MetricSpec("composition.completed", "counter", "1", "composite executions that succeeded"),
    MetricSpec("composition.failed", "counter", "1", "composite executions that failed"),
    MetricSpec("composition.rebinds", "counter", "1", "services re-bound across retries"),
    MetricSpec("composition.timeouts", "counter", "1", "attempt timeouts"),
    # faults
    MetricSpec("faults.injected", "counter", "1", "fault injections fired"),
    MetricSpec("faults.recovered", "counter", "1", "fault recoveries fired"),
    MetricSpec("faults.active", "series", "1", "active faults over time"),
    # resilience
    MetricSpec("resilience.breaker_trips", "counter", "1", "circuit-breaker opens"),
    MetricSpec("resilience.retries", "counter", "1", "retry attempts (all layers)"),
    MetricSpec("resilience.hedges", "counter", "1", "hedged duplicates fired"),
    # wms (the workload-management service: queues + pilots)
    MetricSpec("wms.tasks_submitted", "counter", "1", "tasks accepted by the queue service"),
    MetricSpec("wms.tasks_dispatched", "counter", "1", "tasks claimed by pilots"),
    MetricSpec("wms.tasks_completed", "counter", "1", "tasks that finished successfully"),
    MetricSpec("wms.tasks_failed", "counter", "1", "tasks that failed after all attempts"),
    MetricSpec("wms.tasks_requeued", "counter", "1", "failed tasks returned to the queue"),
    MetricSpec("wms.tasks_starved", "counter", "1",
               "starvation episodes (a class's head wait exceeded the threshold)"),
    MetricSpec("wms.queue_depth", "series", "1", "waiting tasks over time"),
    MetricSpec("wms.queue_latency", "histogram", "s", "submit-to-dispatch waits"),
    MetricSpec("wms.turnaround", "histogram", "s", "submit-to-completion times"),
    # parallel (the trial runner's deterministic reduction)
    MetricSpec("parallel.trials", "counter", "1", "trial worlds reduced into this monitor"),
    MetricSpec("parallel.trial_failures", "counter", "1", "trial worlds that failed in a worker"),
    # slo (the verdict layer watching all of the above)
    MetricSpec("slo.evaluations", "counter", "1", "SLO evaluation ticks executed"),
    MetricSpec("slo.alerts_fired", "counter", "1", "SLO alerts transitioned to firing"),
    MetricSpec("slo.alerts_resolved", "counter", "1", "SLO alerts resolved"),
    MetricSpec("slo.breached", "series", "1", "concurrently-firing SLOs over time"),
    # obs (telemetry watching itself: bounded tracing + trace sampling)
    MetricSpec("obs.trace.dropped", "counter", "1",
               "trace records evicted by the max_records ring"),
    MetricSpec("obs.sampling.traces_emitted", "counter", "1",
               "root spans (traces) started"),
    MetricSpec("obs.sampling.traces_retained", "counter", "1",
               "traces retained (head, tail, or exemplar)"),
    MetricSpec("obs.sampling.traces_dropped", "counter", "1",
               "traces dropped after tail inspection"),
    MetricSpec("obs.sampling.spans_emitted", "counter", "1",
               "span records offered to the sampler"),
    MetricSpec("obs.sampling.spans_retained", "counter", "1",
               "span records retained after sampling"),
    MetricSpec("obs.sampling.spans_dropped", "counter", "1",
               "span records dropped by sampling"),
    MetricSpec("obs.sampling.head_kept", "counter", "1",
               "traces kept by deterministic head sampling"),
    MetricSpec("obs.sampling.tail_kept", "counter", "1",
               "traces kept by tail rules (error / SLO alert / slow outlier)"),
    MetricSpec("obs.sampling.exemplars_kept", "counter", "1",
               "happy-path traces kept by the seeded exemplar reservoir"),
    MetricSpec("obs.sampling.budget_deferred", "counter", "1",
               "head keeps deferred to tail rules by the span budget"),
])

#: Legacy monitor keys -> canonical names.
ALIASES: dict[str, str] = {
    "net.sent": "net.msgs_sent",
    "net.delivered": "net.msgs_delivered",
    "net.dropped": "net.msgs_dropped",
    "net.energy_j": "energy.j_spent",
    "resilience.breaker.trips": "resilience.breaker_trips",
}


def canonical_name(name: str) -> str:
    """Map a monitor key to its canonical name (identity when unknown).

    Suffixed keys from :meth:`Monitor.summary` (``net.sent.increments``)
    follow their base key's alias.
    """
    if name in ALIASES:
        return ALIASES[name]
    for suffix in (".increments", ".count", ".mean", ".p50", ".p95", ".p99",
                   ".total", ".max"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if base in ALIASES:
                return ALIASES[base] + suffix
    return name


def canonical_summary(monitor: Monitor) -> dict[str, typing.Any]:
    """The monitor's summary re-keyed onto canonical names, key-sorted.

    Colliding keys (a legacy alias and its canonical twin both recorded)
    are summed -- they count the same underlying thing.
    """
    out: dict[str, typing.Any] = {}
    for key, value in monitor.summary().items():
        name = canonical_name(key)
        if name in out and isinstance(value, (int, float)):
            out[name] = out[name] + value
        else:
            out[name] = value
    return dict(sorted(out.items()))


def rollup_by_subsystem(monitor: Monitor) -> dict[str, dict[str, typing.Any]]:
    """Canonical summary grouped by leading namespace, both levels sorted."""
    grouped: dict[str, dict[str, typing.Any]] = {}
    for name, value in canonical_summary(monitor).items():
        subsystem = name.split(".", 1)[0]
        grouped.setdefault(subsystem, {})[name] = value
    return {sub: dict(sorted(vals.items())) for sub, vals in sorted(grouped.items())}
