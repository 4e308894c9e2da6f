"""The benchmark's two workloads: seeded inputs, one round each.

A *round* builds a fresh runtime (and, for crowd-churn, its workload
manager and fault schedule) from constants, then feeds it the inputs the
seed generated.  The program sees only those inputs: query texts,
arrival times and a crash schedule.  Every round of a seed is the same
computation, so each one must reproduce the same outcome digest.

Workloads (why each was chosen is in ``perfbench/README.md``):

* ``fig1-mix``: the paper's 49-sensor building, default query mix,
  closed loop with one client.
* ``crowd-churn``: 144 sensors, 12 grid sites, continuous queries from
  16 owners through the workload manager on a fixed simulated-time
  arrival schedule, with a seeded node-crash schedule.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import math
import re
import struct
import time
import typing

import numpy as np

#: The runtime's own seed.  It is fixed: ``--seed`` varies the inputs,
#: never the program.
RUNTIME_SEED = 0
#: Figure 1 places 7x7 sensors over 60 m; larger lattices keep its spacing.
FIG1_SPACING_M = 60.0 / 7
#: Closed-loop queries at the start of each round that fill the route
#: cache; their wall time counts in ``epochs_per_s`` but not in the
#: ``query_ms`` percentiles.
WARMUP_QUERIES = 20
#: Seed of the draws that fix each round's strata (see :func:`template`).
STRATA_SEED = 2003
#: Give up filling a round's strata after this many generator draws.
MAX_DRAWS = 1_000_000


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    closed_loop: bool
    runtime: dict
    n_sensors: int
    mix: tuple[float, float, float, float]
    n_queries: int
    arrival_gap_s: float = 0.0
    owners: int = 1
    crash_gap_s: float = 0.0
    crash_down_s: float = 0.0


WORKLOADS = {
    w.name: w for w in (
        Workload("fig1-mix", True, {}, 49, (0.3, 0.4, 0.15, 0.15), 400),
        Workload("crowd-churn", False,
                 {"n_sensors": 144, "area_m": 12 * FIG1_SPACING_M,
                  "site_rates": (1e9, 1e12, 2e9, 5e11, 4e9, 2e11,
                                 8e9, 1e11, 1e9, 1e12, 2e9, 5e11)},
                 144, (0.0, 0.0, 0.0, 1.0), 100,
                 arrival_gap_s=2.0, owners=16, crash_gap_s=4.0, crash_down_s=15.0),
    )
}


@dataclasses.dataclass(frozen=True)
class Inputs:
    """Everything the seed decides."""

    workload: Workload
    seed: int
    texts: tuple[str, ...]
    #: simulated arrival time per query (open loop only)
    arrivals: tuple[float, ...] = ()
    #: (node, at_s, down_s) per crash (open loop only)
    crashes: tuple[tuple[int, float, float], ...] = ()


_EPOCH_RE = re.compile(r"EPOCH DURATION (\S+) FOR (\S+)")
_RANGE_RE = re.compile(r"sensor_id >= (\d+) AND sensor_id < (\d+)")
_COST_RE = re.compile(r"COST (\w+)")


def expected_epochs(text: str) -> int:
    """Epochs a query's EPOCH/FOR clause asks for (1 for one-shot)."""
    m = _EPOCH_RE.search(text)
    if m is None:
        return 1
    return max(int(float(m.group(2)) / float(m.group(1)) + 1e-9), 1)


def max_down(w: Workload) -> int:
    """Most sensors the crash schedule can hold down at once: one crash
    per ``crash_gap_s`` slot, each down for ``crash_down_s``."""
    return math.ceil(w.crash_down_s / w.crash_gap_s) + 1


def spared_sensors(texts: typing.Iterable[str], at_most: int) -> set[int]:
    """Sensors in an id range of at most ``at_most`` sensors.  Crashing
    them could leave such a query without a living target, which fails
    its epoch by design (``no-targets``)."""
    spared: set[int] = set()
    for text in texts:
        m = _RANGE_RE.search(text)
        if m and int(m.group(2)) - int(m.group(1)) <= at_most:
            spared.update(range(int(m.group(1)), int(m.group(2))))
    return spared


def stratum(text: str, n_sensors: int) -> tuple:
    """The attributes of a generated query text that drive its cost:
    continuous or not, function, scope (an id range with the quarter of
    the sensors its width falls in), epoch count, epoch-length band and
    the metric of its COST clause, if any."""
    func = re.match(r"SELECT (\w+)\(", text)
    width = _RANGE_RE.search(text)
    if "sensor_id =" in text:
        scope = "id"
    elif width:
        quarter = 4 * (int(width.group(2)) - int(width.group(1))) // n_sensors
        scope = f"range{min(quarter, 3)}"
    elif "room =" in text:
        scope = "room"
    else:
        scope = "all"
    epoch = _EPOCH_RE.search(text)
    band = min(int((float(epoch.group(1)) - 1.0) / 3.0), 2) if epoch else -1
    cost = _COST_RE.search(text)
    return (epoch is not None, func.group(1) if func else "value", scope,
            expected_epochs(text), band, cost.group(1) if cost else "")


def _generator(w: Workload, rng: np.random.Generator):
    from repro.workloads.queries import QueryWorkload

    return QueryWorkload(rng, n_sensors=w.n_sensors, mix=w.mix)


@functools.lru_cache(maxsize=None)
def template(name: str) -> tuple[tuple, ...]:
    """The stratum of every query slot in a round: those of the
    generator's first draws at a fixed seed, so every seed shares them."""
    w = WORKLOADS[name]
    gen = _generator(w, np.random.default_rng(STRATA_SEED))
    return tuple(stratum(gen.next_text(), w.n_sensors) for _ in range(w.n_queries))


def make_inputs(name: str, seed: int) -> Inputs:
    """Generate the workload's inputs from ``seed`` alone.

    Query texts come from :class:`repro.workloads.queries.QueryWorkload`,
    stratified: each slot of the round's :func:`template` takes the next
    seeded draw of its stratum.  Seeds therefore differ in the rooms,
    ranges (within a width band), sensors, epoch lengths and COST bounds
    they draw, not in how many queries of each kind a round holds or in
    what order, which keeps the metrics of different seeds comparable.
    """
    w = WORKLOADS[name]
    query_ss, fault_ss = np.random.SeedSequence(seed).spawn(2)
    gen = _generator(w, np.random.default_rng(query_ss))
    slots: dict[tuple, collections.deque] = collections.defaultdict(collections.deque)
    for i, key in enumerate(template(name)):
        slots[key].append(i)
    texts: list[str] = [""] * w.n_queries
    unfilled = w.n_queries
    for _ in range(MAX_DRAWS):
        text = gen.next_text()
        open_slots = slots.get(stratum(text, w.n_sensors))
        if open_slots:
            texts[open_slots.popleft()] = text
            unfilled -= 1
            if not unfilled:
                break
    else:
        raise RuntimeError(f"could not fill the strata of {name!r}")
    if w.closed_loop:
        return Inputs(w, seed, tuple(texts))
    arrivals = tuple(i * w.arrival_gap_s for i in range(w.n_queries))
    # one crash in every crash_gap_s slot, at a random time and node;
    # no operation may fail, so no query's scope can be crashed empty
    frng = np.random.default_rng(fault_ss)
    spared = spared_sensors(texts, max_down(w))
    victims = [n for n in range(w.n_sensors) if n not in spared]
    crash_slots = int(w.n_queries * w.arrival_gap_s / w.crash_gap_s)
    crashes = tuple(
        (victims[int(frng.integers(len(victims)))], (k + float(frng.random())) * w.crash_gap_s,
         w.crash_down_s)
        for k in range(crash_slots))
    return Inputs(w, seed, tuple(texts), arrivals, crashes)


def inputs_to_json(inputs: Inputs) -> dict:
    return {"workload": inputs.workload.name, "seed": inputs.seed,
            "texts": list(inputs.texts), "arrivals": list(inputs.arrivals),
            "crashes": [list(c) for c in inputs.crashes]}


def inputs_from_json(spec: dict) -> Inputs:
    return Inputs(WORKLOADS[spec["workload"]], spec["seed"], tuple(spec["texts"]),
                  tuple(spec["arrivals"]), tuple(tuple(c) for c in spec["crashes"]))


# ----------------------------------------------------------------------
# outcome records and digests
# ----------------------------------------------------------------------

def canonical(value: typing.Any) -> bytes:
    """Exact, type-tagged bytes of an outcome field."""
    if value is None:
        return b"N"
    if isinstance(value, (bool, np.bool_)):
        return b"T" if value else b"F"
    if isinstance(value, (int, np.integer)):
        return b"i%d" % int(value)
    if isinstance(value, (float, np.floating)):
        return b"f" + float(value).hex().encode()
    if isinstance(value, str):
        return b"s" + struct.pack("<I", len(value)) + value.encode()
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return (b"a" + arr.dtype.str.encode() + repr(arr.shape).encode()
                + struct.pack("<Q", arr.nbytes) + arr.tobytes())
    if isinstance(value, (tuple, list)):
        return b"(" + b"".join(canonical(v) for v in value) + b")"
    if isinstance(value, dict):
        return b"{" + b"".join(canonical(str(k)) + canonical(value[k])
                               for k in sorted(value, key=str)) + b"}"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def outcome_record(query_index: int, outcome) -> bytes:
    """Read every field the digest covers; returns the record's bytes."""
    return canonical((query_index, outcome.epoch_index, outcome.model,
                      outcome.success, outcome.value, outcome.time_s,
                      outcome.energy_j, outcome.rel_error))


def record_hashes(records: typing.Sequence[bytes]) -> list[str]:
    """Short per-outcome hashes, for naming the first differing outcome."""
    return [hashlib.sha256(r).hexdigest()[:8] for r in records]


def digest(records: typing.Sequence[bytes]) -> str:
    """sha256 over every outcome record, in order."""
    h = hashlib.sha256()
    for r in records:
        h.update(hashlib.sha256(r).digest())
    return h.hexdigest()


def first_difference(a: typing.Sequence[str], b: typing.Sequence[str]) -> str:
    """Describe the first index where two hash lists differ."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"outcome #{i} differs ({x} vs {y})"
    if len(a) != len(b):
        return f"outcome counts differ ({len(a)} vs {len(b)})"
    return "identical"


# ----------------------------------------------------------------------
# one round
# ----------------------------------------------------------------------

@dataclasses.dataclass
class RoundResult:
    records: list = dataclasses.field(default_factory=list)
    #: wall ms per query (closed loop: the query() call, after the
    #: warm-up queries; open loop: from the arrival event until the
    #: completion callback, divided by the epochs delivered)
    latencies_ms: list = dataclasses.field(default_factory=list)
    #: timed wall seconds (closed loop: summed query windows)
    wall_s: float = 0.0
    epochs: int = 0
    failed_epochs: int = 0
    sim_response_s: list = dataclasses.field(default_factory=list)
    energy_j: list = dataclasses.field(default_factory=list)
    rel_error: list = dataclasses.field(default_factory=list)
    models: list = dataclasses.field(default_factory=list)
    problems: list = dataclasses.field(default_factory=list)
    #: end-of-round program state read after the timed window
    state: dict = dataclasses.field(default_factory=dict)

    @property
    def digest(self) -> str:
        return digest([r for _, r in sorted(self.records, key=lambda x: x[0])])

    @property
    def hashes(self) -> list[str]:
        return record_hashes([r for _, r in sorted(self.records, key=lambda x: x[0])])


class Round:
    """A fresh runtime (and services) loaded with one seed's inputs."""

    def __init__(self, inputs: Inputs) -> None:
        from repro.core.runtime import PervasiveGridRuntime

        self.inputs = inputs
        w = inputs.workload
        self.rt = PervasiveGridRuntime(seed=RUNTIME_SEED, **w.runtime)
        self.wms = None
        if not w.closed_loop:
            from repro.faults import NodeCrash

            self.wms = self.rt.workload_manager()
            self.rt.fault_injector().schedule_all(
                NodeCrash(node, at_s=at, duration_s=down) for node, at, down in inputs.crashes)

    # ------------------------------------------------------------------
    def run(self, spans=None) -> RoundResult:
        """Run every input; ``spans`` (a SpanRecorder) tags query ids."""
        result = RoundResult()
        if self.inputs.workload.closed_loop:
            self._closed(result, spans)
        else:
            self._open(result, spans)
        self._read_state(result)
        return result

    def _outcomes(self, result: RoundResult, index: int, text: str, outcomes) -> None:
        """Read outcomes (inside the timed window) and check their shape."""
        for o in outcomes:
            key = (index, o.epoch_index)
            result.records.append((key, outcome_record(index, o)))
            result.models.append(o.model if o.success else "")
            result.energy_j.append(o.energy_j)
            if o.success:
                result.sim_response_s.append(o.time_s)
            else:
                result.failed_epochs += 1
            if math.isfinite(o.rel_error):
                result.rel_error.append(o.rel_error)
        result.epochs += len(outcomes)
        want = expected_epochs(text)
        if len(outcomes) != want and not (
                len(outcomes) < want and not self.rt.deployment.alive_sensor_ids()):
            result.problems.append(
                f"query #{index} gave {len(outcomes)} epochs, its clause implies {want}")

    def _closed(self, result: RoundResult, spans) -> None:
        clock = time.perf_counter
        query = self.rt.query
        for i, text in enumerate(self.inputs.texts):
            if spans is not None:
                spans.current_qid = i
            t0 = clock()
            try:
                outcomes = query(text)
                self._outcomes(result, i, text, outcomes)
            except Exception as exc:  # noqa: BLE001 - the check reports it
                result.problems.append(f"query #{i} raised {type(exc).__name__}: {exc}")
                result.epochs += 1
                result.failed_epochs += 1
            dt = clock() - t0
            result.wall_s += dt
            if i >= WARMUP_QUERIES:
                result.latencies_ms.append(dt * 1e3)
        if spans is not None:
            spans.current_qid = -1

    def _open(self, result: RoundResult, spans) -> None:
        clock = time.perf_counter
        inputs, sim, wms = self.inputs, self.rt.sim, self.wms
        w = inputs.workload
        arrived: dict[int, float] = {}
        completions = [0] * len(inputs.texts)
        outstanding = [len(inputs.texts)]

        def done(i: int, outcomes) -> None:
            result.latencies_ms.append((clock() - arrived[i]) * 1e3 / max(len(outcomes), 1))
            completions[i] += 1
            outstanding[0] -= 1
            self._outcomes(result, i, inputs.texts[i], outcomes)

        def arrive(i: int) -> None:
            arrived[i] = clock()
            if spans is not None:
                spans.current_qid = i
            wms.submit_query(inputs.texts[i], owner=f"user{i % w.owners}",
                             on_complete=lambda outcomes, i=i: done(i, outcomes))
            if spans is not None:
                spans.current_qid = -1

        for i, at in enumerate(inputs.arrivals):
            sim.schedule(at - sim.now, lambda i=i: arrive(i), label="bench.arrival")

        t0 = clock()
        try:
            while outstanding[0] > 0 and sim.step():
                pass
        except Exception as exc:  # noqa: BLE001 - the check reports it
            result.problems.append(f"simulation raised {type(exc).__name__}: {exc}")
        result.wall_s = clock() - t0
        for i, n in enumerate(completions):
            if n != 1:
                result.problems.append(f"query #{i} completed {n} times")
                if n == 0:
                    result.epochs += 1
                    result.failed_epochs += 1
        if wms.queue.depth() != 0:
            result.problems.append(f"WMS depth {wms.queue.depth()} at the end")

    def _read_state(self, result: RoundResult) -> None:
        rt = self.rt
        topo = rt.deployment.topology
        counters = rt.monitor.counters()
        state = dict(topo.route_cache_stats)
        state["generations"] = topo.version
        state["events"] = rt.sim.events_executed
        state["counters"] = counters
        latency = rt.monitor.histogram("wms.queue_latency")
        state["wms_queue_wait_p90"] = latency.percentile(90) if len(latency) else 0.0
        result.state = state
