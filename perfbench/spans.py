"""Wall-clock spans recorded around the public functions of each layer.

The traced run installs wrappers on the program's public entry points
(module functions and class methods), records one span per call and
removes every wrapper when the run ends.  Nothing under ``src/`` is
edited: the wrappers live here and are patched in at run time.

A span holds its name, start, end, parent span and the id of the user
query being served.  Self time is a span's duration minus the part of
it that child spans cover; whatever no span claims inside the timed
window is reported as ``other``, so the per-layer split adds up to the
measured wall time.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
import typing

#: Span name -> per-layer metric prefix for self time.  Model spans are
#: ``estimate.<model>`` / ``execute.<model>`` and keep their own names;
#: ``answer.<model>`` (the deferred answer computation) counts as
#: ``execute.<model>``.
LAYER_OF_SPAN = {
    "parse": "parse",
    "targets": "targets",
    "decide": "decide",
    "routing": "routing",
    "bfs": "bfs",
    "pde": "pde",
    "executor": "executor",
    "sensors": "sensors",
    "sim.step": "sim.dispatch",
    "wms.submit": "wms",
    "wms.claim": "wms",
}


class SpanRecorder:
    """In-memory span store: parallel arrays, one entry per span."""

    def __init__(self, clock: typing.Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.qid = array.array("i")
        self.current_qid = -1
        self._stack: list[int] = []
        #: free-form counters the wrappers bump (targets found, claim hits)
        self.counts: dict[str, float] = {}

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.qid.append(self.current_qid)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def name_of(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def write_jsonl(self, path) -> int:
        """One JSON line per span: name, start, end, parent, qid."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.name_of(i), self.start[i], self.end[i],
                                     self.parent[i], self.qid[i]]))
                fh.write("\n")
        return len(self.start)


def self_times(rec: SpanRecorder) -> list[float]:
    """Each span's duration minus the time its children cover.  Spans open
    and close as a stack in one thread, so children never overlap and the
    time they cover is the sum of their durations."""
    out = [e - s for s, e in zip(rec.start, rec.end)]
    for i, p in enumerate(rec.parent):
        if p >= 0:
            out[p] -= rec.end[i] - rec.start[i]
    return out


def layer_self_ms(rec: SpanRecorder) -> dict[str, float]:
    """Total self time in ms per layer, plus ``spans.root_ms``: the summed
    duration of top-level spans (what the spans claim of the wall)."""
    totals: dict[str, float] = {}
    selfs = self_times(rec)
    root = 0.0
    for i, st in enumerate(selfs):
        name = rec.name_of(i)
        if name.startswith("answer."):
            # a model's deferred answer computation is part of its execution
            layer = "execute." + name[len("answer."):]
        else:
            layer = LAYER_OF_SPAN.get(name, name)
        totals[layer] = totals.get(layer, 0.0) + st * 1e3
        if rec.parent[i] < 0:
            root += (rec.end[i] - rec.start[i]) * 1e3
    totals["spans.root_ms"] = root
    return totals


def span_calls(rec: SpanRecorder) -> dict[str, int]:
    """Number of spans per name."""
    calls: dict[str, int] = {}
    for nid in rec.name_id:
        name = rec.names[nid]
        calls[name] = calls.get(name, 0) + 1
    return calls


# ----------------------------------------------------------------------
# installing and removing wrappers
# ----------------------------------------------------------------------

def _wrap(rec: SpanRecorder, name: str, fn: typing.Callable,
          on_result: typing.Callable[[SpanRecorder, typing.Any], None] | None = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if on_result is not None:
            on_result(rec, result)
        return result

    return wrapper


def _count_targets(rec: SpanRecorder, targets) -> None:
    rec.count("targets.calls")
    rec.count("targets.found", len(targets))


def _count_claim(rec: SpanRecorder, task) -> None:
    rec.count("wms.claim.hits", task is not None)


class Instrumentation:
    """Patches span wrappers into the program; :meth:`remove` undoes it.

    Each patch is recorded as ``(owner, attribute, original, owned)``:
    ``owned`` says whether the attribute lived in the owner's own
    namespace, so removal restores it or deletes the shadowing wrapper.
    """

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self.patches: list[tuple[typing.Any, str, typing.Any, bool]] = []

    # -- patching primitives ------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        owned = attr in vars(owner)
        original = inspect.getattr_static(owner, attr)
        self.patches.append((owner, attr, original, owned))
        setattr(owner, attr, value)

    def function(self, module_name: str, attr: str, span: str, on_result=None) -> None:
        """Wrap a module-level function everywhere ``repro`` bound it by name."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = _wrap(self.rec, span, original, on_result)
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    vars(module).get(attr) is original:
                self._set(module, attr, wrapped)

    def method(self, cls: type, attr: str, span: str, on_result=None) -> None:
        """Wrap a method as seen from ``cls`` (inherited ones are shadowed)."""
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(_wrap(self.rec, span, raw.__func__, on_result)))
        else:
            self._set(cls, attr, _wrap(self.rec, span, raw, on_result))

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self.patches:
            owner, attr, original, owned = self.patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def install(rec: SpanRecorder) -> Instrumentation:
    """Wrap the public functions of every layer the benchmark reports."""
    # imported here so importing this module costs nothing in the
    # untraced run's setup time
    from repro.core.decision import DecisionMaker
    from repro.network.routing.cluster import ClusterFormation
    from repro.network.routing.flooding import Flooding
    from repro.network.routing.tree import AggregationTree
    from repro.network.topology import Topology
    from repro.queries.executor import QueryExecutor
    from repro.queries.models import ALL_MODELS
    from repro.sensors.deployment import SensorDeployment
    from repro.simkernel.simulator import Simulator
    from repro.wms.queues import TaskQueueService
    from repro.wms.service import WorkloadManager

    inst = Instrumentation(rec)
    try:
        inst.function("repro.queries.language", "parse_query", "parse")
        inst.function("repro.queries.targets", "select_targets", "targets", _count_targets)
        inst.method(DecisionMaker, "decide", "decide")
        for cls in ALL_MODELS:
            inst.method(cls, "estimate", f"estimate.{cls.name}")
            inst.method(cls, "execute", f"execute.{cls.name}")
            inst.method(cls, "compute_answer", f"answer.{cls.name}")
        for attr in ("__init__", "form", "members_of", "aggregated_collection"):
            inst.method(ClusterFormation, attr, "routing")
        for attr in ("__init__", "subtree_sizes", "path_to_root",
                     "aggregated_collection", "raw_collection"):
            inst.method(AggregationTree, attr, "routing")
        for attr in ("__init__", "disseminate"):
            inst.method(Flooding, attr, "routing")
        for attr in ("shortest_path", "bfs_tree", "hop_counts_from"):
            inst.method(Topology, attr, "bfs")
        inst.function("repro.queries.models.base", "solve_distribution", "pde")
        inst.function("repro.queries.models.base", "solve_distribution3d", "pde")
        inst.method(QueryExecutor, "submit", "executor")
        for attr in ("sample_sensor", "true_values"):
            inst.method(SensorDeployment, attr, "sensors")
        inst.method(Simulator, "step", "sim.step")
        inst.method(WorkloadManager, "submit_query", "wms.submit")
        inst.method(TaskQueueService, "claim", "wms.claim", _count_claim)
    except BaseException:
        inst.remove()
        raise
    return inst
