"""Tests of the benchmark's own code: spans, percentiles, wrappers, inputs.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import inspect
import math
import sys

import numpy as np
import pytest

from perfbench import spans as sp
from perfbench.stats import MIN_BEYOND, TooFewSamples, percentile, samples_needed
from perfbench.workloads import (
    WARMUP_QUERIES,
    WORKLOADS,
    Round,
    canonical,
    digest,
    expected_epochs,
    first_difference,
    make_inputs,
    record_hashes,
    stratum,
    template,
)


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------

def _recorder(ticks) -> sp.SpanRecorder:
    clock = iter(ticks)
    return sp.SpanRecorder(clock=lambda: float(next(clock)))


def _decide_tree() -> sp.SpanRecorder:
    """decide[0,10] > estimate.cluster[1,6] > routing[2,5] > bfs[3,4.5];
    decide > estimate.tree[7,9]."""
    rec = _recorder([0, 1, 2, 3, 4.5, 5, 6, 7, 9, 10])
    decide = rec.open("decide")
    est = rec.open("estimate.cluster")
    routing = rec.open("routing")
    rec.close(rec.open("bfs"))
    rec.close(routing)
    rec.close(est)
    rec.close(rec.open("estimate.tree"))
    rec.close(decide)
    return rec


def test_self_times_on_hand_built_tree():
    rec = _decide_tree()
    assert [rec.name_of(i) for i in range(5)] == [
        "decide", "estimate.cluster", "routing", "bfs", "estimate.tree"]
    assert list(rec.parent) == [-1, 0, 1, 2, 0]
    assert sp.self_times(rec) == pytest.approx([3.0, 2.0, 1.5, 1.5, 2.0])


def test_layer_self_ms_adds_up_to_the_root():
    totals = sp.layer_self_ms(_decide_tree())
    assert totals["decide"] == pytest.approx(3000.0)
    assert totals["estimate.cluster"] == pytest.approx(2000.0)
    assert totals["estimate.tree"] == pytest.approx(2000.0)
    assert totals["routing"] == pytest.approx(1500.0)
    assert totals["bfs"] == pytest.approx(1500.0)
    layers = sum(v for k, v in totals.items() if k != "spans.root_ms")
    assert layers == pytest.approx(totals["spans.root_ms"]) == pytest.approx(10000.0)


def test_answer_spans_count_as_model_execution():
    rec = _recorder([0, 1, 2, 2.5])
    rec.close(rec.open("execute.grid"))
    rec.close(rec.open("answer.grid"))
    assert sp.layer_self_ms(rec)["execute.grid"] == pytest.approx(1500.0)


def test_recorder_tags_spans_with_the_query_id():
    rec = _recorder(range(4))
    rec.current_qid = 7
    outer = rec.open("decide")
    inner = rec.open("bfs")
    rec.close(inner)
    rec.close(outer)
    assert list(rec.parent) == [-1, outer]
    assert list(rec.qid) == [7, 7]
    assert sp.self_times(rec) == [2.0, 1.0]


# ----------------------------------------------------------------------
# percentile guard
# ----------------------------------------------------------------------

def test_samples_needed_leaves_ten_beyond():
    assert MIN_BEYOND == 10
    assert samples_needed(90) == 100
    assert samples_needed(50) == 20
    assert samples_needed(99) == 1000


def test_percentile_refuses_too_few_samples():
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)


def test_percentile_matches_numpy_interpolation():
    values = list(np.random.default_rng(3).random(257))
    for q in (50, 90):
        assert percentile(values, q) == pytest.approx(float(np.percentile(values, q)))


# ----------------------------------------------------------------------
# wrappers are installed, then removed without trace
# ----------------------------------------------------------------------

def _namespace_snapshot() -> dict:
    """Every attribute of every loaded ``repro`` module and of every class
    those modules define, by identity."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, obj in vars(module).items():
            snap[(name, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == name:
                for cattr, cobj in vars(obj).items():
                    snap[(name, attr, cattr)] = cobj
    return snap


def test_every_wrapper_is_removed_after_a_traced_query():
    from repro.core.runtime import PervasiveGridRuntime
    from repro.queries.models import ClusterModel

    import repro.wms.service  # noqa: F401 - loaded before the snapshot, as install() needs it

    queries = ("SELECT AVG(value) FROM sensors WHERE room = 2",
               "SELECT DISTRIBUTION(value) FROM sensors")
    for text in queries:  # lazy imports happen before the snapshot
        PervasiveGridRuntime(seed=0).query(text)
    rt = PervasiveGridRuntime(seed=0)
    before = _namespace_snapshot()
    rec = sp.SpanRecorder()
    inst = sp.install(rec)
    try:
        assert "compute_answer" in vars(ClusterModel)
        for text in queries:
            rt.query(text)
    finally:
        inst.remove()
    names = set(sp.span_calls(rec))
    assert {"parse", "targets", "decide", "executor", "bfs", "sensors",
            "sim.step", "pde"} <= names
    assert any(n.startswith("estimate.") for n in names)
    assert any(n.startswith("execute.") for n in names)
    assert not inst.patches
    assert "compute_answer" not in vars(ClusterModel)
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    changed = [key for key, obj in before.items() if after[key] is not obj]
    assert changed == []


def test_install_failure_leaves_nothing_patched(monkeypatch):
    from repro.core.decision import DecisionMaker
    from repro.network.topology import Topology

    decide = inspect.getattr_static(DecisionMaker, "decide")
    real_method = sp.Instrumentation.method

    def failing(self, cls, attr, span, on_result=None):
        if cls is Topology:  # patched after DecisionMaker.decide
            raise RuntimeError("install failed")
        real_method(self, cls, attr, span, on_result)

    monkeypatch.setattr(sp.Instrumentation, "method", failing)
    with pytest.raises(RuntimeError):
        sp.install(sp.SpanRecorder())
    assert inspect.getattr_static(DecisionMaker, "decide") is decide


# ----------------------------------------------------------------------
# inputs come from the seed, the program does not
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs_not_program(name):
    a, b, a2 = make_inputs(name, 1), make_inputs(name, 2), make_inputs(name, 1)
    assert a == a2
    assert a.texts != b.texts
    n = a.workload.n_sensors
    strata = list(template(name))
    assert [stratum(t, n) for t in a.texts] == [stratum(t, n) for t in b.texts] == strata
    if not a.workload.closed_loop:
        assert a.crashes != b.crashes
        assert a.arrivals == b.arrivals
    ra, rb = Round(a), Round(b)
    assert ra.rt.streams.root_seed == rb.rt.streams.root_seed
    assert np.array_equal(ra.rt.deployment.topology.positions,
                          rb.rt.deployment.topology.positions)
    assert [m.name for m in ra.rt.models] == [m.name for m in rb.rt.models]
    assert [r.name for r in ra.rt.grid.resources] == [r.name for r in rb.rt.grid.resources]


def test_workload_sizes_match_their_description():
    fig1, crowd = (make_inputs(n, 0) for n in ("fig1-mix", "crowd-churn"))
    assert Round(fig1).rt.deployment.n_sensors == 49
    crowd_round = Round(crowd)
    assert crowd_round.rt.deployment.n_sensors == 144
    assert len(crowd_round.wms.pilots) == 12
    assert all("EPOCH" in t for t in crowd.texts)


# ----------------------------------------------------------------------
# digests and structural checks
# ----------------------------------------------------------------------

def test_canonical_tells_types_and_values_apart():
    forms = [canonical(v) for v in (None, True, 1, 1.0, "1", np.array([1.0]),
                                    (1.0,), {"a": 1.0}, float("nan"))]
    assert len(set(forms)) == len(forms)
    assert canonical(np.float64(0.1)) == canonical(0.1)
    assert canonical(np.array([[1, 2]])) != canonical(np.array([1, 2]))


def test_digest_is_order_sensitive_and_names_first_difference():
    recs = [canonical((i, 0.5 * i)) for i in range(5)]
    swapped = recs[:2] + [recs[3], recs[2]] + recs[4:]
    assert digest(recs) != digest(swapped)
    assert first_difference(record_hashes(recs), record_hashes(swapped)).startswith("outcome #2")
    assert first_difference(record_hashes(recs), record_hashes(recs[:4])).startswith(
        "outcome counts")


def test_stratum_bands_range_width_and_names_the_cost_metric():
    narrow = "SELECT MAX(value) FROM sensors WHERE sensor_id >= 7 AND sensor_id < 9"
    wide = "SELECT MAX(value) FROM sensors WHERE sensor_id >= 0 AND sensor_id < 90 COST time <= 3"
    assert stratum(narrow, 100)[2] == "range0"
    assert stratum(wide, 100)[2] == "range3"
    assert stratum(narrow, 100)[5] == "" and stratum(wide, 100)[5] == "time"


def test_crashes_spare_the_sensors_of_narrow_ranges():
    from perfbench.workloads import max_down, spared_sensors

    texts = ["SELECT MAX(value) FROM sensors WHERE sensor_id >= 7 AND sensor_id < 9",
             "SELECT MIN(value) FROM sensors WHERE sensor_id >= 20 AND sensor_id < 40",
             "SELECT AVG(value) FROM sensors WHERE room = 2"]
    assert spared_sensors(texts, 5) == {7, 8}
    w = WORKLOADS["crowd-churn"]
    assert max_down(w) == 5
    for seed in range(40, 50):
        inputs = make_inputs("crowd-churn", seed)
        spared = spared_sensors(inputs.texts, max_down(w))
        assert not spared & {node for node, _, _ in inputs.crashes}


def test_expected_epochs_follows_the_clause():
    assert expected_epochs("SELECT MAX(value) FROM sensors") == 1
    assert expected_epochs("SELECT AVG(value) FROM sensors EPOCH DURATION 2.5 FOR 10") == 4
    assert expected_epochs("SELECT AVG(value) FROM sensors EPOCH DURATION 0.1 FOR 0.7") == 7


def test_a_round_is_reproducible_and_checked():
    inputs = make_inputs("fig1-mix", 5)
    small = type(inputs)(inputs.workload, inputs.seed, inputs.texts[:WARMUP_QUERIES + 5])
    first, second = Round(small).run(), Round(small).run()
    assert first.problems == [] and second.problems == []
    assert first.digest == second.digest
    assert len(first.latencies_ms) == 5
    assert first.epochs == sum(expected_epochs(t) for t in small.texts)
    assert all(math.isfinite(x) for x in first.sim_response_s)


# ----------------------------------------------------------------------
# run control
# ----------------------------------------------------------------------

def test_another_round_fits_the_deadline_after_the_minimum():
    from perfbench.run import MIN_ROUNDS, ROUND_CUTOFF_S, another_round

    assert MIN_ROUNDS == 3
    assert another_round(elapsed=9.0, rounds_s=6.0, done=3, seconds=12.0)      # ends at 11
    assert not another_round(elapsed=9.0, rounds_s=6.0, done=3, seconds=10.0)  # ends at 11
    assert another_round(elapsed=30.0, rounds_s=28.0, done=2, seconds=10.0)    # the minimum
    assert not another_round(elapsed=30.0, rounds_s=28.0, done=2, seconds=10.0, at_least=1)
    assert not another_round(elapsed=ROUND_CUTOFF_S, rounds_s=1.0, done=1, seconds=1e9)


def test_check_digests_names_the_first_differing_outcome():
    import types

    from perfbench.run import check_digests

    def fake_round(hashes):
        return types.SimpleNamespace(hashes=hashes, digest="".join(hashes))

    first = fake_round(["aaaaaaaa", "bbbbbbbb", "cccccccc"])
    problems = []
    check_digests([first, fake_round(["aaaaaaaa", "bbbbbbbb", "dddddddd"])],
                  {"digest": first.digest, "hashes": "aaaaaaaabbbbbbbbcccccccc"}, problems)
    assert problems == ["round 1 digest differs from round 0: outcome #2 differs "
                        "(cccccccc vs dddddddd)"]
    problems = []
    check_digests([first], {"digest": "0" * 64, "hashes": "aaaaaaaaeeeeeeeecccccccc"}, problems)
    assert problems == ["digest differs from the reference for this seed: outcome #1 differs "
                        "(eeeeeeee vs bbbbbbbb)"]
