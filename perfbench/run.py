"""Query-path benchmark: one workload, one seed, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig1-mix --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and traced rounds of the same inputs
and reports the per-layer split from the traced ones.  Human-readable
lines go first; the last line of standard output is the JSON result.
Exits 2 without a result when the program's sources are missing, and 3
when a percentile would rest on too few samples.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = pathlib.Path(__file__).resolve().parent / "reference.json"
#: Span dumps of traced runs land here (ignored by git).
SPAN_DIR = ROOT / ".perfbench"

#: Fresh processes timed for ``setup_s`` (after one untimed warm-up).
SETUP_REPEATS = 5
#: A run makes at least this many rounds, so that its wall metrics pool
#: several stretches of the host and the rounds' digests can be compared.
MIN_ROUNDS = 3
#: No new round starts once a run has measured this long, so a run
#: always ends well inside three minutes.
ROUND_CUTOFF_S = 120.0

MODELS = ("centralized", "tree", "cluster", "grid", "handheld", "region")
FAILURE_REASONS = ("no-targets", "no-feasible-model", "execution")

# The child reads the generated inputs from stdin, so their generation
# stays out of the timed region.
SETUP_CHILD = """
import json, sys, time
spec = json.load(sys.stdin)
t0 = time.perf_counter()
import repro
from perfbench.workloads import Round, inputs_from_json
Round(inputs_from_json(spec))
print(time.perf_counter() - t0)
"""


def measure_setup(inputs) -> list[float]:
    """Wall seconds to import ``repro`` and build the round's runtime and
    services, in fresh processes; the first (untimed) one warms the file
    cache."""
    from perfbench.workloads import inputs_to_json

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    spec = json.dumps(inputs_to_json(inputs))
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD], input=spec,
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def check_digests(rounds, reference, problems: list[str]) -> None:
    """Every round must reproduce the first; the first must match the
    digest recorded for this seed, when one is recorded."""
    from perfbench.workloads import first_difference

    first = rounds[0]
    for k, rnd in enumerate(rounds[1:], start=1):
        if rnd.digest != first.digest:
            problems.append(f"round {k} digest differs from round 0: "
                            + first_difference(first.hashes, rnd.hashes))
    if reference is not None and first.digest != reference["digest"]:
        recorded = [reference["hashes"][i:i + 8]
                    for i in range(0, len(reference["hashes"]), 8)]
        problems.append("digest differs from the reference for this seed: "
                        + first_difference(recorded, first.hashes))


def another_round(elapsed: float, rounds_s: float, done: int, seconds: float,
                  at_least: int = MIN_ROUNDS) -> bool:
    """Whether to start another round, ``elapsed`` seconds into the run
    after ``done`` rounds that took ``rounds_s`` together: always until
    ``at_least``, then while one more round of the mean length so far
    still ends within ``seconds``; never after ``ROUND_CUTOFF_S``."""
    if elapsed >= ROUND_CUTOFF_S:
        return False
    return done < at_least or elapsed + rounds_s / done <= seconds


def report(name: str, value: float, unit: str, samples: int | None = None) -> dict:
    n = "" if samples is None else f"  (n={samples})"
    print(f"  {name:34s} {value:14.6g} {unit}{n}")
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
def run_untraced(inputs, seconds: float) -> tuple[dict, list, list[str]]:
    from perfbench.stats import percentile
    from perfbench.workloads import Round

    start = time.perf_counter()
    setup = measure_setup(inputs)
    rounds = []
    rounds_s = 0.0
    while True:
        t0 = time.perf_counter()
        rounds.append(Round(inputs).run())
        # free the round's runtime now, so peak memory does not grow
        # with the number of rounds
        gc.collect()
        rounds_s += time.perf_counter() - t0
        if not another_round(time.perf_counter() - start, rounds_s, len(rounds), seconds):
            break
    problems = [p for r in rounds for p in r.problems]
    check_digests(rounds, load_reference(inputs.workload.name, inputs.seed), problems)

    latencies = [x for r in rounds for x in r.latencies_ms]
    epochs = sum(r.epochs for r in rounds)
    wall = sum(r.wall_s for r in rounds)
    # every round is the same computation: simulated values come from one
    first = rounds[0]
    print(f"{inputs.workload.name} seed={inputs.seed} rounds={len(rounds)} "
          f"epochs={epochs} digest={first.digest[:16]}")
    m = {
        "setup_s": report("setup_s", statistics.median(setup), "s", len(setup)),
        "query_ms_p50": report("query_ms_p50", percentile(latencies, 50), "ms", len(latencies)),
        "query_ms_p90": report("query_ms_p90", percentile(latencies, 90), "ms", len(latencies)),
        "epochs_per_s": report("epochs_per_s", epochs / wall, "1/s", epochs),
        "sim_response_s_p50": report("sim_response_s_p50",
                                     percentile(first.sim_response_s, 50), "s",
                                     len(first.sim_response_s)),
        "sim_response_s_p75": report("sim_response_s_p75",
                                     percentile(first.sim_response_s, 75), "s",
                                     len(first.sim_response_s)),
        "sim_energy_mj_per_epoch": report("sim_energy_mj_per_epoch",
                                          1e3 * sum(first.energy_j) / first.epochs, "mJ",
                                          first.epochs),
        "rel_error_mean": report("rel_error_mean",
                                 statistics.fmean(first.rel_error), "ratio",
                                 len(first.rel_error)),
        "peak_rss_mb": report("peak_rss_mb",
                              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB"),
    }
    failed = sum(r.failed_epochs for r in rounds)
    print(f"  {'failed_ratio':34s} {failed / epochs:14.6g} ratio  (n={epochs})")
    return m, rounds, problems


def run_traced(inputs, seconds: float) -> tuple[dict, list, list[str]]:
    from perfbench import spans as sp
    from perfbench.workloads import Round, first_difference

    problems: list[str] = []
    plain, traced, recorders = [], [], []
    start = time.perf_counter()
    pairs_s = 0.0
    while True:
        t0 = time.perf_counter()
        plain.append(Round(inputs).run())
        rnd = Round(inputs)
        rec = sp.SpanRecorder()
        inst = sp.install(rec)
        try:
            traced.append(rnd.run(spans=rec))
        finally:
            inst.remove()
        recorders.append(rec)
        gc.collect()
        if plain[-1].digest != traced[-1].digest:
            problems.append("traced digest differs from untraced: "
                            + first_difference(plain[-1].hashes, traced[-1].hashes))
        now = time.perf_counter()
        pairs_s += now - t0
        if not another_round(now - start, pairs_s, len(traced), seconds, at_least=1):
            break
    problems += [p for r in plain + traced for p in r.problems]
    check_digests(plain, load_reference(inputs.workload.name, inputs.seed), problems)

    SPAN_DIR.mkdir(exist_ok=True)
    recorders[-1].write_jsonl(
        SPAN_DIR / f"spans-{inputs.workload.name}-seed{inputs.seed}.jsonl")
    print(f"{inputs.workload.name} seed={inputs.seed} traced rounds={len(traced)} "
          f"epochs/round={traced[0].epochs} digest={traced[0].digest[:16]}")
    return layer_metrics(plain, traced, recorders), plain + traced, problems


def layer_metrics(plain, traced, recorders) -> dict:
    from perfbench import spans as sp

    epochs = sum(r.epochs for r in traced)
    wall_ms = sum(r.wall_s for r in traced) * 1e3
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for rec in recorders:
        for k, v in sp.layer_self_ms(rec).items():
            selfs[k] = selfs.get(k, 0.0) + v
        for k, v in sp.span_calls(rec).items():
            calls[k] = calls.get(k, 0) + v
        for k, v in rec.counts.items():
            counts[k] = counts.get(k, 0.0) + v

    def state(key: str) -> float:
        return float(sum(r.state[key] for r in traced))

    def counter(key: str) -> float:
        return float(sum(r.state["counters"].get(key, 0.0) for r in traced))

    m: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = report(name, value, unit)

    per = 1.0 / epochs
    put("traced.wall_ms", wall_ms * per, "ms")
    put("other.self_ms", (wall_ms - selfs.get("spans.root_ms", 0.0)) * per, "ms")
    put("trace.overhead_pct", 100.0 * (sum(r.wall_s for r in traced)
                                       / sum(r.wall_s for r in plain) - 1.0), "%")
    put("parse.self_ms", selfs.get("parse", 0.0) * per, "ms")
    put("targets.self_ms", selfs.get("targets", 0.0) * per, "ms")
    put("targets.count", counts.get("targets.found", 0.0)
        / max(counts.get("targets.calls", 0.0), 1.0), "count")
    put("decide.self_ms", selfs.get("decide", 0.0) * per, "ms")
    estimates = sum(calls.get(f"estimate.{x}", 0) for x in MODELS)
    executed = sum(calls.get(f"execute.{x}", 0) for x in MODELS)
    put("estimate.useful_ratio", executed / max(estimates, 1), "ratio")
    chosen = [x for r in traced for x in r.models]
    for x in MODELS:
        put(f"estimate.{x}.self_ms", selfs.get(f"estimate.{x}", 0.0) * per, "ms")
        put(f"estimate.{x}.calls", calls.get(f"estimate.{x}", 0) * per, "count")
        put(f"execute.{x}.self_ms", selfs.get(f"execute.{x}", 0.0) * per, "ms")
        put(f"decision.{x}.share", chosen.count(x) / len(chosen), "ratio")
    put("routing.self_ms", selfs.get("routing", 0.0) * per, "ms")
    put("bfs.self_ms", selfs.get("bfs", 0.0) * per, "ms")
    put("bfs.wall_share", selfs.get("bfs", 0.0) / wall_ms, "ratio")
    put("bfs.runs", state("misses") * per, "count")
    lookups = state("hits") + state("misses")
    put("route.hit_ratio", state("hits") / lookups if lookups else 0.0, "ratio")
    put("route.invalidations", state("invalidations") * per, "count")
    put("topology.generations", state("generations") * per, "count")
    put("pde.self_ms", selfs.get("pde", 0.0) * per, "ms")
    put("pde.calls", calls.get("pde", 0) * per, "count")
    put("executor.self_ms", selfs.get("executor", 0.0) * per, "ms")
    put("sensors.self_ms", selfs.get("sensors", 0.0) * per, "ms")
    put("sim.events", state("events") * per, "count")
    put("sim.dispatch_self_ms", selfs.get("sim.dispatch", 0.0) * per, "ms")
    put("wms.self_ms", selfs.get("wms", 0.0) * per, "ms")
    put("wms.submit.calls", calls.get("wms.submit", 0) * per, "count")
    claims = calls.get("wms.claim", 0)
    put("wms.claim.calls", claims * per, "count")
    put("wms.claim.hit_ratio", counts.get("wms.claim.hits", 0.0) / claims if claims else 0.0,
        "ratio")
    put("wms.retries", counter("wms.tasks_requeued") * per, "count")
    # rounds repeat one computation, so per-round values come from the first
    put("wms.queue_wait_s_p90", traced[0].state["wms_queue_wait_p90"], "s")
    put("faults.injected", traced[0].state["counters"].get("faults.injected", 0.0), "count")
    known = 0.0
    for reason in FAILURE_REASONS:
        value = counter(f"queries.failed.{reason}")
        known += value
        put(f"failed.{reason}", value * per, "count")
    all_failed = sum(v for r in traced for k, v in r.state["counters"].items()
                     if k.startswith("queries.failed."))
    put("failed.other", (all_failed - known) * per, "count")
    return m


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.stats import TooFewSamples
    from perfbench.workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    inputs = make_inputs(args.workload, args.seed)
    try:
        if args.trace:
            metrics, rounds, problems = run_traced(inputs, args.seconds)
        else:
            metrics, rounds, problems = run_untraced(inputs, args.seconds)
    except TooFewSamples as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.epochs for r in rounds),
        "failed": sum(r.failed_epochs for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
