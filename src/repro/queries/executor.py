"""The Query Processor: parse → classify → decide → execute → learn.

"Query processor analyzes the query and categorizes it into one of the
types mentioned above.  Decision maker would decide the solution model to
use ... The simulator simulates the solution model for the query and
returns the results."

Continuous queries re-run every EPOCH; the decision is re-taken each
epoch against the *current* network state (nodes die, topology changes),
and every epoch's measured outcome is fed back to the Decision Maker --
the adaptivity loop the paper calls for.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.observability.profiling import NOOP_PROFILER
from repro.observability.tracer import NOOP_SPAN, STATUS_ERROR, STATUS_OK
from repro.queries.ast import Query
from repro.queries.classifier import QueryClass, classify
from repro.queries.functions import compute_aggregate, is_aggregate
from repro.queries.language import parse_query
from repro.queries.models.base import (
    ModelOutcome,
    QueryContext,
    solve_distribution,
    solve_distribution3d,
)
from repro.queries.targets import select_targets


@dataclasses.dataclass
class QueryOutcome:
    """One evaluated query (or one epoch of a continuous query).

    Attributes
    ----------
    success:
        Whether an answer was produced.
    value:
        The answer (scalar, array, or field).
    model:
        The execution model used (empty when none was feasible).
    query_class:
        The paper's four-way class.
    time_s / energy_j / data_bits:
        Measured actuals.
    rel_error:
        Relative error vs noise-free ground truth (nan when no ground
        truth applies).
    epoch_index:
        0 for one-shot queries; the epoch number otherwise.
    """

    success: bool
    value: typing.Any
    model: str
    query_class: QueryClass
    time_s: float
    energy_j: float
    data_bits: float
    readings_used: int
    rel_error: float
    epoch_index: int = 0
    error: str = ""


class QueryExecutor:
    """Runs queries end to end against one deployment/grid/decision-maker.

    Parameters
    ----------
    ctx:
        The query context (deployment + grid + rates).
    decision_maker:
        Any object with ``decide(query, ctx, targets)`` returning an
        object carrying ``model``/``estimate``, and
        ``feedback(query, ctx, targets, decision, energy, time)``
        (duck-typed so :mod:`repro.core` stays an optional layer above).
    max_epochs:
        Safety cap on continuous-query epochs when no duration is given.
    """

    def __init__(self, ctx: QueryContext, decision_maker, max_epochs: int = 50) -> None:
        self.ctx = ctx
        self.decision_maker = decision_maker
        self.max_epochs = max_epochs
        self.submitted = 0

    # ------------------------------------------------------------------
    def submit(
        self,
        query: Query | str,
        on_complete: typing.Callable[[list[QueryOutcome]], None],
        on_epoch: typing.Callable[[QueryOutcome], None] | None = None,
    ) -> Query:
        """Run ``query``; callback with the list of outcomes (1 per epoch).

        One-shot queries produce exactly one outcome.  Continuous queries
        produce one per epoch until ``duration_s`` (or ``max_epochs``)
        elapses or no sensor remains reachable.
        """
        if isinstance(query, str):
            query = parse_query(query)
        self.submitted += 1
        outcomes: list[QueryOutcome] = []
        tracer = self.ctx.tracer
        span = NOOP_SPAN
        if tracer.enabled:
            # sampling_key: the stable per-query identity head sampling
            # hashes on (same submission order -> same retained set)
            span = tracer.span("query.run", text=query.raw,
                               continuous=query.is_continuous,
                               sampling_key=f"query:{self.submitted}")

        if not query.is_continuous:
            def finish(o: QueryOutcome) -> None:
                outcomes.append(o)
                if tracer.enabled:
                    # measured actuals, stamped so the QueryCostLedger
                    # reads authoritative per-query numbers off the span
                    span.set(model=o.model, success=o.success,
                             energy_j=o.energy_j, time_s=o.time_s,
                             data_bits=o.data_bits)
                span.end(STATUS_OK if o.success else STATUS_ERROR)
                on_complete(outcomes)

            with tracer.use(span):
                self._run_once(query, 0, finish)
            return query

        epoch_s = float(query.epoch_s or 1.0)
        if query.duration_s is not None:
            # the epsilon absorbs float truncation for non-representable
            # epoch lengths: 10.0 / 0.1 is 99.999... and int() would
            # silently drop the last epoch
            n_epochs = max(int(query.duration_s / epoch_s + 1e-9), 1)
        else:
            n_epochs = self.max_epochs
        window: list[tuple[float, typing.Any]] = []  # (epoch time, raw value)

        def run_epoch(i: int) -> None:
            epoch_span = NOOP_SPAN
            if tracer.enabled:
                epoch_span = tracer.span_under(span, "query.epoch", index=i)

            def done(outcome: QueryOutcome) -> None:
                if query.window_s is not None and outcome.success:
                    outcome = self._apply_window(query, outcome, window)
                if on_epoch is not None:
                    on_epoch(outcome)
                outcomes.append(outcome)
                if tracer.enabled:
                    epoch_span.set(model=outcome.model, success=outcome.success,
                                   energy_j=outcome.energy_j,
                                   time_s=outcome.time_s,
                                   data_bits=outcome.data_bits)
                epoch_span.end(STATUS_OK if outcome.success else STATUS_ERROR)
                if i + 1 >= n_epochs or not self.ctx.deployment.alive_sensor_ids():
                    if tracer.enabled:
                        span.set(epochs=len(outcomes),
                                 failed_epochs=sum(1 for o in outcomes
                                                   if not o.success))
                    # the root status mirrors the *final* epoch, so the
                    # QueryCostLedger books a continuous query that ended
                    # in failure as a failure
                    span.end(STATUS_OK if outcomes[-1].success else STATUS_ERROR)
                    on_complete(outcomes)
                else:
                    # next epoch starts one EPOCH after this one *started*
                    delay = max(epoch_start + epoch_s - self.ctx.sim.now, 0.0)
                    self.ctx.sim.schedule(delay, lambda: run_epoch(i + 1), label="epoch")

            epoch_start = self.ctx.sim.now
            with tracer.use(epoch_span):
                self._run_once(query, i, done)

        with tracer.use(span):
            run_epoch(0)
        return query

    # ------------------------------------------------------------------
    def _run_once(
        self,
        query: Query,
        epoch_index: int,
        on_complete: typing.Callable[[QueryOutcome], None],
    ) -> None:
        qclass = classify(query)
        tracer = self.ctx.tracer
        profiler = self.ctx.sim.profiler or NOOP_PROFILER
        monitor = self.ctx.deployment.monitor
        monitor.counter("queries.epochs").add()
        targets = select_targets(self.ctx.deployment, query, self.ctx.rooms_per_side)
        if not targets:
            self._count_failure("no-targets")
            on_complete(QueryOutcome(False, None, "", qclass, 0.0, 0.0, 0.0, 0,
                                     float("nan"), epoch_index, "no targets"))
            return
        with profiler.frame("queries.decide", "queries"):
            decision = self.decision_maker.decide(query, self.ctx, targets)
        if decision is None:
            self._count_failure("no-feasible-model")
            on_complete(QueryOutcome(False, None, "", qclass, 0.0, 0.0, 0.0, 0,
                                     float("nan"), epoch_index, "no feasible model"))
            return
        if tracer.enabled:
            tracer.event("query.decision", model=decision.model.name,
                         query_class=qclass.name, targets=len(targets),
                         est_time_s=decision.estimate.time_s,
                         est_energy_j=decision.estimate.energy_j)
        with profiler.frame("queries.ground_truth", "queries"):
            truth = self._ground_truth(query, targets)
        exec_span = NOOP_SPAN
        if tracer.enabled:
            exec_span = tracer.span("query.execute", model=decision.model.name)

        def model_done(m: ModelOutcome) -> None:
            exec_span.end(STATUS_OK if m.success else STATUS_ERROR)
            rel = self._relative_error(m.value, truth) if m.success else float("nan")
            if m.success:
                monitor.histogram("queries.latency").observe(m.time_s)
            else:
                self._count_failure("execution")
            self.decision_maker.feedback(
                query, self.ctx, targets, decision, m.energy_j, m.time_s
            )
            on_complete(QueryOutcome(
                success=m.success,
                value=m.value,
                model=m.model,
                query_class=qclass,
                time_s=m.time_s,
                energy_j=m.energy_j,
                data_bits=m.data_bits,
                readings_used=m.readings_used,
                rel_error=rel,
                epoch_index=epoch_index,
                error=m.error,
            ))

        with tracer.use(exec_span):
            decision.model.execute(query, self.ctx, targets, decision.estimate, model_done)

    # ------------------------------------------------------------------
    def _apply_window(
        self,
        query: Query,
        outcome: QueryOutcome,
        window: list[tuple[float, typing.Any]],
    ) -> QueryOutcome:
        """Re-aggregate the trailing window's epoch values (Windowed class).

        The window is quantized to whole epochs (``round(window/epoch)``
        most recent values), which keeps its contents deterministic under
        execution-latency jitter.  Scalar single-function queries
        re-aggregate with the matching combiner: MAX→max, MIN→min,
        SUM/COUNT→sum over the window, everything else (AVG, STD, MEDIAN,
        bare attributes) smooths by the mean of epoch values.  Non-scalar
        values pass through.
        """
        if not isinstance(outcome.value, (int, float)):
            return outcome
        window.append((self.ctx.sim.now, float(outcome.value)))
        n_keep = max(int(round(float(query.window_s) / float(query.epoch_s))), 1)
        del window[:-n_keep]
        values = np.array([v for _, v in window])

        func = query.select[0].func if len(query.select) == 1 else None
        if func in ("MAX",):
            windowed = float(values.max())
        elif func in ("MIN",):
            windowed = float(values.min())
        elif func in ("SUM", "COUNT"):
            windowed = float(values.sum())
        else:
            windowed = float(values.mean())
        return dataclasses.replace(outcome, value=windowed,
                                   rel_error=float("nan"))

    # ------------------------------------------------------------------
    def _count_failure(self, reason: str) -> None:
        self.ctx.deployment.monitor.counter(f"queries.failed.{reason}").add(1)

    def _ground_truth(self, query: Query, targets: list[int]) -> typing.Any:
        """Noise-free answer computed from the true field (free of charge)."""
        dep = self.ctx.deployment
        true_vals = dep.true_values()
        values = np.array([true_vals[t] for t in targets])
        positions = np.array([dep.topology.position_of(t) for t in targets])
        if len(query.select) != 1:
            return None
        item = query.select[0]
        if item.func is None:
            return float(values[0]) if len(values) == 1 else values
        if is_aggregate(item.func):
            return compute_aggregate(item.func, values)
        if item.func == "DISTRIBUTION":
            return solve_distribution(self.ctx, positions, values)
        if item.func == "DISTRIBUTION3D":
            return solve_distribution3d(self.ctx, positions, values)
        return None

    @staticmethod
    def _relative_error(value: typing.Any, truth: typing.Any) -> float:
        """Relative error of scalar or field answers (nan if undefined)."""
        if truth is None or value is None:
            return float("nan")
        try:
            v = np.asarray(value, dtype=float)
            t = np.asarray(truth, dtype=float)
        except (TypeError, ValueError):
            return float("nan")
        if v.shape != t.shape:
            return float("nan")
        denom = float(np.linalg.norm(t.ravel()))
        if denom < 1e-12:
            return float(np.linalg.norm(v.ravel() - t.ravel()))
        return float(np.linalg.norm(v.ravel() - t.ravel()) / denom)
