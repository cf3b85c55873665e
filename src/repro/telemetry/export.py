"""Trace and metrics exporters: Chrome ``trace_event`` JSON + Prometheus text.

Both formats are plain-stdlib renderings of in-memory objects:

* :func:`chrome_trace` turns a :class:`~repro.telemetry.trace.Trace` into
  the Chrome Trace Event Format (JSON object form) — load the written file
  in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Every
  span becomes one complete ("X") event with microsecond timestamps;
  lanes (per-request lanes, dispatch workers, worker processes, tape
  lanes) map to named threads of one synthetic process.
* :func:`prometheus_text` renders a :meth:`MetricsCollector.report` dict
  as Prometheus text exposition (``# HELP`` / ``# TYPE`` + samples), the
  format every Prometheus-compatible scraper ingests.  Engine pipeline
  work counters (:data:`repro.engine.PIPELINE_COUNTERS`) are bridged in
  as ``repro_pipeline_*_total``.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["chrome_trace", "write_chrome_trace", "prometheus_text"]

_PROCESS_NAME = "repro-fleet"


def chrome_trace(trace) -> dict:
    """Render a :class:`~repro.telemetry.trace.Trace` as Chrome trace JSON.

    Returns the JSON object form (``{"traceEvents": [...], ...}``), which
    both Perfetto and ``chrome://tracing`` load.  Span times (seconds on
    the trace clock) become integer-free microsecond ``ts``/``dur``
    floats; lanes become stable thread ids in first-seen order with
    ``thread_name`` metadata so the viewer labels them.
    """
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": _PROCESS_NAME},
    }]
    lane_tids: dict[str, int] = {}
    span_events: list[dict] = []
    for span in trace.spans:
        tid = lane_tids.get(span.lane)
        if tid is None:
            tid = len(lane_tids) + 1
            lane_tids[span.lane] = tid
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": span.lane}})
        args = dict(span.args) if span.args else {}
        if span.trace_id is not None:
            args.setdefault("request_id", span.trace_id)
        span_events.append({
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": span.start_s * 1e6,
            "dur": max(0.0, span.duration_s) * 1e6,
            "pid": 1,
            "tid": tid,
            "args": args,
        })
    # Stable viewer ordering (and a monotonicity aid for consumers): sort
    # the complete events by start time; metadata events stay in front.
    span_events.sort(key=lambda e: (e["ts"], e["tid"]))
    events.extend(span_events)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": trace.clock,
            "dropped_spans": trace.dropped,
            "counters": dict(trace.counters),
            **dict(trace.metadata),
        },
    }


def write_chrome_trace(path, trace) -> Path:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(trace)) + "\n")
    return path


# ---------------------------------------------------------------------- #
# Prometheus text exposition
# ---------------------------------------------------------------------- #
def _escape(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


class _Exposition:
    """Accumulates families in exposition order with HELP/TYPE headers."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def family(self, name: str, kind: str, help_text: str,
               samples: list[tuple[dict, float | int]]) -> None:
        if not samples:
            return
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            label_s = ""
            if labels:
                inner = ",".join(f'{key}="{_escape(val)}"'
                                 for key, val in labels.items())
                label_s = "{" + inner + "}"
            if isinstance(value, float):
                rendered = repr(float(value))
            else:
                rendered = str(int(value))
            self.lines.append(f"{name}{label_s} {rendered}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def prometheus_text(report: dict, namespace: str = "repro",
                    pipeline_counters=None) -> str:
    """Render a serving metrics report as Prometheus text exposition.

    ``report`` is the dict from :meth:`MetricsCollector.report` (also at
    ``FleetReport.metrics``).  Cumulative quantities render as counters,
    point-in-time ones as gauges; latency percentiles become a
    ``*_latency_ms`` gauge with a ``quantile`` label.  ``pipeline_counters``
    defaults to the process-global :data:`repro.engine.PIPELINE_COUNTERS`
    (pass ``None`` explicitly gets the global; pass a
    :class:`~repro.engine.counters.PipelineCounters` to override, e.g. a
    snapshot delta).
    """
    expo = _Exposition()
    per_model = report.get("per_model", {})
    fleet = report.get("fleet", {})

    expo.family(f"{namespace}_requests_total", "counter",
                "Requests offered to the fleet, by model.",
                [({"model": m}, s["arrivals"]) for m, s in per_model.items()])
    expo.family(f"{namespace}_completed_total", "counter",
                "Requests completed, by model.",
                [({"model": m}, s["completed"]) for m, s in per_model.items()])
    expo.family(f"{namespace}_shed_total", "counter",
                "Requests shed at admission or from the queue "
                "(preempted, expired), by model and reason.",
                [({"model": m, "reason": reason}, count)
                 for m, s in per_model.items()
                 for reason, count in sorted(s.get("shed", {}).items())])
    expo.family(f"{namespace}_batches_total", "counter",
                "Engine batches launched, by model.",
                [({"model": m}, s["batches"]) for m, s in per_model.items()])
    expo.family(f"{namespace}_batch_padded_slots_total", "counter",
                "Padded (wasted) batch slots, by model.",
                [({"model": m}, s["padded_slots"]) for m, s in per_model.items()])
    expo.family(f"{namespace}_megabatch_saved_executions_total", "counter",
                "Engine passes saved by megabatch coalescing, by model.",
                [({"model": m}, s.get("megabatch_saved_executions", 0))
                 for m, s in per_model.items()])
    expo.family(f"{namespace}_model_compute_seconds_total", "counter",
                "Engine busy seconds, by model.",
                [({"model": m}, float(s["compute_s"]))
                 for m, s in per_model.items()])
    queue_samples = [({"model": m}, s["queue"]["max_depth"])
                     for m, s in per_model.items() if "queue" in s]
    expo.family(f"{namespace}_queue_max_depth", "gauge",
                "Peak per-model queue depth over the run.", queue_samples)

    expo.family(f"{namespace}_failed_total", "counter",
                "Requests that terminated as failed, by model and fault kind.",
                [({"model": m, "reason": reason}, count)
                 for m, s in per_model.items()
                 for reason, count in sorted(s.get("failed", {}).items())])
    expo.family(f"{namespace}_retries_total", "counter",
                "Retry attempts spent by the resilience policy, by model.",
                [({"model": m}, s.get("retries", 0))
                 for m, s in per_model.items() if s.get("retries")])

    faults = report.get("faults")
    if faults:
        observed = faults.get("observed") or {}
        expo.family(f"{namespace}_faults_observed_total", "counter",
                    "Fault events observed by the supervisor, by kind.",
                    [({"kind": kind}, count)
                     for kind, count in sorted(observed.items())])
        supervisor = faults.get("supervisor") or {}
        for key, help_text in (
                ("crashes", "Worker crashes detected by the supervisor."),
                ("timeouts", "Per-task recv deadlines tripped."),
                ("respawns", "Worker processes respawned.")):
            if supervisor.get(key):
                expo.family(f"{namespace}_supervisor_{key}_total", "counter",
                            help_text, [({}, int(supervisor[key]))])
        breaker = faults.get("breaker") or {}
        models = breaker.get("models") or {}
        expo.family(f"{namespace}_breaker_opens_total", "counter",
                    "Circuit-breaker open transitions, by model.",
                    [({"model": m}, b.get("opens", 0))
                     for m, b in sorted(models.items()) if b.get("opens")])
        _STATES = {"closed": 0, "open": 1, "half_open": 2}
        expo.family(f"{namespace}_breaker_state", "gauge",
                    "Circuit-breaker state by model "
                    "(0=closed, 1=open, 2=half_open).",
                    [({"model": m}, _STATES.get(b.get("state"), 0))
                     for m, b in sorted(models.items())])
        degraded = faults.get("degraded_models") or []
        expo.family(f"{namespace}_degraded_models", "gauge",
                    "Models degraded to the in-process fallback path.",
                    [({}, len(degraded))])

    admission = report.get("admission")
    if admission:
        expo.family(f"{namespace}_admission_decisions_total", "counter",
                    "Admission controller decisions, by outcome.",
                    [({"outcome": key}, value)
                     for key, value in sorted(admission.items())])

    gauges = [
        ("goodput_rps", "Completed requests per second over the makespan."),
        ("offered_rps", "Offered request rate over the arrival span."),
        ("shed_rate", "Fraction of arrivals shed."),
        ("utilization", "Busy time over workers x makespan."),
    ]
    for key, help_text in gauges:
        if key in fleet:
            expo.family(f"{namespace}_fleet_{key}", "gauge", help_text,
                        [({}, float(fleet[key]))])
    attainment = fleet.get("slo_attainment")
    if attainment is not None:
        expo.family(f"{namespace}_fleet_slo_attainment", "gauge",
                    "Fraction of deadline-carrying completions inside SLO.",
                    [({}, float(attainment))])
    latency = fleet.get("latency_ms", {})
    expo.family(f"{namespace}_fleet_latency_ms", "gauge",
                "Fleet-wide completion latency percentiles (milliseconds).",
                [({"quantile": q}, float(latency[q]))
                 for q in ("p50", "p90", "p95", "p99", "max") if q in latency])
    if "makespan_s" in report:
        expo.family(f"{namespace}_makespan_seconds", "gauge",
                    "Serve-run makespan on the report clock.",
                    [({}, float(report["makespan_s"]))])

    if pipeline_counters is None:
        from ..engine.counters import PIPELINE_COUNTERS
        pipeline_counters = PIPELINE_COUNTERS
    for key, value in pipeline_counters.snapshot().items():
        expo.family(f"{namespace}_pipeline_{key}_total", "counter",
                    f"Compile-pipeline stage executions: {key}.",
                    [({}, int(value))])
    return expo.text()
