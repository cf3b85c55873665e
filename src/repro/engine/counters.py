"""Pipeline work counters: how many times the expensive stages ran.

The deployment layer's core promise is that a loaded artifact skips the
compile pipeline entirely — no re-lowering, no optimizer passes, no
autotune micro-profiling.  That claim is only testable if the pipeline
stages are observable, so each one ticks a process-global counter here:

* ``lowerings`` — :func:`repro.engine.plan.lower_graph` calls;
* ``optimizations`` — :func:`repro.engine.optimizer.optimize_plan` calls;
* ``tape_compilations`` — tape-mode ``plan.bind`` calls, each compiling
  the engine's instruction program (and its bucket tapes, which share it);
* ``tape_autotune_runs`` — :meth:`repro.engine.program.TapeProgram.autotune`
  runs, the one autotuner.  A plan whose kernel choices were cached (or
  loaded from an artifact) compiles its tape without ticking this;
* ``autotune_runs`` — the removed step-level autotuner's counter.  Nothing
  ticks it; the key stays because the frozen ``benchmarks/e2e`` probe
  indexes it, and goes when a benchmark PR drops that read.

Tests snapshot the counters, perform the operation under scrutiny, and
assert the delta — see ``tests/test_deploy_api.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PipelineCounters", "PIPELINE_COUNTERS"]


@dataclass
class PipelineCounters:
    """Process-global tallies of compile-pipeline stage executions."""

    lowerings: int = 0
    optimizations: int = 0
    autotune_runs: int = 0
    tape_compilations: int = 0
    tape_autotune_runs: int = 0

    def snapshot(self) -> dict[str, int]:
        """Immutable view for delta assertions."""
        return {"lowerings": self.lowerings, "optimizations": self.optimizations,
                "autotune_runs": self.autotune_runs,
                "tape_compilations": self.tape_compilations,
                "tape_autotune_runs": self.tape_autotune_runs}

    def delta(self, since: dict[str, int]) -> dict[str, int]:
        """Work performed since a :meth:`snapshot`."""
        now = self.snapshot()
        return {key: now[key] - since[key] for key in now}

    def to_metrics(self, namespace: str = "repro") -> dict[str, int]:
        """Prometheus-style counter names -> values.

        The bridge :func:`repro.telemetry.prometheus_text` uses to expose
        pipeline work next to the serving counters
        (``repro_pipeline_<stage>_total``).
        """
        return {f"{namespace}_pipeline_{key}_total": value
                for key, value in self.snapshot().items()}


#: The process-global instance every pipeline stage ticks.
PIPELINE_COUNTERS = PipelineCounters()
