#!/usr/bin/env python
"""Compare emitted BENCH_*.json files against committed baselines.

CI's ``bench-regression`` job runs the serving, telemetry and chaos
benchmarks, then calls this script to gate the run:

* **ratio / deterministic metrics** (virtual-clock p99 improvement, chaos
  goodput retained) are machine-independent and compared with a strict
  tolerance band (default 15%, ``--tolerance`` / ``BENCH_REGRESSION_TOL``);
* **wall-clock metrics** (measured goodput on the thread and process
  backends) additionally honour ``BENCH_WALL_TOL`` so hosted runners that
  are slower than the baseline machine don't flake the job — the band is
  ``max(tolerance, BENCH_WALL_TOL)`` for those metrics only;
* **absolute floors** fail regardless of the baseline: the deterministic
  p99 improvement must stay >= 5x, and telemetry-disabled serving throughput must stay within
  ``TELEMETRY_OVERHEAD_MAX_PCT`` of the no-telemetry baseline (the
  ``telemetry.disabled_relative_throughput`` ratio is floored at
  ``1 - pct/100``).

``--update-baselines`` rewrites ``benchmarks/baselines/bench_baselines.json``
from the current BENCH files (run the benchmarks first).  Exit status: 0 on
pass, 1 on regression, 2 when an input file is missing or malformed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = Path(__file__).resolve().parent / "baselines" / "bench_baselines.json"

DEFAULT_TOLERANCE = 0.15        # ISSUE gate: fail if goodput drops >15%
P99_IMPROVEMENT_FLOOR = 5.0     # the serving bench already asserts > 5x
#: telemetry-disabled serving may cost at most this much throughput vs. the
#: no-telemetry baseline (mirrors the bench's own gate; env-overridable for
#: noisy shared runners)
TELEMETRY_OVERHEAD_MAX_PCT = float(
    os.environ.get("TELEMETRY_OVERHEAD_MAX_PCT", "2"))
#: chaos goodput floor: the deterministic virtual chaos run must retain at
#: least this fraction of fault-free completions (ISSUE gate, env-overridable)
FAULTS_MIN_RETAINED = float(os.environ.get("FAULTS_MIN_RETAINED", "0.7"))


@dataclass(frozen=True)
class Metric:
    """One tracked number: where it lives and how strictly it is held."""

    key: str
    value: float
    wall_clock: bool = False    # True -> widen the band by BENCH_WALL_TOL
    floor: float | None = None  # absolute minimum, baseline-independent


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        print(f"error: missing benchmark output {path} "
              f"(run the benchmarks first)", file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON in {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def extract_metrics(serving: dict, telemetry: dict | None = None,
                    faults: dict | None = None) -> list[Metric]:
    """Pull the gated numbers out of the BENCH payloads."""
    try:
        wall = serving["wall_clock"]
        metrics = [
            Metric("serving.sparse_p99_improvement",
                   float(serving["sparse_deterministic"]["p99_improvement"]),
                   floor=P99_IMPROVEMENT_FLOOR),
            Metric("serving.wall_thread_goodput_rps",
                   float(wall["thread"]["metrics"]["fleet"]["goodput_rps"]),
                   wall_clock=True),
            Metric("serving.wall_process_goodput_rps",
                   float(wall["process"]["metrics"]["fleet"]["goodput_rps"]),
                   wall_clock=True),
        ]
        if telemetry is not None:
            metrics.append(Metric(
                "telemetry.disabled_relative_throughput",
                float(telemetry["disabled_relative_throughput"]),
                wall_clock=True,
                floor=1.0 - TELEMETRY_OVERHEAD_MAX_PCT / 100.0))
        if faults is not None:
            metrics.append(Metric(
                "faults.goodput_retained",
                float(faults["virtual"]["goodput_retained"]),
                floor=FAULTS_MIN_RETAINED))
            metrics.append(Metric(
                "faults.process_goodput_rps",
                float(faults["process_chaos"]["goodput_rps"]),
                wall_clock=True))
    except KeyError as exc:
        print(f"error: BENCH payload is missing expected key {exc} — "
              f"schema drift? update this script and the baselines together",
              file=sys.stderr)
        sys.exit(2)
    return metrics


def check(metrics: list[Metric], baselines: dict, tolerance: float,
          wall_tolerance: float) -> bool:
    ok = True
    width = max(len(m.key) for m in metrics)
    print(f"{'metric':<{width}}  {'baseline':>10}  {'current':>10}  "
          f"{'limit':>10}  status")
    for metric in metrics:
        band = max(tolerance, wall_tolerance) if metric.wall_clock else tolerance
        baseline = baselines.get(metric.key)
        limit = baseline * (1.0 - band) if baseline is not None else None
        if metric.floor is not None:
            limit = metric.floor if limit is None else max(limit, metric.floor)
        failures = []
        if baseline is None:
            failures.append("no baseline (run --update-baselines)")
        if metric.floor is not None and metric.value < metric.floor:
            failures.append(f"below absolute floor {metric.floor:g}")
        if baseline is not None and metric.value < baseline * (1.0 - band):
            failures.append(f"dropped >{band:.0%} below baseline")
        status = "FAIL: " + "; ".join(failures) if failures else "ok"
        ok &= not failures
        print(f"{metric.key:<{width}}  "
              f"{baseline if baseline is not None else float('nan'):>10.3f}  "
              f"{metric.value:>10.3f}  "
              f"{limit if limit is not None else float('nan'):>10.3f}  {status}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--serving", type=Path,
                        default=REPO_ROOT / "BENCH_serving.json")
    parser.add_argument("--telemetry", type=Path,
                        default=REPO_ROOT / "BENCH_telemetry.json")
    parser.add_argument("--faults", type=Path,
                        default=REPO_ROOT / "BENCH_faults.json")
    parser.add_argument("--baselines", type=Path, default=BASELINE_PATH)
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get("BENCH_REGRESSION_TOL",
                                                     DEFAULT_TOLERANCE)),
                        help="relative drop allowed vs. baseline "
                             "(default %(default)s, env BENCH_REGRESSION_TOL)")
    parser.add_argument("--update-baselines", action="store_true",
                        help="rewrite the baseline file from the current "
                             "BENCH outputs instead of checking")
    args = parser.parse_args(argv)

    wall_tolerance = float(os.environ.get("BENCH_WALL_TOL", args.tolerance))
    metrics = extract_metrics(_load(args.serving), _load(args.telemetry),
                              _load(args.faults))

    if args.update_baselines:
        args.baselines.parent.mkdir(parents=True, exist_ok=True)
        payload = {m.key: m.value for m in metrics}
        args.baselines.write_text(json.dumps(payload, indent=2, sort_keys=True)
                                  + "\n")
        print(f"wrote {len(payload)} baseline metrics to {args.baselines}")
        return 0

    try:
        baselines = json.loads(args.baselines.read_text())
    except FileNotFoundError:
        print(f"error: no baseline file at {args.baselines}; "
              f"run with --update-baselines and commit it", file=sys.stderr)
        return 2
    if check(metrics, baselines, args.tolerance, wall_tolerance):
        print("bench-regression: PASS")
        return 0
    print("bench-regression: FAIL", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
