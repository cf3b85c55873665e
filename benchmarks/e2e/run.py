"""One end-to-end benchmark of the reproduction: four workloads, one command.

    python benchmarks/e2e/run.py --seed N             every workload, both phases
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python benchmarks/e2e/run.py --smoke              2-second windows, schema check
    python benchmarks/e2e/run.py --selfcheck          two sets of runs vs the bounds

``--workload`` runs one workload in this interpreter and prints, as the last
line of standard output, one JSON object ``{correct, attempted, failed,
metrics}``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``
(tracing off), its per-layer metrics with ``--trace 1``.  Without
``--workload`` each workload and phase runs in a fresh child interpreter.
The exit code is non-zero when any output check fails.  README.md explains
the workloads, the metrics and how to name a claim.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

import config  # noqa: E402 - imports nothing, so NumPy is still unloaded


def pin_environment() -> None:
    """Before NumPy loads; exported so spawned worker processes inherit it."""
    for var in config.THREAD_ENV:
        os.environ[var] = "1"
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (f"{SRC}{os.pathsep}{inherited}" if inherited
                                else str(SRC))
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------- #
# One workload, this interpreter
# ---------------------------------------------------------------------- #
def measured_phase(args) -> dict:
    """``ROUNDS`` rounds of set-up, warm-up, a measured window with tracing
    off, and the output checks.

    Each round sets up afresh because a set-up fixes things that shift the
    level of every later operation (the autotuner's kernel choices, where
    the arena lands in memory); one set-up per run would make that draw the
    run-to-run spread.  Rates and CPU are the median over the rounds,
    latency percentiles pool the rounds' operations.
    """
    import_start = time.perf_counter()
    import numpy as np
    import workloads
    from harness import percentile
    import_s = time.perf_counter() - import_start

    setups, windows, problems = [], [], []
    for index in range(config.ROUNDS):
        work = workloads.make(args.workload, args.seed * config.ROUNDS + index)
        start = time.perf_counter()
        work.setup()
        setups.append(time.perf_counter() - start)
        work.warm(args.seconds * config.WARMUP_SHARE / config.ROUNDS)
        window = work.measure(args.seconds / config.ROUNDS)
        problems += work.check(window)
        work.close()
        windows.append(window)
        if window.good < 1:
            problems.append(f"round {index} produced no correct work")

    latencies = np.concatenate([window.latencies_ms for window in windows])
    good = sum(window.good for window in windows)
    return {
        "metrics": {
            "setup_s": import_s + statistics.median(setups),
            "throughput_per_s": statistics.median(
                window.good / window.wall_s for window in windows),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p95_ms": percentile(latencies, 95),
            "cpu_ms_per_op": statistics.median(
                window.cpu_s / max(window.good, 1) * 1e3 for window in windows),
            # The high-water mark of one set-up and one window; later rounds
            # add whatever the allocator has not handed back yet.
            "peak_rss_mb": windows[0].rss_mb,
        },
        "samples": {"setup_s": len(setups), "throughput_per_s": good,
                    "latency_p50_ms": len(latencies), "latency_p95_ms": len(latencies),
                    "cpu_ms_per_op": good, "peak_rss_mb": 1},
        "attempted": sum(window.attempted for window in windows),
        "failed": sum(window.failed for window in windows),
        "problems": problems,
        "detail": {"unit": windows[0].unit, "import_s": import_s, "setups_s": setups,
                   "rounds": [{"window_s": window.wall_s, "good": window.good,
                               **window.detail} for window in windows]},
    }


def traced_phase(args, out_dir: Path) -> dict:
    """The layer probes; spans go to ``trace-<workload>.json``."""
    from probes import Probes

    probes = Probes(args.workload, args.seed, args.seconds, out_dir)
    probes.run()
    trace_path = out_dir / f"trace-{args.workload}.json"
    probes.log.write(trace_path, probes.trace_extra)
    return {"metrics": probes.metrics, "samples": {},
            "attempted": probes.attempted, "failed": probes.failed,
            "problems": probes.problems, "detail": {"trace": str(trace_path)}}


def schema_problems(metrics: dict, declared: list[dict]) -> list[str]:
    want = {entry["name"] for entry in declared}
    if set(metrics) == want:
        return []
    return [f"metric names differ from BENCHMARK.json: missing "
            f"{sorted(want - set(metrics))}, extra {sorted(set(metrics) - want)}"]


def run_one(args, spec: dict) -> int:
    import harness

    out_dir = Path(args.out) if args.out else HERE / ".out"
    out_dir.mkdir(parents=True, exist_ok=True)
    shm_before = harness.shm_segments()
    result = traced_phase(args, out_dir) if args.trace else measured_phase(args)
    harness.stop_resource_tracker()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    problems = (result["problems"] + schema_problems(result["metrics"], declared)
                + harness.leak_problems(shm_before))
    correct = not problems and result["failed"] == 0
    units = {entry["name"]: entry["unit"] for entry in declared}

    for name, value in result["metrics"].items():
        count = result["samples"].get(name)
        print(f"{args.workload:15s} {name:52s} {value:14.6g} {units.get(name, '?'):6s}"
              + (f" n={count}" if count is not None else ""))
    for problem in problems:
        print(f"FAILED {args.workload}: {problem}")
    record = {
        "workload": args.workload, "trace": args.trace, "correct": correct,
        "problems": problems, **result,
        "provenance": harness.provenance(ROOT, seed=args.seed, seconds=args.seconds,
                                         constants=config.constants()),
    }
    record_path = out_dir / f"result-{args.workload}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=float))
    print(f"{args.workload}: {'ok' if correct else 'FAILED'}; full record in {record_path}")
    print(json.dumps({
        "correct": correct, "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(value), "unit": units.get(name, "?")}
                    for name, value in result["metrics"].items()}}))
    return 0 if correct else 1


# ---------------------------------------------------------------------- #
# Every workload, a fresh interpreter each
# ---------------------------------------------------------------------- #
def run_child(args, workload: str, seed: int, trace: int) -> tuple[int, dict | None]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    if args.out:
        command += ["--out", args.out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode or 1, None
    if not args.selfcheck:
        print("\n".join(lines[:-1]), flush=True)
    return done.returncode, result


def run_all(args) -> int:
    failures = []
    for workload in config.WORKLOADS:
        for trace in (0, 1):
            code, result = run_child(args, workload, args.seed, trace)
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"{workload} --trace {trace}")
    print("FAILED: " + ", ".join(failures) if failures
          else f"all {len(config.WORKLOADS)} workloads ok")
    return 1 if failures else 0


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median, as the driver takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def selfcheck(args, spec: dict) -> int:
    """Two sets of runs of the same code, held to the benchmark's own bounds."""
    declared = spec["end_to_end"]
    failed = False
    for workload in config.WORKLOADS:
        sets = []
        for which in range(2):
            runs = []
            for index in range(args.runs):
                seed = args.seed + 1 + which * args.runs + index
                code, result = run_child(args, workload, seed, 0)
                if code != 0 or result is None:
                    print(f"FAILED {workload} --seed {seed}: exit {code}")
                    return 1
                runs.append(result["metrics"])
            sets.append(runs)
        for entry in declared:
            name, bound = entry["name"], entry["bound"]
            first, second = ([run[name]["value"] for run in runs] for runs in sets)
            med_a, med_b = statistics.median(first), statistics.median(second)
            worse = (med_b - med_a) / med_a * (1 if entry["better"] == "lower" else -1)
            widest = max(spread(first), spread(second))
            ok = worse <= bound and (name == "setup_s" or widest <= bound)
            failed |= not ok
            print(f"{workload:15s} {name:18s} median {med_a:12.5g} / {med_b:12.5g} "
                  f"{entry['unit']:5s} worse {worse:+7.2%} spread {widest:6.2%} "
                  f"bound {bound:4.0%} {'ok' if ok else 'FAIL'}", flush=True)
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=config.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for trace-*.json and result-*.json "
                                      "(default: benchmarks/e2e/.out)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set under --selfcheck")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"{SRC}/repro is missing: the benchmark measures the repository "
              f"it is checked out in", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(spec["run_seconds"])
    pin_environment()
    if args.selfcheck:
        return selfcheck(args, spec)
    if args.workload is None:
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
