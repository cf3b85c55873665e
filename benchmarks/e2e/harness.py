"""Measurement plumbing shared by the workloads and the layer probes.

Nothing here knows about ``repro``: resource snapshots, percentiles, the
in-memory span log behind ``trace-<workload>.json``, machine provenance and
the process/shared-memory leak check.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from config import THREAD_ENV


def cpu_seconds() -> float:
    """Process CPU so far, user + system, self plus reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """High-water resident set, self plus children (Linux reports KiB)."""
    return sum(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class SpanLog:
    """Spans recorded by the benchmark around each call into a layer.

    A span is ``(name, start_s, end_s, parent index or None, operation id)``
    on the ``perf_counter`` clock.  Spans stay in memory until
    :meth:`write`; nesting comes from the ``with`` stack, so a layer's self
    time is its span minus the spans opened inside it.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _, _ in self.spans
                if span_name == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - children
        return totals

    def write(self, path: Path, extra: dict) -> None:
        payload = {
            "spans": [{"name": name, "start_s": start, "end_s": end,
                       "parent": parent, "op": op}
                      for name, start, end, parent, op in self.spans],
            "self_time_s": self.self_times(),
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


def _git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` (absent in an exported tree)."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (root / ".git" / head[5:]).read_text().strip()
    except OSError:
        return "unknown"
    return head


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):      # older NumPy: no dict mode
        return "unknown"
    return f"{info.get('name')} {info.get('version')}"


def provenance(root: Path, **run) -> dict:
    """Where and how a result was taken, so two results can be compared."""
    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_version(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        **run,
    }


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if one was started.

    Shared memory starts it as a child of this process and nothing stops it
    before interpreter exit; the run must not leave a process behind.
    """
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def leak_problems(shm_before: set[str]) -> list[str]:
    """Child processes still alive and shared-memory segments left behind."""
    problems = []
    children = []
    for task in Path("/proc/self/task").iterdir():
        try:
            children += (task / "children").read_text().split()
        except OSError:          # thread ended, or no CONFIG_PROC_CHILDREN
            pass
    alive = [p.name for p in multiprocessing.active_children()]
    if children or alive:
        problems.append(f"live child processes: pids {children}, {alive}")
    leaked = shm_segments() - shm_before
    if leaked:
        problems.append(f"leaked /dev/shm segments: {sorted(leaked)}")
    return problems
