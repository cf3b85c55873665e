"""Process-level fleet scale-out: per-process tape engines + shared memory.

The thread backend's dispatch workers overlap only where NumPy releases the
GIL; the pure-Python tape dispatch (instruction decode, fused-chain calls,
requantize bookkeeping) serializes.  :class:`ProcessFleetBackend` removes
that ceiling: each dispatch worker proxies its batch claims to a dedicated
**worker process** hosting its own per-process engines, so N workers run N
tape interpreters truly concurrently.

Design points:

* **Engine bootstrap from the disk tier.**  Workers never pickle an engine —
  they load ``.rpa`` plan artifacts (prepacked weights, cached autotune
  choices) via :meth:`repro.deploy.Deployment.load`, the same
  zero-re-lowering path a warm restart takes.  The parent exports
  artifacts from its :class:`~repro.serving.cache.PlanCache` disk tier (or a
  temporary directory when no tier is configured).
* **Shared-memory data plane.**  Request images travel parent→worker and
  output codes worker→parent through per-worker
  ``multiprocessing.shared_memory`` arenas sized once for the largest
  fleet batch; only tiny control messages (model name, group fills, dtype)
  cross the task/result queues.  Codes are staged as int64 in the arena and
  cast back to the engine's exact dtype on receipt, which is lossless, so
  outputs stay bit-identical to in-process execution.
* **Spawn context.**  ``fork`` would duplicate the parent's BLAS state and
  compiled engines into every worker; ``spawn`` keeps workers minimal and
  portable (and is the only start method on some platforms).
* **Supervised recv.**  ``run()`` never blocks forever: the result recv
  polls with a per-task deadline (``task_timeout_s``) and checks
  ``Process.is_alive()`` between polls, raising typed
  :class:`~repro.faults.WorkerCrashed` / :class:`~repro.faults.WorkerTimeout`
  errors the server's supervisor can recover from.  :meth:`respawn`
  rebuilds a dead worker — bounded attempts with exponential backoff,
  engines re-bootstrapped from the same artifacts, the *same* parent-owned
  arenas re-attached.
* **Faults are drawn in the parent.**  The server draws every task fault
  of a :class:`~repro.faults.FaultPlan` itself, on every backend; a worker
  injects nothing of its own and only acts out the ``worker_crash`` or
  ``task_hang`` a task message hands it.

The backend is deliberately synchronous per worker — ``run(worker_index,
...)`` blocks until that worker's result returns — because the
:class:`~repro.serving.server.FleetServer` already runs one dispatch thread
per worker; those threads spend their time blocked on the result queue, not
holding the GIL.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import time
from typing import Sequence

import numpy as np

from ..faults import RespawnExhausted, TaskFailed, WorkerCrashed, WorkerTimeout

__all__ = ["ProcessFleetBackend"]

#: bytes per staged element — images stage as float64, codes as int64
_ITEMSIZE = 8

#: seconds between result-queue polls while waiting on a worker; bounds how
#: fast a crash is noticed without busy-waiting
_POLL_S = 0.05

_START_TIMEOUT_S = 120.0      # a (re)spawned worker's deadline to report ready
_RESPAWN_BACKOFF_MAX_S = 2.0  # cap on the exponential backoff before a respawn
_JOIN_TIMEOUT_S = 10.0        # each join's wait before terminate, then kill


def _worker_main(worker_index: int, artifact_paths: dict[str, str],
                 specs: dict[str, dict], in_name: str, out_name: str,
                 task_queue, result_queue) -> None:
    """Worker-process entry point: bootstrap engines, then serve tasks.

    Protocol (task queue): ``("run", task_id, model, fills, trace, fault)``
    — the parent has written ``sum(fills)`` concatenated images into the
    input arena; execute them as megabatch groups through
    :func:`~repro.serving._session.timed_run`, write the concatenated codes
    into the output arena, reply ``("done", task_id, elapsed_s, executions,
    dtype, shape, spans)``.  ``fault`` is ``None`` or the ``(kind,
    duration_s)`` of a fault the parent drew for this task: a
    ``worker_crash`` hard-exits with no reply, a ``task_hang`` sleeps
    ``duration_s`` first.  ``trace`` is ``None`` (tracing off) or
    ``{"now": parent_stamp_s, "tape": bool}``: the worker aligns its clock
    with the parent by ``offset = parent_stamp_s - perf_counter()`` at task
    receipt and ships span tuples (see
    :meth:`repro.telemetry.Span.to_tuple`) back in ``spans`` — a worker-lane
    execute span, plus per-instruction tape spans when ``tape`` is set and
    the engine runs in tape mode.  ``("stop",)`` exits.  Any failure replies
    ``("error", task_id_or_None, message)``; bootstrap failures carry
    ``task_id=None``.
    """
    from multiprocessing import shared_memory

    from ..deploy.deployment import Deployment
    from ._session import timed_run

    try:
        # Attaching registers the segments with the resource tracker again;
        # spawn children share the parent's tracker process, where register
        # is idempotent, and only the parent (the single owner) ever calls
        # unlink — so no child-side unregister dance is needed.
        in_shm = shared_memory.SharedMemory(name=in_name)
        out_shm = shared_memory.SharedMemory(name=out_name)
        engines = {name: Deployment.load(path).engine
                   for name, path in artifact_paths.items()}
        result_queue.put(("ready", worker_index, sorted(engines)))
    except BaseException as exc:  # noqa: BLE001 - must cross the process edge
        result_queue.put(("error", None, f"worker {worker_index} bootstrap "
                                         f"failed: {exc!r}"))
        return
    try:
        while True:
            message = task_queue.get()
            if message[0] == "stop":
                return
            _, task_id, model, fills, trace, fault = message
            try:
                if fault is not None:
                    kind, duration_s = fault
                    if kind == "worker_crash":
                        # A real crash: no reply, no cleanup, nonzero exit.
                        os._exit(3)
                    time.sleep(duration_s)
                sample_shape = tuple(specs[model]["input_shape"][1:])
                staged = np.ndarray((int(sum(fills)), *sample_shape),
                                    dtype=np.float64, buffer=in_shm.buf)
                bounds = np.cumsum([0, *fills])
                groups = [staged[a:b] for a, b in zip(bounds, bounds[1:])]
                spans: list[tuple] = []
                emit = None
                if trace is not None:
                    # Align this process's clock with the parent's trace
                    # clock: the parent stamped "now" just before sending.
                    clock_offset = trace["now"] - time.perf_counter()
                    if trace["tape"]:
                        lane = f"proc-worker-{worker_index}-tape"

                        def emit(name, args, t0, t1):
                            spans.append((name, "tape", t0 + clock_offset,
                                          t1 + clock_offset, lane, None, args))
                group_codes, executions, start, elapsed = timed_run(
                    engines[model], groups, emit)
                if trace is not None:
                    spans.append((model, "execute", start + clock_offset,
                                  start + elapsed + clock_offset,
                                  f"proc-worker-{worker_index}", None,
                                  {"fills": list(fills),
                                   "executions": int(executions),
                                   "compute_ms": elapsed * 1e3}))
                codes = np.concatenate(group_codes, axis=0)
                out_view = np.ndarray(codes.shape, dtype=np.int64,
                                      buffer=out_shm.buf)
                out_view[:] = codes  # int32 -> int64 widening is lossless
                result_queue.put(("done", task_id, elapsed, executions,
                                  str(codes.dtype), tuple(codes.shape), spans))
            except BaseException as exc:  # noqa: BLE001
                result_queue.put(("error", task_id,
                                  f"worker {worker_index} task {task_id} on "
                                  f"{model!r} failed: {exc!r}"))
    finally:
        in_shm.close()
        out_shm.close()


class ProcessFleetBackend:
    """N worker processes hosting per-process engines behind shared memory.

    ``specs`` maps each model to its parent-engine geometry
    (``{"input_shape": (B, C, H, W), "output_shape": (B, K)}``); arena sizes
    are the max over the fleet, so one pair of arenas per worker serves
    every model.  ``artifact_paths`` maps each model to the ``.rpa`` plan
    artifact its per-process engine bootstraps from.

    ``task_timeout_s`` is the per-task recv deadline; ``max_respawns`` /
    ``respawn_backoff_s`` bound :meth:`respawn`.
    """

    def __init__(self, specs: dict[str, dict], artifact_paths: dict[str, str],
                 *, workers: int,
                 task_timeout_s: float = 60.0,
                 max_respawns: int = 2,
                 respawn_backoff_s: float = 0.05) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if task_timeout_s <= 0:
            raise ValueError(f"task_timeout_s must be > 0, got {task_timeout_s}")
        if max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {max_respawns}")
        missing = sorted(set(specs) - set(artifact_paths))
        if missing:
            raise ValueError(f"no artifact path for models {missing}")
        self.specs = {name: dict(spec) for name, spec in specs.items()}
        self.artifact_paths = dict(artifact_paths)
        self.workers = int(workers)
        self.task_timeout_s = float(task_timeout_s)
        self.max_respawns = int(max_respawns)
        self.respawn_backoff_s = float(respawn_backoff_s)
        self._ctx = mp.get_context("spawn")
        self._in_bytes = max(
            int(np.prod(spec["input_shape"])) * _ITEMSIZE
            for spec in self.specs.values())
        self._out_bytes = max(
            int(np.prod(spec["output_shape"])) * _ITEMSIZE
            for spec in self.specs.values())
        self._in_shms: list = []
        self._out_shms: list = []
        self._task_queues: list = [None] * self.workers
        self._result_queues: list = [None] * self.workers
        self._processes: list = [None] * self.workers
        self._task_counter = 0
        self._respawn_counts = [0] * self.workers
        #: slots whose last task timed out: the worker may still be inside
        #: it and will not read a stop message until it returns
        self._stuck = [False] * self.workers
        self._respawn_s: list[float] = []
        self._crashes = 0
        self._timeouts = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------ #
    def _spawn_worker(self, index: int) -> None:
        """(Re)create one worker slot: fresh queues + process, same arenas."""
        task_queue = self._ctx.Queue()
        result_queue = self._ctx.Queue()
        self._task_queues[index] = task_queue
        self._result_queues[index] = result_queue
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, self.artifact_paths, self.specs,
                  self._in_shms[index].name, self._out_shms[index].name,
                  task_queue, result_queue),
            name=f"fleet-worker-{index}", daemon=True)
        process.start()
        self._processes[index] = process

    def _wait_ready(self, index: int) -> None:
        message = self._result_queues[index].get(timeout=_START_TIMEOUT_S)
        if message[0] != "ready":
            raise RuntimeError(message[2])

    def start(self) -> None:
        """Spawn the workers and block until every engine set is warm."""
        if self._started:
            raise RuntimeError("backend already started")
        from multiprocessing import shared_memory
        try:
            for index in range(self.workers):
                self._in_shms.append(shared_memory.SharedMemory(
                    create=True, size=self._in_bytes))
                self._out_shms.append(shared_memory.SharedMemory(
                    create=True, size=self._out_bytes))
                self._spawn_worker(index)
            for index in range(self.workers):
                self._wait_ready(index)
            self._started = True
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "ProcessFleetBackend":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def respawn(self, worker_index: int) -> float:
        """Rebuild a dead/hung worker slot; returns the recovery seconds.

        Bounded by ``max_respawns`` per slot (raises
        :class:`~repro.faults.RespawnExhausted` past the budget) with
        exponential backoff.  The old process is terminated (killed if it
        ignores SIGTERM), its queues retired without blocking on undelivered
        data, and a fresh process re-bootstraps its engines from the same
        artifacts against the same parent-owned arenas.
        """
        if not self._started or self._closed:
            raise RuntimeError("backend is not running (call start())")
        if not 0 <= worker_index < self.workers:
            raise ValueError(f"worker_index must be in [0, {self.workers}), "
                             f"got {worker_index}")
        attempt = self._respawn_counts[worker_index]
        if attempt >= self.max_respawns:
            raise RespawnExhausted(
                f"worker {worker_index} exceeded its respawn budget "
                f"({self.max_respawns})")
        self._respawn_counts[worker_index] = attempt + 1
        start = time.perf_counter()
        backoff = min(self.respawn_backoff_s * (2.0 ** attempt),
                      _RESPAWN_BACKOFF_MAX_S)
        if backoff > 0:
            time.sleep(backoff)
        old = self._processes[worker_index]
        if old.is_alive():
            old.terminate()
            old.join(timeout=_JOIN_TIMEOUT_S)
            if old.is_alive():
                old.kill()
                old.join(timeout=_JOIN_TIMEOUT_S)
        for retired in (self._task_queues[worker_index],
                        self._result_queues[worker_index]):
            retired.close()
            # The dead worker will never drain these; don't block on the
            # feeder thread flushing to a pipe nobody reads.
            retired.cancel_join_thread()
        self._spawn_worker(worker_index)
        self._stuck[worker_index] = False
        self._wait_ready(worker_index)
        elapsed = time.perf_counter() - start
        self._respawn_s.append(elapsed)
        return elapsed

    def fault_stats(self) -> dict:
        """Supervision counters for the serving report."""
        return {
            "crashes": self._crashes,
            "timeouts": self._timeouts,
            "respawns": sum(self._respawn_counts),
            "respawn_counts": list(self._respawn_counts),
            "respawn_s": [round(s, 6) for s in self._respawn_s],
        }

    # ------------------------------------------------------------------ #
    def run(self, worker_index: int, model: str,
            images: Sequence[np.ndarray], trace: dict | None = None,
            fault: tuple[str, float] | None = None):
        """Execute megabatch groups on one worker process.

        ``images`` is a list of stacked per-batch arrays (``(fill, C, H,
        W)`` each, total fill <= the engine batch size).  Returns
        ``(codes_per_group, executions, elapsed_s, spans)`` where each codes
        array has exactly its group's fill rows and the engine's exact
        dtype — bit-identical to in-process execution.  ``elapsed_s`` is the
        worker-measured compute time (IPC excluded), which feeds the EWMA
        cost model.  ``trace`` is ``None`` or ``{"now": parent_trace_stamp,
        "tape": bool}``; when set, ``spans`` carries the worker's span
        tuples aligned to the parent's trace clock (empty otherwise) — see
        :meth:`repro.telemetry.Tracer.adopt`.  ``fault`` is ``None`` or a
        parent-drawn ``("worker_crash" | "task_hang", duration_s)`` the
        worker acts out on this task.

        The recv is deadline-bounded (``task_timeout_s``) and
        liveness-checked: a worker that dies raises
        :class:`~repro.faults.WorkerCrashed`, one that stalls past the
        deadline raises :class:`~repro.faults.WorkerTimeout`, and a task
        that fails in a live worker raises
        :class:`~repro.faults.TaskFailed` — never an indefinite block.
        Stale results from a pre-timeout task on a worker that was *not*
        respawned are discarded, not mismatched.
        """
        if not self._started or self._closed:
            raise RuntimeError("backend is not running (call start())")
        if not 0 <= worker_index < self.workers:
            raise ValueError(f"worker_index must be in [0, {self.workers}), "
                             f"got {worker_index}")
        if model not in self.specs:
            raise ValueError(f"unknown model {model!r}; "
                             f"fleet: {sorted(self.specs)}")
        fills = [int(np.asarray(group).shape[0]) for group in images]
        flat = np.concatenate([np.asarray(group, dtype=np.float64)
                               for group in images], axis=0)
        if flat.nbytes > self._in_bytes:
            raise ValueError(f"{flat.nbytes} bytes of images exceed the "
                             f"{self._in_bytes}-byte input arena")
        staged = np.ndarray(flat.shape, dtype=np.float64,
                            buffer=self._in_shms[worker_index].buf)
        staged[:] = flat
        task_id = self._task_counter
        self._task_counter += 1
        result_queue = self._result_queues[worker_index]
        self._task_queues[worker_index].put(("run", task_id, model, fills,
                                             trace, fault))
        deadline = time.monotonic() + self.task_timeout_s
        while True:
            try:
                message = result_queue.get(timeout=_POLL_S)
            except queue_mod.Empty:
                process = self._processes[worker_index]
                if not process.is_alive():
                    # One grace drain: the reply may have raced the death.
                    try:
                        message = result_queue.get(timeout=_POLL_S)
                    except queue_mod.Empty:
                        self._crashes += 1
                        raise WorkerCrashed(
                            f"worker {worker_index} died (exitcode "
                            f"{process.exitcode}) while running task "
                            f"{task_id} on {model!r}") from None
                elif time.monotonic() >= deadline:
                    self._timeouts += 1
                    self._stuck[worker_index] = True
                    raise WorkerTimeout(
                        f"worker {worker_index} produced no result for task "
                        f"{task_id} on {model!r} within "
                        f"{self.task_timeout_s:g}s") from None
                else:
                    continue
            if message[0] == "error":
                raise TaskFailed(message[2])
            _, done_id, elapsed, executions, dtype, shape, spans = message
            if done_id != task_id:
                continue  # stale pre-timeout result; keep waiting for ours
            break
        staged_out = np.ndarray(shape, dtype=np.int64,
                                buffer=self._out_shms[worker_index].buf)
        codes = staged_out.astype(np.dtype(dtype))  # exact narrowing cast
        group_codes, offset = [], 0
        for fill in fills:
            group_codes.append(codes[offset:offset + fill])
            offset += fill
        return group_codes, int(executions), float(elapsed), spans

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the workers and release the arenas (idempotent).

        A worker whose last task timed out is terminated at once: it may
        still be inside that task and would read a stop message only when
        it returns.  Arena close + unlink runs in a ``finally`` so
        shared-memory segments are released even when a worker ignores the
        stop message, outlives ``_JOIN_TIMEOUT_S`` and has to be terminated
        — or when queue teardown itself raises.
        """
        if self._closed:
            return
        self._closed = True
        try:
            for task_queue, process, stuck in zip(
                    self._task_queues, self._processes, self._stuck):
                if process is None or not process.is_alive():
                    continue
                if stuck:
                    process.terminate()
                    continue
                try:
                    task_queue.put(("stop",))
                except (OSError, ValueError):
                    pass
            for process in self._processes:
                if process is None:
                    continue
                process.join(timeout=_JOIN_TIMEOUT_S)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=_JOIN_TIMEOUT_S)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=_JOIN_TIMEOUT_S)
            for queue in (*self._task_queues, *self._result_queues):
                if queue is None:
                    continue
                queue.close()
                # Never block teardown on a feeder thread flushing to a
                # worker that already exited.
                queue.cancel_join_thread()
        finally:
            for shm in (*self._in_shms, *self._out_shms):
                try:
                    shm.close()
                except OSError:
                    pass
                try:
                    shm.unlink()
                except (FileNotFoundError, OSError):
                    pass
            self._in_shms.clear()
            self._out_shms.clear()
            self._task_queues = [None] * self.workers
            self._result_queues = [None] * self.workers
            self._processes = [None] * self.workers
