"""The benchmark's own open-loop load generator and outcome tally.

``repro.serving.generate_requests`` draws a fresh image per request, which
at 4000 req/s for tens of seconds is over a gigabyte held by the generator
and drowns ``peak_rss_mb``.  Here every request points into a pool of
``IMAGE_POOL`` images per model, so memory measures the server.  Arrival
times, model picks and the pool all come from ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving import FleetReport, Request, poisson_arrivals

import config


def make_requests(seed, rate_rps: float, seconds: float) -> list[Request]:
    """A Poisson stream over ``[0, seconds)`` with a 50/50 model mix;
    ``seed`` is anything ``numpy.random.default_rng`` accepts."""
    rng = np.random.default_rng(seed)
    times = poisson_arrivals(rate_rps, seconds, rng)
    picks = rng.integers(0, len(config.MODELS), size=times.size)
    shape = (config.IMAGE_POOL, 3, config.IMAGE_SIZE, config.IMAGE_SIZE)
    pools = [list(rng.standard_normal(shape)) for _ in config.MODELS]
    slots = rng.integers(0, config.IMAGE_POOL, size=times.size)
    return [Request(request_id=i, model=config.MODELS[picks[i]],
                    arrival_s=float(times[i]), image=pools[picks[i]][slots[i]],
                    deadline_s=config.SLO_S)
            for i in range(times.size)]


@dataclass
class Tally:
    """Every request of one serve, terminal exactly once."""

    sent: int
    completed: int
    shed: int
    failed: int
    good: int                      # completed within the SLO, from due time
    latencies_ms: np.ndarray       # completed requests, from due time
    late_ms: np.ndarray            # release - due, every released request

    @property
    def accounted(self) -> bool:
        return self.sent == self.completed + self.shed + self.failed


def tally(report: FleetReport, requests: list[Request]) -> Tally:
    """Time each request from when it was due, not from when it was released.

    ``FleetReport`` latencies start at release; a generator that falls
    behind would hide the wait it imposes, so the lateness is added back.
    """
    due = {req.request_id: req.arrival_s for req in requests}
    status = {"completed": 0, "shed": 0, "failed": 0}
    latencies, late = [], []
    for outcome in report.outcomes:
        status[outcome.status] += 1
        if outcome.release_s is None:
            continue
        lateness = outcome.release_s - due[outcome.request_id]
        late.append(lateness)
        if outcome.completed:
            latencies.append(lateness + outcome.latency_s)
    latencies_ms = np.asarray(latencies) * 1e3
    return Tally(sent=len(requests), completed=status["completed"],
                 shed=status["shed"], failed=status["failed"],
                 good=int(np.count_nonzero(latencies_ms <= config.SLO_S * 1e3)),
                 latencies_ms=latencies_ms, late_ms=np.asarray(late) * 1e3)


def wrong_codes(report: FleetReport, requests: list[Request], oracles: dict,
                seed: int) -> tuple[int, int]:
    """Re-run a seeded sample of completed requests on the oracle
    deployments; returns ``(checked, mismatched)``."""
    images = {req.request_id: req.image for req in requests}
    completed = [o for o in report.outcomes if o.completed]
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(completed),
                        size=min(config.ORACLE_SAMPLE, len(completed)),
                        replace=False)
    wrong = 0
    for model, oracle in oracles.items():
        sample = [completed[i] for i in chosen if completed[i].model == model]
        for start in range(0, len(sample), oracle.batch_size):
            group = sample[start:start + oracle.batch_size]
            expected = oracle.run_partial(
                np.stack([images[o.request_id] for o in group])).codes
            wrong += sum(not np.array_equal(o.codes, want)
                         for o, want in zip(group, expected))
    return len(chosen), wrong
