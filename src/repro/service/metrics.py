"""Service counters, aggregated into one ``GET /metrics`` document.

Two kinds of numbers meet here: the service's own traffic counters
(requests, submissions, job states, queue depth, coalesced spec-slots)
and the *lifetime* engine counters summed over the worker pool — each
worker owns one :class:`~repro.engine.scheduler.Engine`, and the
engines already keep lifetime :class:`~repro.engine.scheduler.Counters`
across every ``map`` call, so the service only has to add them up.
"""

from __future__ import annotations

import time

from repro.engine.scheduler import Counters


class ServiceMetrics:
    """Mutable traffic counters plus a point-in-time aggregator."""

    def __init__(self):
        self.started = time.time()
        self.requests_total = 0
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0

    def to_dict(self, jobs, engines, coalescer, draining: bool) -> dict:
        """Assemble the ``/metrics`` document from live components."""
        states: dict[str, int] = {}
        for job in jobs:
            states[job.state] = states.get(job.state, 0) + 1
        engine_totals = sum((e.counters for e in engines), Counters())
        return {
            "uptime_s": round(time.time() - self.started, 3),
            "draining": draining,
            "requests_total": self.requests_total,
            "queue_depth": states.get("queued", 0),
            "jobs": {
                "submitted": self.jobs_submitted,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "by_state": states,
            },
            "coalesced_specs": coalescer.n_coalesced,
            "inflight_specs": coalescer.n_inflight,
            "engine": engine_totals.to_dict(),
            "service_workers": len(engines),
        }
