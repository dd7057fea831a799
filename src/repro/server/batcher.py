"""Request batching and coalescing over one shared :class:`CompileService`.

The daemon's workload is many small requests from many clients, and the
compilers are pure.  The daemon answers cache hits itself, on the
connection thread, and hands the batcher only the misses; the batcher
applies two collapses before any of them compiles:

* **coalescing** — while a fingerprint is in flight, every further
  request for it (from *any* client) joins the same ticket and receives
  the same result; N concurrent identical requests cost exactly one
  compile.  This is the server-side twin of the scheduler's in-flight
  dedup, but it spans *connections*, not just threads, and it counts
  (``coalesced``) so the savings are visible in ``server.*`` gauges.
* **micro-batching** — admitted points are collected for up to
  ``window_s`` (or ``max_batch`` points, whichever first) and submitted
  as one :meth:`CompileService.sweep`, so a burst of single compiles
  from independent clients rides one scheduler batch (one journal pass,
  one breaker advance, pooled workers kept busy).

Determinism: batching changes *when* a compile runs and *which* sweep it
shares, never its inputs — fingerprints are content addresses and the
service's cache/dedup guarantee byte-identical artifacts regardless of
batch composition.  A sweep request's slots come back in *its* request
order even when its points were interleaved with other clients'.

The batcher owns one dispatch thread; ``close()`` drains the queue,
finishes in-flight sweeps, and only then stops — the graceful-shutdown
path of the daemon.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from ..service.fingerprint import CompileRequest
from ..service.scheduler import CompileService, JobError
from ..telemetry.spans import get_tracer

__all__ = ["BatchTicket", "CoalescingBatcher"]


class BatchTicket:
    """One fingerprint's pending result; shared by every coalesced
    waiter.  ``wait()`` returns the artifact or the :class:`JobError`
    (never raises — slots are data, exactly like ``sweep`` slots)."""

    __slots__ = ("fingerprint", "request", "waiters", "_done", "_result")

    def __init__(self, request: CompileRequest) -> None:
        self.fingerprint = request.fingerprint
        self.request = request
        self.waiters = 1
        self._done = threading.Event()
        self._result: Any = None

    def resolve(self, result: Any) -> None:
        self._result = result
        self._done.set()

    def wait(self, timeout_s: float | None = None) -> Any:
        if not self._done.wait(timeout_s):
            return JobError(
                self.request.tag,
                self.fingerprint, "timeout",
                f"server result not ready within {timeout_s:g}s",
                timeout_s or 0.0,
            )
        return self._result


class CoalescingBatcher:
    """Fingerprint-coalescing micro-batcher in front of a
    :class:`CompileService`."""

    def __init__(
        self,
        service: CompileService,
        window_s: float = 0.005,
        max_batch: int = 32,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.service = service
        self.window_s = max(0.0, window_s)
        self.max_batch = max_batch
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: list[BatchTicket] = []
        #: every undone ticket (queued or mid-sweep), by fingerprint —
        #: the coalescing index
        self._pending: dict[str, BatchTicket] = {}
        self._closed = False
        # counters (server stats)
        self.submitted = 0
        self.coalesced = 0
        self.batches = 0
        self.batched_points = 0
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-server-batcher",
            daemon=True,
        )
        self._dispatcher.start()

    # -- producer side ---------------------------------------------------------

    def submit(self, request: CompileRequest) -> BatchTicket:
        """Enqueue one point; identical in-flight fingerprints coalesce
        onto the existing ticket (no new queue entry, no new compile)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("batcher is closed")
            self.submitted += 1
            ticket = self._pending.get(request.fingerprint)
            if ticket is not None:
                ticket.waiters += 1
                self.coalesced += 1
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.record_span(
                        "server.coalesce", 0.0, category="server",
                        label=request.tag,
                        fingerprint=request.fingerprint[:12],
                        waiters=ticket.waiters,
                    )
                return ticket
            ticket = BatchTicket(request)
            self._pending[request.fingerprint] = ticket
            self._queue.append(ticket)
            self._wakeup.notify()
            return ticket

    # -- dispatch side ---------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            self._run_batch(batch)

    def _collect_batch(self) -> list[BatchTicket] | None:
        """Block for the first ticket, then keep the window open until it
        expires or the batch is full.  Returns None when closed and
        drained."""
        with self._lock:
            while not self._queue and not self._closed:
                self._wakeup.wait()
            if not self._queue:
                return None  # closed and drained
        deadline = None
        while True:
            with self._lock:
                if len(self._queue) >= self.max_batch or self._closed:
                    break
                if deadline is None:
                    deadline = time.monotonic() + self.window_s
                    remaining = self.window_s
                else:
                    remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._wakeup.wait(timeout=remaining)
        with self._lock:
            batch, self._queue = (self._queue[: self.max_batch],
                                  self._queue[self.max_batch:])
            return batch

    def _run_batch(self, batch: list[BatchTicket]) -> None:
        tracer = get_tracer()
        with tracer.span(
            "server.batch", category="server",
            points=len(batch),
            coalesced_waiters=sum(t.waiters for t in batch) - len(batch),
        ):
            try:
                results = self.service.sweep([t.request for t in batch])
            except Exception as exc:  # defensive: sweep slots errors itself
                results = [
                    JobError(t.request.tag,
                             t.fingerprint, "error", str(exc))
                    for t in batch
                ]
        with self._lock:
            self.batches += 1
            self.batched_points += len(batch)
        for ticket, result in zip(batch, results):
            # unindex *before* resolving: a new identical request after
            # resolution must get a fresh compile ticket (which the
            # service cache will answer instantly) rather than a stale one
            with self._lock:
                if self._pending.get(ticket.fingerprint) is ticket:
                    del self._pending[ticket.fingerprint]
            ticket.resolve(result)

    # -- lifecycle -------------------------------------------------------------

    def close(self, timeout_s: float | None = 30.0) -> bool:
        """Stop accepting work, flush the queue, join the dispatcher.
        Returns False if the dispatcher did not finish in time."""
        with self._lock:
            if self._closed:
                return True
            self._closed = True
            self._wakeup.notify_all()
        self._dispatcher.join(timeout=timeout_s)
        return not self._dispatcher.is_alive()

    def snapshot(self) -> dict[str, int | float]:
        with self._lock:
            return {
                "submitted": self.submitted,
                "coalesced": self.coalesced,
                "batches": self.batches,
                "batched_points": self.batched_points,
                "queued": len(self._queue),
                "pending": len(self._pending),
                "window_s": self.window_s,
                "max_batch": self.max_batch,
            }
