"""The server's end-to-end self-test: the acceptance gate as a function.

``run_server_smoke`` is what ``repro serve --self-test`` (and the CI
server-smoke step, and the server benchmark) runs:

1. materialize P points of the Fig. 4 LUD thread-distribution grid;
2. sweep them through a plain in-process
   :class:`~repro.service.scheduler.CompileService` — the ground truth;
3. start a real daemon on an ephemeral port and drive the *same* sweep
   from C concurrent clients over real sockets, started together;
4. assert every client's every slot is **byte-identical** to the
   in-process result (canonical artifact signature: compiler log + PTX
   rendering — the same identity the difftest and resilience gates use);
5. assert cross-client **coalescing** actually fired and **no** request
   was rejected;
6. re-sweep every point from one client: the **warm** round must be all
   cache hits — answered from the stored bytes — with no compile, and
   byte-identical too;
7. probe **admission control** against a deliberately tiny daemon and
   assert the oversized sweep is *rejected* (429), not queued or hung.

The determinism contract makes (4) a strict equality, not a tolerance:
the daemon path re-parses each module from its canonical print, and
print → parse → compile is fingerprint-stable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from ..core.search import DEFAULT_GANGS, DEFAULT_WORKERS, distribution_requests
from ..kernels import get_benchmark
from ..service.scheduler import CompileService, JobError
from ..telemetry.spans import get_tracer
from .client import ServerClient
from .daemon import ReproServer, ServerConfig
from .protocol import ServerRejected

__all__ = ["SmokeReport", "artifact_signature", "fig4_requests",
           "run_server_smoke"]


def artifact_signature(result: Any) -> str:
    """The canonical byte-identity of one sweep slot: every observable
    the experiments read (log, per-kernel PTX, distribution), or the
    structured error fields for a :class:`JobError` slot."""
    if isinstance(result, JobError):
        return f"error|{result.kind}|{result.label}|{result.message}"
    parts = [result.compiler, result.target, *result.log]
    for kernel in result.kernels:
        parts.append(kernel.name)
        parts.append(kernel.distribution.strategy.value)
        parts.append(kernel.ptx.render() if kernel.ptx is not None else "")
    return "\x1e".join(parts)


def fig4_requests(points: int | None = None, compiler: str = "caps",
                  target: str = "cuda"):
    """The 72-point Fig. 4 LUD grid (or its first *points* entries)."""
    requests = distribution_requests(
        get_benchmark("lud"), compiler, target, DEFAULT_GANGS, DEFAULT_WORKERS
    )
    return requests if points is None else requests[:points]


@dataclass
class SmokeReport:
    """What the self-test measured (``lines()`` is the CLI rendering)."""

    points: int = 0
    clients: int = 0
    identical: bool = False
    mismatches: int = 0
    coalesced: int = 0
    batches: int = 0
    compiles: int = 0
    rejected: int = 0
    rejection_probe_ok: bool = False
    warm_hits: int = 0
    warm_compiles: int = 0
    warm_identical: bool = False
    client_errors: list[str] = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (self.identical and self.coalesced > 0 and self.rejected == 0
                and self.warm_identical and self.warm_hits == self.points
                and self.warm_compiles == 0
                and self.rejection_probe_ok and not self.client_errors)

    def lines(self) -> list[str]:
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"server self-test: {verdict}",
            (
                f"  {self.clients} clients x {self.points} points: "
                f"byte-identical={'yes' if self.identical else 'no'} "
                f"({self.mismatches} mismatching slots)"
            ),
            (
                f"  coalesced={self.coalesced} batches={self.batches} "
                f"compiles={self.compiles} rejected={self.rejected}"
            ),
            (
                f"  warm: {self.warm_hits}/{self.points} hits, "
                f"{self.warm_compiles} compiles, "
                f"byte-identical={'yes' if self.warm_identical else 'no'}"
            ),
            (
                f"  admission probe: oversized sweep "
                f"{'rejected with 429' if self.rejection_probe_ok else 'NOT rejected'}"
            ),
        ]
        lines.extend(f"  client error: {err}" for err in self.client_errors)
        return lines


def _probe_admission() -> bool:
    """A 4-deep daemon must *reject* an 8-point sweep — immediately,
    explicitly, with a 429 — never hang it or silently queue it."""
    config = ServerConfig(port=0, jobs=1, max_queue_depth=4,
                          batch_window_s=0.0)
    with ReproServer(config) as server:
        host, port = server.address
        with ServerClient(host, port, client_id="probe") as client:
            try:
                client.sweep(fig4_requests(8))
            except ServerRejected as exc:
                return exc.code == 429 and exc.kind == "queue-full"
    return False


def run_server_smoke(
    clients: int = 4,
    points: int = 72,
    jobs: int = 4,
    config: ServerConfig | None = None,
) -> SmokeReport:
    """Run the full self-test; see the module docstring for the steps."""
    report = SmokeReport(points=points, clients=clients)
    requests = fig4_requests(points)
    report.points = len(requests)

    with get_tracer().span("server.smoke", category="server",
                           clients=clients, points=len(requests)):
        baseline = CompileService().sweep(requests)
        expected = [artifact_signature(slot) for slot in baseline]

        if config is None:
            config = ServerConfig(port=0, jobs=jobs)
        else:
            config.port = 0
        # the self-test's own load must be admissible in full: C clients
        # each admit P points concurrently.  Rejection behaviour is
        # covered by the dedicated tiny-daemon probe below.
        config.max_queue_depth = max(config.max_queue_depth,
                                     clients * len(requests))
        server = ReproServer(config).start()
        try:
            host, port = server.address
            got: dict[str, list[str] | None] = {}
            errors: list[str] = []
            # connected clients start together, so their misses overlap
            # and coalesce rather than the late ones finding cache hits
            start = threading.Barrier(clients)

            def drive(client_id: str) -> None:
                try:
                    with ServerClient(host, port,
                                      client_id=client_id) as client:
                        start.wait(timeout=60)
                        slots = client.sweep(requests)
                    got[client_id] = [artifact_signature(s) for s in slots]
                except Exception as exc:
                    errors.append(f"{client_id}: {type(exc).__name__}: {exc}")
                    got[client_id] = None

            threads = [
                threading.Thread(target=drive, args=(f"client-{i}",),
                                 name=f"smoke-client-{i}")
                for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            report.client_errors = errors
            report.mismatches = sum(
                signature != want
                for signatures in got.values() if signatures is not None
                for signature, want in zip(signatures, expected)
            )
            complete = all(
                signatures is not None and len(signatures) == len(expected)
                for signatures in got.values()
            ) and len(got) == clients
            report.identical = complete and report.mismatches == 0

            batch = server.batcher.snapshot()
            admission = server.admission.snapshot()
            report.coalesced = int(batch["coalesced"])
            report.batches = int(batch["batches"])
            report.compiles = int(
                server.service.metrics.snapshot()["compiles"])
            report.rejected = (
                int(admission["rejected_queue"])
                + int(admission["rejected_quota"])
                + int(admission["rejected_draining"])
            )

            before = server.service.metrics.snapshot()
            with ServerClient(host, port, client_id="warm") as client:
                warm = [artifact_signature(s)
                        for s in client.sweep(requests)]
            after = server.service.metrics.snapshot()
            report.warm_hits = int(after["cache_hits"]
                                   - before["cache_hits"])
            report.warm_compiles = int(after["compiles"] - before["compiles"])
            report.warm_identical = warm == expected
            report.stats = server.stats()
        finally:
            server.drain()

        report.rejection_probe_ok = _probe_admission()
    return report
