"""The benchmark's three workloads, driven through the public library API.

Each workload builds its inputs from the seed, sets itself up (imports
are already done by the caller), makes one discarded warm-up call, and
then runs a timed window.  After the window it checks its outputs and
reads the program's own counters to prove it exercised the layers it is
meant to exercise and bypassed the ones it is meant to bypass.

* ``fig4-cold`` — the paper's Fig. 4 LUD (gang x worker) heat maps with
  CAPS, a K40/CUDA and a 5110P/OpenCL map per call, each on a fresh
  ``CompileService(jobs=1)``: every grid point is compiled and then runs
  the perf-model launch loop.  Server and executor are idle.
* ``daemon-mixed`` — two closed-loop ``ServerClient`` connections to an
  in-process ``ReproServer`` send single-point compiles: 8 in 10 hit the
  Fig. 4 grid compiled during set-up, 2 in 10 are fresh off-grid points,
  which both clients send in the same order so their misses race and
  must coalesce.  Launch model and executor are idle.
* ``exec-sweep`` — ``run_exec_sweep`` over GE/LUD/Hydro at the
  ``BENCH_exec.json`` sizes: input generation, plan lookup and the NumPy
  run on warm plans.  Passes, server and launch model are idle.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from contextlib import nullcontext
from typing import Any

from repro.core.search import (DEFAULT_GANGS, DEFAULT_WORKERS,
                               distribution_requests, lud_heatmap)
from repro.devices import K40, PHI_5110P
from repro.kernels import get_benchmark
from repro.runtime.parallel import run_exec_sweep
from repro.server import ServerClient, ServerConfig
from repro.server.daemon import ReproServer
from repro.server.smoke import artifact_signature, fig4_requests
from repro.service.scheduler import CompileService
from repro.telemetry.registry import get_registry

from layers import LayerTracer, Patches

#: sha256 over the sorted (gang, worker, repr(seconds)) cells of each
#: CAPS heat map at n=1024 — the Fig. 4 time grid as of this benchmark
FIG4_DIGESTS = {
    K40.name: "c42c7ad24223237927f8bc4844fac8395f1dd5de5f354302f4b472fed5098967",
    PHI_5110P.name:
        "39649cf8d294af1f4ea1f482f1a166b6daca4756f6f32aa028327fe5080adcc9",
}
#: the brightest cell of each map, first in (gang, worker) grid order
FIG4_BEST = {K40.name: (16, 64), PHI_5110P.name: (128, 1)}

#: the sizes, repeats and digest recorded in BENCH_exec.json
EXEC_SIZES = {"ge": 512, "lud": 768, "hydro": 512}
EXEC_REPEATS = 4
EXEC_DIGEST = "c1a300dede54f3b1d1289ff0193dfaf0424dd1dd53e7229d8231370a931bbbd7"

#: daemon-mixed: closed-loop clients (one per core of the 2-core target)
CLIENTS = 2
#: fresh points per block of requests in each client's stream
FRESH_PER_BLOCK, BLOCK = 2, 10
#: fresh points are materialised in chunks of FRESH_GANGS x FRESH_WORKERS
FRESH_GANGS, FRESH_WORKERS = 4, 8
#: ops_per_s on the daemon is the fastest rate over runs of this many
#: consecutive completions (about as long as one fig4-cold call)
RATE_GROUP = 100
#: traced and untraced blocks alternate at this period on the daemon
TRACE_BLOCK_S = 1.0


EXECUTOR_COUNTERS = ("executor.vectorized", "executor.fallback",
                     "executor.cache_hit", "executor.pool_tasks")
#: the program counters each traced run reports (0 where a workload has
#: no such counter)
COUNTERS = ("service.compiles", "service.cache.hits", "service.cache.misses",
            "service.cache.puts", "server.batcher.batches",
            "server.batcher.coalesced") + EXECUTOR_COUNTERS


def grid_digest(heatmap) -> str:
    cells = sorted((g, w, repr(heatmap.time(g, w)))
                   for g in heatmap.gangs for w in heatmap.workers)
    return hashlib.sha256(json.dumps(cells).encode()).hexdigest()


def grid_best(heatmap) -> tuple[int, int]:
    """The brightest cell in canonical grid order (ties go to the first),
    whatever order the seed swept the axes in."""
    cells = [(heatmap.time(g, w), gi, wi)
             for gi, g in enumerate(DEFAULT_GANGS)
             for wi, w in enumerate(DEFAULT_WORKERS)]
    _, gi, wi = min(cells)
    return DEFAULT_GANGS[gi], DEFAULT_WORKERS[wi]


def _counters() -> dict[str, int]:
    return dict(get_registry().snapshot()["counters"])


def _cache_counts(stats) -> dict[str, int]:
    """The ``service.cache.*`` counters of one artifact cache."""
    return {"service.cache.hits": stats.hits,
            "service.cache.misses": stats.misses,
            "service.cache.puts": stats.stores}


def _delta(now: dict[str, int], base: dict[str, int]) -> dict[str, int]:
    return {name: value - base.get(name, 0) for name, value in now.items()}


class Window:
    """What one timed window measured."""

    def __init__(self) -> None:
        self.latencies_s: list[float] = []
        self.traced_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.ops_per_s = 0.0
        self.errors: list[str] = []


class CallWorkload:
    """A workload whose unit of timing is one blocking library call."""

    name = ""
    ops_per_call = 0
    remote_roots: tuple[str, ...] = ()

    def call(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, patches: Patches | None,
            tracer: LayerTracer | None) -> Window:
        """Call back to back until *seconds* have passed.  When traced,
        calls alternate between traced and untraced, so the untraced half
        gives the tracing overhead under the same conditions."""
        window = Window()
        deadline = time.perf_counter() + seconds
        traced = False
        while time.perf_counter() < deadline:
            if patches is not None:
                traced = not traced
            window.attempted += self.ops_per_call
            if traced:
                patches.install()
            try:
                with tracer.root() if traced else nullcontext():
                    start = time.perf_counter()
                    self.call()
                    elapsed = time.perf_counter() - start
            except Exception as exc:  # a failed call is a counted result
                window.failed += self.ops_per_call
                window.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            finally:
                if traced:
                    patches.uninstall()
            (window.traced_s if traced else window.latencies_s).append(elapsed)
        if window.latencies_s:
            # the fastest call: load from other processes only ever adds
            # time, so the minimum is what repeats across runs
            window.ops_per_s = self.ops_per_call / min(window.latencies_s)
        return window


class Fig4Cold(CallWorkload):
    """One call = the CAPS heat map on K40/CUDA, then on 5110P/OpenCL."""

    name = "fig4-cold"
    points = len(DEFAULT_GANGS) * len(DEFAULT_WORKERS)
    ops_per_call = 2 * points

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.bench = get_benchmark("lud")
        self.totals: dict[str, int] = {}
        self.errors: list[str] = []

    def setup(self) -> None:
        self.call()
        self.totals = {}

    def call(self) -> None:
        for device in (K40, PHI_5110P):
            # the seed chooses the order in which each axis is swept
            gangs = tuple(self.rng.sample(DEFAULT_GANGS, len(DEFAULT_GANGS)))
            workers = tuple(self.rng.sample(DEFAULT_WORKERS,
                                            len(DEFAULT_WORKERS)))
            service = CompileService(jobs=1)
            try:
                heatmap = lud_heatmap(self.bench, device, "caps",
                                      gangs=gangs, workers=workers,
                                      service=service)
            finally:
                service.close()
            self._check(device.name, heatmap, service)

    def _check(self, device: str, heatmap, service: CompileService) -> None:
        compiles = int(service.metrics.snapshot()["compiles"])
        counts = {"service.compiles": compiles,
                  **_cache_counts(service.cache.stats)}
        for name, value in counts.items():
            self.totals[name] = self.totals.get(name, 0) + value
        if compiles != self.points:
            self.errors.append(f"{device}: {compiles} compiles for "
                               f"{self.points} grid points")
        digest = grid_digest(heatmap)
        if digest != FIG4_DIGESTS[device]:
            self.errors.append(f"{device}: time grid digest {digest[:16]}")
        best = grid_best(heatmap)
        if best != FIG4_BEST[device]:
            self.errors.append(f"{device}: best cell {best}, expected "
                               f"{FIG4_BEST[device]}")

    def check(self) -> list[str]:
        return self.errors[:5]

    def counters(self) -> dict[str, int]:
        return dict(self.totals)

    def close(self) -> None:
        pass


class ExecSweep(CallWorkload):
    """One call = ``run_exec_sweep`` at the BENCH_exec sizes."""

    name = "exec-sweep"
    ops_per_call = 3 * 2 * EXEC_REPEATS  # families x hot kernels x repeats

    def __init__(self, seed: int) -> None:
        # the inputs are fixed by the pinned digest; the seed changes none
        self.seed = seed
        self.service = CompileService(jobs=1)
        self.forks = 0
        self.calls = 0
        self.errors: list[str] = []

    def _forked(self) -> None:
        self.forks += 1

    def _snapshot(self) -> dict[str, int]:
        registry = _counters()
        return {**{name: registry.get(name, 0) for name in EXECUTOR_COUNTERS},
                "service.compiles":
                    int(self.service.metrics.snapshot()["compiles"]),
                **_cache_counts(self.service.cache.stats)}

    def setup(self) -> None:
        self.call()
        self.base = self._snapshot()
        os.register_at_fork(before=self._forked)

    def call(self) -> None:
        result = run_exec_sweep(self.service, jobs=1, backend="vector",
                                sizes=EXEC_SIZES, repeats=EXEC_REPEATS)
        self.calls += 1
        if len(result["tasks"]) != self.ops_per_call:
            self.errors.append(f"{len(result['tasks'])} tasks per sweep")
        if result["digest"] != EXEC_DIGEST:
            self.errors.append(f"sweep digest {result['digest'][:16]}")

    def counters(self) -> dict[str, int]:
        return _delta(self._snapshot(), self.base)

    def check(self) -> list[str]:
        errors = self.errors[:5]
        counters = self.counters()
        # jobs=1 runs every task inline: each one is counted as a pool
        # task, but no worker process may be forked
        if self.forks:
            errors.append(f"{self.forks} processes forked")
        calls = self.calls - 1  # after the warm-up
        if counters["executor.pool_tasks"] != calls * self.ops_per_call:
            errors.append(f"{counters['executor.pool_tasks']} tasks run "
                          f"for {calls} sweeps")
        if counters["service.compiles"]:
            errors.append(f"{counters['service.compiles']} stage compiles "
                          f"after warm-up")
        return errors

    def close(self) -> None:
        self.service.close()


class FreshPoints:
    """The shared, seeded sequence of off-grid LUD points, materialised
    on demand; every gang is off the Fig. 4 grid and used once, so no
    point repeats and none is a grid point."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.bench = get_benchmark("lud")
        self.gangs = [g for g in range(1, 1025) if g not in DEFAULT_GANGS]
        rng.shuffle(self.gangs)
        self.requests: list[Any] = []
        self.lock = threading.Lock()

    def __getitem__(self, index: int):
        with self.lock:
            while index >= len(self.requests):
                gangs = tuple(self.gangs.pop() for _ in range(FRESH_GANGS))
                workers = tuple(self.rng.sample(range(1, 257), FRESH_WORKERS))
                chunk = distribution_requests(self.bench, "caps", "cuda",
                                              gangs, workers)
                self.rng.shuffle(chunk)
                self.requests.extend(chunk)
            return self.requests[index]


class DaemonMixed:
    """Two closed-loop clients against one in-process daemon."""

    name = "daemon-mixed"
    ops_per_call = 1  # a request
    config = dict(port=0, jobs=2)
    #: serves each client request on a connection thread
    remote_roots = ("server.ReproServer.handle_frame",)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fresh = FreshPoints(random.Random(f"{seed}:fresh"))
        self.grid = fig4_requests()
        self.server: ReproServer | None = None
        self.clients: list[ServerClient] = []
        #: (kind, index) -> signatures seen in responses
        self.seen: dict[tuple[str, int], set[str]] = {}
        self.fresh_sent = [0] * CLIENTS
        self.errors: list[str] = []
        self.lock = threading.Lock()

    def setup(self) -> None:
        reference = CompileService(jobs=1)
        try:
            self.grid_signatures = [artifact_signature(a)
                                    for a in reference.sweep(self.grid)]
        finally:
            reference.close()
        self.server = ReproServer(ServerConfig(**self.config)).start()
        host, port = self.server.address
        self.clients = [ServerClient(host, port, client_id=f"bench-{k}")
                        for k in range(CLIENTS)]
        self.clients[0].sweep(self.grid)  # the grid, compiled once
        for client in self.clients:  # the discarded warm-up call
            client.compile_request(self.grid[0])
        self.base = self._snapshot()

    def _snapshot(self) -> dict[str, int]:
        service = self.server.service
        batcher = self.server.batcher.snapshot()
        return {"server.batcher.batches": batcher["batches"],
                "server.batcher.coalesced": batcher["coalesced"],
                "service.compiles": int(service.metrics.snapshot()["compiles"]),
                **_cache_counts(service.cache.stats)}

    def _drive(self, k: int, stop: threading.Event, tracer: LayerTracer,
               traced: threading.Event, log: list) -> None:
        client = self.clients[k]
        rng = random.Random(f"{self.seed}:client{k}")
        seen: dict[tuple[str, int], set[str]] = {}
        failed = 0
        while not stop.is_set():
            fresh_slots = set(rng.sample(range(BLOCK), FRESH_PER_BLOCK))
            for slot in range(BLOCK):
                if stop.is_set():
                    break
                if slot in fresh_slots:
                    key = ("fresh", self.fresh_sent[k])
                    request = self.fresh[key[1]]
                    self.fresh_sent[k] += 1
                else:
                    key = ("grid", rng.randrange(len(self.grid)))
                    request = self.grid[key[1]]
                mode = traced.is_set()
                try:
                    with tracer.root() if mode else nullcontext():
                        start = time.perf_counter()
                        artifact = client.compile_request(request)
                        end = time.perf_counter()
                except Exception as exc:  # error frames and JobErrors
                    failed += 1
                    if len(self.errors) < 5:
                        self.errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                log.append((end, end - start, mode))
                seen.setdefault(key, set()).add(artifact_signature(artifact))
        with self.lock:
            for key, signatures in seen.items():
                self.seen.setdefault(key, set()).update(signatures)
        self.failed_by_client[k] = failed

    def run(self, seconds: float, patches: Patches | None,
            tracer: LayerTracer | None) -> Window:
        window = Window()
        stop = threading.Event()
        traced = threading.Event()
        logs: list[list] = [[] for _ in range(CLIENTS)]
        self.failed_by_client = [0] * CLIENTS
        threads = [threading.Thread(target=self._drive,
                                    args=(k, stop, tracer, traced, logs[k]),
                                    name=f"perfbench-client-{k}")
                   for k in range(CLIENTS)]
        deadline = time.perf_counter() + seconds
        for thread in threads:
            thread.start()
        try:
            while (now := time.perf_counter()) < deadline:
                if patches is not None:
                    if traced.is_set():
                        traced.clear()
                        patches.uninstall()
                    else:
                        patches.install()
                        traced.set()
                    time.sleep(min(TRACE_BLOCK_S, deadline - now))
                else:
                    time.sleep(deadline - now)
        finally:
            stop.set()
            if patches is not None and traced.is_set():
                traced.clear()
                patches.uninstall()
            for thread in threads:
                thread.join(timeout=60)
        if any(thread.is_alive() for thread in threads):
            window.errors.append("a client did not stop within 60 s")
        entries = [e for log in logs for e in log]
        window.attempted = len(entries) + sum(self.failed_by_client)
        window.failed = sum(self.failed_by_client)
        window.latencies_s = [lat for _, lat, mode in entries if not mode]
        window.traced_s = [lat for _, lat, mode in entries if mode]
        ends = sorted(end for end, _, _ in entries)
        if len(ends) < 2:
            window.errors.append(f"{len(ends)} requests completed")
            return window
        step = min(RATE_GROUP, len(ends) - 1)
        window.ops_per_s = max(step / (ends[i + step] - ends[i])
                               for i in range(0, len(ends) - step, step))
        return window

    def counters(self) -> dict[str, int]:
        return _delta(self._snapshot(), self.base)

    def check(self) -> list[str]:
        errors = list(self.errors)
        distinct = max(self.fresh_sent)
        compiles = self.counters()["service.compiles"]
        # grid requests compile nothing and concurrent misses of one
        # fresh point coalesce into one compile
        if compiles != distinct:
            errors.append(f"{compiles} compiles for {distinct} distinct "
                          f"fresh points")
        reference = CompileService(jobs=1)
        try:
            fresh_signatures = [
                artifact_signature(a)
                for a in reference.sweep([self.fresh[i]
                                          for i in range(distinct)])]
        finally:
            reference.close()
        expected = {"grid": self.grid_signatures, "fresh": fresh_signatures}
        wrong = [key for key, signatures in self.seen.items()
                 if signatures != {expected[key[0]][key[1]]}]
        if wrong:
            errors.append(f"{len(wrong)} points answered with an artifact "
                          f"unlike the in-process compile, e.g. {wrong[0]}")
        return errors

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.server is not None:
            self.server.drain()


WORKLOADS = {cls.name: cls for cls in (Fig4Cold, DaemonMixed, ExecSweep)}
