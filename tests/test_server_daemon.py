"""Integration tests on the compile daemon (docs/SERVER.md).

Real sockets on ephemeral ports throughout: coalescing across client
connections, admission control (queue bound, per-client quotas, drain),
connection survival through malformed frames, and the endpoint surface.
"""

import socket
import threading

import pytest

from repro.frontend import parse_module
from repro.server import protocol
from repro.server.client import ServerClient, spawn_local
from repro.server.daemon import ReproServer, ServerConfig
from repro.server.quotas import AdmissionController, TokenBucket
from repro.server.smoke import artifact_signature, fig4_requests
from repro.service.fingerprint import CompileRequest
from repro.service.resilience import SimClock

SOURCE = """
#pragma acc kernels
void demo(float *a, const float *b, int n) {
  int i;
  #pragma acc loop independent
  for (i = 0; i < n; i++) {
    a[i] = b[i] * 2.0f;
  }
}
"""


def demo_request() -> CompileRequest:
    return CompileRequest(parse_module(SOURCE, "demo"), "caps", "cuda")


def make_server(**overrides) -> ReproServer:
    config = ServerConfig(port=0, jobs=2, **overrides)
    return ReproServer(config).start()


# --------------------------------------------------------------------------
# coalescing across client connections
# --------------------------------------------------------------------------

def test_n_identical_concurrent_requests_compile_exactly_once():
    """The coalescing contract: N clients asking for the same fingerprint
    while it is in flight share ONE compile."""
    clients = 4
    # a wide batch window so every client lands in the first batch
    server = make_server(batch_window_s=0.25, max_batch=16)
    try:
        host, port = server.address
        barrier = threading.Barrier(clients)
        errors: list[str] = []
        results: dict[int, str] = {}

        def drive(index: int) -> None:
            try:
                with ServerClient(host, port,
                                  client_id=f"c{index}") as client:
                    barrier.wait(timeout=10)
                    artifact = client.compile_request(demo_request())
                results[index] = artifact_signature(artifact)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(f"{index}: {exc}")

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)

        assert not errors
        assert len(set(results.values())) == 1  # same artifact for everyone
        assert server.service.metrics.snapshot()["compiles"] == 1
        batch = server.batcher.snapshot()
        assert batch["coalesced"] == clients - 1
    finally:
        server.drain()


def test_sequential_repeat_is_a_cache_hit_not_a_recompile():
    with spawn_local(ServerConfig(jobs=1)) as (server, client):
        first = client.compile_request(demo_request())
        second = client.compile_request(demo_request())
        assert artifact_signature(first) == artifact_signature(second)
        snap = server.service.metrics.snapshot()
        assert snap["compiles"] == 1
        assert snap["cache_hits"] >= 1


def test_sweep_through_daemon_matches_in_process_byte_for_byte():
    from repro.service.scheduler import CompileService

    requests = fig4_requests(6)
    baseline = [artifact_signature(s)
                for s in CompileService().sweep(requests)]
    with spawn_local(ServerConfig(jobs=2)) as (_server, client):
        got = [artifact_signature(s) for s in client.sweep(requests)]
    assert got == baseline


# --------------------------------------------------------------------------
# cache hits answered on the connection thread
# --------------------------------------------------------------------------

def test_warm_compile_is_answered_without_the_batch_window():
    """A hit never waits in the micro-batch window: it is answered on
    the connection thread and never reaches the batcher."""
    import time

    with spawn_local(ServerConfig(jobs=1, batch_window_s=0.5)) as (
            server, client):
        client.compile_request(demo_request())  # cold: through the batcher
        submitted = server.batcher.snapshot()["submitted"]
        start = time.perf_counter()
        client.compile_request(demo_request())
        assert time.perf_counter() - start < 0.25
        assert server.batcher.snapshot()["submitted"] == submitted


def test_cache_hit_still_needs_admission():
    server = make_server(quota_rate=0.001, quota_burst=1.0)
    try:
        host, port = server.address
        with ServerClient(host, port, client_id="spent") as client:
            client.compile_request(demo_request())  # spends the one token
            hits = server.service.cache.stats.hits
            with pytest.raises(protocol.ServerRejected) as excinfo:
                client.compile_request(demo_request())
        assert excinfo.value.code == protocol.REJECTED
        assert excinfo.value.kind == "quota"
        assert server.service.cache.stats.hits == hits  # never looked up
    finally:
        server.drain()


def test_cached_refusal_answers_the_batched_slot_inline():
    """PGI refuses OpenCL: the first answer comes through the batcher,
    the second from the cached failure on the connection thread, and
    the two wire slots are identical."""
    request = CompileRequest(parse_module(SOURCE, "demo"), "pgi", "opencl")
    point = protocol.point_to_wire(request)
    with spawn_local(ServerConfig(jobs=1)) as (server, client):
        batched = client._call("compile", point=point)["result"]
        inline = client._call("compile", point=point)["result"]
        assert server.batcher.snapshot()["submitted"] == 1
    assert batched["status"] == "error"
    assert batched["kind"] == "compile-error"
    assert "PGI" in batched["message"]
    assert ((inline["status"], inline["kind"], inline["message"])
            == (batched["status"], batched["kind"], batched["message"]))


def test_sweep_mixing_hits_and_misses_keeps_request_order():
    from repro.service.scheduler import CompileService

    requests = fig4_requests(6)
    baseline = [artifact_signature(s)
                for s in CompileService().sweep(requests)]
    with spawn_local(ServerConfig(jobs=2)) as (server, client):
        client.sweep(requests[::2])  # warm every other point
        got = [artifact_signature(s) for s in client.sweep(requests)]
        assert server.batcher.snapshot()["submitted"] == 6
    assert got == baseline


def test_counters_count_each_request_once():
    """One source of truth: a cold request is one cache miss and one
    compile, a warm one is one cache hit — never a miss and a hit."""
    cold, warm = 3, 5
    requests = fig4_requests(cold)
    with spawn_local(ServerConfig(jobs=1)) as (_server, client):
        for request in requests:
            client.compile_request(request)
        for index in range(warm):
            client.compile_request(requests[index % cold])
        stats = client.stats()
    assert stats["cache"]["misses"] == stats["service"]["compiles"] == cold
    assert stats["cache"]["memory_hits"] + stats["cache"]["disk_hits"] \
        + stats["cache"]["peer_hits"] == warm
    assert stats["service"]["cache_hits"] == warm
    assert stats["service"]["requests"] == cold + warm


# --------------------------------------------------------------------------
# admission control
# --------------------------------------------------------------------------

def test_oversized_sweep_is_rejected_not_queued():
    server = make_server(max_queue_depth=3, batch_window_s=0.0)
    try:
        host, port = server.address
        with ServerClient(host, port, client_id="greedy") as client:
            with pytest.raises(protocol.ServerRejected) as excinfo:
                client.sweep(fig4_requests(8))
        assert excinfo.value.code == protocol.REJECTED
        assert excinfo.value.kind == "queue-full"
        assert server.admission.snapshot()["rejected_queue"] == 1
        # the bound is on concurrency, not size: a fitting sweep still runs
        with ServerClient(host, port, client_id="modest") as client:
            slots = client.sweep(fig4_requests(2))
        assert len(slots) == 2
    finally:
        server.drain()


def test_per_client_quota_rejects_with_429():
    server = make_server(quota_rate=0.001, quota_burst=2.0,
                         batch_window_s=0.0)
    try:
        host, port = server.address
        with ServerClient(host, port, client_id="burster") as client:
            # the burst allowance covers 2 points...
            assert len(client.sweep(fig4_requests(2))) == 2
            # ...and the sustained rate is ~zero, so the next request
            # is over quota
            with pytest.raises(protocol.ServerRejected) as excinfo:
                client.sweep(fig4_requests(2))
        assert excinfo.value.kind == "quota"
        # quotas are per client: a different client still has its burst
        with ServerClient(host, port, client_id="fresh") as client:
            assert len(client.sweep(fig4_requests(2))) == 2
        assert server.admission.snapshot()["rejected_quota"] == 1
    finally:
        server.drain()


def test_token_bucket_refills_on_its_clock():
    clock = SimClock()
    bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
    assert bucket.try_spend(4.0)          # full at birth
    assert not bucket.try_spend(1.0)      # empty
    clock.sleep(1.0)                    # +2 tokens
    assert bucket.try_spend(2.0)
    assert not bucket.try_spend(0.5)
    clock.sleep(100.0)                  # refill caps at burst
    assert bucket.available() == pytest.approx(4.0)


def test_admission_controller_depth_and_reasons():
    clock = SimClock()
    controller = AdmissionController(max_queue_depth=20, quota_rate=10.0,
                                     quota_burst=10.0, clock=clock)
    assert controller.admit("a", 3).allowed
    refusal = controller.admit("a", 18)         # 3 + 18 > 20
    assert not refusal.allowed and refusal.reason == "queue-full"
    # quota: "a" has 10 - 3 = 7 tokens left; 8 points is over (the depth
    # gate would allow it, so this exercises the quota gate specifically)
    refusal = controller.admit("a", 8)
    assert not refusal.allowed and refusal.reason == "quota"
    controller.release(3)
    assert controller.depth == 0
    clock.sleep(1.0)                            # +10, capped at 10
    assert controller.admit("a", 8).allowed
    controller.release(8)
    controller.start_draining()
    refusal = controller.admit("b", 1)
    assert not refusal.allowed and refusal.reason == "draining"
    snap = controller.snapshot()
    assert snap["rejected_queue"] == 1
    assert snap["rejected_quota"] == 1
    assert snap["rejected_draining"] == 1


# --------------------------------------------------------------------------
# drain / shutdown
# --------------------------------------------------------------------------

def test_draining_server_answers_503():
    server = make_server()
    try:
        host, port = server.address
        server.admission.start_draining()
        with ServerClient(host, port, client_id="late") as client:
            with pytest.raises(protocol.ServerRejected) as excinfo:
                client.sweep(fig4_requests(1))
        assert excinfo.value.code == protocol.DRAINING
        assert excinfo.value.kind == "draining"
    finally:
        server.drain()


def test_shutdown_op_answers_then_drains():
    server = make_server()
    host, port = server.address
    with ServerClient(host, port, client_id="admin") as client:
        response = client.shutdown()
    assert response["draining"] is True
    # the drain completes in the background and the listener goes away
    assert server._stopped.wait(timeout=10)
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=0.5).close()


# --------------------------------------------------------------------------
# protocol robustness over a live socket
# --------------------------------------------------------------------------

def test_malformed_frames_get_400_and_the_connection_survives():
    server = make_server()
    try:
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            reader = sock.makefile("rb")
            for garbage in (b"not json\n", b"[1,2]\n", b'{"op": 7}\n'):
                sock.sendall(garbage)
                response = protocol.decode_frame(reader.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == protocol.BAD_REQUEST
            # same connection, now a valid frame: still served
            sock.sendall(protocol.encode_frame(
                {"id": 1, "op": "hello", "client": "probe"}))
            response = protocol.decode_frame(reader.readline())
            assert response["ok"] is True
            assert response["protocol"] == protocol.PROTOCOL
        assert server.protocol_errors == 3
    finally:
        server.drain()


def test_unknown_op_gets_404_and_the_connection_survives():
    with spawn_local() as (_server, client):
        with pytest.raises(protocol.ServerError) as excinfo:
            client._call("frobnicate")
        assert excinfo.value.code == protocol.UNKNOWN_OP
        # the same client object keeps working
        assert client.status()["draining"] is False


# --------------------------------------------------------------------------
# endpoints + telemetry lanes
# --------------------------------------------------------------------------

def test_status_and_stats_surfaces():
    with spawn_local(ServerConfig(jobs=1, shards=4)) as (_server, client):
        client.sweep(fig4_requests(2))
        status = client.status()
        assert status["queue"]["depth"] == 0
        assert status["requests_total"] >= 1
        stats = client.stats()
        assert stats["service"]["compiles"] == 2
        assert stats["server"]["batcher"]["batched_points"] == 2
        assert len(stats["cache_shards"]) == 4


def test_requests_are_traced_in_per_client_lanes():
    from repro.telemetry import configure_tracer, get_tracer, reset_tracer

    configure_tracer(enabled=True)
    try:
        with spawn_local(client_id="lane-me") as (_server, client):
            client.sweep(fig4_requests(1))
        spans = [s for s in get_tracer().spans()
                 if s.name == "server.request"]
        assert spans
        assert {s.attributes.get("lane") for s in spans} == {"client:lane-me"}
    finally:
        reset_tracer()
