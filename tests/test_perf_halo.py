"""Halo cost-model unit tests: breakdown arithmetic, the overlap proof
per kernel family, and the telemetry lane plumbing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import K40, NVLINK_LINK, PHI_5110P, DeviceTopology
from repro.kernels import BENCHMARKS, get_benchmark
from repro.perf.halo import (
    PACK_EFFICIENCY,
    HaloBreakdown,
    emit_halo_spans,
    halo_cost,
    overlap_provable,
    pack_seconds,
)
from repro.telemetry import Tracer


class TestBreakdownArithmetic:
    def test_pack_free_on_single_device(self):
        assert pack_seconds(DeviceTopology(K40, 1), 1 << 20) == 0.0

    def test_pack_is_two_passes_at_strided_efficiency(self):
        topo = DeviceTopology(K40, 2)
        nbytes = 1 << 20
        expected = 2.0 * nbytes / (K40.peak_bw_gbps * 1e9 * PACK_EFFICIENCY)
        assert pack_seconds(topo, nbytes) == pytest.approx(expected)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            pack_seconds(DeviceTopology(K40, 2), -1)

    def test_exposed_equals_total_without_overlap(self):
        bd = halo_cost(DeviceTopology(K40, 2), 1 << 20, overlap=False)
        assert not bd.overlapped
        assert bd.exposed_s == pytest.approx(bd.total_s)

    def test_overlap_hides_transfer_under_compute(self):
        topo = DeviceTopology(K40, 2)
        transfer = topo.exchange_seconds(1 << 20)
        bd = halo_cost(topo, 1 << 20, compute_s=transfer * 10, overlap=True)
        assert bd.overlapped
        assert bd.exposed_transfer_s == 0.0
        assert bd.exposed_s == pytest.approx(bd.pack_s + bd.unpack_s)

    def test_partial_overlap_exposes_the_remainder(self):
        topo = DeviceTopology(K40, 2)
        transfer = topo.exchange_seconds(1 << 20)
        bd = halo_cost(topo, 1 << 20, compute_s=transfer / 2, overlap=True)
        assert bd.exposed_transfer_s == pytest.approx(transfer / 2)

    def test_single_device_overlap_flag_is_moot(self):
        bd = halo_cost(DeviceTopology(K40, 1), 1 << 20, overlap=True)
        assert not bd.overlapped
        assert bd.total_s == 0.0

    def test_pack_and_unpack_never_overlap(self):
        # pack/unpack touch the kernel's own arrays: always exposed
        bd = HaloBreakdown(pack_s=1.0, transfer_s=5.0, unpack_s=1.0,
                           overlapped=True, compute_s=100.0)
        assert bd.exposed_s == pytest.approx(2.0)


class TestComputeTime:
    """``compute_s`` bounds how much transfer overlap can hide; a
    negative or non-finite one is rejected, never silently believed."""

    @pytest.mark.parametrize("compute_s", [-1.0, -1e-12, math.nan,
                                           math.inf, -math.inf])
    def test_bad_compute_time_rejected(self, compute_s):
        with pytest.raises(ValueError, match=f"got {compute_s}$"):
            halo_cost(DeviceTopology(K40, 2), 1e6, compute_s=compute_s,
                      overlap=True)

    @settings(max_examples=300, deadline=None)
    @given(
        device=st.sampled_from([K40, PHI_5110P]),
        count=st.integers(min_value=1, max_value=8),
        peer=st.sampled_from([None, NVLINK_LINK]),
        nbytes=st.floats(min_value=0.0, max_value=1e12),
        compute_s=st.one_of(st.floats(min_value=0.0, max_value=1e3),
                            st.floats()),
        overlap=st.booleans(),
    )
    def test_exposed_never_exceeds_what_was_sent(
        self, device, count, peer, nbytes, compute_s, overlap
    ):
        # whatever compute time halo_cost accepts, overlap can hide at
        # most the whole transfer and never add to it
        topology = DeviceTopology(device, count, peer=peer)
        try:
            bd = halo_cost(topology, nbytes, compute_s=compute_s,
                           overlap=overlap)
        except ValueError:
            assert not (math.isfinite(compute_s) and compute_s >= 0)
            return
        assert 0.0 <= bd.exposed_transfer_s <= bd.transfer_s
        assert bd.exposed_s <= bd.total_s


class TestOverlapProof:
    """The schedule proof that discriminates the families."""

    def test_stencil_overlaps(self):
        # double-buffered Jacobi: writes unew, reads u
        assert overlap_provable(get_benchmark("stencil").module())

    def test_lbm_overlaps(self):
        # collide/stream alternate f and ftmp — also double-buffered
        assert overlap_provable(get_benchmark("lbm").module())

    def test_pic_stays_exposed(self):
        # atomic scatter merges into cells an unpack may touch
        assert not overlap_provable(get_benchmark("pic").module())

    @pytest.mark.parametrize("name", ["lud", "ge", "bfs", "bp", "hydro"])
    def test_legacy_families_not_provable(self, name):
        assert not overlap_provable(get_benchmark(name).module())

    def test_every_family_has_a_verdict(self):
        # the proof must terminate on every registered module
        for name in sorted(BENCHMARKS):
            assert overlap_provable(get_benchmark(name).module()) in (
                True, False,
            )


class TestHaloSpans:
    def test_spans_carry_device_lane(self):
        tracer = Tracer()
        bd = halo_cost(DeviceTopology(K40, 2), 1 << 20)
        emit_halo_spans(tracer, 1, bd, step=3)
        spans = tracer.spans()
        names = [span.name for span in spans]
        assert names == ["halo.pack", "halo.transfer", "halo.unpack"]
        assert all(span.attributes["lane"] == "device:1" for span in spans)
        assert all(span.attributes["step"] == 3 for span in spans)
        transfer = next(s for s in spans if s.name == "halo.transfer")
        assert transfer.attributes["seconds"] == pytest.approx(bd.transfer_s)
