"""Halo-exchange cost model: pack / transfer / unpack, with overlap.

Every step of a chained multi-device run, each device packs its boundary
cells into a contiguous staging buffer, ships them to its neighbors over
the node topology (:class:`repro.devices.DeviceTopology`), and unpacks
the ghosts it received:

* **pack / unpack** — strided device-memory copies: the halo is read
  once and written once on-device, so each costs
  ``2 * nbytes / (peak_bw * PACK_EFFICIENCY)`` — boundary cells are a
  strided walk, nowhere near streaming peak;
* **transfer** — the topology's contended link time
  (:meth:`DeviceTopology.exchange_seconds`), shared-link bandwidth
  divided among simultaneously crossing pairs;
* **overlap** — when the *schedule* proves the interior compute never
  touches the cells in flight (:func:`overlap_provable`), the transfer
  hides under the step's compute and only the remainder is exposed:
  ``max(0, transfer - compute)``.  Pack and unpack serialize with
  compute either way (they read/write the same arrays the kernels use).

:func:`emit_halo_spans` records the three phases as telemetry spans
tagged ``lane=device:<k>`` — the chrome-trace exporter renders one
swimlane per device (the same mechanism as the daemon's client lanes).

Closed-form and frozen-input: byte-identical across job counts, which
the matrix determinism tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..analysis.affine import linearize
from ..analysis.dependence import Verdict, analyze_loop
from ..devices.topology import DeviceTopology
from ..ir.directives import AccLoop
from ..ir.stmt import Assign, For, Module
from ..ir.visitors import writes_and_reads

#: fraction of streaming peak a strided boundary copy sustains
#: [calibrated: boundary rows are contiguous, boundary columns are a
#: ``nx``-strided walk; the blend lands well under STREAM]
PACK_EFFICIENCY = 0.35


@dataclass(frozen=True)
class HaloBreakdown:
    """One device's per-step halo-exchange cost."""

    pack_s: float
    transfer_s: float
    unpack_s: float
    overlapped: bool          # was the transfer hidden under compute?
    compute_s: float = 0.0    # per-step compute it could hide under

    @property
    def exposed_transfer_s(self) -> float:
        """Transfer time the critical path actually sees."""
        if self.overlapped:
            return max(0.0, self.transfer_s - self.compute_s)
        return self.transfer_s

    @property
    def exposed_s(self) -> float:
        """Total per-step exchange cost on the critical path."""
        return self.pack_s + self.exposed_transfer_s + self.unpack_s

    @property
    def total_s(self) -> float:
        """Un-overlapped sum (what a naive schedule would pay)."""
        return self.pack_s + self.transfer_s + self.unpack_s


def pack_seconds(topology: DeviceTopology, nbytes: float) -> float:
    """One strided staging copy (read + write) on the device."""
    if nbytes < 0:
        raise ValueError(f"nbytes must be non-negative, got {nbytes}")
    if topology.count == 1:
        return 0.0
    effective_bw = topology.device.peak_bw_gbps * 1e9 * PACK_EFFICIENCY
    return 2.0 * nbytes / effective_bw


def halo_cost(
    topology: DeviceTopology,
    nbytes: float,
    compute_s: float = 0.0,
    overlap: bool = False,
) -> HaloBreakdown:
    """The per-step halo bill of the busiest device in *topology*.

    *compute_s* must be finite and non-negative: a negative compute
    time would expose more transfer than was sent, and NaN would hide
    all of it.
    """
    if not (math.isfinite(compute_s) and compute_s >= 0):
        raise ValueError(
            f"compute_s must be finite and non-negative, got {compute_s}"
        )
    return HaloBreakdown(
        pack_s=pack_seconds(topology, nbytes),
        transfer_s=topology.exchange_seconds(nbytes),
        unpack_s=pack_seconds(topology, nbytes),
        overlapped=bool(overlap) and topology.count > 1,
        compute_s=compute_s,
    )


def _double_buffered(loop: For) -> bool:
    """The loop writes only arrays it never reads, through affine
    subscripts — double-buffered form.  Its reads see the pre-step
    state (already exchanged), so no read can consume a cell in flight,
    even when exact dependence analysis cannot separate the writes."""
    writes, reads = writes_and_reads(loop.body)
    written = {ref.name for ref in writes}
    if written & {ref.name for ref in reads}:
        return False
    return all(
        all(linearize(index) is not None for index in ref.indices)
        for ref in writes
    )


def overlap_provable(module: Module) -> bool:
    """True when the schedule proves transfer–compute independence.

    The proof obligation, per parallel-annotated loop: either exactly
    ``INDEPENDENT`` (no loop-carried dependence the exchanged cells
    could feed) or :func:`_double_buffered` (writes a disjoint array
    affinely — reads only ever see the already-exchanged pre-step
    state).  The module must also be atomics-free: an atomic scatter
    (PIC deposit) merges into cells a concurrent unpack may touch, so
    its transfers stay on the critical path.  Stencil and LBM qualify;
    PIC does not.
    """
    saw_parallel = False
    for kernel in module.kernels:
        for stmt in kernel.body.walk():
            if isinstance(stmt, Assign) and stmt.atomic:
                return False
        for loop in kernel.loops():
            acc = loop.directives.first(AccLoop)
            if acc is None or not acc.independent:  # type: ignore[union-attr]
                continue
            saw_parallel = True
            if (analyze_loop(loop).verdict is not Verdict.INDEPENDENT
                    and not _double_buffered(loop)):
                return False
    return saw_parallel


def emit_halo_spans(
    tracer,
    device_index: int,
    breakdown: HaloBreakdown,
    step: int = 0,
) -> None:
    """Record one device's pack/transfer/unpack as ``lane=device:<k>``
    spans (modeled durations ride in attributes; the exporter's named
    lanes give each device its own swimlane)."""
    lane = f"device:{device_index}"
    with tracer.span("halo.pack", category="halo", lane=lane, step=step,
                     seconds=breakdown.pack_s):
        pass
    with tracer.span("halo.transfer", category="halo", lane=lane, step=step,
                     seconds=breakdown.transfer_s,
                     exposed_s=breakdown.exposed_transfer_s,
                     overlapped=breakdown.overlapped):
        pass
    with tracer.span("halo.unpack", category="halo", lane=lane, step=step,
                     seconds=breakdown.unpack_s):
        pass


__all__ = [
    "PACK_EFFICIENCY",
    "HaloBreakdown",
    "emit_halo_spans",
    "halo_cost",
    "overlap_provable",
    "pack_seconds",
]
