"""The Performance Portability Ratio (PPR) of paper section V-F.

    PPR = MIC_elapsed_time / GPU_elapsed_time          (Equation 1)

"to qualitatively measure the performance difference of a single source
code base application across GPU and MIC" — lower is better (closer to
identical performance on both devices); PPR > 1 means the code runs
faster on the K40 than on the 5110P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def ppr(mic_elapsed_s: float, gpu_elapsed_s: float) -> float:
    """Equation 1."""
    if mic_elapsed_s < 0 or gpu_elapsed_s < 0:
        raise ValueError("elapsed times must be non-negative")
    if gpu_elapsed_s == 0:
        return math.inf
    return mic_elapsed_s / gpu_elapsed_s


@dataclass(frozen=True)
class PprEntry:
    """One bar of Figure 16."""

    label: str            # e.g. "GE OAC-OCL/OAC-CUDA", "BFS OpenCL"
    benchmark: str
    version: str          # "openacc" | "opencl"
    mic_elapsed_s: float
    gpu_elapsed_s: float

    @property
    def ppr(self) -> float:
        return ppr(self.mic_elapsed_s, self.gpu_elapsed_s)


@dataclass(frozen=True)
class MatrixPprEntry:
    """Equation 1 at one (family, device count) of the portability
    matrix: CAPS-OpenCL on a 5110P chain over CAPS-CUDA on a K40 chain,
    same source, same width."""

    family: str
    devices: int
    mic_elapsed_s: float
    gpu_elapsed_s: float

    @property
    def ppr(self) -> float:
        return ppr(self.mic_elapsed_s, self.gpu_elapsed_s)


def format_ppr_matrix(entries: list[MatrixPprEntry]) -> str:
    """The PPR surface as a family × device-count grid (Fig. 16, but a
    plane instead of a bar row: portability can *flip* with width when
    halo contention bites one node type harder than the other)."""
    counts = sorted({entry.devices for entry in entries})
    families = sorted({entry.family for entry in entries})
    by_key = {(e.family, e.devices): e for e in entries}
    header = f"{'PPR':10s}" + "".join(f"{'x' + str(c):>10s}" for c in counts)
    lines = [header, "-" * len(header)]
    for family in families:
        row = [f"{family:10s}"]
        for count in counts:
            entry = by_key.get((family, count))
            row.append(f"{entry.ppr:10.2f}" if entry else f"{'-':>10s}")
        lines.append("".join(row))
    return "\n".join(lines)


def format_ppr_table(entries: list[PprEntry]) -> str:
    """Figure 16 as text: per benchmark, the OpenACC and OpenCL PPR."""
    lines = [f"{'benchmark':10s} {'version':10s} {'MIC s':>12s} "
             f"{'GPU s':>12s} {'PPR':>8s}"]
    lines.append("-" * len(lines[0]))
    for entry in entries:
        lines.append(
            f"{entry.benchmark:10s} {entry.version:10s} "
            f"{entry.mic_elapsed_s:12.4g} {entry.gpu_elapsed_s:12.4g} "
            f"{entry.ppr:8.2f}"
        )
    return "\n".join(lines)
