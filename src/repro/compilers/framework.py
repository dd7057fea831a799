"""Shared compiler infrastructure: scheduling, compiled kernels, logs.

A compiler (CAPS, PGI, the OpenCL path) consumes IR kernels and produces
:class:`CompiledKernel` objects holding

* the (possibly transformed) IR the backend actually lowered,
* a :class:`ThreadDistribution` — how iterations map onto device threads,
* the generated PTX (CUDA targets),
* execution-semantics annotations for the functional executor (sequential
  vs parallel, broken reductions),
* the compilation log, including messages that *lie* — the CAPS
  "Loop 'i' was shared among gangs(192) and workers(256)" message is
  emitted even when the codelet actually runs gang(1) x worker(1)
  (paper V-A2: "it may be a bug of the CAPS compiler").
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from ..analysis.patterns import (
    LoopBounds,
    OpCountPlan,
    OpCounts,
    coalescing_fraction,
)
from ..ir.stmt import For, KernelFunction
from ..perf.model import LaunchConfig, WorkProfile
from ..ptx.codegen import ParallelMapping
from ..ptx.isa import PtxKernel
from ..runtime.executor import ExecMode, LoopSemantics


class CompilationError(Exception):
    """A compiler refused the input (e.g. PGI on Hydro's pointer casts)."""


class DistStrategy(enum.Enum):
    SEQUENTIAL = "sequential"
    GANG_MODE = "gang mode"
    GRIDIFY_1D = "gridify 1D"
    GRIDIFY_2D = "gridify 2D"
    AUTO_1D = "parallel 1D"
    FIXED = "fixed"


@dataclass(frozen=True)
class ThreadDistribution:
    """A resolvable thread-distribution decision (paper Table VI)."""

    strategy: DistStrategy
    gang: int | None = None
    worker: int | None = None
    blocksize: tuple[int, int] = (32, 4)
    fixed: LaunchConfig | None = None
    advertised: str = ""

    def resolve(self, extents: list[int]) -> LaunchConfig:
        """Concrete launch geometry given the parallel-loop extents
        (outermost first)."""
        if self.strategy is DistStrategy.SEQUENTIAL:
            return LaunchConfig(sequential=True)
        if self.strategy is DistStrategy.FIXED:
            assert self.fixed is not None
            return self.fixed
        if self.strategy is DistStrategy.GANG_MODE:
            gang = self.gang or 1
            worker = self.worker or 1
            return LaunchConfig(grid=(gang, 1, 1), block=(worker, 1, 1))
        if self.strategy is DistStrategy.AUTO_1D:
            items = 1
            for extent in (extents or [1]):
                items *= max(extent, 1)
            block = self.worker or 128
            return LaunchConfig(
                grid=(max(1, math.ceil(items / block)), 1, 1), block=(block, 1, 1)
            )
        bx, by = self.blocksize
        if self.strategy is DistStrategy.GRIDIFY_1D:
            items = extents[0] if extents else 1
            return LaunchConfig(
                grid=(max(1, math.ceil(items / (bx * by))), 1, 1), block=(bx, by, 1)
            )
        # GRIDIFY_2D: inner extent -> x, outer extent -> y
        outer = extents[0] if extents else 1
        inner = extents[1] if len(extents) > 1 else 1
        return LaunchConfig(
            grid=(max(1, math.ceil(inner / bx)), max(1, math.ceil(outer / by)), 1),
            block=(bx, by, 1),
        )


class LaunchPlan:
    """The launch-invariant static analysis of one compiled kernel.

    Only a launch's env (sizes, the host loop index) changes between the
    launches of one kernel, so everything else is analysed once, from
    static IR — the paper's per-kernel static-PTX posture (section
    IV-C): the parallel loops' linearized bounds, the element width, the
    innermost parallel body's coalesced fraction and op-count plan, and
    (on first need) the whole body's op-count plan for sequential work
    and host fallback.  A launch then only evaluates affine forms.

    A plan is pure: two threads racing to build one only duplicate work.
    It assumes the kernel's IR is not mutated once launched.
    """

    def __init__(self, kernel: "CompiledKernel") -> None:
        loops: list[For] = []
        for loop_id in kernel.parallel_loop_ids:
            try:
                loops.append(kernel.ir.find_loop(loop_id))
            except KeyError:
                pass
        #: the parallel loops' bounds, outer-first
        self.loops = tuple(LoopBounds(loop) for loop in loops)
        self.elem_bytes = max(
            [4, *(p.type.size_bytes for p in kernel.ir.array_params)]  # type: ignore[union-attr]
        )
        self.inner_ops: OpCountPlan | None = None
        self.coalesced = 1.0
        if loops:
            innermost = loops[-1]
            self.inner_ops = OpCountPlan(innermost.body)
            self.coalesced = coalescing_fraction(innermost.body, innermost.var)
        self._body = kernel.ir.body
        self._body_ops: OpCountPlan | None = None

    def body_ops(self) -> OpCountPlan:
        plan = self._body_ops
        if plan is None:
            plan = self._body_ops = OpCountPlan(self._body)
        return plan


@dataclass
class CompiledKernel:
    """One device kernel as produced by a compiler backend."""

    name: str
    ir: KernelFunction                     # post-transform IR the backend lowered
    target: str                            # "cuda" | "opencl"
    compiler: str                          # producing compiler name
    distribution: ThreadDistribution
    parallel_loop_ids: list[int] = field(default_factory=list)  # outer-first
    ptx: PtxKernel | None = None
    messages: list[str] = field(default_factory=list)
    #: loops whose reduction lowering is broken (lost updates on execution)
    broken_reduction_loops: list[int] = field(default_factory=list)
    #: device kind the broken reduction manifests on (None = everywhere);
    #: CAPS's OpenCL reduction only corrupts results on MIC (paper V-D2)
    broken_reduction_device: str | None = None
    #: arrays staged through shared/local memory (hand-written kernels only)
    shared_staged: tuple[str, ...] = ()
    #: memory-traffic reuse factor from shared staging (1.0 = none)
    traffic_reuse: float = 1.0
    #: the kernel was elided (not executed on the device at all)
    elided: bool = False
    #: extra per-launch host-side dispatch cost in microseconds (the HMPP
    #: runtime wraps every CAPS codelet call in argument marshalling)
    dispatch_overhead_us: float = 0.0
    #: the kernel carries an explicit ``acc data`` region: the runtime may
    #: hoist its transfers out of host loops (the paper's future work)
    has_data_region: bool = False

    # -- execution-semantics view for the functional executor ---------------

    def executor_semantics(self, device_kind: str | None = None
                           ) -> dict[int, LoopSemantics]:
        """Per-loop execution semantics on a device of *device_kind*
        ("gpu" / "mic" / "cpu"); broken reductions only fire on the device
        they manifest on."""
        semantics: dict[int, LoopSemantics] = {}
        if not self.distribution.strategy is DistStrategy.SEQUENTIAL:
            for loop_id in self.parallel_loop_ids:
                semantics[loop_id] = LoopSemantics(ExecMode.PARALLEL_SNAPSHOT)
        if (
            self.broken_reduction_device is None
            or device_kind is None
            or device_kind == self.broken_reduction_device
        ):
            for loop_id in self.broken_reduction_loops:
                semantics[loop_id] = LoopSemantics(ExecMode.REDUCTION_LAST_CHUNK)
        return semantics

    @property
    def sequential(self) -> bool:
        return self.distribution.strategy is DistStrategy.SEQUENTIAL

    # -- performance-model view ---------------------------------------------

    def launch_plan(self) -> LaunchPlan:
        """This kernel's :class:`LaunchPlan`, built on first use."""
        plan = self.__dict__.get("_launch_plan")
        if plan is None:
            plan = self._launch_plan = LaunchPlan(self)
        return plan

    def __getstate__(self) -> dict:
        # the plan is derived from the IR: a pickled artifact (cache blob,
        # disk or peer tier) is the same whether or not it was launched
        state = dict(self.__dict__)
        state.pop("_launch_plan", None)
        return state

    def launch_config(self, env: dict[str, int]) -> LaunchConfig:
        extents = [bounds.trips(env) for bounds in self.launch_plan().loops]
        return self.distribution.resolve(extents)

    def work_profile(
        self, env: dict[str, int], working_set_bytes: float = 0.0
    ) -> WorkProfile:
        """Build the analytical workload description for a launch."""
        if self.elided:
            return WorkProfile(items=0, ops=OpCounts(), bytes_per_item=0.0)
        plan = self.launch_plan()
        elem_bytes = plan.elem_bytes
        if self.sequential or not plan.loops:
            ops = plan.body_ops().counts(env)
            bytes_total = (ops.loads + ops.stores) * elem_bytes
            return WorkProfile(
                items=1,
                ops=ops,
                bytes_per_item=float(bytes_total) * self.traffic_reuse,
                coalesced_fraction=1.0,
                working_set_bytes=working_set_bytes,
            )

        items = 1
        inner_env = dict(env)
        for bounds in plan.loops:
            extent = bounds.trips(env)
            items *= max(extent, 1)
            # representative mid-range value for triangular inner bounds
            inner_env[bounds.var] = max(extent // 2, 1)
        ops = plan.inner_ops.counts(inner_env)
        bytes_per_item = (ops.loads + ops.stores) * elem_bytes * self.traffic_reuse
        # explicit Gang-mode work-item indexing defeats the Intel OpenCL
        # implicit vectorizer on MIC; compiler-generated (Gridify/auto)
        # schedules vectorize along the contiguous dimension
        vectorizable = (
            0.0 if self.distribution.strategy is DistStrategy.GANG_MODE else None
        )
        return WorkProfile(
            items=items,
            ops=ops,
            bytes_per_item=float(bytes_per_item),
            coalesced_fraction=plan.coalesced,
            working_set_bytes=working_set_bytes,
            vectorizable_fraction=vectorizable,
        )

    def host_profile(
        self, env: dict[str, int], working_set_bytes: float
    ) -> WorkProfile:
        """The whole-kernel sequential profile used for host fallback."""
        plan = self.launch_plan()
        # an out-of-order host core predicts branches: no divergence penalty
        ops = plan.body_ops().counts(env, divergent=False)
        return WorkProfile(
            items=1,
            ops=ops,
            bytes_per_item=float((ops.loads + ops.stores) * plan.elem_bytes),
            coalesced_fraction=1.0,
            working_set_bytes=working_set_bytes,
        )

    def ptx_mapping(self) -> ParallelMapping:
        dims: dict[int, int] = {}
        for dim, loop_id in enumerate(reversed(self.parallel_loop_ids)):
            dims[loop_id] = dim  # innermost loop -> x
        return ParallelMapping(dims=dims)


@dataclass
class CompilationResult:
    """Everything a compiler produced for one module."""

    module_name: str
    compiler: str
    target: str
    kernels: list[CompiledKernel] = field(default_factory=list)
    log: list[str] = field(default_factory=list)

    def kernel(self, name: str) -> CompiledKernel:
        for kernel in self.kernels:
            if kernel.name == name:
                return kernel
        raise KeyError(f"no compiled kernel {name!r}")

    def log_text(self) -> str:
        return "\n".join(self.log)


#: Table III — parallelism levels as defined by the standard and implemented
#: by each tool-chain (paper Table III, verbatim).
PARALLELISM_MAPPING: dict[str, dict[str, str | None]] = {
    "Gang": {
        "CAPS": "Gang",
        "PGI": "Gang",
        "CUDA": "Thread block",
        "OpenCL": "Global work",
    },
    "Worker": {
        "CAPS": "Worker",
        "PGI": None,
        "CUDA": "Thread",
        "OpenCL": "Local work",
    },
    "Vector": {
        "CAPS": None,
        "PGI": "Vector",
        "CUDA": None,
        "OpenCL": None,
    },
}
