"""In-process kernel execution for the execution-heavy sweep.

:func:`run_tasks` runs each :class:`ExecTask` on a private copy of its
array arguments through the ordinary
:func:`repro.runtime.executor.execute_kernel`, so tasks cannot observe
each other and the caller's arrays are never mutated.  Plans compile
lazily through the executor's memo and persistent disk tiers: the first
task of a kernel vectorizes (or loads) its plan, every later one hits
the memo.

Each task records one modeled ``exec.task`` span (``task`` label and
global ``index``) and bumps ``executor.pool_tasks``.

Everything runs in one process: the tasks are ~6.5 ms each at the
BENCH_exec.json sizes, too fine for fork, buffer copies and a result
merge to pay off (measured at 0.27-0.36x of one process on 2 cores;
docs/EXECUTOR.md, "One process").
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from ..ir.stmt import KernelFunction
from ..telemetry.registry import get_registry
from ..telemetry.spans import get_tracer
from .executor import LoopSemantics, execute_kernel

__all__ = ["ExecTask", "run_tasks", "run_exec_sweep", "sweep_digest"]


@dataclass
class ExecTask:
    """One unit of sweep work: a kernel plus its arguments."""

    label: str
    kernel: KernelFunction
    args: dict[str, object]
    semantics: dict[int, LoopSemantics] | None = None


def run_tasks(
    tasks: list[ExecTask],
    backend: str | None = None,
    *,
    first_index: int = 0,
) -> list[dict[str, np.ndarray]]:
    """Execute *tasks* in order, each on a private copy of its array
    arguments; return each task's array buffers after execution.

    *first_index* is the position of ``tasks[0]`` in a longer sweep
    that is run a slice at a time; it only numbers the ``exec.task``
    spans.
    """
    registry = get_registry()
    tracer = get_tracer()
    results: list[dict[str, np.ndarray]] = []
    for index, task in enumerate(tasks, first_index):
        buffers = {
            name: value.copy()
            for name, value in task.args.items()
            if isinstance(value, np.ndarray)
        }
        args = {**task.args, **buffers}
        start = time.perf_counter()
        execute_kernel(task.kernel, args, task.semantics, backend=backend)
        seconds = time.perf_counter() - start
        tracer.record_span("exec.task", seconds, category="exec",
                           task=task.label, index=index)
        registry.counter("executor.pool_tasks").inc()
        results.append(buffers)
    return results


# -- the execution-heavy sweep driver ----------------------------------------


def sweep_digest(results: Iterable[dict[str, np.ndarray]]) -> str:
    """Order-sensitive SHA-256 over every result buffer (byte-identity
    across backends, cache states and injected faults is asserted on
    this digest).

    *results* may be a generator: each task's buffers are hashed in
    place and dropped before the next task is drawn, so a streamed
    sweep never holds two tasks' buffers at once.
    """
    digest = hashlib.sha256()
    for buffers in results:
        for name in sorted(buffers):
            digest.update(name.encode())
            # a C-contiguous array hashes through the buffer protocol:
            # the same bytes as tobytes(), without the copy
            digest.update(np.ascontiguousarray(buffers[name]))
        del buffers  # release before the generator runs the next task
    return digest.hexdigest()


def _streamed(
    tasks: list[ExecTask],
    backend: str,
    elapsed: list[float],
) -> Iterator[dict[str, np.ndarray]]:
    """Run *tasks* one at a time, yielding each task's buffers
    as soon as it finishes; ``elapsed[0]`` accumulates the time spent
    inside :func:`run_tasks` (execution only, not the consumer's
    hashing)."""
    for index, task in enumerate(tasks):
        start = time.perf_counter()
        (buffers,) = run_tasks([task], backend=backend, first_index=index)
        elapsed[0] += time.perf_counter() - start
        yield buffers
        del buffers  # the consumer has hashed them; free before the next copy


def _sweep_tasks(service, sizes: dict[str, int], repeats: int) -> list[ExecTask]:
    """The execution-heavy LUD/GE/Hydro task list (paper Fig. 4 hot
    kernels), compiled through *service* so resilience policies (faults,
    retries, breakers) apply to the compile side of the sweep."""
    from ..ir.visitors import clone_kernel
    from ..kernels import get_benchmark

    stages = {
        "ge": ("reorganized", ("ge_fan1", "ge_fan2")),
        "lud": ("tile", ("lud_row", "lud_column")),
        "hydro": ("optimized", ("hydro_boundary_x", "hydro_boundary_y")),
    }
    tasks: list[ExecTask] = []
    for bench, (stage, kernels) in stages.items():
        n = sizes[bench]
        pool = get_benchmark(bench).inputs(n)
        if bench == "ge":
            pool["t"] = 0
        elif bench == "lud":
            pool["i"] = 3 * n // 4  # mid-factorization: real reduction depth
        module = get_benchmark(bench).stages()[stage]
        compiled = service.compile(module, "caps", "cuda",
                                   label=f"exec-sweep:{bench}")
        for name in kernels:
            ck = compiled.kernel(name)
            semantics = {} if ck.elided else ck.executor_semantics("gpu")
            kernel = clone_kernel(ck.ir)
            args = {p.name: pool[p.name] for p in kernel.params}
            for repeat in range(repeats):
                tasks.append(
                    ExecTask(f"{name}#{repeat}", kernel, args, semantics)
                )
    return tasks


def run_exec_sweep(
    service=None,
    jobs: int = 1,
    backend: str = "vector",
    sizes: dict[str, int] | None = None,
    repeats: int = 1,
) -> dict:
    """Compile and execute the LUD/GE/Hydro hot-kernel sweep.

    Returns a summary with a deterministic ``digest`` over all result
    buffers — the determinism suite asserts it is identical across
    backends, cold and warm-persistent, with and without injected
    compile faults.  The sweep is streamed: each task's buffers are
    hashed and released before the next task runs, so at most one
    task's buffers are alive.  ``seconds`` is execution time only
    (inside :func:`run_tasks`), never the hashing.
    """
    # ``jobs`` is kept only so callers written against the deleted
    # process pool that pass ``jobs=1`` keep working; the sweep always
    # runs in this process
    if jobs != 1:
        raise ValueError(f"exec sweep runs in one process; jobs must be 1, "
                         f"got {jobs}")
    if repeats < 1:
        raise ValueError(f"sweep repeats must be positive, got {repeats}")
    sizes = dict(sizes or {"ge": 96, "lud": 128, "hydro": 96})
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"{name} sweep size must be positive, got {size}")
    if service is None:
        from ..service.scheduler import CompileService

        service = CompileService()
    with get_tracer().span("exec.sweep", category="exec", backend=backend):
        tasks = _sweep_tasks(service, sizes, repeats)
        elapsed = [0.0]
        digest = sweep_digest(_streamed(tasks, backend, elapsed))
    return {
        "tasks": [task.label for task in tasks],
        "backend": backend,
        "sizes": sizes,
        "seconds": elapsed[0],
        "digest": digest,
    }
