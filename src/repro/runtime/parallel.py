"""Process-parallel kernel execution over shared-memory buffers.

The executor escapes the GIL for execution-heavy sweeps by fanning tasks
out to ``fork``-ed worker processes.  Each task's array arguments are
copied into :mod:`multiprocessing.shared_memory` segments; a worker
attaches NumPy views over those segments and runs the ordinary
:func:`repro.runtime.executor.execute_kernel` in place, so the parent
reads results back without a second serialization.

Determinism is structural, not incidental:

* tasks are assigned **round-robin** (task *i* goes to worker ``i %
  jobs``), so the task→worker mapping — and therefore every per-worker
  telemetry lane — is a pure function of the task list;
* every task executes on its own private copy of its argument arrays
  (the copy into shared memory), so tasks cannot observe each other and
  results are byte-identical to running the same list with ``jobs=1``;
* the parent **pre-warms** every compiled plan before forking, so
  workers inherit the memoized functions through fork and compile
  nothing — compile-side counters (``executor.vectorized``,
  ``executor.fallback.*``) are bumped exactly once, in the parent,
  regardless of ``jobs``;
* workers report per-task ``executor.*`` counter deltas back over a
  pipe and the parent merges them in task order, so the registry ends
  identical for ``jobs=1`` and ``jobs=N``.

Telemetry: the parent records one modeled ``exec.task`` span per task
with a ``lane="worker:<k>"`` attribute — the same lane pattern the
compile daemon uses for ``client:<id>`` — so a trace of a process-pool
sweep shows per-worker timelines.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

from ..ir.stmt import KernelFunction
from ..telemetry.registry import get_registry
from ..telemetry.spans import get_tracer
from .executor import (
    ExecutionError,
    LoopSemantics,
    compile_kernel_fn,
    execute_kernel,
)

__all__ = ["ExecTask", "run_tasks", "run_exec_sweep", "sweep_digest"]


@dataclass
class ExecTask:
    """One unit of process-parallel work: a kernel plus its arguments."""

    label: str
    kernel: KernelFunction
    args: dict[str, object]
    semantics: dict[int, LoopSemantics] | None = None


@dataclass
class _ShmSpec:
    """Wire description of one array argument living in shared memory."""

    arg: str
    shm_name: str
    shape: tuple
    dtype: str


@dataclass
class _TaskResult:
    index: int
    seconds: float
    counters: dict[str, int] = field(default_factory=dict)
    error: str | None = None


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without taking ownership (the
    parent created the segment and is the one that unlinks it)."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track flag
        return shared_memory.SharedMemory(name=name)


def _disable_shm_tracking() -> None:
    """Worker-side: stop shared_memory attaches from re-registering with
    the fork-shared resource tracker.  The parent already registered
    every segment at creation; a second registration (or a child-side
    unregister) corrupts the tracker's bookkeeping for names the parent
    still owns.  Workers only ever *attach*, so tracking nothing here is
    safe.  Python 3.13+ makes this a constructor flag instead."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker.register = lambda name, rtype: None
    except Exception:  # pragma: no cover - tracking is best-effort anyway
        pass


def _counter_snapshot() -> dict[str, int]:
    return dict(get_registry().snapshot()["counters"])


def _counter_delta(before: dict[str, int],
                   after: dict[str, int]) -> dict[str, int]:
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


def _worker_main(assigned, backend, conn) -> None:
    """Worker loop: attach, execute in place, report (index, dt, delta)."""
    _disable_shm_tracking()
    results = []
    for index, task, specs in assigned:
        segments = []
        try:
            args = dict(task.args)
            for spec in specs:
                shm = _attach(spec.shm_name)
                segments.append(shm)
                args[spec.arg] = np.ndarray(
                    spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf
                )
            before = _counter_snapshot()
            start = time.perf_counter()
            execute_kernel(task.kernel, args, task.semantics, backend=backend)
            seconds = time.perf_counter() - start
            delta = _counter_delta(before, _counter_snapshot())
            results.append(_TaskResult(index, seconds, delta))
        except BaseException as exc:  # report, don't kill the pipe
            results.append(_TaskResult(index, 0.0, {}, f"{exc}"))
        finally:
            for shm in segments:
                shm.close()
    conn.send(results)
    conn.close()


def _scalar_args(task: ExecTask) -> dict[str, object]:
    return {
        name: value
        for name, value in task.args.items()
        if not isinstance(value, np.ndarray)
    }


def run_tasks(
    tasks: list[ExecTask],
    jobs: int = 1,
    backend: str | None = None,
    *,
    first_index: int = 0,
) -> list[dict[str, np.ndarray]]:
    """Execute *tasks* with *jobs* worker processes; return each task's
    array buffers after execution, in task order.

    ``jobs <= 1`` runs inline (no processes) through the identical
    pre-warm/copy/merge path, so the two modes produce byte-identical
    buffers and identical ``executor.*`` counter totals.
    *first_index* is the position of ``tasks[0]`` in a longer sweep
    that is run a slice at a time; it only numbers the ``exec.task``
    spans.
    """
    if not tasks:
        return []
    registry = get_registry()
    tracer = get_tracer()

    # pre-warm every plan in the parent: workers inherit the memo cache
    # through fork and never compile (zero compile-counter drift), and a
    # configured persistent plan tier is populated exactly once
    resolved = backend or _resolved_backend()
    codegen_backends = ("scalar", "vector") if resolved == "check" else (resolved,)
    for task in tasks:
        for codegen in codegen_backends:
            compile_kernel_fn(task.kernel, task.semantics, codegen)

    if (
        jobs <= 1
        or len(tasks) == 1
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        results: list[dict[str, np.ndarray]] = []
        for index, task in enumerate(tasks, first_index):
            args: dict[str, object] = dict(_scalar_args(task))
            buffers = {
                name: value.copy()
                for name, value in task.args.items()
                if isinstance(value, np.ndarray)
            }
            args.update(buffers)
            start = time.perf_counter()
            execute_kernel(task.kernel, args, task.semantics, backend=backend)
            seconds = time.perf_counter() - start
            tracer.record_span(
                "exec.task", seconds, category="exec",
                lane="worker:0", task=task.label, index=index,
            )
            registry.counter("executor.pool_tasks").inc()
            results.append(buffers)
        return results

    context = multiprocessing.get_context("fork")
    jobs = min(jobs, len(tasks))

    # one shared-memory segment per array argument per task
    segments: list[shared_memory.SharedMemory] = []
    views: list[dict[str, np.ndarray]] = []
    specs: list[list[_ShmSpec]] = []
    try:
        for task in tasks:
            task_specs: list[_ShmSpec] = []
            task_views: dict[str, np.ndarray] = {}
            for name, value in task.args.items():
                if not isinstance(value, np.ndarray):
                    continue
                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, value.nbytes)
                )
                segments.append(shm)
                view = np.ndarray(value.shape, dtype=value.dtype,
                                  buffer=shm.buf)
                view[...] = value
                task_views[name] = view
                task_specs.append(
                    _ShmSpec(name, shm.name, value.shape, value.dtype.str)
                )
            specs.append(task_specs)
            views.append(task_views)

        # round-robin assignment: task i -> worker i % jobs
        assignments: list[list[tuple]] = [[] for _ in range(jobs)]
        for index, task in enumerate(tasks):
            slim = ExecTask(task.label, task.kernel, _scalar_args(task),
                            task.semantics)
            assignments[index % jobs].append((index, slim, specs[index]))

        procs = []
        parents = []
        for worker_tasks in assignments:
            parent_conn, child_conn = context.Pipe(duplex=False)
            proc = context.Process(
                target=_worker_main,
                args=(worker_tasks, backend, child_conn),
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            parents.append(parent_conn)

        reported: dict[int, _TaskResult] = {}
        for conn, proc in zip(parents, procs):
            try:
                for result in conn.recv():
                    reported[result.index] = result
            except EOFError:
                pass  # worker died before reporting; detected below
            finally:
                conn.close()
            proc.join()

        errors = []
        for index, task in enumerate(tasks):
            result = reported.get(index)
            if result is None:
                errors.append(f"{task.label}: worker died without a result")
            elif result.error is not None:
                errors.append(f"{task.label}: {result.error}")
        if errors:
            raise ExecutionError(
                "process-pool execution failed: " + "; ".join(errors)
            )

        # merge telemetry in task order: deterministic counter totals and
        # one modeled span per task on its worker's lane
        for index, task in enumerate(tasks):
            result = reported[index]
            for name, delta in sorted(result.counters.items()):
                registry.counter(name).inc(delta)
            tracer.record_span(
                "exec.task", result.seconds, category="exec",
                lane=f"worker:{index % jobs}", task=task.label,
                index=first_index + index,
            )
            registry.counter("executor.pool_tasks").inc()

        return [
            {name: view.copy() for name, view in task_views.items()}
            for task_views in views
        ]
    finally:
        for shm in segments:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass


def _resolved_backend() -> str:
    from .executor import get_default_backend

    return get_default_backend()


# -- the execution-heavy sweep driver ----------------------------------------


def sweep_digest(results: Iterable[dict[str, np.ndarray]]) -> str:
    """Order-sensitive SHA-256 over every result buffer (byte-identity
    across ``jobs`` settings is asserted on this digest).

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
    """Run *tasks* inline one at a time, yielding each task's buffers
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
    buffers — the determinism suite asserts digest equality across
    ``jobs`` values, cold and warm-persistent, with and without injected
    compile faults.  With ``jobs <= 1`` the sweep is streamed: each
    task's buffers are hashed and released before the next task runs,
    so at most one task's buffers are alive.  ``seconds`` is execution
    time only (inside :func:`run_tasks`), never the hashing.
    """
    if repeats < 1:
        raise ValueError(f"sweep repeats must be positive, got {repeats}")
    sizes = dict(sizes or {"ge": 96, "lud": 128, "hydro": 96})
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"{name} sweep size must be positive, got {size}")
    if service is None:
        from ..service.scheduler import CompileService

        service = CompileService()
    with get_tracer().span("exec.sweep", category="exec", jobs=jobs,
                           backend=backend):
        tasks = _sweep_tasks(service, sizes, repeats)
        if jobs <= 1:
            # streamed: hash and release each task's buffers before the
            # next task copies its inputs
            elapsed = [0.0]
            digest = sweep_digest(_streamed(tasks, backend, elapsed))
            seconds = elapsed[0]
        else:
            start = time.perf_counter()
            results = run_tasks(tasks, jobs=jobs, backend=backend)
            seconds = time.perf_counter() - start
            digest = sweep_digest(results)
    return {
        "tasks": [task.label for task in tasks],
        "jobs": jobs,
        "backend": backend,
        "sizes": sizes,
        "seconds": seconds,
        "digest": digest,
    }
