"""In-process sweep execution (docs/EXECUTOR.md).

``run_tasks`` runs every task on a private copy of its arrays, and the
streamed sweep digest is identical across backends, cold and
warm-persistent, including under injected compile faults with retries.
"""

import tracemalloc

import numpy as np
import pytest

from repro.frontend import parse_kernel
from repro.runtime.executor import (
    clear_kernel_cache,
    configure_plan_cache,
)
from repro.runtime.parallel import (
    ExecTask,
    _sweep_tasks,
    run_exec_sweep,
    run_tasks,
)
from repro.service import CompileService
from repro.telemetry import get_registry, reset_registry
from repro.telemetry.spans import configure_tracer, reset_tracer

SIZES = {"ge": 48, "lud": 64, "hydro": 48}


@pytest.fixture(autouse=True)
def _clean_state():
    clear_kernel_cache()
    configure_plan_cache(None)
    reset_registry()
    reset_tracer()
    yield
    clear_kernel_cache()
    configure_plan_cache(None)
    reset_registry()
    reset_tracer()


def _cold_run() -> tuple[str, list[tuple]]:
    """Digest and the ``(index, task)`` attributes of the ``exec.task``
    spans, in recording order, of one cold sweep."""
    clear_kernel_cache()
    reset_registry()
    reset_tracer()
    tracer = configure_tracer(enabled=True)
    result = run_exec_sweep(sizes=SIZES)
    spans = [(span.attributes["index"], span.attributes["task"])
             for span in tracer.spans_named("exec.task")]
    assert [task for _, task in spans] == result["tasks"]
    return result["digest"], spans


class TestRunTasks:
    def _tasks(self, count: int = 3) -> list[ExecTask]:
        kernel = parse_kernel(
            "void f(float *a, const float *b, int n) { int i; "
            "for (i = 0; i < n; i++) a[i] = b[i] * 2.0f + 1.0f; }"
        )
        tasks = []
        for t in range(count):
            b = np.arange(16, dtype=np.float64) + t
            tasks.append(ExecTask(label=f"t{t}", kernel=kernel,
                                  args={"a": np.zeros(16), "b": b, "n": 16}))
        return tasks

    def test_inline_results_correct(self):
        results = run_tasks(self._tasks(), backend="vector")
        for t, buffers in enumerate(results):
            expected = (np.arange(16, dtype=np.float64) + t) * 2 + 1
            assert np.array_equal(buffers["a"], expected)

    def test_task_arguments_not_mutated_in_parent(self):
        tasks = self._tasks(1)
        before = tasks[0].args["a"].copy()
        (buffers,) = run_tasks(tasks, backend="vector")
        # each task runs on a private copy: the caller's arrays only
        # change through the returned buffers
        assert np.array_equal(tasks[0].args["a"], before)
        assert not np.array_equal(buffers["a"], before)


class TestSweepDeterminism:
    def test_task_spans_numbered_in_task_order(self):
        # the sweep streams one task at a time; every exec.task span
        # carries the global task index, in task order
        _, spans = _cold_run()
        assert [index for index, _ in spans] == list(range(len(spans)))

    def test_warm_persistent_is_codegen_free(self, tmp_path):
        configure_plan_cache(tmp_path / "plans")
        cold_digest, _ = _cold_run()  # populates the disk tier

        clear_kernel_cache(memory_only=True)
        reset_registry()
        reset_tracer()
        tracer = configure_tracer(enabled=True)
        result = run_exec_sweep(sizes=SIZES)
        assert result["digest"] == cold_digest
        assert get_registry().snapshot()["counters"][
            "executor.plan_disk_hit"] > 0
        assert not tracer.spans_named("execute.vectorize"), (
            "warm-persistent run ran the vectorizer"
        )

    def test_deterministic_under_faults_and_retries(self):
        from repro.faults import parse_fault_spec
        from repro.service import RetryPolicy

        baseline, _ = _cold_run()
        clear_kernel_cache()
        reset_registry()
        service = CompileService(
            fault_plan=parse_fault_spec("transient:p=0.3,seed=11"),
            retry=RetryPolicy(max_retries=3),
        )
        result = run_exec_sweep(service=service, sizes=SIZES)
        assert result["digest"] == baseline

    @pytest.mark.parametrize("size", [0, -8])
    def test_rejects_non_positive_sizes(self, size):
        with pytest.raises(ValueError, match=f"lud sweep size must be "
                                             f"positive, got {size}"):
            run_exec_sweep(sizes={**SIZES, "lud": size})

    @pytest.mark.parametrize("repeats", [0, -2])
    def test_rejects_non_positive_repeats(self, repeats):
        with pytest.raises(ValueError, match=f"sweep repeats must be "
                                             f"positive, got {repeats}"):
            run_exec_sweep(sizes=SIZES, repeats=repeats)

    def test_rejects_more_than_one_job(self):
        with pytest.raises(ValueError, match="jobs must be 1, got 2"):
            run_exec_sweep(jobs=2, sizes=SIZES)

    def test_check_backend_agrees_bit_for_bit(self):
        # "check" runs the scalar and the vector code on every task and
        # raises on any bitwise difference between their outputs
        vector = run_exec_sweep(sizes=SIZES, repeats=2)
        clear_kernel_cache()
        checked = run_exec_sweep(backend="check", sizes=SIZES, repeats=2)
        assert checked["digest"] == vector["digest"]

    def test_repeats_extend_task_list(self):
        result = run_exec_sweep(sizes=SIZES, repeats=2)
        labels = result["tasks"]
        assert len(labels) == 12
        assert "ge_fan1#0" in labels and "ge_fan1#1" in labels


class TestStreamedSweep:
    """Each task's buffers are hashed and released before the
    next task copies its inputs, so the sweep's peak memory is about one
    task's buffers plus the shared inputs, not the sum over all tasks."""

    SIZES = {"ge": 256, "lud": 384, "hydro": 256}
    REPEATS = 4

    @staticmethod
    def _nbytes(task: ExecTask) -> int:
        return sum(value.nbytes for value in task.args.values()
                   if isinstance(value, np.ndarray))

    def test_peak_memory_is_one_task_not_all(self):
        service = CompileService()
        # warm the stage compiles and plans so only the run is measured
        run_exec_sweep(service, sizes=self.SIZES, repeats=self.REPEATS)
        tasks = _sweep_tasks(service, self.SIZES, self.REPEATS)
        inputs = {id(value): value.nbytes for task in tasks
                  for value in task.args.values()
                  if isinstance(value, np.ndarray)}
        one_task = max(self._nbytes(task) for task in tasks)
        all_tasks = sum(self._nbytes(task) for task in tasks)
        # one task's buffers and the inputs, plus one task's worth of
        # room for the kernels' temporaries
        bound = sum(inputs.values()) + 2 * one_task
        assert bound < all_tasks  # the bound tells the two designs apart
        del tasks

        tracemalloc.start()
        try:
            run_exec_sweep(service, sizes=self.SIZES, repeats=self.REPEATS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (
            f"peak {peak / 1e6:.1f} MB >= bound {bound / 1e6:.1f} MB "
            f"(all tasks' buffers: {all_tasks / 1e6:.1f} MB)"
        )
