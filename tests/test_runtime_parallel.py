"""Process-pool executor determinism (docs/EXECUTOR.md).

The ISSUE-9 contract: ``--exec-jobs 1`` and ``--exec-jobs 4`` produce
byte-identical sweep results and identical counter totals, cold and
warm-persistent, including under injected compile faults with retries.
"""

import multiprocessing
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
    sweep_digest,
)
from repro.service import CompileService
from repro.telemetry import get_registry, reset_registry
from repro.telemetry.spans import configure_tracer, reset_tracer

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

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


def _cold_run(jobs: int) -> tuple[str, dict[str, int], list[tuple]]:
    """Digest, counter totals and the ``(index, task)`` attributes of
    the ``exec.task`` spans, in recording order, of one cold sweep."""
    clear_kernel_cache()
    reset_registry()
    reset_tracer()
    tracer = configure_tracer(enabled=True)
    result = run_exec_sweep(jobs=jobs, sizes=SIZES)
    counters = dict(get_registry().snapshot()["counters"])
    spans = [(span.attributes["index"], span.attributes["task"])
             for span in tracer.spans_named("exec.task")]
    assert [task for _, task in spans] == result["tasks"]
    return result["digest"], counters, spans


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
        results = run_tasks(self._tasks(), jobs=1, backend="vector")
        for t, buffers in enumerate(results):
            expected = (np.arange(16, dtype=np.float64) + t) * 2 + 1
            assert np.array_equal(buffers["a"], expected)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_pool_matches_inline_bytewise(self):
        inline = run_tasks(self._tasks(), jobs=1, backend="vector")
        pooled = run_tasks(self._tasks(), jobs=2, backend="vector")
        assert sweep_digest(inline) == sweep_digest(pooled)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_task_arguments_not_mutated_in_parent(self):
        tasks = self._tasks(1)
        before = tasks[0].args["a"].copy()
        run_tasks(tasks, jobs=2, backend="vector")
        # workers run on shared-memory *copies*: the caller's buffers
        # only change through the returned result views
        assert np.array_equal(tasks[0].args["a"], before)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_worker_error_propagates_with_label(self):
        tasks = self._tasks(2)
        del tasks[1].args["b"]  # surfaces in the worker, not at pre-warm
        from repro.runtime.executor import ExecutionError

        with pytest.raises(ExecutionError, match="t1"):
            run_tasks(tasks, jobs=2, backend="vector")


class TestSweepDeterminism:
    def test_exec_jobs_1_vs_4_cold(self):
        digest1, counters1, spans1 = _cold_run(jobs=1)
        digest4, counters4, spans4 = _cold_run(jobs=4)
        assert digest1 == digest4
        assert counters1 == counters4, "counter drift between jobs=1 and 4"
        assert spans1 == spans4, "exec.task spans differ between jobs=1 and 4"

    def test_streamed_sweep_matches_pool(self):
        # jobs=1 streams one task at a time; its spans still carry the
        # global task index, in task order, and nothing else moves
        digest1, counters1, spans1 = _cold_run(jobs=1)
        digest2, counters2, spans2 = _cold_run(jobs=2)
        assert [index for index, _ in spans1] == list(range(len(spans1)))
        assert spans1 == spans2
        assert digest1 == digest2
        assert counters1 == counters2

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_exec_jobs_1_vs_4_warm_persistent(self, tmp_path):
        configure_plan_cache(tmp_path / "plans")
        cold_digest, _, _ = _cold_run(jobs=1)  # populates the disk tier

        digests, spans_seen = [], []
        for jobs in (1, 4):
            clear_kernel_cache(memory_only=True)
            reset_registry()
            reset_tracer()
            tracer = configure_tracer(enabled=True)
            result = run_exec_sweep(jobs=jobs, sizes=SIZES)
            digests.append(result["digest"])
            spans_seen.append(len(tracer.spans_named("execute.vectorize")))
            counters = get_registry().snapshot()["counters"]
            assert counters["executor.plan_disk_hit"] > 0
        assert digests == [cold_digest, cold_digest]
        assert spans_seen == [0, 0], "warm-persistent run ran the vectorizer"

    def test_deterministic_under_faults_and_retries(self):
        from repro.faults import parse_fault_spec
        from repro.service import RetryPolicy

        baseline, _, _ = _cold_run(jobs=1)
        for jobs in (1, 4):
            clear_kernel_cache()
            reset_registry()
            service = CompileService(
                fault_plan=parse_fault_spec("transient:p=0.3,seed=11"),
                retry=RetryPolicy(max_retries=3),
            )
            result = run_exec_sweep(service=service, jobs=jobs, sizes=SIZES)
            assert result["digest"] == baseline

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_worker_lanes_in_trace(self):
        tracer = configure_tracer(enabled=True)
        run_exec_sweep(jobs=2, sizes=SIZES)
        lanes = {span.attributes.get("lane")
                 for span in tracer.spans_named("exec.task")}
        assert lanes == {"worker:0", "worker:1"}

    @pytest.mark.parametrize("size", [0, -8])
    def test_rejects_non_positive_sizes(self, size):
        with pytest.raises(ValueError, match=f"lud sweep size must be "
                                             f"positive, got {size}"):
            run_exec_sweep(jobs=1, sizes={**SIZES, "lud": size})

    @pytest.mark.parametrize("repeats", [0, -2])
    def test_rejects_non_positive_repeats(self, repeats):
        with pytest.raises(ValueError, match=f"sweep repeats must be "
                                             f"positive, got {repeats}"):
            run_exec_sweep(jobs=1, sizes=SIZES, repeats=repeats)

    def test_check_backend_agrees_bit_for_bit(self):
        # "check" runs the scalar and the vector code on every task and
        # raises on any bitwise difference between their outputs
        vector = run_exec_sweep(jobs=1, sizes=SIZES, repeats=2)
        clear_kernel_cache()
        checked = run_exec_sweep(jobs=1, backend="check", sizes=SIZES,
                                 repeats=2)
        assert checked["digest"] == vector["digest"]

    def test_repeats_extend_task_list(self):
        result = run_exec_sweep(jobs=1, sizes=SIZES, repeats=2)
        labels = result["tasks"]
        assert len(labels) == 12
        assert "ge_fan1#0" in labels and "ge_fan1#1" in labels


class TestStreamedSweep:
    """With jobs=1 each task's buffers are hashed and released before the
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
        run_exec_sweep(service, jobs=1, sizes=self.SIZES,
                       repeats=self.REPEATS)
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
            run_exec_sweep(service, jobs=1, sizes=self.SIZES,
                           repeats=self.REPEATS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (
            f"peak {peak / 1e6:.1f} MB >= bound {bound / 1e6:.1f} MB "
            f"(all tasks' buffers: {all_tasks / 1e6:.1f} MB)"
        )
