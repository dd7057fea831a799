"""Process-pool executor determinism (docs/EXECUTOR.md).

The ISSUE-9 contract: ``--exec-jobs 1`` and ``--exec-jobs 4`` produce
byte-identical sweep results and identical counter totals, cold and
warm-persistent, including under injected compile faults with retries.
"""

import multiprocessing

import numpy as np
import pytest

from repro.frontend import parse_kernel
from repro.runtime.executor import (
    clear_kernel_cache,
    configure_plan_cache,
)
from repro.runtime.parallel import (
    ExecTask,
    run_exec_sweep,
    run_tasks,
    sweep_digest,
)
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


def _cold_run(jobs: int) -> tuple[str, dict[str, int]]:
    clear_kernel_cache()
    reset_registry()
    result = run_exec_sweep(jobs=jobs, sizes=SIZES)
    counters = dict(get_registry().snapshot()["counters"])
    return result["digest"], counters


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
        digest1, counters1 = _cold_run(jobs=1)
        digest4, counters4 = _cold_run(jobs=4)
        assert digest1 == digest4
        assert counters1 == counters4, "counter drift between jobs=1 and 4"

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_exec_jobs_1_vs_4_warm_persistent(self, tmp_path):
        configure_plan_cache(tmp_path / "plans")
        cold_digest, _ = _cold_run(jobs=1)  # populates the disk tier

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
        from repro.service import CompileService, RetryPolicy

        baseline, _ = _cold_run(jobs=1)
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

    def test_repeats_extend_task_list(self):
        result = run_exec_sweep(jobs=1, sizes=SIZES, repeats=2)
        labels = result["tasks"]
        assert len(labels) == 12
        assert "ge_fan1#0" in labels and "ge_fan1#1" in labels
