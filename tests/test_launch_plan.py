"""The per-kernel launch plan: analyse each compiled kernel once.

* The plan reproduces the launch model recorded before it existed
  (``launch_model_table.json``, see ``tests/_launch_table.py``).
* A 72-point Fig. 4 heat map analyses each compiled kernel once, not once
  per modelled launch.
* The plan is derived state: a compiled artifact pickles to the same
  bytes, and the artifact cache stores the same blob, whether or not its
  kernels were launched first.
"""

from __future__ import annotations

import pickle
import sys

import pytest

from repro.analysis import patterns
from repro.core.search import lud_heatmap
from repro.devices import K40
from repro.kernels import get_benchmark
from repro.runtime import Accelerator
from repro.service import CompileService
from repro.service.cache import ArtifactCache
from tests._launch_table import (
    COLUMNS,
    collect_table,
    compiled_artifacts,
    launch_envs,
    load_table,
)

WORKING_SET = 1 << 16


def _count_calls(monkeypatch, module, name: str) -> list[int]:
    """Rebind *name* in every ``repro`` module that imported it by name to
    a wrapper that counts its calls."""
    original = getattr(module, name)
    calls: list[int] = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for owner in list(sys.modules.values()):
        if (owner is not None and owner.__name__.startswith("repro")
                and getattr(owner, name, None) is original):
            monkeypatch.setattr(owner, name, counting)
    return calls


def _model_view(result) -> None:
    """Evaluate every kernel's launch model at the table's envs."""
    for kernel in result.kernels:
        for env in launch_envs(kernel):
            kernel.launch_config(env)
            kernel.work_profile(env, WORKING_SET)
            kernel.host_profile(env, WORKING_SET)


class TestPinnedLaunchModel:
    def test_plan_reproduces_the_recorded_table(self):
        recorded = load_table()
        current = collect_table()
        assert sorted(current) == sorted(recorded)
        changed = [(key, column) for key in recorded for column in COLUMNS
                   if current[key][column] != recorded[key][column]]
        assert not changed, (
            f"{len(changed)} launch-model cells changed, e.g. {changed[:10]}")
        # the table is not silently shrunk: every declared pipeline and
        # both kernels of all 72 Fig. 4 points have rows
        for suffix in ("caps-cuda", "caps-opencl", "pgi-cuda",
                       "opencl/gpu", "opencl/mic"):
            assert any(f"/{suffix}/" in key for key in recorded), suffix
        assert sum(key.startswith("fig4/") for key in recorded) == 72 * 2


class TestOncePerKernel:
    def test_heatmap_analyses_each_compiled_kernel_once(self, monkeypatch):
        calls = _count_calls(monkeypatch, patterns, "coalescing_fraction")
        bench = get_benchmark("lud")
        service = CompileService(jobs=1)
        try:
            heatmap = lud_heatmap(bench, K40, "caps", service=service)
        finally:
            service.close()
        points = len(heatmap.gangs) * len(heatmap.workers)
        kernels = points * len(bench.module().kernels)
        assert (points, kernels) == (72, 144)
        # one analysis per compiled kernel; analysing per launch made
        # 8 sampled host iterations x 144 kernels = 1152 calls
        assert 0 < len(calls) <= kernels

    def test_plan_is_built_once_and_reused(self):
        _key, result = next(iter(compiled_artifacts()))
        kernel = result.kernels[0]
        plan = kernel.launch_plan()
        accelerator = Accelerator(K40)
        accelerator.declare(a=64 * 64 * 4)
        for i in (1, 16, 32):
            accelerator.launch(kernel, size=64, i=i)
        assert kernel.launch_plan() is plan


class TestArtifactBytes:
    def test_pickle_is_independent_of_launches(self):
        for key, result in compiled_artifacts():
            before = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            _model_view(result)
            after = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            assert after == before, key

    def test_unpickled_kernel_rebuilds_an_equal_plan(self):
        key, result = next(iter(compiled_artifacts()))
        _model_view(result)
        copy = pickle.loads(pickle.dumps(result))
        for original, clone in zip(result.kernels, copy.kernels):
            assert "_launch_plan" not in vars(clone)
            for env in launch_envs(original):
                assert (clone.work_profile(env, WORKING_SET)
                        == original.work_profile(env, WORKING_SET)), key

    @pytest.mark.parametrize("stage", ["fig4", "hydro"])
    def test_cache_stores_the_same_blob_after_a_launch(self, tmp_path,
                                                       stage):
        key, result = next((key, result)
                           for key, result in compiled_artifacts()
                           if key.startswith(stage))
        fingerprint = "f" * 64
        before = ArtifactCache(cache_dir=tmp_path / "before")
        before.put(fingerprint, result)
        _model_view(result)
        after = ArtifactCache(cache_dir=tmp_path / "after")
        after.put(fingerprint, result)
        blob = (tmp_path / "before" / f"{fingerprint}.pkl").read_bytes()
        assert (tmp_path / "after" / f"{fingerprint}.pkl").read_bytes() == blob
        for kernel in after.get(fingerprint).kernels:
            assert "_launch_plan" not in vars(kernel), key
