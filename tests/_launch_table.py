"""The pinned launch-model table: what the perf model sees of each kernel.

For every compiled kernel of

* the full Fig. 4 LUD grid (72 points through the compile service),
* every benchmark stage (optimization-ladder stages included) through
  every OpenACC (compiler, target) pair of the paper's matrix, and
* every hand-written OpenCL program on GPU and MIC,

this module evaluates the launch-model view at three launch environments
(no sizes known, small sizes, large sizes with a ``_default_trip``
override):

* ``launch_config`` — :meth:`CompiledKernel.launch_config`;
* ``work_profile`` — :meth:`CompiledKernel.work_profile`;
* ``host_profile`` — the host-fallback profile,
  :meth:`CompiledKernel.host_profile`;
* ``count_ops`` — :func:`repro.analysis.patterns.count_ops` of the whole
  kernel body, with ``divergent`` both true and false.

Each column is hashed over the three environments into a short digest,
so a changed column names itself.  ``launch_model_table.json`` was
recorded before the per-kernel launch plan replaced the per-launch
analyses; ``test_launch_plan.py`` asserts the plan reproduces it.

Regenerate (only after an *intentional* launch-model change) with::

    PYTHONPATH=src python -m tests._launch_table
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple
from pathlib import Path

TABLE_PATH = Path(__file__).resolve().parent / "launch_model_table.json"

#: launch environments, keyed by the base value of the first size
#: parameter; later int parameters get base // 2, base // 3, ... so
#: triangular bounds (``j`` in ``[i + 1, size)``) stay non-empty
ENV_BASES = (None, 37, 1000)
#: the large environment also overrides the unknown-bound trip count
DEFAULT_TRIP = 7
#: working-set bytes handed to ``work_profile`` and the host profile
WORKING_SET = 1 << 20
#: the table's columns, in the order a row's digests are stored
COLUMNS = ("launch_config", "work_profile", "host_profile", "count_ops")


def launch_envs(kernel) -> list[dict[str, int]]:
    """The three launch environments for *kernel*'s int parameters."""
    from repro.ir.types import ScalarType

    names = [p.name for p in kernel.ir.params
             if isinstance(p.type, ScalarType) and p.type.dtype.is_integer]
    envs: list[dict[str, int]] = []
    for base in ENV_BASES:
        if base is None:
            envs.append({})
            continue
        env = {name: max(1, base // (k + 1)) for k, name in enumerate(names)}
        if base == ENV_BASES[-1]:
            env["_default_trip"] = DEFAULT_TRIP
        envs.append(env)
    return envs


def _profile(profile) -> list:
    return [profile.items, list(astuple(profile.ops)),
            repr(profile.bytes_per_item), repr(profile.coalesced_fraction),
            repr(profile.working_set_bytes),
            repr(profile.vectorizable_fraction)]


def _digest(values: list) -> str:
    text = json.dumps(values, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:10]


def kernel_row(kernel) -> dict[str, str]:
    """Column name -> digest of that column over the three environments."""
    from repro.analysis.patterns import count_ops

    columns: dict[str, list] = {name: [] for name in COLUMNS}
    for env in launch_envs(kernel):
        config = kernel.launch_config(dict(env))
        columns["launch_config"].append(
            [list(config.grid), list(config.block), config.sequential])
        columns["work_profile"].append(
            _profile(kernel.work_profile(dict(env), WORKING_SET)))
        columns["host_profile"].append(
            _profile(kernel.host_profile(dict(env), WORKING_SET)))
        columns["count_ops"].append(
            [list(astuple(count_ops(kernel.ir.body, dict(env),
                                    divergent=divergent)))
             for divergent in (True, False)])
    return {name: _digest(values) for name, values in columns.items()}


def compiled_artifacts():
    """(key, CompilationResult) for every artifact the table covers."""
    from repro.compilers.framework import CompilationError
    from repro.compilers.opencl import compile_opencl
    from repro.core.ladder import ladder_stages
    from repro.core.method import compile_stage
    from repro.kernels import BENCHMARKS, get_benchmark
    from repro.server import fig4_requests
    from repro.service import CompileService, JobError

    from tests.passes._golden import ACC_PAIRS

    service = CompileService()
    requests = fig4_requests()
    for request, slot in zip(requests, service.sweep(requests)):
        assert not isinstance(slot, JobError), slot
        yield f"fig4/{request.label}", slot
    service.close()

    for name in sorted(BENCHMARKS):
        benchmark = get_benchmark(name)
        stages = dict(benchmark.stages())
        stages.update(ladder_stages(benchmark.module()))
        for stage, module in stages.items():
            for compiler, target in ACC_PAIRS:
                try:
                    result = compile_stage(module, compiler, target)
                except CompilationError:
                    continue  # documented refusals: no kernels to launch
                yield f"{name}/{stage}/{compiler}-{target}", result
        program = benchmark.opencl_program()
        if program is not None:
            for device in ("gpu", "mic"):
                yield f"{name}/opencl/{device}", compile_opencl(program, device)


def collect_table() -> dict[str, dict[str, str]]:
    """``artifact/kernel`` -> per-column digests."""
    table: dict[str, dict[str, str]] = {}
    for key, result in compiled_artifacts():
        for kernel in result.kernels:
            table[f"{key}/{kernel.name}"] = kernel_row(kernel)
    return table


def load_table() -> dict[str, dict[str, str]]:
    """The recorded table; each stored row is its column digests joined
    by spaces in :data:`COLUMNS` order."""
    with TABLE_PATH.open("r", encoding="utf-8") as fh:
        stored = json.load(fh)
    assert tuple(stored["columns"]) == COLUMNS, stored["columns"]
    return {key: dict(zip(COLUMNS, row.split()))
            for key, row in stored["rows"].items()}


def main() -> None:
    table = collect_table()
    rows = {key: " ".join(row[name] for name in COLUMNS)
            for key, row in table.items()}
    with TABLE_PATH.open("w", encoding="utf-8") as fh:
        json.dump({"columns": list(COLUMNS), "rows": rows}, fh, indent=0,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} launch-model rows to {TABLE_PATH}")


if __name__ == "__main__":
    main()
