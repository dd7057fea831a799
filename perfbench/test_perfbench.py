"""Tests of the benchmark's own arithmetic and of its agreement with
``BENCHMARK.json``.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from layers import LayerTracer, Patches  # noqa: E402
from stats import BEYOND, quantile, spread, tail_quantile  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


def traced(tracer: LayerTracer, layer: str, fn):
    return lambda *args: tracer.call(layer, fn, args, {})


def test_self_time_of_nested_calls(clock):
    tracer = LayerTracer(clock=clock)
    c = traced(tracer, "c", lambda: clock.advance(4))

    def b_body():
        clock.advance(3)
        c()
        clock.advance(1)

    b = traced(tracer, "b", b_body)

    def a_body():
        clock.advance(1)
        b()
        c()
        clock.advance(2)

    a = traced(tracer, "a", a_body)
    with tracer.root():
        clock.advance(0.5)
        a()
        clock.advance(0.5)
    report = tracer.report()
    layers = report["layers"]
    assert layers["a"] == {"calls": 1, "incl_s": 15.0, "self_s": 3.0}
    assert layers["b"] == {"calls": 1, "incl_s": 8.0, "self_s": 4.0}
    assert layers["c"] == {"calls": 2, "incl_s": 8.0, "self_s": 8.0}
    assert report["root_wall_s"] == 16.0
    assert report["covered_s"] == 15.0
    # every covered second is some layer's self time, exactly once
    assert sum(t["self_s"] for t in layers.values()) == report["covered_s"]


def test_recursion_counts_inclusive_time_once(clock):
    tracer = LayerTracer(clock=clock)

    def body(n):
        clock.advance(1)
        if n:
            f(n - 1)

    f = traced(tracer, "f", body)
    with tracer.root():
        f(2)
    totals = tracer.report()["layers"]["f"]
    assert totals == {"calls": 3, "incl_s": 3.0, "self_s": 3.0}


def test_counted_layer_leaves_its_time_to_the_caller(clock):
    tracer = LayerTracer(clock=clock)

    def counted_body():
        tracer.count("k")
        clock.advance(2)

    outer = traced(tracer, "outer", counted_body)
    with tracer.root():
        outer()
    layers = tracer.report()["layers"]
    assert layers["k"]["calls"] == 1
    assert layers["k"]["self_s"] == 0.0
    assert layers["outer"]["self_s"] == 2.0


def test_remote_root_covers_the_callers_wait(clock):
    """A request served on another thread: the caller's root is covered
    by its own layers plus the remote handler; the rest is unserved."""
    tracer = LayerTracer(clock=clock, remote_roots=("handle",))
    codec = traced(tracer, "codec", lambda: clock.advance(1))
    handle = traced(tracer, "handle", lambda: clock.advance(5))
    with tracer.root():
        codec()
        server = threading.Thread(target=handle)
        server.start()
        server.join(timeout=10)
        clock.advance(2)  # transport
    assert not server.is_alive()
    report = tracer.report()
    assert report["root_wall_s"] == 8.0
    assert report["covered_s"] == 6.0
    assert report["unserved_s"] == 2.0
    # the handler opened a frame on its own thread, not under the root
    assert report["layers"]["handle"]["self_s"] == 5.0


def test_patches_wrap_every_binding_and_restore_them():
    from repro.ir import printer
    from repro.kernels import base, get_benchmark
    from repro.service import fingerprint

    original = printer.print_module
    tracer = LayerTracer()
    patches = Patches(tracer)
    lud = get_benchmark("lud")
    module = lud.module()
    patches.install()
    try:
        assert fingerprint.print_module is not original
        fingerprint.fingerprint_request(module, "caps", "cuda")
        lud.inputs(8)  # a subclass override of Benchmark.inputs
    finally:
        patches.uninstall()
    assert printer.print_module is original
    assert fingerprint.print_module is original
    assert type(lud).inputs is not base.Benchmark.inputs
    assert "__wrapped__" not in vars(type(lud).inputs)
    layers = tracer.report()["layers"]
    assert layers["service.fingerprint_request"]["calls"] == 1
    assert layers["ir.print_module"]["calls"] == 1
    assert layers["kernels.Benchmark.inputs"]["calls"] == 1
    assert (layers["service.fingerprint_request"]["incl_s"]
            >= layers["ir.print_module"]["incl_s"])


def test_renamed_layer_fails_loudly():
    with pytest.raises(AttributeError):
        Patches(LayerTracer(), (("x.gone", "repro.ir.printer", "gone", True),))


@pytest.mark.parametrize("samples, expected", [
    (1, 0.5), (19, 0.5), (20, 0.5), (40, 0.75), (50, 0.8), (100, 0.9),
    (5000, 0.9),
])
def test_tail_quantile_rule(samples, expected):
    assert tail_quantile(samples) == pytest.approx(expected)


@pytest.mark.parametrize("samples", range(20, 400))
def test_tail_keeps_enough_samples_beyond_it(samples):
    q = tail_quantile(samples)
    assert samples * (1.0 - q) >= BEYOND - 1e-9
    assert q <= 0.9


def test_quantile_interpolates_between_order_statistics():
    assert quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert quantile([7.0], 0.9) == 7.0
    assert quantile(list(map(float, range(11))), 0.9) == pytest.approx(9.0)
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_spread_uses_statistics_quartiles():
    # statistics.quantiles(n=4) of 1..10 gives q1=2.75, q3=8.25
    values = list(map(float, range(1, 11)))
    assert spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {"setup_s": "s", **{
        name: unit for name, (_, unit)
        in run.end_to_end_metrics(1.0, 1.0).items()}}
    assert end_to_end == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    report = {"root_wall_s": 1.0, "root_calls": 1, "covered_s": 1.0,
              "unserved_s": 0.0, "layers": {}}
    per_layer = {**run.latency_metrics([0.1, 0.2]),
                 **run.layer_metrics(report, 1.0, 0.0, {}, 1)}
    assert ({name: unit for name, (_, unit) in per_layer.items()}
            == {m["name"]: m["unit"] for m in spec["per_layer"]})
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_library(tmp_path):
    """Beside BENCHMARK.json and its own files only, the benchmark exits
    non-zero without printing a result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
