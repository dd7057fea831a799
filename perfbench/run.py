"""The repository benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload fig4-cold --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the library is imported from
``src/`` beside this directory.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  The timed window runs in
a fresh child process; ``setup_s`` is the median over that child and
``SETUP_PROBES`` more children that only set up, each timed from process
start to the first timed operation.  ``--trace 1`` is the separate
traced run: it reports per-layer calls and inclusive/exclusive shares of
the timed wall (see ``layers.py``), which calls alternate traced and
untraced so the tracing overhead is measured in the same run.

The parent process uses the standard library only; children print
``PERFBENCH``-prefixed protocol lines and anything else they write to
standard output is passed on to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig4-cold", "daemon-mixed", "exec-sweep")
#: set-up-only children per untraced run, besides the measuring child
SETUP_PROBES = 4
#: a run must end within this many seconds of starting
RUN_LIMIT_S = 170.0
TAG = "PERFBENCH "


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error(f"--seconds must be positive, got {args.seconds}")
    return args


# -- child: one workload in one fresh interpreter -------------------------------

def emit(kind: str, payload: object = None) -> None:
    line = TAG + kind
    if payload is not None:
        line += " " + json.dumps(payload)
    print(line, flush=True)


def child(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro.cli  # noqa: F401  (the import is the measured layer)
    import_ms = (time.perf_counter() - start) * 1000.0
    sys.path.insert(0, str(HERE))
    import workloads
    from layers import LayerTracer, Patches
    from stats import median

    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        emit("READY")
        if args.child == "setup":
            return 0
        tracer = patches = None
        if args.trace:
            tracer = LayerTracer(remote_roots=workload.remote_roots)
            patches = Patches(tracer)
        window = workload.run(args.seconds, patches, tracer)
        # before the checks, which compile references of their own
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0)
        errors = window.errors[:5] + workload.check()
        counters = workload.counters()
    finally:
        workload.close()

    result = {"attempted": window.attempted, "failed": window.failed,
              "errors": errors, "samples": len(window.latencies_s)}
    latencies = window.latencies_s
    if not latencies:
        result["errors"].append("no untraced call completed in the window")
        emit("RESULT", result)
        return 1
    latency = latency_metrics(latencies)
    result["latency"] = latency
    if not args.trace:
        result["metrics"] = end_to_end_metrics(window.ops_per_s, peak_rss_mb)
        emit("RESULT", result)
        return 0

    report = tracer.report()
    wall = report["root_wall_s"]
    if not wall or not window.traced_s:
        result["errors"].append("no traced call completed in the window")
        emit("RESULT", result)
        return 1
    overhead_pct = 100.0 * (median(window.traced_s) / median(latencies) - 1.0)
    metrics = {**latency, **layer_metrics(report, import_ms, overhead_pct,
                                          counters, workload.ops_per_call)}
    result["metrics"] = metrics
    result["layers_ms"] = {
        layer: [totals["calls"], totals["incl_s"] * 1000.0,
                totals["self_s"] * 1000.0]
        for layer, totals in report["layers"].items()}
    emit("RESULT", result)
    return 0


def end_to_end_metrics(ops_per_s: float, peak_rss_mb: float
                       ) -> dict[str, tuple[float, str]]:
    """The ``--trace 0`` metrics the child measures (the parent adds
    ``setup_s``), named as in ``BENCHMARK.json``."""
    return {"ops_per_s": (ops_per_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB")}


def latency_metrics(latencies: list[float]) -> dict[str, tuple[float, str]]:
    """Median and tail of the untraced calls' latency, with the sample
    count.  Every run prints them; the traced run reports them as metrics
    (they carry no bound: see README.md)."""
    from stats import median, quantile, tail_quantile

    tail_q = tail_quantile(len(latencies))
    return {
        "request_ms_p50": (median(latencies) * 1000.0, "ms"),
        "request_ms_tail": (quantile(latencies, tail_q) * 1000.0, "ms"),
        "request_samples": (len(latencies), "count"),
    }


def layer_metrics(report: dict, import_ms: float, overhead_pct: float,
                  counters: dict[str, int], ops_per_call: int
                  ) -> dict[str, tuple[float, str]]:
    """The ``--trace 1`` metrics, named as in ``BENCHMARK.json``: for
    every layer its calls, its exclusive time per operation, and its
    exclusive and inclusive time as a share of the traced wall; then
    coverage, overhead and program counters."""
    from layers import COUNTED_LAYERS, TIMED_LAYERS
    from workloads import COUNTERS

    wall = report["root_wall_s"]
    ops = report["root_calls"] * ops_per_call
    metrics: dict[str, tuple[float, str]] = {
        "cli.import_ms": (import_ms, "ms"),
        "trace.calls": (report["root_calls"], "count"),
        "trace.wall_ms": (wall * 1000.0, "ms"),
        "trace.covered_pct": (100.0 * report["covered_s"] / wall, "%"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "server.transport_wait_pct": (100.0 * report["unserved_s"] / wall,
                                      "%"),
    }
    idle = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    for layer in TIMED_LAYERS + COUNTED_LAYERS:
        totals = report["layers"].get(layer, idle)
        metrics[f"{layer}.calls"] = (totals["calls"], "count")
        if layer in TIMED_LAYERS:
            metrics[f"{layer}.self_ms"] = (1000.0 * totals["self_s"] / ops,
                                           "ms/op")
            metrics[f"{layer}.self_pct"] = (100.0 * totals["self_s"] / wall,
                                            "%")
            metrics[f"{layer}.incl_pct"] = (100.0 * totals["incl_s"] / wall,
                                            "%")
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0), "count")
    return metrics


# -- parent: spawn, time and collect the children --------------------------------

class ChildRun:
    """One child interpreter: time to READY, and its RESULT payload."""

    def __init__(self, args: argparse.Namespace, mode: str,
                 deadline: float) -> None:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--child", mode, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        self.ready_s: float | None = None
        self.result: dict | None = None
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                                   proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line == TAG + "READY\n" and self.ready_s is None:
                    self.ready_s = time.perf_counter() - start
                elif line.startswith(TAG + "RESULT "):
                    self.result = json.loads(line[len(TAG + "RESULT "):])
                else:
                    sys.stderr.write(line)
            self.returncode = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def parent(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library at {ROOT / 'src' / 'repro'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    measured = ChildRun(args, "measure", deadline)
    result = measured.result
    if measured.returncode != 0 and result is None:
        print(f"perfbench: {args.workload} child exited "
              f"{measured.returncode} without a result", file=sys.stderr)
        return 1
    if result is None or measured.ready_s is None:
        print("perfbench: the child reported no result", file=sys.stderr)
        return 1
    setups = [measured.ready_s]
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = ChildRun(args, "setup", deadline)
            if probe.returncode != 0 or probe.ready_s is None:
                print(f"perfbench: set-up probe exited {probe.returncode}",
                      file=sys.stderr)
                return 1
            setups.append(probe.ready_s)

    sys.path.insert(0, str(HERE))
    from stats import median, tail_quantile

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result.get("metrics", {}).items()}
    if not args.trace:
        metrics = {"setup_s": {"value": median(setups), "unit": "s"},
                   **metrics}
    errors = result["errors"]
    correct = not errors and measured.returncode == 0
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {result['attempted']} attempted, "
          f"{result['failed']} failed, {result['samples']} timed samples")
    if not args.trace:
        p50, tail, samples = (value for value, _unit
                              in result["latency"].values())
        print(f"  setup_s is the median of {len(setups)} set-ups; untraced "
              f"latency p50 {p50:.3f} ms, "
              f"p{100 * tail_quantile(samples):.0f} {tail:.3f} ms "
              f"over {samples} samples")
    for layer, (calls, incl_ms, self_ms) in sorted(
            result.get("layers_ms", {}).items(), key=lambda kv: -kv[1][2]):
        print(f"  {layer:<40} {calls:>8} calls {incl_ms:>10.1f} ms incl "
              f"{self_ms:>10.1f} ms self")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.child:
        return child(args)
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
