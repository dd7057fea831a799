"""Per-layer inclusive and exclusive time, measured from outside the program.

The traced run wraps each layer's public functions (the :data:`LAYERS`
table) for the duration of a traced call and restores them afterwards;
nothing inside ``src/`` is instrumented.  A wrapped call opens a frame on
its thread's stack.  When it returns, its elapsed time is its *inclusive*
time and, minus the time spent in wrapped calls nested directly under
it, its *self* (exclusive) time.  A layer re-entered while already on
the stack adds inclusive time only at its outermost frame, so recursion
is not counted twice.

The benchmark opens a *root* frame around each timed public call; the
root's wall time is the denominator of every share, and the time its
direct children cover is the traced wall's coverage.  Layers listed as
``remote_roots`` run on another thread on behalf of a root (the daemon's
``handle_frame`` serves a client's request on a connection thread), so
their inclusive time also counts as covered.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: (layer, defining module, function or Class.method, timed).  Untimed
#: layers are only counted: they are called too often, and too briefly,
#: for a frame per call to be worth its cost.
LAYERS: tuple[tuple[str, str, str, bool], ...] = (
    ("frontend.parse_module", "repro.frontend.parser", "parse_module", True),
    ("ir.print_module", "repro.ir.printer", "print_module", True),
    ("service.fingerprint_request", "repro.service.fingerprint",
     "fingerprint_request", True),
    ("passes.Pipeline.run", "repro.passes.pipeline", "Pipeline.run", True),
    ("ir.verify.check_kernel", "repro.ir.verify", "check_kernel", True),
    ("compilers.caps.compile", "repro.compilers.caps", "CapsCompiler.compile",
     True),
    ("ptx.generate_ptx", "repro.ptx.codegen", "generate_ptx", True),
    ("service.ArtifactCache.get", "repro.service.cache", "ArtifactCache.get",
     True),
    ("service.ArtifactCache.put", "repro.service.cache", "ArtifactCache.put",
     True),
    ("runtime.Accelerator.launch", "repro.runtime.launcher",
     "Accelerator.launch", True),
    ("perf.estimate_time", "repro.perf.model", "estimate_time", True),
    ("analysis.coalescing_fraction", "repro.analysis.patterns",
     "coalescing_fraction", False),
    ("analysis.count_ops", "repro.analysis.patterns", "count_ops", False),
    ("server.protocol.encode_frame", "repro.server.protocol", "encode_frame",
     True),
    ("server.protocol.decode_frame", "repro.server.protocol", "decode_frame",
     True),
    ("server.protocol.point_to_wire", "repro.server.protocol",
     "point_to_wire", True),
    ("server.protocol.point_from_wire", "repro.server.protocol",
     "point_from_wire", True),
    ("server.protocol.pack_artifact", "repro.server.protocol",
     "pack_artifact", True),
    ("server.protocol.unpack_artifact", "repro.server.protocol",
     "unpack_artifact", True),
    ("server.ReproServer.handle_frame", "repro.server.daemon",
     "ReproServer.handle_frame", True),
    ("server.BatchTicket.wait", "repro.server.batcher", "BatchTicket.wait",
     True),
    ("kernels.Benchmark.inputs", "repro.kernels.base", "Benchmark.inputs",
     True),
    ("runtime.parallel.run_tasks", "repro.runtime.parallel", "run_tasks",
     True),
    ("runtime.parallel.sweep_digest", "repro.runtime.parallel",
     "sweep_digest", True),
    ("runtime.executor.compile_kernel_fn", "repro.runtime.executor",
     "compile_kernel_fn", True),
)

TIMED_LAYERS = tuple(layer for layer, _, _, timed in LAYERS if timed)
COUNTED_LAYERS = tuple(layer for layer, _, _, timed in LAYERS if not timed)


class _ThreadState:
    """One thread's frame stack and totals (only its own thread writes)."""

    def __init__(self) -> None:
        #: open frames: [start, time covered by direct children]
        self.stack: list[list[float]] = []
        #: open frames per layer (recursion guard for inclusive time)
        self.depth: dict[str, int] = {}
        #: layer -> [calls, inclusive s, self s]
        self.totals: dict[str, list[float]] = {}
        self.root_calls = 0
        self.root_wall = 0.0
        self.root_covered = 0.0


class LayerTracer:
    """Frames per thread; totals merged by :meth:`report`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 remote_roots: tuple[str, ...] = ()) -> None:
        self._clock = clock
        self.remote_roots = remote_roots
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def call(self, layer: str, fn: Callable[..., Any], args: tuple,
             kwargs: dict) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a frame of *layer*."""
        state = self._state()
        frame = [self._clock(), 0.0]
        state.stack.append(frame)
        state.depth[layer] = state.depth.get(layer, 0) + 1
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self._clock() - frame[0]
            state.stack.pop()
            state.depth[layer] -= 1
            totals = state.totals.setdefault(layer, [0, 0.0, 0.0])
            totals[0] += 1
            totals[2] += elapsed - frame[1]
            if state.depth[layer] == 0:
                totals[1] += elapsed
            if state.stack:
                state.stack[-1][1] += elapsed

    def count(self, layer: str) -> None:
        """Count one call of an untimed layer."""
        totals = self._state().totals.setdefault(layer, [0, 0.0, 0.0])
        totals[0] += 1

    @contextmanager
    def root(self) -> Iterator[None]:
        """Frame one timed public call made by the benchmark itself."""
        state = self._state()
        frame = [self._clock(), 0.0]
        state.stack.append(frame)
        try:
            yield
        finally:
            elapsed = self._clock() - frame[0]
            state.stack.pop()
            state.root_calls += 1
            state.root_wall += elapsed
            state.root_covered += frame[1]

    def report(self) -> dict[str, Any]:
        """Merged totals: per layer ``calls``, ``incl_s``, ``self_s``;
        plus the roots' wall, the time layers cover, and ``unserved_s``,
        the root wall that neither the caller-side layers nor the remote
        roots account for (transport and queueing on the daemon)."""
        layers: dict[str, dict[str, float]] = {}
        root_calls = 0
        root_wall = root_covered = 0.0
        with self._lock:
            states = list(self._states)
        for state in states:
            root_calls += state.root_calls
            root_wall += state.root_wall
            root_covered += state.root_covered
            for layer, (calls, incl, self_s) in list(state.totals.items()):
                merged = layers.setdefault(
                    layer, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
                merged["calls"] += calls
                merged["incl_s"] += incl
                merged["self_s"] += self_s
        remote = sum(layers.get(name, {}).get("incl_s", 0.0)
                     for name in self.remote_roots)
        return {
            "layers": layers,
            "root_calls": root_calls,
            "root_wall_s": root_wall,
            "covered_s": root_covered + remote,
            "unserved_s": (root_wall - root_covered - remote
                           if self.remote_roots else 0.0),
        }


def _wrap(tracer: LayerTracer, layer: str, fn: Callable[..., Any],
          timed: bool) -> Callable[..., Any]:
    if timed:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(layer, fn, args, kwargs)
    else:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.count(layer)
            return fn(*args, **kwargs)
    return functools.update_wrapper(wrapper, fn)


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class Patches:
    """Every binding of every :data:`LAYERS` function, resolved once;
    :meth:`install` swaps the wrappers in and :meth:`uninstall` restores
    the originals.

    A module-level function is rebound in every ``repro`` module that
    imported it by name; a method is rebound on its class and on every
    subclass that overrides it (``Benchmark.inputs`` is overridden per
    kernel family).  A name that no longer resolves raises, so a renamed
    layer breaks the benchmark loudly instead of reading as idle.
    """

    def __init__(self, tracer: LayerTracer,
                 layers: tuple[tuple[str, str, str, bool], ...] = LAYERS
                 ) -> None:
        #: (owner, attribute, original, wrapper)
        self._bindings: list[tuple[Any, str, Any, Any]] = []
        for _layer, module_name, _path, _timed in layers:
            importlib.import_module(module_name)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("repro") and m is not None]
        for layer, module_name, path, timed in layers:
            bound = len(self._bindings)
            module = sys.modules[module_name]
            if "." in path:
                class_name, method = path.split(".")
                for cls in _subclasses(getattr(module, class_name)):
                    original = cls.__dict__.get(method)
                    if original is None:
                        continue
                    if not callable(original):
                        raise TypeError(f"{layer}: {cls.__name__}.{method} "
                                        f"is not a plain method")
                    self._bindings.append(
                        (cls, method, original,
                         _wrap(tracer, layer, original, timed)))
            else:
                original = getattr(module, path)
                wrapper = _wrap(tracer, layer, original, timed)
                for owner in modules:
                    for name, value in list(vars(owner).items()):
                        if value is original:
                            self._bindings.append(
                                (owner, name, original, wrapper))
            if len(self._bindings) == bound:
                raise LookupError(f"{layer}: {module_name}.{path} is bound "
                                  f"nowhere")

    def install(self) -> None:
        for owner, name, _original, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _wrapper in self._bindings:
            setattr(owner, name, original)
