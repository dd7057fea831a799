"""Content-addressed fingerprints of compilation requests.

A fingerprint is a stable SHA-256 digest of everything that determines a
compiler model's output:

* the kernel **source** — the module's canonical mini-C rendering (the
  :mod:`repro.ir.printer` round-trip form), which captures every pragma
  the transforms attach (``gang(n)``, ``worker(n)``, blocksize, unroll,
  tile), so two IR instances that print identically compile identically;
* the **compiler** identity and its modeled version (CAPS 3.4.1,
  PGI 14.9 — the paper's tool-chain);
* the **target** (``cuda`` / ``opencl``);
* the **flag set**, canonicalized so semantically-insignificant flag
  *order* does not perturb the digest (``-O4 -fast`` == ``-fast -O4``)
  while any flag *change* does;
* optionally the **device spec**, for callers whose artifacts are
  device-scoped (compilation itself is device-independent in this
  tool-chain, so most callers leave it unset).

Fingerprints are the keys of :class:`repro.service.cache.ArtifactCache`
and the dedup identity of :class:`repro.service.scheduler.CompileService`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..compilers.flags import FlagSet
from ..devices.specs import DeviceSpec
from ..ir.printer import print_kernel, print_module
from ..ir.stmt import KernelFunction, Module

#: modeled tool-chain versions (paper section IV-A); part of every
#: fingerprint so a future version bump invalidates stale artifacts.
COMPILER_VERSIONS: dict[str, str] = {
    "caps": "3.4.1",
    "pgi": "14.9",
    "opencl": "1.2",
}

#: fingerprint schema version — bump when the canonical form changes.
SCHEMA = "repro-fp-v1"

_GRID_BLOCK_PREFIX = "-Xhmppcg"


def canonical_flags(flags: FlagSet | None) -> tuple[str, ...]:
    """A canonical, order-insensitive rendering of a flag set.

    The ``-Xhmppcg -grid-block-size,WxH`` spelling and an explicit
    ``gridify_blocksize=(W, H)`` are the same request, so both collapse
    to one ``grid-block-size=WxH`` token; the remaining flags are
    deduplicated and sorted (every modeled flag is a predicate the
    compilers query with :meth:`FlagSet.has`, so order carries no
    semantics).
    """
    if flags is None:
        return ("<default-flags>",)
    semantic = sorted(
        {f for f in flags.flags if not f.startswith(_GRID_BLOCK_PREFIX)}
    )
    parts = [f"compiler={flags.compiler}", *semantic]
    if flags.gridify_blocksize is not None:
        x, y = flags.gridify_blocksize
        parts.append(f"grid-block-size={x}x{y}")
    return tuple(parts)


def canonical_device(device: DeviceSpec | None) -> str:
    """The device identity a fingerprint sees (name + kind is enough:
    specs are frozen constants keyed by name)."""
    if device is None:
        return "<any-device>"
    return f"{device.name}|{device.kind.value}"


def fingerprint_source(
    source: str,
    name: str,
    compiler: str,
    target: str,
    flags: FlagSet | None = None,
    device: DeviceSpec | None = None,
) -> str:
    """SHA-256 hex digest of a request given as text: the module's
    canonical print *source* and its *name*, plus the tool-chain fields.

    This is the one list of fingerprinted fields.  The daemon calls it on
    a wire point's source as sent, which for a canonical print is the
    request's fingerprint without parsing or printing anything.
    """
    compiler_key = compiler.lower()
    version = COMPILER_VERSIONS.get(compiler_key, "unversioned")
    digest = hashlib.sha256()
    for part in (
        SCHEMA,
        f"module={name}",
        source,
        f"compiler={compiler_key}:{version}",
        f"target={target.lower()}",
        "\x1f".join(canonical_flags(flags)),
        canonical_device(device),
    ):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")  # unambiguous field separator
    return digest.hexdigest()


def fingerprint_kernel(kernel: KernelFunction) -> str:
    """SHA-256 hex digest content-addressing one kernel function.

    Computed over the canonical mini-C print, so two IR instances that
    print identically share a digest regardless of object identity or
    ``loop_id`` assignment — the key space of the executor's
    compiled-kernel cache (:mod:`repro.runtime.executor`).
    """
    digest = hashlib.sha256()
    for part in (SCHEMA, "kernel", print_kernel(kernel)):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def fingerprint_request(
    module: Module,
    compiler: str,
    target: str,
    flags: FlagSet | None = None,
    device: DeviceSpec | None = None,
) -> str:
    """SHA-256 hex digest content-addressing one compilation request."""
    return fingerprint_source(print_module(module), module.name, compiler,
                              target, flags, device)


@dataclass(frozen=True, eq=False)
class CompileRequest:
    """One point of a sweep: a module + the tool-chain to push it through.

    Identity (for caching and in-flight dedup) is the :attr:`fingerprint`,
    not Python object identity; ``label`` is a human-readable tag carried
    into error reports and metrics.
    """

    module: Module
    compiler: str
    target: str
    flags: FlagSet | None = None
    device: DeviceSpec | None = None
    label: str = ""
    _fingerprint: str | None = field(default=None, repr=False, compare=False)

    @property
    def fingerprint(self) -> str:
        """Content address of this request (computed once, then memoized)."""
        if self._fingerprint is None:
            object.__setattr__(
                self,
                "_fingerprint",
                fingerprint_request(
                    self.module, self.compiler, self.target,
                    self.flags, self.device,
                ),
            )
        assert self._fingerprint is not None
        return self._fingerprint

    @property
    def tag(self) -> str:
        """The name error reports and spans give this request: its label,
        else its module's name."""
        return self.label or self.module.name

    def describe(self) -> str:
        return (f"{self.tag} [{self.compiler}->{self.target}] "
                f"{self.fingerprint[:12]}")
