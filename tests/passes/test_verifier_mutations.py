"""Mutation coverage for the IR verifier.

A catalog of deliberate IR corruptions — every kind the transforms could
plausibly introduce — each of which MUST be caught by the named verifier
check.  A corruption the verifier misses would let a buggy pass slide
through the conformance pipelines silently, so this file is the
verifier's own conformance battery (ISSUE 7 acceptance: >= 10 distinct
corruptions all caught).

The flip side is property-tested too: every module of the 50-seed
difftest corpus verifies clean at ``structure`` level (the level pass
pipelines enforce between passes).
"""

from __future__ import annotations

import pytest

from repro.frontend import parse_kernel
from repro.ir.directives import AccCache, AccData, AccLoop
from repro.ir.expr import ArrayRef, IntLit, Var
from repro.ir.stmt import Assign, If, Module, Stmt
from repro.ir.types import DType
from repro.ir.verify import (
    VerifyError,
    check_kernel,
    check_module,
    verify_kernel,
)

from tests.passes.conftest import CORPUS_SEEDS, corpus_case

#: strict-clean baseline with every feature the mutations need: two
#: loops, a reduction scalar, an If, a const array read (`in`), a
#: read+written array (`out`), and an untouched const array (`buf`)
CLEAN = """
void k0(float *out, const float *in, const float *buf, int n) {
    int i;
    float s;
    s = 0.0f;
    for (i = 0; i < n; i++) {
        out[i] = out[i] + in[i] * 2.0f;
        s += in[i];
    }
    if (n > 0) {
        out[0] = s;
    }
    for (i = 0; i < n; i++) {
        out[i] = out[i] * 0.5f;
    }
}
"""


def clean_kernel():
    kernel = parse_kernel(CLEAN)
    assert check_kernel(kernel, "strict") == [], "baseline must be clean"
    return kernel


def _loops(kernel):
    return list(kernel.loops())


def _first_assign(kernel):
    loop = _loops(kernel)[0]
    return loop.body.stmts[0]


def _the_if(kernel):
    return next(s for s in kernel.body.stmts if isinstance(s, If))


class _AlienStmt(Stmt):
    """A statement node no verifier/visitor knows about."""


# -- the corruption catalog --------------------------------------------------
# name -> (mutator(kernel) -> None, expected check name)


def _dup_loop_id(k):
    a, b = _loops(k)
    b.loop_id = a.loop_id


def _aliased_stmt(k):
    k.body.stmts.append(k.body.stmts[-1])  # same For object twice


def _zero_step(k):
    _loops(k)[0].step = 0


def _non_lvalue_target(k):
    _first_assign(k).target = IntLit(1, DType.INT32)


def _illegal_compound_op(k):
    _first_assign(k).op = "%"


def _if_body_not_block(k):
    node = _the_if(k)
    node.then_body = node.then_body.stmts[0]


def _alien_stmt(k):
    k.body.stmts.append(_AlienStmt())


def _non_stmt_in_block(k):
    k.body.stmts.append("not a statement")


def _dup_param(k):
    k.params.append(k.params[0])


def _undefined_scalar(k):
    _first_assign(k).value = Var("ghost")


def _unknown_array(k):
    _first_assign(k).value = ArrayRef("ghost", (Var("i"),))


def _create_on_live_in(k):
    # `in` is read before written: a device create() would hold garbage
    k.directives = k.directives.with_added(AccData(create=("in",)))


def _copyin_on_written(k):
    k.directives = k.directives.with_added(AccData(copyin=("out",)))


def _copyout_never_written(k):
    k.directives = k.directives.with_added(AccData(copyout=("buf",)))


def _data_unknown_array(k):
    k.directives = k.directives.with_added(AccData(copy=("ghost",)))


def _cache_on_written(k):
    loop = _loops(k)[0]
    loop.directives = loop.directives.with_added(AccCache(("out",)))


def _cache_never_read(k):
    loop = _loops(k)[0]
    loop.directives = loop.directives.with_added(AccCache(("buf",)))


def _write_const_param(k):
    k.body.stmts.append(
        Assign(ArrayRef("in", (IntLit(0, DType.INT32),)), Var("s"))
    )


def _collapse_on_flat_loop(k):
    # collapse(2) needs a 2-deep perfect nest; CLEAN's loops are flat
    loop = _loops(k)[0]
    loop.directives = loop.directives.with_added(AccLoop(collapse=2))


def _gang_inside_gang(k):
    # nest the second loop under the first and schedule gang on both:
    # the inner gang would re-launch the coarsest parallelism level
    a, b = _loops(k)
    a.directives = a.directives.with_added(AccLoop(gang=128))
    b.directives = b.directives.with_added(AccLoop(gang=128))
    k.body.stmts.remove(b)
    a.body.stmts.append(b)


CATALOG = {
    "duplicate-loop-id": (_dup_loop_id, "unique-loop-ids"),
    "aliased-statement": (_aliased_stmt, "stmt-integrity"),
    "non-positive-step": (_zero_step, "stmt-integrity"),
    "non-lvalue-target": (_non_lvalue_target, "stmt-integrity"),
    "illegal-compound-op": (_illegal_compound_op, "stmt-integrity"),
    "if-body-not-block": (_if_body_not_block, "stmt-integrity"),
    "unknown-stmt-node": (_alien_stmt, "stmt-integrity"),
    "non-stmt-in-block": (_non_stmt_in_block, "stmt-integrity"),
    "duplicate-param": (_dup_param, "unique-params"),
    "undefined-scalar-use": (_undefined_scalar, "def-before-use"),
    "unknown-array-ref": (_unknown_array, "known-arrays"),
    "create-on-live-in": (_create_on_live_in, "directive-data"),
    "copyin-on-written": (_copyin_on_written, "directive-data"),
    "copyout-never-written": (_copyout_never_written, "directive-data"),
    "data-unknown-array": (_data_unknown_array, "directive-data"),
    "cache-on-written": (_cache_on_written, "directive-cache"),
    "cache-never-read": (_cache_never_read, "directive-cache"),
    "write-const-param": (_write_const_param, "param-intent"),
    "collapse-on-flat-loop": (_collapse_on_flat_loop, "collapse-legality"),
    "gang-inside-gang": (_gang_inside_gang, "gang-worker-nesting"),
}

#: corruptions expressed at the source level (directive legality against
#: what the dependence analyzer actually proves)
SOURCE_CATALOG = {
    "independent-on-dependent": (
        """
        void kd(float *a, int n) {
            int i;
        #pragma acc loop independent
            for (i = 1; i < n; i++) {
                a[i] = a[i - 1] + 1.0f;
            }
        }
        """,
        "directive-independent",
    ),
    "reduction-wrong-scalar": (
        """
        void kr(float *a, float t, int n) {
            int i;
            float s;
            s = 0.0f;
        #pragma acc loop reduction(+:t)
            for (i = 0; i < n; i++) {
                s += a[i];
            }
            a[0] = s;
        }
        """,
        "directive-reduction",
    ),
    "reduction-wrong-op": (
        """
        void km(float *a, int n) {
            int i;
            float s;
            s = 1.0f;
        #pragma acc loop reduction(+:s)
            for (i = 0; i < n; i++) {
                s *= a[i];
            }
            a[0] = s;
        }
        """,
        "directive-reduction",
    ),
    "collapse-non-rectangular": (
        """
        void kc(float *a, int n) {
            int i;
            int j;
        #pragma acc loop collapse(2)
            for (i = 0; i < n; i++) {
                for (j = 0; j < i; j++) {
                    a[i * n + j] = a[i * n + j] + 1.0f;
                }
            }
        }
        """,
        "collapse-legality",
    ),
    "collapse-too-deep": (
        """
        void kt(float *a, int n) {
            int i;
            int j;
        #pragma acc loop collapse(3)
            for (i = 0; i < n; i++) {
                for (j = 0; j < n; j++) {
                    a[i * n + j] = a[i * n + j] * 2.0f;
                }
            }
        }
        """,
        "collapse-legality",
    ),
    "gang-inside-worker": (
        """
        void kg(float *a, int n) {
            int i;
            int j;
        #pragma acc loop worker(32)
            for (i = 0; i < n; i++) {
        #pragma acc loop gang(128)
                for (j = 0; j < n; j++) {
                    a[i * n + j] = a[i * n + j] + 1.0f;
                }
            }
        }
        """,
        "gang-worker-nesting",
    ),
    "worker-inside-vector": (
        """
        void kv(float *a, int n) {
            int i;
            int j;
        #pragma acc loop vector(4)
            for (i = 0; i < n; i++) {
        #pragma acc loop worker(8)
                for (j = 0; j < n; j++) {
                    a[i * n + j] = a[i * n + j] + 1.0f;
                }
            }
        }
        """,
        "gang-worker-nesting",
    ),
}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_corruption_is_caught(name):
    mutate, expected = CATALOG[name]
    kernel = clean_kernel()
    mutate(kernel)
    failures = check_kernel(kernel, "strict")
    assert expected in {f.check for f in failures}, (
        f"corruption {name!r} was not caught by {expected!r}: "
        f"{[str(f) for f in failures]}"
    )
    with pytest.raises(VerifyError) as exc:
        verify_kernel(kernel, "strict", provenance=("some-pass",))
    assert "some-pass" in str(exc.value)


@pytest.mark.parametrize("name", sorted(SOURCE_CATALOG))
def test_source_corruption_is_caught(name):
    source, expected = SOURCE_CATALOG[name]
    kernel = parse_kernel(source)
    failures = check_kernel(kernel, "strict")
    assert expected in {f.check for f in failures}
    # ...but the *structure* level accepts it: wrong directives are the
    # paper's V-D2 scenario, which the compiler models must ingest
    assert check_kernel(kernel, "structure") == []


def test_duplicate_kernels_in_module():
    a, b = clean_kernel(), clean_kernel()
    failures = check_module(Module("m", [a, b]))
    assert "unique-kernels" in {f.check for f in failures}


def test_catalog_is_large_enough():
    """ISSUE 7 acceptance: at least 10 distinct corruptions, spanning
    both verifier levels.  ISSUE 8 grew the strict level with
    collapse-legality and gang/worker-nesting, each backed by catalog
    corruptions — the floor rises with it."""
    assert len(CATALOG) + len(SOURCE_CATALOG) >= 24
    checks = {c for _, c in CATALOG.values()}
    checks |= {c for _, c in SOURCE_CATALOG.values()}
    assert len(checks) >= 10  # distinct verifier checks exercised


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_corpus_verifies_clean_at_structure_level(seed):
    """Property: every fuzzer-generated module is structure-clean —
    the invariant set pass pipelines enforce between passes holds on
    all generated inputs (adversarial directives notwithstanding)."""
    module = corpus_case(seed).module
    assert check_module(module, "structure") == []


def _two_pass_expr_uses(expr, defined, arrays, kernel, out, where):
    """The reference for ``_expr_uses``: one walk for the scalars, a
    second for the array references."""
    from repro.ir.expr import free_vars
    from repro.ir.verify import VerifyFailure

    for name in sorted(free_vars(expr)):
        if name not in defined:
            out.append(VerifyFailure(
                "def-before-use", kernel.name,
                f"scalar {name!r} used {where} before any definition"))
    for node in expr.walk():
        if isinstance(node, ArrayRef) and node.name not in arrays:
            out.append(VerifyFailure(
                "known-arrays", kernel.name,
                f"array {node.name!r} referenced {where} is not an "
                "array parameter"))


def _expressions():
    from hypothesis import strategies as st

    from repro.ir.expr import BinOp, Call, Ternary, UnaryOp

    names = st.sampled_from(["a", "b", "i", "n", "s"])
    leaves = st.one_of(names.map(Var), st.integers(0, 9).map(IntLit))
    return st.recursive(leaves, lambda sub: st.one_of(
        st.tuples(names, st.lists(sub, min_size=1, max_size=3)).map(
            lambda t: ArrayRef(t[0], tuple(t[1]))),
        st.tuples(sub, sub).map(lambda t: BinOp("+", *t)),
        sub.map(lambda e: UnaryOp("-", e)),
        st.lists(sub, max_size=2).map(lambda a: Call("fmax", tuple(a))),
        st.tuples(sub, sub, sub).map(lambda t: Ternary(*t)),
    ), max_leaves=12)


def test_one_walk_reports_what_two_walks_did():
    """``_expr_uses`` walks each expression once; its failures, and
    their order, are those of the two-walk reference."""
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    from repro.ir.expr import BinOp
    from repro.ir.verify import _expr_uses

    kernel = clean_kernel()
    names = st.frozensets(st.sampled_from(["a", "b", "i", "n", "s"]))

    siblings = BinOp("+", ArrayRef("a", (Var("i"),)),
                     ArrayRef("b", (IntLit(0),)))

    @settings(max_examples=200, deadline=None)
    @given(_expressions(), names, names)
    @example(siblings, frozenset(), frozenset())
    def check(expr, defined, arrays):
        got: list = []
        want: list = []
        _expr_uses(expr, set(defined), set(arrays), kernel, got, "here")
        _two_pass_expr_uses(expr, set(defined), set(arrays), kernel, want,
                            "here")
        assert got == want

    check()


def test_verifier_reports_on_the_corpus_are_unchanged(monkeypatch):
    """Every corpus module and catalog corruption gets the same failures,
    in the same order, as with the two-walk reference."""
    import repro.ir.verify as verify

    kernels = [k for seed in CORPUS_SEEDS
               for k in corpus_case(seed).module.kernels]
    for name in sorted(CATALOG):
        kernel = clean_kernel()
        CATALOG[name][0](kernel)
        kernels.append(kernel)
    kernels += [parse_kernel(source) for source, _ in SOURCE_CATALOG.values()]
    got = [check_kernel(k, "strict") for k in kernels]
    monkeypatch.setattr(verify, "_expr_uses", _two_pass_expr_uses)
    assert got == [check_kernel(k, "strict") for k in kernels]
