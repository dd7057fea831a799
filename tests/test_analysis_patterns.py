"""Tests for op counting, stride classification, and trip counts."""

from repro.analysis.patterns import (
    OpCountPlan,
    StrideKind,
    access_patterns,
    classify_access,
    coalescing_fraction,
    count_ops,
    trip_count,
)
from repro.frontend import parse_expr, parse_kernel
from repro.ir.expr import ArrayRef


def ref(text):
    expr = parse_expr(text)
    assert isinstance(expr, ArrayRef)
    return expr


class TestClassifyAccess:
    def test_unit(self):
        assert classify_access(ref("a[i]"), "i").stride is StrideKind.UNIT

    def test_unit_with_offset(self):
        assert classify_access(ref("a[i + t + 1]"), "i").stride is StrideKind.UNIT

    def test_constant(self):
        access = classify_access(ref("a[2 * i]"), "i")
        assert access.stride is StrideKind.CONSTANT and access.stride_elems == 2

    def test_symbolic_row_pitch(self):
        assert classify_access(ref("a[i * n + j]"), "i").stride is StrideKind.SYMBOLIC

    def test_zero_broadcast(self):
        access = classify_access(ref("a[j]"), "i")
        assert access.stride is StrideKind.ZERO and access.coalesced

    def test_indirect(self):
        assert classify_access(ref("c[e[i]]"), "i").stride is StrideKind.INDIRECT

    def test_multi_dim_contiguous_last(self):
        assert classify_access(ref("q[1][i]"), "i").stride is StrideKind.UNIT

    def test_multi_dim_outer_strided(self):
        assert classify_access(ref("q[i][0]"), "i").stride is StrideKind.SYMBOLIC


class TestCoalescing:
    def test_fully_coalesced(self):
        k = parse_kernel(
            "void f(float *a, const float *b, int n) { int i; "
            "for (i = 0; i < n; i++) a[i] = b[i]; }"
        )
        loop = k.loops()[0]
        assert coalescing_fraction(loop.body, "i") == 1.0

    def test_column_access_uncoalesced(self):
        k = parse_kernel(
            "void f(float *a, int n) { int i; for (i = 0; i < n; i++) "
            "a[i * n] = 0.0f; }"
        )
        assert coalescing_fraction(k.loops()[0].body, "i") == 0.0

    def test_empty_body_is_one(self):
        k = parse_kernel("void f(int n) { int i; for (i = 0; i < n; i++) ; }")
        assert coalescing_fraction(k.loops()[0].body, "i") == 1.0


class TestCountOps:
    def test_simple_stream(self):
        k = parse_kernel(
            "void f(float *a, const float *b, int n) { int i; "
            "for (i = 0; i < n; i++) a[i] = b[i] * 2.0f; }"
        )
        counts = count_ops(k.body, {"n": 10})
        assert counts.stores == 10
        assert counts.loads == 10
        assert counts.flops_mul == 10

    def test_nested_triangular(self):
        k = parse_kernel(
            "void f(float *a, int n) { int i, j; for (i = 0; i < n; i++) "
            "for (j = 0; j < i; j++) a[i * n + j] = 0.0f; }"
        )
        counts = count_ops(k.body, {"n": 100})
        # midpoint heuristic: inner trips ~ n/2 per outer iteration
        assert 0.35 * 100 * 100 < counts.stores < 0.65 * 100 * 100

    def test_cse_dedupes_repeated_loads(self):
        k = parse_kernel(
            "void f(float *a, const float *b) { a[0] = b[1] + b[1] + b[1]; }"
        )
        counts = count_ops(k.body)
        assert counts.loads == 1

    def test_cse_resets_across_loop_iterations(self):
        k = parse_kernel(
            "void f(float *a, const float *b, int n) { int i; "
            "for (i = 0; i < n; i++) a[i] = b[i] + b[i]; }"
        )
        counts = count_ops(k.body, {"n": 4})
        assert counts.loads == 4  # one b[i] per iteration, deduped within

    def test_divergent_if_charges_both_sides(self):
        k = parse_kernel(
            "void f(float *a, int n) { int i; for (i = 0; i < n; i++) "
            "{ if (i > 2) a[i] = 1.0f; else a[i] = 2.0f; } }"
        )
        both = count_ops(k.body, {"n": 8}, divergent=True)
        half = count_ops(k.body, {"n": 8}, divergent=False)
        assert both.stores == 16 and half.stores == 8

    def test_special_intrinsics(self):
        k = parse_kernel("void f(float *a) { a[0] = sqrt(a[1]) + exp(a[2]); }")
        counts = count_ops(k.body)
        assert counts.flops_special == 2

    def test_division_counted(self):
        k = parse_kernel("void f(float *a) { a[0] = a[1] / a[2]; }")
        assert count_ops(k.body).flops_div == 1


class TestOpCountPlan:
    def test_triangular_nest_sees_the_outer_midpoint(self):
        k = parse_kernel(
            "void f(float *a, int n) { int i; int j; "
            "for (i = 0; i < n; i++) for (j = i; j < n; j++) a[j] = 0.0f; }"
        )
        # the j loop runs from the midpoint i = 5: 10 x 5 stores
        assert count_ops(k.body, {"n": 10}).stores == 50

    def test_branch_around_a_loop_is_weighted_per_env(self):
        k = parse_kernel(
            "void f(float *a, int n) { int i; int j; "
            "for (i = 0; i < n; i++) { if (i > 2) { "
            "for (j = 0; j < n; j++) a[j] = 1.0f; } else a[i] = 2.0f; } }"
        )
        plan = OpCountPlan(k.body)
        # both sides charged per i: n stores in the loop + 1 in the else
        assert plan.counts({"n": 4}, divergent=True).stores == 4 * 5
        assert plan.counts({"n": 4}, divergent=False).stores == 4 * 2
        assert plan.counts({"n": 6}, divergent=True).stores == 6 * 7

    def test_evaluation_leaves_no_state_behind(self):
        k = parse_kernel(
            "void f(float *a, int n, int t) { int i; int j; "
            "for (i = t; i < n; i++) for (j = i; j < n; j++) "
            "a[j] = a[j] + a[i]; }"
        )
        plan = OpCountPlan(k.body)
        first = plan.counts({"n": 9, "t": 2})
        plan.counts({"n": 300, "t": 7}, divergent=False)
        assert plan.counts({"n": 9, "t": 2}) == first
        assert OpCountPlan(k.body).counts({"n": 9, "t": 2}) == first


class TestTripCount:
    def _loop(self, source, var=None):
        k = parse_kernel(source)
        return k.loop_by_var(var) if var else k.loops()[0]

    def test_concrete(self):
        loop = self._loop(
            "void f(float *a, int n) { int i; for (i = 0; i < n; i++) a[i] = 0.0f; }"
        )
        assert trip_count(loop, {"n": 17}) == 17

    def test_strided(self):
        loop = self._loop(
            "void f(float *a, int n) { int i; for (i = 0; i < n; i += 4) a[i] = 0.0f; }"
        )
        assert trip_count(loop, {"n": 10}) == 3

    def test_empty_range(self):
        loop = self._loop(
            "void f(float *a, int n) { int i; for (i = 5; i < n; i++) a[i] = 0.0f; }"
        )
        assert trip_count(loop, {"n": 3}) == 0

    def test_unknown_symbol_fallback(self):
        loop = self._loop(
            "void f(float *a, int m) { int i; for (i = 0; i < m; i++) a[i] = 0.0f; }"
        )
        from repro.analysis.patterns import DEFAULT_TRIP
        assert trip_count(loop, {}) == DEFAULT_TRIP

    def test_default_trip_hint(self):
        loop = self._loop(
            "void f(float *a, const int *s, int n) { int i; "
            "for (i = s[0]; i < s[1]; i++) a[i] = 0.0f; }"
        )
        assert trip_count(loop, {"_default_trip": 4}) == 4
