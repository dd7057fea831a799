"""Memory-access-pattern and operation-count extraction.

The performance model (:mod:`repro.perf`) needs, per kernel launch:

* how many arithmetic / memory operations one iteration executes,
* the *stride* of each array access with respect to the dimension that the
  compiler mapped to adjacent hardware lanes (coalescing on the GPU, unit
  vector stride on the MIC),
* estimated trip counts of sequential inner loops.

All of it derives statically from the IR, matching the paper's static-PTX
methodology (section IV-C).  Only the trip counts depend on a launch's
sizes, so :class:`LoopBounds` and :class:`OpCountPlan` analyse a loop or
a statement once and evaluate it per launch env.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..ir.expr import ArrayRef, BinOp, Call, Cast, Expr, Ternary, UnaryOp
from ..ir.stmt import Assign, Block, Decl, For, If, KernelFunction, Stmt, While
from ..ir.visitors import writes_and_reads
from .affine import coefficient_of, constant_value, evaluate, linearize


class StrideKind(enum.Enum):
    """How an array subscript moves as the lane index advances by one."""

    UNIT = "unit"            # stride 1 elements: fully coalesced
    CONSTANT = "constant"    # fixed stride > 1 elements
    SYMBOLIC = "symbolic"    # stride is a size parameter (row pitch etc.)
    ZERO = "zero"            # invariant in the lane dimension (broadcast)
    INDIRECT = "indirect"    # a[b[i]] or non-polynomial subscript


@dataclass(frozen=True)
class Access:
    """One static array access, classified against a lane variable."""

    array: str
    is_write: bool
    stride: StrideKind
    stride_elems: int | None = None  # set for UNIT/CONSTANT

    @property
    def coalesced(self) -> bool:
        return self.stride in (StrideKind.UNIT, StrideKind.ZERO)


def classify_access(ref: ArrayRef, lane_var: str) -> Access:
    """Classify *ref* by its stride along *lane_var* (innermost dimension
    last: for multi-dimensional refs the last index is contiguous)."""
    # For rank>1 refs the *last* subscript is the contiguous one.
    contiguous_index = ref.indices[-1]
    form = linearize(contiguous_index)
    if form is None:
        return Access(ref.name, False, StrideKind.INDIRECT)
    cof = coefficient_of(form, lane_var)
    if cof is None:
        return Access(ref.name, False, StrideKind.INDIRECT)
    if not cof:
        # lane var may still appear in an outer (strided) dimension
        for outer in ref.indices[:-1]:
            outer_form = linearize(outer)
            if outer_form is None:
                return Access(ref.name, False, StrideKind.INDIRECT)
            outer_cof = coefficient_of(outer_form, lane_var)
            if outer_cof is None:
                return Access(ref.name, False, StrideKind.INDIRECT)
            if outer_cof:
                return Access(ref.name, False, StrideKind.SYMBOLIC)
        return Access(ref.name, False, StrideKind.ZERO, 0)
    stride = constant_value(cof)
    if stride is None:
        return Access(ref.name, False, StrideKind.SYMBOLIC)
    if abs(stride) == 1:
        return Access(ref.name, False, StrideKind.UNIT, stride)
    return Access(ref.name, False, StrideKind.CONSTANT, stride)


def access_patterns(stmt: Stmt, lane_var: str) -> list[Access]:
    """Classify every array access in *stmt* against *lane_var*."""
    writes, reads = writes_and_reads(stmt)
    out: list[Access] = []
    for ref in writes:
        base = classify_access(ref, lane_var)
        out.append(Access(base.array, True, base.stride, base.stride_elems))
    for ref in reads:
        out.append(classify_access(ref, lane_var))
    return out


def coalescing_fraction(stmt: Stmt, lane_var: str) -> float:
    """Fraction of static accesses that are coalesced along *lane_var*.

    1.0 means perfectly coalesced; 0.0 means every access is strided or
    indirect.  Used by the GPU bandwidth model.
    """
    accesses = access_patterns(stmt, lane_var)
    if not accesses:
        return 1.0
    good = sum(1 for a in accesses if a.coalesced)
    return good / len(accesses)


# ---------------------------------------------------------------------------
# Operation counting
# ---------------------------------------------------------------------------


@dataclass
class OpCounts:
    """Static operation counts for one execution of a statement body."""

    flops_add: int = 0
    flops_mul: int = 0
    flops_div: int = 0
    flops_special: int = 0  # sqrt/exp/log/pow
    int_ops: int = 0
    compares: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            self.flops_add + other.flops_add,
            self.flops_mul + other.flops_mul,
            self.flops_div + other.flops_div,
            self.flops_special + other.flops_special,
            self.int_ops + other.int_ops,
            self.compares + other.compares,
            self.loads + other.loads,
            self.stores + other.stores,
            self.branches + other.branches,
        )

    def scaled(self, factor: float) -> "OpCounts":
        return OpCounts(
            *(int(round(getattr(self, f.name) * factor)) for f in
              self.__dataclass_fields__.values())  # type: ignore[attr-defined]
        )

    @property
    def total_flops(self) -> int:
        return self.flops_add + self.flops_mul + self.flops_div + self.flops_special

    @property
    def total_mem_ops(self) -> int:
        return self.loads + self.stores

    @property
    def total(self) -> int:
        return (
            self.total_flops + self.int_ops + self.compares + self.total_mem_ops
            + self.branches
        )


_SPECIAL_INTRINSICS = {"sqrt", "exp", "log", "pow"}


def _count_expr(expr: Expr, counts: OpCounts,
                seen_loads: set[str] | None = None) -> None:
    if isinstance(expr, ArrayRef):
        # register CSE: within one straight-line region (no intervening
        # loop back-edge) a repeated identical load costs nothing — this
        # is what makes unroll-and-jam cut real memory traffic (the jammed
        # copies share their broadcast operands, paper V-D1)
        key = str(expr)
        if seen_loads is not None and key in seen_loads:
            return
        if seen_loads is not None:
            seen_loads.add(key)
        counts.loads += 1
        # subscript arithmetic is integer work
        for index in expr.indices:
            _count_index(index, counts)
        return
    if isinstance(expr, BinOp):
        if expr.op in ("+", "-"):
            counts.flops_add += 1
        elif expr.op == "*":
            counts.flops_mul += 1
        elif expr.op in ("/", "%"):
            counts.flops_div += 1
        elif expr.op in ("<", "<=", ">", ">=", "==", "!="):
            counts.compares += 1
        else:
            counts.int_ops += 1
        _count_expr(expr.lhs, counts, seen_loads)
        _count_expr(expr.rhs, counts, seen_loads)
        return
    if isinstance(expr, UnaryOp):
        counts.int_ops += 1
        _count_expr(expr.operand, counts, seen_loads)
        return
    if isinstance(expr, Call):
        if expr.func in _SPECIAL_INTRINSICS:
            counts.flops_special += 1
        else:
            counts.flops_add += 1  # min/max/abs class
        for arg in expr.args:
            _count_expr(arg, counts, seen_loads)
        return
    if isinstance(expr, Ternary):
        counts.branches += 1
        _count_expr(expr.cond, counts, seen_loads)
        _count_expr(expr.then, counts, seen_loads)
        _count_expr(expr.otherwise, counts, seen_loads)
        return
    if isinstance(expr, Cast):
        counts.int_ops += 1
        _count_expr(expr.operand, counts, seen_loads)
        return
    # literals and plain vars are free (register operands)


def _count_index(expr: Expr, counts: OpCounts) -> None:
    """Subscript arithmetic counts as integer ops, not flops."""
    if isinstance(expr, BinOp):
        counts.int_ops += 1
        _count_index(expr.lhs, counts)
        _count_index(expr.rhs, counts)
    elif isinstance(expr, UnaryOp):
        counts.int_ops += 1
        _count_index(expr.operand, counts)
    elif isinstance(expr, ArrayRef):
        counts.loads += 1
        for index in expr.indices:
            _count_index(index, counts)


DEFAULT_TRIP = 16

#: a count vector lists the :class:`OpCounts` fields in declaration order
_FIELDS = tuple(OpCounts.__dataclass_fields__)
_COMPARES = _FIELDS.index("compares")
_INT_OPS = _FIELDS.index("int_ops")
_BRANCHES = _FIELDS.index("branches")


def _branch_weight(divergent: bool) -> float:
    # SIMT divergence: a warp with lanes on both sides executes both paths
    # serially, so both branches are charged in full; a host CPU
    # (divergent=False) predicts and executes one path — charge the average
    return 1.0 if divergent else 0.5


class LoopBounds:
    """A ``For`` loop's bounds, linearized once, evaluated per env.

    The trip count falls back to a representative :data:`DEFAULT_TRIP`
    when a bound cannot be evaluated (documented heuristic); a benchmark
    can override the fallback with an ``_default_trip`` env entry — e.g.
    BFS passes its average degree for the data-dependent edge loops.
    """

    __slots__ = ("var", "step", "lower", "upper")

    def __init__(self, loop: For) -> None:
        self.var = loop.var
        self.step = loop.step
        self.lower = linearize(loop.lower)
        self.upper = linearize(loop.upper)

    def trips(self, env: dict[str, int]) -> int:
        fallback = env.get("_default_trip", DEFAULT_TRIP)
        if self.lower is None or self.upper is None:
            return fallback
        try:
            lo = evaluate(self.lower, env)
            hi = evaluate(self.upper, env)
        except KeyError:
            return fallback
        if hi <= lo:
            return 0
        return (hi - lo + self.step - 1) // self.step

    def midpoint(self, env: dict[str, int], trips: int) -> int:
        """A representative value of the induction variable, so nested
        (triangular) bounds resolve: for the j in [i, n) loops of LUD/GE
        the midpoint gives the right average trip count.  An unevaluable
        lower bound counts as 0."""
        try:
            lo = evaluate(self.lower, env) if self.lower is not None else 0
        except KeyError:
            lo = 0
        return lo + (trips // 2) * self.step


class OpCountPlan:
    """:func:`count_ops` of one statement, analysed once, evaluated per env.

    Building the plan walks the statement once: every straight-line
    region's counts are summed then, with the same register-CSE order as
    a walk, and an ``If`` whose two sides are straight-line folds in for
    both ``divergent`` settings.  What an evaluation still computes is
    the env-dependent rest: each inner ``For`` evaluates its linearized
    bounds (and the midpoint its body sees), and each ``If`` containing
    one weights its two sides.
    """

    __slots__ = ("static", "loops", "branches")

    def __init__(self, stmt: Stmt, seen_loads: set[str] | None = None) -> None:
        #: loops and env-dependent branches, in walk order
        self.loops: list[tuple[LoopBounds, OpCountPlan]] = []
        self.branches: list[tuple[OpCountPlan, OpCountPlan]] = []
        base = OpCounts()
        folded = {True: [0] * len(_FIELDS), False: [0] * len(_FIELDS)}
        self._add(stmt, base, folded,
                  set() if seen_loads is None else seen_loads)
        #: divergent -> the count vector of everything env-independent
        self.static = {
            divergent: tuple(getattr(base, name) + f
                             for name, f in zip(_FIELDS, extra))
            for divergent, extra in folded.items()
        }

    def _add(self, stmt: Stmt, counts: OpCounts,
             folded: dict[bool, list[int]], seen: set[str]) -> None:
        if isinstance(stmt, Assign):
            if isinstance(stmt.target, ArrayRef):
                counts.stores += 1
                for index in stmt.target.indices:
                    _count_index(index, counts)
                if stmt.op is not None:
                    counts.loads += 1
                    counts.flops_add += 1
            elif stmt.op is not None:
                counts.flops_add += 1
            _count_expr(stmt.value, counts, seen)
        elif isinstance(stmt, Decl):
            if stmt.init is not None:
                _count_expr(stmt.init, counts, seen)
        elif isinstance(stmt, If):
            counts.branches += 1
            _count_expr(stmt.cond, counts, seen)
            then = OpCountPlan(stmt.then_body, seen)
            other = OpCountPlan(
                stmt.else_body if stmt.else_body is not None else Block(),
                seen,
            )
            if then.loops or then.branches or other.loops or other.branches:
                self.branches.append((then, other))
            else:
                for divergent, extra in folded.items():
                    weight = _branch_weight(divergent)
                    pairs = zip(then.static[divergent],
                                other.static[divergent])
                    for k, (t, e) in enumerate(pairs):
                        extra[k] += int(weight * (t + e))
        elif isinstance(stmt, For):
            # CSE resets per iteration
            self.loops.append((LoopBounds(stmt), OpCountPlan(stmt.body)))
        elif isinstance(stmt, While):
            self._add(stmt.body, counts, folded, set())
        else:  # Block and Barrier
            for child in stmt.children_stmts():
                self._add(child, counts, folded, seen)

    def evaluate(self, env: dict[str, int], divergent: bool = True
                 ) -> list[int]:
        """The count vector (fields in :class:`OpCounts` order) under *env*."""
        counts = list(self.static[divergent])
        for bounds, body in self.loops:
            trips = bounds.trips(env)
            if body.loops or body.branches:
                inner = dict(env)
                inner[bounds.var] = bounds.midpoint(env, trips)
                per_trip = body.evaluate(inner, divergent)
            else:
                per_trip = body.static[divergent]
            for k, value in enumerate(per_trip):
                counts[k] += value * trips
            counts[_COMPARES] += trips
            counts[_INT_OPS] += trips  # induction increment
            counts[_BRANCHES] += trips
        if self.branches:
            weight = _branch_weight(divergent)
            for then, other in self.branches:
                pairs = zip(then.evaluate(env, divergent),
                            other.evaluate(env, divergent))
                for k, (t, e) in enumerate(pairs):
                    counts[k] += int(weight * (t + e))
        return counts

    def counts(self, env: dict[str, int], divergent: bool = True) -> OpCounts:
        return OpCounts(*self.evaluate(env, divergent))


def count_ops(stmt: Stmt, loop_env: dict[str, int] | None = None,
              divergent: bool = True) -> OpCounts:
    """Statically count operations for one execution of *stmt*.

    Inner ``For`` loops multiply their body counts by the trip count
    evaluated in *loop_env* (falling back to a representative trip count of
    16 when the bound cannot be evaluated — documented heuristic).
    Identical loads within one straight-line region are counted once
    (register CSE); the set resets at every loop back-edge.  One-shot
    form of :class:`OpCountPlan`; a caller evaluating the same statement
    under many envs keeps the plan instead.
    """
    return OpCountPlan(stmt).counts(loop_env or {}, divergent)


def trip_count(loop: For, env: dict[str, int] | None = None) -> int:
    """Evaluate the loop trip count under *env* (one-shot
    :class:`LoopBounds`), with its heuristic fallback for unknown
    symbols."""
    return LoopBounds(loop).trips(env or {})


@dataclass
class IterationSpace:
    """The concrete iteration domain of a (possibly nested) parallel loop."""

    extents: list[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        total = 1
        for extent in self.extents:
            total *= extent
        return max(total, 0)
