"""``_vstore`` semantics pinned against the broadcast-then-scatter formula.

The vector backend's masked store has two lane fast paths: an operand
that already holds one value per lane is used as is, and a scalar value
stored to a scalar subscript is written at most once.  Every case below
must leave the target array byte-identical to the original formula,
kept here as the oracle, and raise the same exception type when the
formula raises.
"""

import itertools
import warnings

import numpy as np
import pytest

from repro.runtime.vectorize import _vstore

N = 5


def _oracle(arr, idx, val, mask, n):
    """The original ``_vstore``: broadcast everything to the lane axis,
    compress by the mask, then one fancy-index scatter."""
    val = np.broadcast_to(np.asarray(val), (n,))
    if isinstance(idx, tuple):
        dims = [np.broadcast_to(np.asarray(i), (n,)) for i in idx]
        if mask is not None:
            dims = [d[mask] for d in dims]
            val = val[mask]
        arr[tuple(dims)] = val
        return
    idx = np.broadcast_to(np.asarray(idx), (n,))
    if mask is not None:
        idx = idx[mask]
        val = val[mask]
    arr[idx] = val


MASKS = {
    "none": None,
    "all-false": np.zeros(N, dtype=bool),
    "all-true": np.ones(N, dtype=bool),
    "mixed": np.array([True, False, True, False, True]),
    "last-dead": np.array([True, True, True, True, False]),
}

IDXS = {
    "scalar": 2,
    "np-scalar": np.int64(3),
    "negative-scalar": -1,
    "vector": np.arange(N, dtype=np.int64),
    "duplicates": np.array([1, 2, 1, 2, 1], dtype=np.int64),
    "negative-vector": np.array([-1, -2, -3, -2, -1], dtype=np.int64),
    "out-of-range": 9,
}

VALS = {
    "int": 7,
    "float": 2.5,
    "np-float32": np.float32(1.25),
    "vector": np.arange(N, dtype=np.float64) * 1.5 + 10,
    "huge-int": 2**40,
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": -float("inf"),
}

DTYPES = (np.float64, np.float32, np.int32, np.int64)

RANK2_IDXS = {
    "scalar-scalar": (1, 2),
    "scalar-vector": (0, np.array([0, 1, 2, 1, 0], dtype=np.int64)),
    "vector-scalar": (np.array([2, 1, 0, 1, 2], dtype=np.int64), -1),
    "vector-vector": (np.array([0, 1, 1, 2, 0], dtype=np.int64),
                      np.array([1, 1, 1, 1, 1], dtype=np.int64)),
    "negative-scalar": (-1, -3),
}


def _run(store, dtype, shape, idx, val, mask, n=N):
    arr = np.arange(int(np.prod(shape)), dtype=dtype).reshape(shape)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # nan/inf casts
            store(arr, idx, val, mask, n)
    except Exception as exc:  # the oracle's failures are part of the spec
        return type(exc)
    return arr.tobytes()


def _cases(idxs, shape):
    for (iname, idx), (mname, mask) in itertools.product(idxs.items(),
                                                         MASKS.items()):
        case_id = f"rank{len(shape)}-{iname}-{mname}"
        yield pytest.param(shape, idx, mask, id=case_id)


@pytest.mark.parametrize("shape, idx, mask",
                         [*_cases(IDXS, (6,)), *_cases(RANK2_IDXS, (3, 4))])
def test_matches_broadcast_scatter(shape, idx, mask):
    mismatched = [
        f"{np.dtype(dtype).name} <- {vname}"
        for (vname, val), dtype in itertools.product(VALS.items(), DTYPES)
        if _run(_vstore, dtype, shape, idx, val, mask)
        != _run(_oracle, dtype, shape, idx, val, mask)
    ]
    assert not mismatched


@pytest.mark.parametrize("mask", [None, MASKS["all-true"]])
def test_empty_lane_axis_writes_nothing(mask):
    # a zero-trip loop stores nothing, even to an out-of-range cell
    mask = None if mask is None else mask[:0]
    for idx in (9, (7, 7)):
        shape = (6,) if isinstance(idx, int) else (3, 4)
        assert (_run(_vstore, np.int32, shape, idx, 1, mask, n=0)
                == _run(_oracle, np.int32, shape, idx, 1, mask, n=0))


class _CountingArray(np.ndarray):
    """An array that counts ``__setitem__`` calls."""

    writes = 0

    def __setitem__(self, key, value):
        type(self).writes += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("mask_name, writes", [
    ("none", 1), ("all-false", 0), ("all-true", 1), ("mixed", 1),
])
@pytest.mark.parametrize("idx", [2, (1, 2)])
def test_scalar_store_writes_at_most_once(mask_name, writes, idx):
    shape = (6,) if isinstance(idx, int) else (3, 4)
    arr = np.zeros(shape, dtype=np.int32).view(_CountingArray)
    _CountingArray.writes = 0
    _vstore(arr, idx, 2**40, MASKS[mask_name], N)
    assert _CountingArray.writes == writes
    assert not arr.any()  # 2**40 wraps to 0 in int32, as the scatter does


def test_lane_operands_skip_broadcast(monkeypatch):
    calls = []
    real = np.broadcast_to

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "broadcast_to", counting)
    arr = np.zeros(6)
    _vstore(arr, np.arange(N), np.ones(N), MASKS["mixed"], N)
    _vstore(arr, (np.arange(N),), np.ones(N), None, N)
    assert calls == []
    _vstore(arr, np.arange(N), 3.0, None, N)  # the scalar value broadcasts
    assert len(calls) == 1
