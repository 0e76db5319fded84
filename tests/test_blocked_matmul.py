"""`forms.blocked_matmul` against `a @ b`: row counts around the block
boundary, empty and one-row left operands, C- and F-ordered left
operands, and C-ordered, F-ordered and transposed right operands, 2-D
and 1-D.  The blocks together must give a @ b to 1e-15 of its largest
entry, and none may hold more than SERIAL_MNK multiply-adds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slipflow import forms


def right_operand(rng, k, n, layout):
    """A k x n (k, for n None) right operand in the given layout."""
    if n is None:
        return rng.normal(size=k)
    if layout == "T":
        return rng.normal(size=(n, k)).T
    b = rng.normal(size=(k, n))
    return np.asfortranarray(b) if layout == "F" else b


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 16), n=st.one_of(st.none(), st.integers(8, 64)),
       near=st.sampled_from([0, 1, -1, 2, -2]), blocks=st.integers(0, 3),
       tiny=st.sampled_from([None, 0, 1]), a_layout=st.sampled_from("CF"),
       b_layout=st.sampled_from("CFT"), seed=st.integers(0, 2**32 - 1))
def test_blocked_matmul_equals_matmul_in_blocks_below_the_cut(
        k, n, near, blocks, tiny, a_layout, b_layout, seed):
    rng = np.random.default_rng(seed)
    if n is None:
        k *= 8      # a matrix-vector block is short: keep it a few thousand rows
    rows = forms.SERIAL_MNK // (k * (n or 1))
    m = tiny if tiny is not None else max(0, blocks * rows + near)
    a = rng.normal(size=(m, k))
    if a_layout == "F":
        a = np.asfortranarray(a)
    b = right_operand(rng, k, n, b_layout)

    calls = []
    matmul = np.matmul

    def spy(x, y, **kwargs):
        calls.append(x.shape[0] * x.shape[1] * (y.shape[1] if y.ndim == 2 else 1))
        return matmul(x, y, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "matmul", spy)
        got = forms.blocked_matmul(a, b)

    want = a @ b
    assert got.shape == want.shape
    if m:
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    assert calls and max(calls) <= forms.SERIAL_MNK
    assert sum(calls) == m * k * (n or 1)


@pytest.mark.parametrize("m", [0, 1, 5])
def test_blocked_matmul_of_a_row_above_the_cut(m):
    # a row of more than SERIAL_MNK multiply-adds is one block of its own;
    # a one-row block is a matrix-vector product, whose rounding differs
    # from a matrix product's within the usual k eps |a| |b| bound
    rng = np.random.default_rng(m)
    a, b = rng.normal(size=(m, 600)), rng.normal(size=(600, 500))
    got = forms.blocked_matmul(a, b)
    assert got.shape == (m, 500)
    assert np.all(np.abs(got - a @ b) <= 600 * np.finfo(float).eps * (np.abs(a) @ np.abs(b)))
