"""The batched product kernels against the per-element loops they replaced.

Algebras are direct sums of matrix blocks M_k, written in a random basis,
over F_5 and Q.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gglab import linalg
from gglab.algebra import validate_algebra
from gglab.fields import Field
from gglab.linalg import Subspace
from gglab.separability import _commute_operators, tensor_square

F5 = Field("Fp", 5)
Q = Field("Q")
FIELDS = [
    pytest.param(F5, st.integers(0, 4), id="F5"),
    pytest.param(Q, st.fractions(min_value=-2, max_value=2, max_denominator=2), id="Q"),
]


def kron(field, a, b):
    return field.reduce(np.kron(a, b))


def block_table(field, sizes):
    """Structure constants and unit of M_k1 + M_k2 + ... on matrix units."""
    units = [(b, i, j) for b, k in enumerate(sizes) for i in range(k) for j in range(k)]
    pos = {u: m for m, u in enumerate(units)}
    n = len(units)
    table = field.zeros((n, n, n))
    unit = field.zeros(n)
    for b, i, j in units:
        if i == j:
            unit[pos[b, i, j]] = field.one
        for l in range(sizes[b]):
            table[pos[b, i, j], pos[b, j, l], pos[b, i, l]] = field.one
    return table, unit


def change_basis(field, table, unit, p):
    """The same algebra on the basis given by the rows of invertible p."""
    n = len(unit)
    aug, _ = linalg.rref(field, np.hstack([p, field.eye(n)]))
    p_inv = aug[:, n:]
    new = field.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            prod = field.zeros(n)
            for i in range(n):
                for j in range(n):
                    prod = field.reduce(prod + p[a, i] * p[b, j] * table[i, j])
            new[a, b] = field.reduce(np.dot(prod, p_inv))
    return new, field.reduce(np.dot(unit, p_inv))


@st.composite
def algebras(draw, field, scalars):
    sizes = draw(st.sampled_from([[1], [2], [1, 1], [1, 2], [1, 1, 1]]))
    table, unit = block_table(field, sizes)
    n = len(unit)
    p = field.array(draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n)))
    assume(linalg.rank(field, p) == n)
    table, unit = change_basis(field, table, unit, p)
    return validate_algebra(field, [f"b{i}" for i in range(n)], table, unit)


def rows(draw, field, scalars, count, n):
    return field.array(draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=count, max_size=count))).reshape(count, n)


@pytest.mark.parametrize("field, scalars", FIELDS)
def test_products_equal_explicit_sum(field, scalars):
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def run(data):
        alg = data.draw(algebras(field, scalars))
        n = alg.dim
        xs = rows(data.draw, field, scalars, data.draw(st.integers(0, 3)), n)
        ys = rows(data.draw, field, scalars, data.draw(st.integers(0, 3)), n)
        got = alg.products(xs, ys)
        assert got.shape == (len(xs), len(ys), n)
        for a in range(len(xs)):
            for b in range(len(ys)):
                want = field.zeros(n)
                for i in range(n):
                    for j in range(n):
                        want = field.reduce(want + xs[a, i] * ys[b, j] * alg.table[i, j])
                assert np.array_equal(got[a, b], want)
                if a == b == 0:
                    assert np.array_equal(alg.mul(xs[0], ys[0]), want)

    run()


@pytest.mark.parametrize("field, scalars", FIELDS)
def test_coords_rows_equal_row_by_row_coords(field, scalars):
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def run(data):
        n = data.draw(st.integers(1, 5))
        sub = Subspace(field, n, rows(data.draw, field, scalars, data.draw(st.integers(0, 3)), n))
        count = data.draw(st.integers(0, 3))
        combos = rows(data.draw, field, scalars, count, sub.dim)
        vs = field.reduce(np.dot(combos, sub.basis)) if sub.dim else field.zeros((count, n))
        if count and data.draw(st.booleans()):
            vs[data.draw(st.integers(0, count - 1))] = rows(data.draw, field, scalars, 1, n)[0]
        got = sub.coords_rows(vs)
        each = [sub.coords(v) for v in vs]
        solved = [linalg.solve(field, sub.basis.T, v) for v in vs]  # unique: the basis is independent
        assert [c is None for c in each] == [x is None for x in solved]
        if any(c is None for c in each):
            assert got is None
        else:
            assert got is not None and got.shape == (count, sub.dim)
            for c, x, row in zip(each, solved, got):
                assert np.array_equal(c, row) and np.array_equal(x, row)

    run()


def sequential_reduce(ts, v):
    """The elimination loop reduce_vector replaced: one pivot at a time."""
    f = ts.algebra.field
    out = v.astype(f.dtype, copy=True)
    for row, piv in zip(ts.relations, ts.rel_pivots):
        c = out[piv]
        if c != 0:
            out = f.reduce(out - c * row)
    return out


@pytest.mark.parametrize("field, scalars", FIELDS)
def test_stacked_reduce_vector_equals_sequential(field, scalars):
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def run(data):
        alg = data.draw(algebras(field, scalars))
        n = alg.dim
        sub = Subspace(field, n, rows(data.draw, field, scalars, data.draw(st.integers(1, 2)), n))
        ts = tensor_square(alg, sub)
        vs = rows(data.draw, field, scalars, 3, n * n).reshape(3, 1, n * n)
        got = ts.reduce_vector(vs)
        assert got.shape == vs.shape
        for v, r in zip(vs[:, 0], got[:, 0]):
            assert np.array_equal(r, sequential_reduce(ts, v))

    run()


@pytest.mark.parametrize("field, scalars", FIELDS)
def test_commute_operators_equal_kron_form(field, scalars):
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def run(data):
        alg = data.draw(algebras(field, scalars))
        n = alg.dim
        eye = field.eye(n)
        ops = _commute_operators(alg)
        assert ops.shape == (n, n * n, n * n)
        for r in range(n):
            b = alg.basis_vector(r)
            want = field.reduce(kron(field, alg.left_mult(b), eye) - kron(field, eye, alg.right_mult(b)))
            assert np.array_equal(ops[r], want)

    run()

