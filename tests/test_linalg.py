import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gglab import _purerref, linalg
from gglab.fields import Field
from gglab.linalg import Subspace, all_subspaces

F5 = Field("Fp", 5)
F3 = Field("Fp", 3)
Q = Field("Q")

matrices_f5 = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
)


def test_rref_known():
    mat = F5.array([[2, 4], [1, 2]])
    r, pivots = linalg.rref(F5, mat)
    assert pivots == [0]
    assert r[0].tolist() == [1, 2]


def test_rref_rational():
    mat = Q.array([[2, 1], [4, 3]])
    r, pivots = linalg.rref(Q, mat)
    assert pivots == [0, 1]
    assert np.array_equal(r, Q.eye(2))


@settings(max_examples=60)
@given(matrices_f5)
def test_rref_idempotent(rows):
    mat = F5.array(rows)
    r1, p1 = linalg.rref(F5, mat)
    r2, p2 = linalg.rref(F5, r1)
    assert np.array_equal(r1, r2)
    assert p1 == p2


@settings(max_examples=60)
@given(matrices_f5)
def test_rref_preserves_row_space(rows):
    mat = F5.array(rows)
    s1 = Subspace(F5, mat.shape[1], mat)
    s2 = Subspace(F5, mat.shape[1], linalg.row_space(F5, mat))
    assert s1 == s2


@settings(max_examples=60)
@given(matrices_f5, st.integers(1, 4))
def test_cached_key_is_the_canonical_tuple(rows, scale):
    mat = F5.array(rows)
    s = Subspace(F5, mat.shape[1], mat)
    key = s.key()
    assert s.key() is key
    assert key == tuple(tuple(F5.scalar_json(x) for x in row) for row in s.basis)
    # the same space from a rescaled, reversed spanning set, and the span of one row
    same = Subspace(F5, mat.shape[1], F5.reduce(scale * mat[::-1]))
    part = Subspace(F5, mat.shape[1], mat[:1])
    assert same == s
    for other in (same, part):
        assert (other == s) == (other.key() == key)
        if other == s:
            assert hash(other) == hash(s)


def _row_space_oracle(mat, p):
    """Every combination c @ mat mod p with c in F_p^m, by brute force."""
    return {
        tuple(int(x) for x in np.dot(np.array(c, dtype=np.int64), mat) % p)
        for c in itertools.product(range(p), repeat=mat.shape[0])
    }


kernel_inputs = st.sampled_from([2, 3, 5]).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.integers(0, 4).flatmap(
            lambda m: st.integers(0, 5).flatmap(
                lambda n: st.lists(
                    st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=m, max_size=m
                ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(m, n))
            )
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(kernel_inputs)
def test_rref_mod_form_and_row_space(case):
    p, mat = case
    work = mat.copy()
    pivots = _purerref.rref_mod(work, p)
    m, n = mat.shape
    assert work.dtype == np.int64 and work.shape == (m, n)
    assert np.all((work >= 0) & (work < p))
    assert pivots == sorted(set(pivots)) and len(pivots) <= m
    for i, c in enumerate(pivots):
        assert not np.any(work[i, :c])  # leading entry of row i ...
        col = np.zeros(m, dtype=np.int64)
        col[i] = 1
        assert np.array_equal(work[:, c], col)  # ... is a 1, alone in its column
    assert not np.any(work[len(pivots):])
    assert _row_space_oracle(work, p) == _row_space_oracle(mat, p)


def _rref_all_fractions(mat):
    """RREF with every entry a Fraction: the plain textbook elimination."""
    m, n = mat.shape
    rows = [[Fraction(x) for x in r] for r in mat.tolist()]
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c] != 0), -1)
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == m:
            break
    return rows


rationals = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
)
rational_matrices = st.integers(0, 4).flatmap(
    lambda m: st.integers(0, 5).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=m, max_size=m
        ).map(lambda rows: np.array(rows, dtype=object).reshape(m, n))
    )
)


@settings(max_examples=200, deadline=None)
@given(rational_matrices)
def test_rref_frac_form_canonical_entries_and_row_space(mat):
    work = mat.copy()
    pivots = _purerref.rref_frac(work)
    m, n = mat.shape
    assert work.dtype == object and work.shape == (m, n)
    for x in work.flat:
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1), repr(x)
    assert pivots == sorted(set(pivots)) and len(pivots) <= m
    for i, c in enumerate(pivots):
        assert not np.any(work[i, :c] != 0)  # leading entry of row i ...
        assert [work[k, c] for k in range(m)] == [int(k == i) for k in range(m)]  # ... a lone 1
    assert not np.any(work[len(pivots):] != 0)
    # RREF is unique, so equal reductions mean equal row spaces
    assert work.tolist() == _rref_all_fractions(mat)


def test_nullspace_annihilates():
    rng = np.random.default_rng(1)
    for _ in range(20):
        mat = rng.integers(0, 5, size=(4, 6), dtype=np.int64)
        ns = linalg.nullspace(F5, mat)
        assert ns.shape[0] == 6 - linalg.rank(F5, mat)
        if ns.size:
            assert not np.any(linalg.matmul(F5, mat, ns.T) % 5)


@settings(max_examples=40)
@given(matrices_f5, st.lists(st.integers(0, 4), min_size=1, max_size=5))
def test_solve_residual_zero(rows, xs):
    a = F5.array(rows)
    x = F5.vector((xs * 5)[: a.shape[1]])
    b = linalg.matmul(F5, a, x)
    sol = linalg.solve(F5, a, b)
    assert sol is not None
    assert not np.any(linalg.residual(F5, a, sol, b))


def test_solve_inconsistent():
    a = F5.array([[1, 0], [1, 0]])
    assert linalg.solve(F5, a, F5.vector([1, 2])) is None


def test_subspace_dim_formula():
    # dim(U) + dim(W) = dim(U+W) + dim(U cap W)
    rng = np.random.default_rng(2)
    for _ in range(25):
        u = Subspace(F5, 5, rng.integers(0, 5, size=(2, 5), dtype=np.int64))
        w = Subspace(F5, 5, rng.integers(0, 5, size=(3, 5), dtype=np.int64))
        assert u.dim + w.dim == u.sum(w).dim + u.intersection(w).dim


def test_subspace_contains_and_coords():
    s = Subspace(F5, 3, F5.array([[1, 2, 0], [0, 0, 1]]))
    v = F5.vector([2, 4, 3])
    c = s.coords(v)
    assert c is not None
    assert np.array_equal(linalg.matmul(F5, c, s.basis), v)
    assert not s.contains(F5.vector([0, 1, 0]))


def _coords_cases(field, scalars):
    """(m x n matrix, vector): a combination of its rows or an arbitrary vector."""

    def build(m, n):
        row = st.lists(scalars, min_size=n, max_size=n)
        mats = st.lists(row, min_size=m, max_size=m).map(lambda rows: field.array(rows).reshape(m, n))
        combos = st.lists(scalars, min_size=m, max_size=m).map(field.vector)
        vectors = lambda a: st.one_of(combos.map(lambda c: field.reduce(np.dot(c, a))), row.map(field.vector))
        return mats.flatmap(lambda a: st.tuples(st.just(a), vectors(a)))

    return st.integers(0, 4).flatmap(lambda m: st.integers(1, 5).flatmap(lambda n: build(m, n)))


@pytest.mark.parametrize(
    "field, scalars",
    [
        (F5, st.integers(0, 4)),
        (Q, st.fractions(min_value=-3, max_value=3, max_denominator=3)),
    ],
    ids=["F5", "Q"],
)
def test_subspace_coords_agree_with_solve(field, scalars):
    @settings(max_examples=150, deadline=None)
    @given(_coords_cases(field, scalars))
    def check(case):
        mat, v = case
        s = Subspace(field, mat.shape[1], mat)
        c = s.coords(v)
        assert (c is None) == (linalg.solve(field, s.basis.T, v) is None)
        if c is not None:
            assert c.shape == (s.dim,)
            assert np.array_equal(field.reduce(np.dot(c, s.basis)), field.reduce(v))

    check()


def test_all_subspaces_count():
    # Gaussian binomials over F_3, n = 2: 1 + 4 + 1 = 6
    assert sum(1 for _ in all_subspaces(F3, 2)) == 6
    # n = 3: 1 + 13 + 13 + 1 = 28
    assert sum(1 for _ in all_subspaces(F3, 3)) == 28


def test_all_subspaces_canonical_and_distinct():
    seen = set()
    for mat in all_subspaces(F3, 3):
        s = Subspace(F3, 3, mat)
        assert np.array_equal(s.basis, mat % 3)
        assert s.key() not in seen
        seen.add(s.key())


def test_rational_fraction_exactness():
    from fractions import Fraction

    mat = Q.array([["1/3", "1/6"], ["1/2", "1/4"]])
    r, pivots = linalg.rref(Q, mat)
    assert pivots == [0]
    assert r[0, 1] == Fraction(1, 2)
