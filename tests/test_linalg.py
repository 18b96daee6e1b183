import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gglab import _purerref, linalg
from gglab.fields import Field
from gglab.linalg import Subspace

F5 = Field("Fp", 5)
F3 = Field("Fp", 3)
Q = Field("Q")


def all_subspaces(field: Field, n: int):
    """Yield every subspace of F_p^n as a canonical basis matrix, one at a
    time: choose the pivot columns, then fill the free entries.  The
    per-candidate generator that the exhaustive subalgebra walk is tested
    against."""
    p = field.p
    yield field.zeros((0, n))
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            pivset = set(pivots)
            free_cells = [(r, c) for r in range(k) for c in range(pivots[r] + 1, n) if c not in pivset]
            for fill in itertools.product(range(p), repeat=len(free_cells)):
                mat = field.zeros((k, n))
                for r, c in zip(range(k), pivots):
                    mat[r, c] = 1
                for (r, c), v in zip(free_cells, fill):
                    mat[r, c] = v
                yield mat

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


# stacks of s matrices m x n; a column is zeroed with probability 1/3 and a
# matrix is drawn sparse half the time, so pivots skip columns and rows
stack_inputs = st.sampled_from([2, 3, 5, 2**31 - 1]).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 5)).flatmap(
            lambda shape: st.tuples(
                st.lists(
                    st.one_of(st.integers(0, p - 1), st.just(0), st.just(p - 1)),
                    min_size=shape[0] * shape[1] * shape[2],
                    max_size=shape[0] * shape[1] * shape[2],
                ),
                st.lists(st.integers(0, 2), min_size=shape[2], max_size=shape[2]),
            ).map(lambda drawn: _stack(shape, *drawn))
        ),
    )
)


def _stack(shape, entries, column_draws):
    mats = np.array(entries, dtype=np.int64).reshape(shape)
    mats[:, :, [c for c, x in enumerate(column_draws) if x == 0]] = 0
    return mats


def _ranks_one_at_a_time(mats, p):
    return [len(_purerref.rref_mod(mat.copy(), p)) for mat in mats]


@settings(max_examples=300, deadline=None)
@given(stack_inputs)
def test_rank_mod_stack_equals_rref_mod(case):
    p, mats = case
    ranks = _purerref.rank_mod_stack(mats.copy(), p)
    assert ranks.shape == (len(mats),) and ranks.dtype == np.int64
    assert ranks.tolist() == _ranks_one_at_a_time(mats, p)


def _shaped_stack(p):
    """All-zero, repeated-row and full-rank 4 x 5 matrices over F_p, and
    their ranks; entries p - 1 bring each product of the elimination near
    p^2."""
    t = p - 1
    row, other = [t, 1, 0, t, t], [0, t, t, 0, 1]
    mats = [
        [[0] * 5] * 4,
        [row, row, row, [0] * 5],
        [row, other, row, other],
        [[t, t, 0, 0, 0], [0, t, t, 0, 0], [0, 0, t, t, 0], [1, 0, 0, t, t]],
        [[t] * 5] * 4,
    ]
    return np.array(mats, dtype=np.int64) % p, [0, 1, 2, 4, 1]


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_rank_mod_stack_on_zero_repeated_and_full_rank_matrices(p):
    mats, want = _shaped_stack(p)
    assert _ranks_one_at_a_time(mats, p) == want
    assert _purerref.rank_mod_stack(mats.copy(), p).tolist() == want


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_rank_mod_stack_chunks_alike(p, monkeypatch):
    rng = np.random.default_rng(7)
    mats = rng.integers(0, p, (40, 6, 5)).astype(np.int64)
    mats[::3, :, 1] = 0
    mats[1::4] = mats[1::4, :1]  # repeated rows
    mats[2::5] = 0
    shaped = _shaped_stack(p)[0]
    mats = np.concatenate([mats, np.concatenate([shaped, shaped[:, :2]], axis=1)])
    whole = _purerref.rank_mod_stack(mats.copy(), p)
    assert whole.tolist() == _ranks_one_at_a_time(mats, p)
    monkeypatch.setattr(_purerref, "STACK_CELLS", 64)  # two matrices per chunk
    assert np.array_equal(_purerref.rank_mod_stack(mats.copy(), p), whole)


def _oracle_stack(p, shape, kinds, entries):
    """s matrices m x n over F_p from drawn entries; by ``kinds``, matrix g
    is as drawn (0), all zero (1), or its first row repeated, scaled by
    1, 2, ... (2)."""
    s, m, n = shape
    mats = np.array(entries, dtype=np.int64).reshape(shape)
    for g, kind in enumerate(kinds):
        if kind == 1:
            mats[g] = 0
        elif kind == 2:
            mats[g] = (np.arange(1, m + 1)[:, None] * mats[g, :1]) % p
    return mats


# stacks with m < n, m > n and m = n, empty stacks, and matrices drawn
# whole, all zero or with repeated rows
oracle_inputs = st.sampled_from([2, 3, 5, 17, 2**31 - 1]).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.tuples(st.integers(0, 5), st.integers(1, 6), st.integers(1, 6)).flatmap(
            lambda shape: st.tuples(
                st.lists(st.integers(0, 2), min_size=shape[0], max_size=shape[0]),
                st.lists(
                    st.one_of(st.integers(0, p - 1), st.just(p - 1)),
                    min_size=shape[0] * shape[1] * shape[2],
                    max_size=shape[0] * shape[1] * shape[2],
                ),
            ).map(lambda drawn: _oracle_stack(p, shape, *drawn))
        ),
    )
)


@settings(max_examples=300, deadline=None)
@given(oracle_inputs)
@example((17, np.zeros((0, 3, 4), dtype=np.int64)))
@example((5, np.array([[[1, 2, 3, 4], [2, 4, 1, 3]]], dtype=np.int64)))
@example((2**31 - 1, np.full((2, 4, 2), 2**31 - 2, dtype=np.int64)))
def test_rank_mod_stack_equals_the_rank_of_each_matrix(case):
    """The column-major stacked rank equals ``linalg.rank`` matrix by
    matrix, at the default budget and at ``STACK_CELLS = 1``, where every
    slice takes one matrix; the input is left as it was."""
    p, mats = case
    field = Field("Fp", p)
    want = [linalg.rank(field, mat) for mat in mats]
    drawn = mats.copy()
    assert _purerref.rank_mod_stack(mats, p).tolist() == want
    assert np.array_equal(mats, drawn)
    sizes = []
    real = _purerref.stacked

    def counted(count, cells, step_fn):
        def step(s):
            sizes.append(len(range(count)[s]))
            return step_fn(s)

        return real(count, cells, step)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_purerref, "STACK_CELLS", 1)
        mp.setattr(_purerref, "stacked", counted)
        assert _purerref.rank_mod_stack(mats, p).tolist() == want
    assert sizes == ([len(mats)] if len(mats) <= 1 else [1] * len(mats))


@pytest.mark.parametrize("budget", [10, 40, 1 << 20])
def test_stack_size_bounds_each_slice(budget, monkeypatch):
    monkeypatch.setattr(_purerref, "STACK_CELLS", budget)
    assert _purerref.stack_size(10) == max(1, budget // 10)
    assert _purerref.stack_size(0) == budget  # an empty item counts as one cell
    assert _purerref.stack_size(budget + 1) == 1  # an item above the budget is alone


# with STACK_CELLS = 40, items of 10 cells go 4 to a slice:
# count 0, 1, step - 1, step, step + 1 and 3 step + 2
@pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 14])
def test_stacked_slices_cover_range_in_order(count, monkeypatch):
    """The slices cover range(count) in order, without overlap, each of
    stack_size(cells) items but the last; one slice covering everything
    is slice(None)."""
    monkeypatch.setattr(_purerref, "STACK_CELLS", 40)
    step = _purerref.stack_size(10)
    items, seen = np.arange(count), []

    def step_fn(s):
        seen.append(s)
        return items[s] * 10

    out = _purerref.stacked(count, 10, step_fn)
    assert step == 4 and out.tolist() == [10 * i for i in range(count)]
    if count <= step:
        assert seen == [slice(None)]
    else:
        assert [range(count)[s] for s in seen] == [range(lo, min(lo + step, count)) for lo in range(0, count, step)]
    # an item above the budget is a slice of its own
    seen.clear()
    assert _purerref.stacked(count, 41, step_fn).tolist() == out.tolist()
    assert seen == ([slice(None)] if count <= 1 else [slice(i, i + 1) for i in range(count)])


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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([F5, Q]), st.data())
def test_from_coords_is_the_canonical_image(field, data):
    # an RREF coefficient basis under an RREF basis is already canonical:
    # the same basis, pivots and key as reducing the image afresh
    entries = st.integers(0, 4) if field.modular else rationals
    n = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=5))
    space = Subspace(field, n, field.array(rows))
    coeff_rows = data.draw(
        st.lists(st.lists(entries, min_size=space.dim, max_size=space.dim), min_size=0, max_size=4)
    )
    coeffs = linalg.row_space(field, field.array(coeff_rows).reshape(len(coeff_rows), space.dim))
    got = space.from_coords(coeffs)
    want = Subspace(field, n, field.reduce(np.dot(coeffs, space.basis)) if len(coeffs) else field.zeros((0, n)))
    assert got == want and got.pivots == want.pivots and got.key() == want.key()


def test_nullspace_annihilates():
    rng = np.random.default_rng(1)
    for _ in range(20):
        mat = rng.integers(0, 5, size=(4, 6), dtype=np.int64)
        ns = linalg.nullspace(F5, mat)
        assert ns.shape[0] == 6 - linalg.rank(F5, mat)
        if ns.size:
            assert not np.any(linalg.matmul(F5, mat, ns.T) % 5)


def _nullspace_two_eliminations(field, mat):
    """The kernel basis built from the RREF of ``mat`` itself, each vector
    with a 1 at its free column, then reduced again: a second elimination
    that ``linalg.nullspace`` does without."""
    n = mat.shape[1]
    r, pivots = linalg.rref(field, mat)
    free = [c for c in range(n) if c not in set(pivots)]
    basis = field.zeros((len(free), n))
    for k, c in enumerate(free):
        basis[k, c] = field.one
        for i, pc in enumerate(pivots):
            basis[k, pc] = -r[i, c]
    return linalg.row_space(field, field.reduce(basis))


NULLSPACE_FIELDS = [Field("Fp", 2), F3, F5, Field("Fp", 2**31 - 1), Q]


def _nullspace_case(field, data):
    """A matrix of 0-5 rows and 0-6 columns, wide or tall: random, all
    zero, or of full column rank (a unit-diagonal top block)."""
    m, n = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 6))
    scalars = st.one_of(st.just(0), st.just(1), st.integers(0, field.p - 1)) if field.modular else rationals
    rows = data.draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=m, max_size=m))
    mat = field.array(rows).reshape(m, n)
    kind = data.draw(st.sampled_from(["random", "zero", "full column rank"]))
    if kind == "zero":
        mat = field.zeros((m, n))
    elif kind == "full column rank":
        mat = np.vstack([field.eye(n), mat])
        for j in range(1, n):
            mat[j - 1, j] = data.draw(scalars)
    return mat


def _exact(arr):
    return arr.dtype, arr.shape, [[(type(x), x) for x in row] for row in arr.tolist()]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(NULLSPACE_FIELDS), st.data())
def test_nullspace_equals_the_two_elimination_oracle(field, data):
    mat = _nullspace_case(field, data)
    got = linalg.nullspace(field, mat)
    want = _nullspace_two_eliminations(field, mat)
    assert _exact(got) == _exact(want)
    if field.modular:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("field", NULLSPACE_FIELDS, ids=lambda f: f"Fp{f.p}" if f.modular else "Q")
@pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0), (2, 5), (5, 2), (4, 4)])
def test_nullspace_of_zero_and_identity_blocks(field, shape):
    """An all-zero matrix has the whole space as kernel, and a matrix with
    an identity block of full column rank has none."""
    m, n = shape
    zero = field.zeros((m, n))
    assert _exact(linalg.nullspace(field, zero)) == _exact(_nullspace_two_eliminations(field, zero))
    assert np.array_equal(linalg.nullspace(field, zero), field.eye(n))
    eye = np.vstack([field.eye(n), field.zeros((m, n))])
    assert _exact(linalg.nullspace(field, eye)) == _exact(_nullspace_two_eliminations(field, eye))
    assert linalg.nullspace(field, eye).shape == (0, n)


@settings(max_examples=40)
@given(matrices_f5, st.lists(st.integers(0, 4), min_size=1, max_size=5))
def test_solve_residual_zero(rows, xs):
    a = F5.array(rows)
    x = F5.vector((xs * 5)[: a.shape[1]])
    b = linalg.matmul(F5, a, x)
    sol = linalg.solve(F5, a, b)
    assert sol is not None
    assert np.array_equal(linalg.matmul(F5, a, sol), b)


def test_solve_inconsistent():
    a = F5.array([[1, 0], [1, 0]])
    assert linalg.solve(F5, a, F5.vector([1, 2])) is None


def intersection(u: Subspace, w: Subspace) -> Subspace:
    """U cap W: each row (a | b) of the nullspace of [U; W]^T gives
    a @ U = -b @ W."""
    if u.dim == 0 or w.dim == 0:
        return Subspace.zero(u.field, u.ambient)
    ns = linalg.nullspace(u.field, np.vstack([u.basis, w.basis]).T)
    if ns.shape[0] == 0:
        return Subspace.zero(u.field, u.ambient)
    return Subspace(u.field, u.ambient, linalg.matmul(u.field, ns[:, : u.dim], u.basis))


def test_subspace_dim_formula():
    # dim(U) + dim(W) = dim(U+W) + dim(U cap W)
    rng = np.random.default_rng(2)
    for _ in range(25):
        u = Subspace(F5, 5, rng.integers(0, 5, size=(2, 5), dtype=np.int64))
        w = Subspace(F5, 5, rng.integers(0, 5, size=(3, 5), dtype=np.int64))
        assert u.dim + w.dim == u.sum(w).dim + intersection(u, w).dim


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
