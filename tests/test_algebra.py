import re

import numpy as np
import pytest

from gglab import linalg
from gglab.algebra import (
    AlgebraError,
    center,
    commutant,
    is_unital_subalgebra,
    subalgebra_generated,
    subspace_algebra,
    validate_algebra,
)
from gglab.fields import Field
from gglab.instances import load_builtin
from gglab.linalg import Subspace

F3 = Field("Fp", 3)


def m2f3():
    return load_builtin("klein_m2f3").algebra


def as_matrix(v):
    # basis order: E11, E12, E21, E22
    return np.array([[v[0], v[1]], [v[2], v[3]]], dtype=np.int64)


def test_mul_matches_matrix_product():
    alg = m2f3()
    rng = np.random.default_rng(3)
    for _ in range(40):
        x = rng.integers(0, 3, size=4, dtype=np.int64)
        y = rng.integers(0, 3, size=4, dtype=np.int64)
        prod = alg.mul(x, y)
        assert np.array_equal(as_matrix(prod), (as_matrix(x) @ as_matrix(y)) % 3)


def test_left_right_mult_agree_with_mul():
    alg = m2f3()
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.integers(0, 3, size=4, dtype=np.int64)
        y = rng.integers(0, 3, size=4, dtype=np.int64)
        assert np.array_equal(linalg.matmul(F3, alg.left_mult(x), y), alg.mul(x, y))
        assert np.array_equal(linalg.matmul(F3, alg.right_mult(y), x), alg.mul(x, y))


def test_unit_is_identity_matrix():
    alg = m2f3()
    assert np.array_equal(as_matrix(alg.unit), np.eye(2, dtype=np.int64))


def test_center_of_m2_is_scalars():
    alg = m2f3()
    c = center(alg)
    assert c.dim == 1
    assert np.array_equal(c.basis[0], alg.unit)


def test_validate_rejects_non_associative():
    alg = m2f3()
    table = alg.table.copy()
    table[1, 2, 0] = (table[1, 2, 0] + 1) % 3  # corrupt E12*E21
    with pytest.raises(AlgebraError, match="associat"):
        validate_algebra(F3, alg.labels, table, alg.unit)


def test_validate_rejects_the_zero_algebra():
    # with no basis 1 = 0: the zero ring is refused before any other check
    with pytest.raises(AlgebraError, match=r"^algebra\.basis is empty: "):
        validate_algebra(F3, [], F3.zeros((0, 0, 0)), F3.zeros(0))


def test_validate_rejects_bad_unit():
    alg = m2f3()
    bad_unit = alg.unit.copy()
    bad_unit[1] = 1
    with pytest.raises(AlgebraError):
        validate_algebra(F3, alg.labels, alg.table, bad_unit)


@pytest.mark.parametrize(
    "left_unit, message",
    [(False, r"^unit law fails: 1\*f != f$"), (True, r"^unit law fails: f\*1 != f$")],
)
def test_validate_names_first_unit_law_failure(left_unit, message):
    # e = E11 and f = E12 (or E21) in M_2: e is a one-sided unit only, and
    # the unit laws hold on e itself, so f is the first failing label
    table = F3.zeros((2, 2, 2))
    table[0, 0, 0] = 1
    if left_unit:
        table[0, 1, 1] = 1  # e*f = f, f*e = 0
    else:
        table[1, 0, 1] = 1  # f*e = f, e*f = 0
    with pytest.raises(AlgebraError, match=message):
        validate_algebra(F3, ["e", "f"], table, F3.vector([1, 0]))


def test_commutant_of_diagonal():
    alg = m2f3()
    diag = Subspace(F3, 4, F3.array([[1, 0, 0, 0], [0, 0, 0, 1]]))
    v = commutant(alg, diag, alg.full_space)
    assert v == diag  # diagonal matrices are their own commutant in M2


def test_commutant_within_sub():
    alg = m2f3()
    diag = Subspace(F3, 4, F3.array([[1, 0, 0, 0], [0, 0, 0, 1]]))
    upper = Subspace(F3, 4, F3.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]))
    v = commutant(alg, upper, diag)
    assert v.dim == 1  # only scalars in the diagonal commute with all upper triangulars
    # scalar check: basis vector is a multiple of the identity
    b = v.basis[0]
    assert b[0] == b[3] and b[1] == 0 and b[2] == 0


def test_subalgebra_generated_idempotent_matrix():
    alg = m2f3()
    p = F3.vector([0, 1, 0, 1])  # P = [[0,1],[0,1]], P^2 = P
    s = subalgebra_generated(alg, [p])
    assert s.dim == 2
    assert is_unital_subalgebra(alg, s)


def test_subalgebra_generated_f9():
    alg = m2f3()
    # x = [[0,1],[2,0]] has x^2 = 2*I (non-square in F3), so generates F9
    x = F3.vector([0, 1, 2, 0])
    s = subalgebra_generated(alg, [x])
    assert s.dim == 2
    sq = alg.mul(x, x)
    assert np.array_equal(sq, F3.reduce(2 * alg.unit))


def test_subspace_algebra_roundtrip():
    alg = load_builtin("klein_disjoint2").algebra
    unit1 = F3.zeros(8)
    unit1[0] = unit1[3] = 1  # identity of the first block
    block = Subspace(F3, 8, F3.eye(8)[:4])
    small = subspace_algebra(alg, block, unit1)
    embed = block.basis
    assert small.dim == 4
    # products in the small algebra match ambient products through the embedding
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.integers(0, 3, size=4, dtype=np.int64)
        b = rng.integers(0, 3, size=4, dtype=np.int64)
        inside = linalg.matmul(F3, np.vstack([small.mul(a, b)]), embed)[0]
        outside = alg.mul(linalg.matmul(F3, a, embed), linalg.matmul(F3, b, embed))
        assert np.array_equal(inside, outside)


def test_subspace_algebra_refuses_a_false_unit():
    # span{E11, E12} is closed and E11 is a left unit of it, but E12*E11 = 0
    alg = m2f3()
    e11, e12 = alg.basis_vector(0), alg.basis_vector(1)
    with pytest.raises(AlgebraError, match=re.escape("unit law fails: s1*1 != s1")):
        subspace_algebra(alg, Subspace.span(F3, np.vstack([e11, e12])), e11)


def test_rational_algebra_validates():
    Q = Field("Q")
    # 2-dim algebra Q[x]/(x^2 - 1/4)
    table = Q.zeros((2, 2, 2))
    table[0, 0, 0] = 1
    table[0, 1, 1] = 1
    table[1, 0, 1] = 1
    table[1, 1, 0] = Q.parse_scalar("1/4")
    alg = validate_algebra(Q, ["1", "x"], table, Q.vector([1, 0]))
    c = center(alg)
    assert c.dim == 2
