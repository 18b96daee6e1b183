from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from gglab import linalg
from gglab.algebra import center, commutant, is_unital_subalgebra
from gglab.fields import Field
from gglab.instances import load_builtin
from gglab.linalg import Subspace, all_subspaces
from gglab.separability import (
    SeparabilityCertificate,
    double_centralizer_check,
    enumerate_separable_subalgebras,
    is_separable_subalgebra_over,
    relative_tensor_dim,
    separability_idempotent,
    tensor_square,
    verify_certificate,
)
from gglab.suite import SuiteState

F3 = Field("Fp", 3)


def m2f3():
    return load_builtin("klein_m2f3").algebra


def test_tensor_square_dims():
    alg = m2f3()
    scalars = Subspace.span(F3, alg.unit)
    ts = tensor_square(alg, scalars)
    assert ts.dim == 16  # over the scalars nothing collapses
    full = alg.full_space
    ts_full = tensor_square(alg, full)
    assert ts_full.dim == 4  # R (x)_R R = R


def test_classical_certificate_for_m2():
    # z = E11 (x) E11 + E21 (x) E12 is the textbook element
    alg = m2f3()
    scalars = Subspace.span(F3, alg.unit)
    ts = tensor_square(alg, scalars)
    z = F3.zeros(16)
    z[0 * 4 + 0] = 1  # E11 (x) E11
    z[2 * 4 + 1] = 1  # E21 (x) E12
    cert = SeparabilityCertificate(ts, z)
    assert verify_certificate(cert)


def test_solver_agrees_with_classical_verdict():
    alg = m2f3()
    scalars = Subspace.span(F3, alg.unit)
    cert = separability_idempotent(alg, scalars)
    assert cert is not None and verify_certificate(cert)


def test_non_separable_subalgebra_detected():
    # upper triangular matrices are not separable over F3 (nonzero radical)
    alg = m2f3()
    upper = Subspace(F3, 4, F3.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]))
    assert is_unital_subalgebra(alg, upper)
    assert not is_separable_subalgebra_over(alg, upper, Subspace.span(F3, alg.unit))


def test_azumaya_builtins():
    for name, expect in [("klein_m2f3", True), ("pair_f5", True), ("klein_disjoint2", True)]:
        inst = load_builtin(name)
        cert = separability_idempotent(inst.algebra, center(inst.algebra))
        assert (cert is not None) is expect
        if cert:
            assert verify_certificate(cert)


def test_central_galois_flags():
    for name, expect in [
        ("trivial", True),
        ("pair_f5", False),
        ("klein_m2f3", True),
        ("klein_disjoint2", True),
        ("cyclic_shift_c3", False),
    ]:
        assert SuiteState(load_builtin(name)).central is expect, name


# -- independent semisimplicity oracle (F3 is perfect, so separable == semisimple)


def _mult_closed(alg, basis):
    s = Subspace(alg.field, alg.dim, basis)
    for x in basis:
        for y in basis:
            if not s.contains(alg.mul(x, y)):
                return False
    return True


def _is_nilpotent_space(alg, space):
    cur = space
    for _ in range(alg.dim + 1):
        if cur.dim == 0:
            return True
        rows = [alg.mul(x, y) for x in space.basis for y in cur.basis]
        cur = Subspace(alg.field, alg.dim, np.vstack(rows))
    return cur.dim == 0


def _semisimple(alg, sub):
    """No nonzero nilpotent two-sided ideal inside the subalgebra."""
    k = sub.dim
    for coeffs in product(range(3), repeat=k):
        if not any(coeffs):
            continue
        x = F3.reduce(np.dot(F3.vector(list(coeffs)), sub.basis))
        gen = Subspace.span(F3, x)
        ideal = gen
        while True:
            grown = _ideal_products_within(alg, sub, ideal)
            if grown.dim == ideal.dim:
                break
            ideal = grown
        if _is_nilpotent_space(alg, ideal):
            return False
    return True


def _ideal_products_within(alg, sub, ideal):
    rows = [ideal.basis]
    for a in sub.basis:
        for x in ideal.basis:
            rows.append(np.vstack([alg.mul(a, x), alg.mul(x, a)]))
    return Subspace(alg.field, alg.dim, np.vstack(rows))


def test_enumeration_matches_semisimplicity_oracle():
    alg = m2f3()
    scalars = Subspace.span(F3, alg.unit)
    enum = enumerate_separable_subalgebras(alg, scalars)
    assert enum.exhaustive

    oracle = []
    for mat in all_subspaces(F3, 4):
        s = Subspace(F3, 4, mat)
        if not s.contains(alg.unit):
            continue
        if not _mult_closed(alg, s.basis):
            continue
        if _semisimple(alg, s):
            oracle.append(s.key())
    assert sorted(oracle) == sorted(s.key() for s in enum.subalgebras)
    assert len(enum.subalgebras) == 11


def test_double_centralizer_m2():
    alg = m2f3()
    c = center(alg)
    diag = Subspace(F3, 4, F3.array([[1, 0, 0, 0], [0, 0, 0, 1]]))
    res = double_centralizer_check(alg, diag, c)
    assert res.double_centralizer_holds
    assert res.commutant_separable
    assert res.tensor_clause == "skipped (A not central)"  # diag is commutative, not central
    res_full = double_centralizer_check(alg, alg.full_space, c)
    assert res_full.double_centralizer_holds
    assert res_full.tensor_clause == "holds"


def test_relative_tensor_dim_product_center():
    # A = M2 + F3, V(A) = F3 + M2 over S = F3 x F3: dim A (x)_S V(A) = 8
    inst = load_builtin("klein_disjoint2")
    alg = inst.algebra
    c = center(alg)
    a = Subspace(inst.field, 8, np.vstack([inst.field.eye(8)[:4], c.basis]))
    va = commutant(alg, a, alg.full_space)
    assert a.dim == 5 and va.dim == 5
    assert relative_tensor_dim(alg, a, va, c) == 8


def test_rational_separability():
    Q = Field("Q")
    from gglab.algebra import validate_algebra

    # Q[x]/(x^2 - 2): separable field extension
    table = Q.zeros((2, 2, 2))
    table[0, 0, 0] = 1
    table[0, 1, 1] = 1
    table[1, 0, 1] = 1
    table[1, 1, 0] = 2
    alg = validate_algebra(Q, ["1", "x"], table, Q.vector([1, 0]))
    assert separability_idempotent(alg, Subspace.span(Q, alg.unit)) is not None
    # Q[x]/(x^2): not semisimple, not separable
    table2 = table.copy()
    table2[1, 1, 0] = 0
    alg2 = validate_algebra(Q, ["1", "x"], table2, Q.vector([1, 0]))
    assert separability_idempotent(alg2, Subspace.span(Q, alg2.unit)) is None


def test_rational_enumeration_orders_keys_mixing_ints_and_fractions():
    # Q x Q on the basis e1, 2 e2: the unit is b0 + 1/2 b1, so the keys of
    # Q.1 and of the whole algebra hold "1/2" and 0 at the same place
    Q = Field("Q")
    from gglab.algebra import validate_algebra

    table = Q.zeros((2, 2, 2))
    table[0, 0, 0] = 1
    table[1, 1, 1] = 2
    alg = validate_algebra(Q, ["e1", "2e2"], table, Q.vector([1, Fraction(1, 2)]))
    scalars = Subspace.span(Q, alg.unit)
    enum = enumerate_separable_subalgebras(alg, scalars, [scalars, alg.full_space])
    assert [s.key() for s in enum.subalgebras] == [((1, 0), (0, 1)), ((1, "1/2"),)]


def intersection(u: Subspace, w: Subspace) -> Subspace:
    """U cap W: each row (a | b) of the nullspace of [U; W]^T gives
    a @ U = -b @ W."""
    if u.dim == 0 or w.dim == 0:
        return Subspace.zero(u.field, u.ambient)
    ns = linalg.nullspace(u.field, np.vstack([u.basis, w.basis]).T)
    if ns.shape[0] == 0:
        return Subspace.zero(u.field, u.ambient)
    return Subspace(u.field, u.ambient, linalg.matmul(u.field, ns[:, : u.dim], u.basis))


def test_centrality_clause_matches_the_intersection():
    """The tensor clause runs exactly when A cap V(A) is the base, also for
    a base that is not the center: a torus, and the non-unital span{E11}."""
    alg = m2f3()
    e11 = F3.array([[1, 0, 0, 0]])
    bases = [center(alg), Subspace(F3, 4, F3.array([[1, 0, 0, 0], [0, 0, 0, 1]])), Subspace(F3, 4, e11)]
    subalgebras = [s for s in (Subspace(F3, 4, m) for m in all_subspaces(F3, 4)) if is_unital_subalgebra(alg, s)]
    seen = set()
    for a, base in product(subalgebras, bases):
        central = intersection(a, commutant(alg, a, alg.full_space)) == base
        res = double_centralizer_check(alg, a, base)
        assert (res.tensor_clause != "skipped (A not central)") == central, (a.to_json(), base.to_json())
        seen.add((central, a.contains_space(base)))
    # central pairs, and non-central ones with the base inside A and outside it
    assert seen == {(True, True), (False, True), (False, False)}
