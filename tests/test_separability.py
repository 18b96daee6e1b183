import json
import runpy
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gglab import _purerref, linalg, separability
from gglab.algebra import (
    center,
    commutant,
    is_unital_subalgebra,
    subalgebra_generated,
    subspace_algebra,
    validate_algebra,
)
from gglab.fields import Field
from gglab.instances import clock_shift, load_builtin, load_instance_dict
from gglab.linalg import Subspace
from gglab.separability import (
    SeparabilityCertificate,
    SubalgebraFacts,
    double_centralizer_check,
    enumerate_separable_subalgebras,
    is_separable_subalgebra_over,
    relative_tensor_dim,
    separability_idempotent,
    tensor_square,
    verify_certificate,
)
from gglab.suite import CHECKS, SuiteState, _pool, run_suite
from test_batched import block_table, change_basis
from test_linalg import all_subspaces

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
    enum = enumerate_separable_subalgebras(alg, scalars, lambda: [scalars, alg.full_space])
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


# -- the stacked exhaustive walk against the per-candidate walk

WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
WALK_DOCUMENTS = {
    **{f"klein_m2f{p}": WORKLOADS["klein_m2"](p) for p in (3, 5, 7)},
    **{name: json.loads(WORKLOADS["documents"]("objects")[name]) for name in ("pair_f5x2", "cyclic_shift_c3x2")},
}


def per_candidate_walk(alg, base):
    """One Subspace, one unital-subalgebra test and one tensor-square solve
    per candidate: the separable subalgebras in key order and every
    unital candidate's verdict."""
    f, n = alg.field, alg.dim
    comp = [c for c in range(n) if c not in base.pivots]
    verdicts, found = {}, {}
    for quot in all_subspaces(f, len(comp)):
        lift = f.zeros((quot.shape[0], n))
        lift[:, comp] = quot
        cand = Subspace(f, n, np.vstack([base.basis, lift]))
        if is_unital_subalgebra(alg, cand):
            verdicts[cand.key(), base.key()] = solved_verdict(alg, cand, base)
            if verdicts[cand.key(), base.key()]:
                found[cand.key()] = cand
    return [found[k] for k in sorted(found)], verdicts


def assert_walks_agree(alg, base):
    want, verdicts = per_candidate_walk(alg, base)
    facts = SubalgebraFacts(alg)
    enum = enumerate_separable_subalgebras(alg, base, facts=facts)
    assert enum.exhaustive
    assert [s.key() for s in enum.subalgebras] == [s.key() for s in want]
    for got, ref in zip(enum.subalgebras, want):
        assert got == ref and got.pivots == ref.pivots
    assert facts.separable == verdicts


def walk_base(alg, kind, x):
    """The center, the scalars, the unital subalgebra F[x] (not separable
    over F when x has a nilpotent part, so the balancing relations decide
    verdicts), or the non-unital span of x (so the unit test decides)."""
    if kind == "center":
        return center(alg)
    if kind == "scalars":
        return Subspace.span(alg.field, alg.unit)
    if kind == "generated":
        return subalgebra_generated(alg, [x])
    return Subspace.span(alg.field, x)


BASE_KINDS = ["center", "scalars", "generated", "span"]


@pytest.mark.parametrize("base_kind", BASE_KINDS)
@pytest.mark.parametrize("name", sorted(WALK_DOCUMENTS))
def test_stacked_walk_equals_per_candidate_walk(name, base_kind):
    alg = load_instance_dict(WALK_DOCUMENTS[name]).algebra
    # on the klein documents b1 = E12, so F[b1] = F[t]/(t^2)
    assert_walks_agree(alg, walk_base(alg, base_kind, alg.basis_vector(1)))


@pytest.mark.parametrize("p", [3, 5])
def test_stacked_walk_on_random_block_sums(p):
    field = Field("Fp", p)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def run(data):
        sizes = data.draw(st.sampled_from([[2], [2, 1], [2, 1, 1], [1, 1, 1], [1, 1, 1, 1]]))
        table, unit = block_table(field, sizes)
        n = len(unit)
        assume(p == 3 or n <= 5)  # F_5^5 has 42176 subspaces; the oracle takes them one by one
        basis = field.array(data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=n, max_size=n)))
        assume(linalg.rank(field, basis) == n)
        table, unit = change_basis(field, table, unit, basis)
        alg = validate_algebra(field, [f"b{i}" for i in range(n)], table, unit)
        x = field.vector(data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
        assume(x.any())
        assert_walks_agree(alg, walk_base(alg, data.draw(st.sampled_from(BASE_KINDS)), x))

    run()


def test_walk_on_klein_m2f17_solves_one_stack_per_dimension(monkeypatch, count_calls):
    """The unital subalgebras of M_2(F_17) over its center, C, the 289
    tori, the 18 F[N] with N nilpotent, the 18 Borel subalgebras and R,
    are decided in one stack per dimension; R over C, which the Azumaya
    flag records, is not decided again.  The center F_17 passes the base
    test, and every member has dimension at most 3 < 17^2, so each stack
    is decided by its trace forms alone, with no tensor-square solve."""
    ranked = []
    real = separability._gram_verdicts

    def counted(field, tables):
        ranked.append((tables.shape[1], len(tables)))
        return real(field, tables)

    monkeypatch.setattr(separability, "_gram_verdicts", counted)
    solves = count_calls(separability_idempotent)
    state = SuiteState(load_instance_dict(WORKLOADS["klein_m2"](17)))
    assert state.azu
    enum = state.center_enum
    ckey = state.ctx.center.key()
    verdicts = [v for (_, base), v in state.facts.separable.items() if base == ckey]
    assert len(verdicts) == 327 and verdicts.count(True) == len(enum.subalgebras) == 291
    # the first is ``_gram_base``'s test of the center itself
    assert ranked == [(1, 1), (1, 1), (2, 289 + 18), (3, 18)]
    assert solves == []


# -- the trace-form (Gram) verdicts against the tensor-square solve


def block_algebra(field, sizes, basis=None):
    """M_k1 + M_k2 + ... on matrix units, or on the basis given by the
    rows of ``basis``."""
    table, unit = block_table(field, sizes)
    if basis is not None:
        table, unit = change_basis(field, table, unit, basis)
    return validate_algebra(field, [f"b{i}" for i in range(len(unit))], table, unit)


def solved_verdict(alg, s, base):
    """S separable over the base by ``separability_idempotent`` alone."""
    small = subspace_algebra(alg, s, alg.unit)
    return separability_idempotent(small, Subspace(alg.field, s.dim, s.coords_rows(base.basis))) is not None


@pytest.mark.parametrize("field", [Field("Fp", p) for p in (2, 3, 5, 7)] + [Field("Q")], ids=["F2", "F3", "F5", "F7", "Q"])
def test_gram_verdicts_equal_the_solve(field, monkeypatch):
    """``is_separable_subalgebra_over`` decides as ``separability_idempotent``
    on random unital subalgebras S >= B of random block sums of dimension
    at most 6 (5 over Q), over F_p for p in {2, 3, 5, 7} and over Q, for
    a base B of every kind, and on R itself.  The trace form leaves a
    member undecided only where p^2 <= dim S, so only over F_2, where
    M_2(F_2) has a zero trace form, do some draws reach the solve: R does
    over its center whenever it has an M_2 block."""
    real, fallbacks = separability._gram_verdicts, []

    def counted(f, tables):
        separable, decided = real(f, tables)
        fallbacks.extend(tables.shape[1] for _ in np.flatnonzero(~decided))
        return separable, decided

    monkeypatch.setattr(separability, "_gram_verdicts", counted)
    scalars = st.integers(0, field.p - 1) if field.modular else st.integers(-2, 2)
    # over Q the oracle's solve runs on Fractions: M_2 + Q + Q, whose
    # tensor square has dimension 36, can take seconds per draw
    shapes = [[2], [2, 1], [1, 2], [1, 1], [1, 1, 1]] + ([[2, 1, 1]] if field.modular else [])

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.data())
    def run(data):
        sizes = data.draw(st.sampled_from(shapes))
        n = sum(k * k for k in sizes)
        basis = None
        if data.draw(st.booleans()):  # a random basis
            basis = field.array(data.draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n)))
            assume(linalg.rank(field, basis) == n)
        alg = block_algebra(field, sizes, basis)
        vectors = st.one_of(st.lists(scalars, min_size=n, max_size=n).map(field.vector), st.integers(0, n - 1).map(alg.basis_vector))
        x = data.draw(vectors)
        assume(x.any())
        gens = data.draw(st.lists(vectors, max_size=3))
        for kind in BASE_KINDS:
            base = walk_base(alg, kind, x)
            for s in (subalgebra_generated(alg, list(base.basis) + gens), alg.full_space):
                assert is_separable_subalgebra_over(alg, s, base) == solved_verdict(alg, s, base), (kind, s.to_json())

    run()
    assert bool(fallbacks) == (field.p == 2) and set(fallbacks) <= {4, 5, 6}


def test_a_zero_trace_form_is_decided_by_the_solve(count_calls):
    """Separable algebras whose trace form vanishes on a factor M_p(F_p),
    so that dim S >= p^2 and the rank cannot decide: M_3(F_3) over its
    scalars (its whole trace form is 0), M_3(F_3) x F_3 inside M_4(F_3),
    and M_2(F_2).  Each reaches the solve once and is found separable."""
    solves = count_calls(separability_idempotent)
    f2, f3 = Field("Fp", 2), Field("Fp", 3)
    m3, m4, m2 = block_algebra(f3, [3]), block_algebra(f3, [4]), block_algebra(f2, [2])
    # E_ij of the top-left 3 x 3 corner and E_33, in M_4's row-major basis
    m3_f3 = Subspace(f3, 16, f3.eye(16)[[4 * i + j for i in range(3) for j in range(3)] + [15]])
    for alg, s in [(m3, m3.full_space), (m4, m3_f3), (m2, m2.full_space)]:
        scalars = Subspace.span(alg.field, alg.unit)
        small = subspace_algebra(alg, s, alg.unit)
        separable, decided = separability._gram_verdicts(alg.field, small.table[None])
        assert not separable[0] and not decided[0]
        assert is_separable_subalgebra_over(alg, s, scalars)
    assert len(solves) == 3
    # the walk of M_2(F_2) over F_2 solves R alone: its other unital
    # subalgebras are commutative or of dimension 3 < 2^2
    solves.clear()
    found = enumerate_separable_subalgebras(m2, Subspace.span(f2, m2.unit)).subalgebras
    assert [args[0].dim for args in solves] == [4] and m2.full_space in found


def test_a_commutative_radical_is_refuted_without_a_solve(monkeypatch):
    """F_5[t]/(t^2) has the degenerate trace form [[2, 0], [0, 0]]; it is
    commutative (and 2 < 5^2), so the rank refutes it, alone and in the
    walk, and nothing is solved."""
    f5 = Field("Fp", 5)
    table = f5.zeros((2, 2, 2))
    table[0, 0, 0] = table[0, 1, 1] = table[1, 0, 1] = 1
    alg = validate_algebra(f5, ["1", "t"], table, f5.vector([1, 0]))
    monkeypatch.setattr(separability, "separability_idempotent", None)
    scalars = Subspace.span(f5, alg.unit)
    assert not is_separable_subalgebra_over(alg, alg.full_space, scalars)
    assert enumerate_separable_subalgebras(alg, scalars).subalgebras == [scalars]


def test_full_base_is_decided_before_the_walk(monkeypatch):
    """Over F_p with base R the only candidate is R, read from the facts
    without a walk; the label stays the path's."""
    alg = m2f3()

    def walk(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(separability, "_walk", walk)
    facts = SubalgebraFacts(alg)
    enum = enumerate_separable_subalgebras(alg, alg.full_space, facts=facts)
    assert [s.key() for s in enum.subalgebras] == [alg.full_space.key()]
    assert enum.exhaustive
    assert facts.separable == {(alg.full_space.key(), alg.full_space.key()): True}


def test_a_tampered_solution_is_an_internal_error(monkeypatch):
    """Every solution of the tensor-square system is shifted by one, so
    each is wrong; the substitution check refuses it and the walk stops
    instead of recording a verdict.  The walk of M_2(F_3) over
    F[t]/(t^2), t = E12, reaches the solve, since that base is not
    separable over F_3; S = F[t] itself is separable over it, so one
    system is consistent."""
    alg = m2f3()
    base = walk_base(alg, "generated", alg.basis_vector(1))
    assert not separability._gram_base(alg, base)
    real = linalg.solve

    def shifted(field, a, b):
        sol = real(field, a, b)
        return None if sol is None else field.reduce(sol + 1)

    monkeypatch.setattr(linalg, "solve", shifted)
    with pytest.raises(RuntimeError, match="internal: separability solution failed substitution"):
        enumerate_separable_subalgebras(alg, base)


# -- the stacked Theorem 3.9 sweep against the per-S path


def spans_of(field, rows_list, where):
    """The subspaces spanned by coefficient rows over the basis of ``where``."""
    return [Subspace(field, where.ambient, field.reduce(field.array(rows) @ where.basis)) for rows in rows_list]


def assert_stacked_commutants_agree(alg, spaces):
    """``_self_commutants`` on each dimension's stack settles exactly the
    spaces S whose ``commutant`` is S."""
    by_dim = {}
    for s in spaces:
        by_dim.setdefault(s.dim, []).append(s)
    for group in by_dim.values():
        got = separability._self_commutants(alg, group)
        assert got == [commutant(alg, s, alg.full_space) == s for s in group], [s.to_json() for s in group]


def test_stacked_commutant_equals_commutant():
    # over F_2^31-1 the loader admits only algebras with n^2 (p-1)^2 < 2^63,
    # that is n = 1: past that bound int64 products wrap
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def run(data):
        p = data.draw(st.sampled_from([2, 3, 5, 2**31 - 1]))
        field = Field("Fp", p)
        choices = [[1]] if p == 2**31 - 1 else [[2], [1], [1, 1], [1, 1, 1], [1, 1, 1, 1], [2, 1], [1, 2], [2, 1, 1]]
        table, unit = block_table(field, data.draw(st.sampled_from(choices)))
        n = len(unit)
        if data.draw(st.booleans()):  # a random basis
            basis = field.array(data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=n, max_size=n)))
            assume(linalg.rank(field, basis) == n)
            table, unit = change_basis(field, table, unit, basis)
        alg = validate_algebra(field, [f"b{i}" for i in range(n)], table, unit)
        # inside the center V(S) = R, and the commutator matrices have no pivot
        where = center(alg) if data.draw(st.booleans()) else alg.full_space
        d = where.dim
        rows = st.lists(st.lists(st.integers(0, p - 1), min_size=d, max_size=d), min_size=1, max_size=d)
        assert_stacked_commutants_agree(alg, spans_of(field, data.draw(st.lists(rows, min_size=1, max_size=6)), where))

    run()


def test_stacked_commutant_with_several_pivot_masks():
    # every subspace of M_2(F_3) of each dimension in one stack: V(S) of a
    # 2-dimensional S is 1- or 2-dimensional, so its stack holds matrices
    # of two ranks, and only some S with V(S) >= S are V(S) = S
    alg = m2f3()
    spaces = [Subspace(F3, 4, m) for m in all_subspaces(F3, 4)]
    assert {commutant(alg, s, alg.full_space).dim for s in spaces if s.dim == 2} == {1, 2}
    settled = [s for s in spaces if commutant(alg, s, alg.full_space) == s]
    assert settled and len(settled) < sum(commutant(alg, s, alg.full_space).contains_space(s) for s in spaces)
    assert_stacked_commutants_agree(alg, spaces)


SWEEP_DOCUMENTS = {
    **{f"klein_m2f{p}": WORKLOADS["klein_m2"](p) for p in (3, 5, 7, 11, 17)},
    "klein_disjoint2": json.loads(WORKLOADS["documents"]("builtins")["klein_disjoint2"]),
    **{name: json.loads(WORKLOADS["documents"]("objects")[name]) for name in ("pair_f5x2", "cyclic_shift_c3x3")},
    "pair_qx2": json.loads(WORKLOADS["documents"]("rational")["pair_qx2"]),  # Q: always the per-S path
    # 75 members whose commutant is larger than themselves
    "klein_m2f3x3": WORKLOADS["disjoint_union"]([WORKLOADS["klein_m2"](3)] * 3, "klein_m2f3x3"),
}


def failing(rows):
    """The rows of ``double_centralizer_check`` that fail a clause."""
    return [r for r in rows if not (r.double_centralizer_holds and r.commutant_separable and r.tensor_clause != "fails")]


@pytest.mark.parametrize("name", sorted(SWEEP_DOCUMENTS))
def test_sweep_equals_per_subalgebra_checks(name):
    """The sweep's failures, field by field, equal the failing rows of one
    ``double_centralizer_check`` per member, and the commutants and
    verdicts it leaves in the facts equal those the checks leave, but for
    V(C) = R, which the endpoint proof does not form.  Over F_p every
    dimension is stacked; ``pair_qx2`` takes the per-member path over Q."""
    assert_sweep_equals_per_subalgebra_checks(name)


@pytest.mark.parametrize("name", sorted(SWEEP_DOCUMENTS))
def test_sweep_one_member_per_slice_equals_per_subalgebra_checks(name, monkeypatch):
    """The same with a stack budget so small that every stacked step, at
    load, in the walk and in the sweep, takes one item at a time."""
    real, sizes = _purerref.stacked, []

    def counted(count, cells, step_fn):
        def step(s):
            sizes.append(len(range(count)[s]))
            return step_fn(s)

        return real(count, cells, step)

    monkeypatch.setattr(_purerref, "STACK_CELLS", 1)
    monkeypatch.setattr(_purerref, "stacked", counted)
    assert_sweep_equals_per_subalgebra_checks(name)
    assert set(sizes) == {1}


def assert_sweep_equals_per_subalgebra_checks(name):
    state = SuiteState(load_instance_dict(SWEEP_DOCUMENTS[name]))
    alg, c, subs = state.inst.algebra, state.ctx.center, state.center_enum.subalgebras
    per_s = SubalgebraFacts(alg)
    per_s.separable.update(state.facts.separable)
    want = failing([double_centralizer_check(alg, s, c, per_s) for s in subs])
    got = separability.double_centralizer_sweep(alg, subs, c, state.facts)
    assert got == want
    # the suite's facts hold V(R) = C and R separable over C, so the
    # sweep passes C and R by the endpoint proof and never forms V(C) = R
    full = alg.full_space
    assert state.facts.commutants[full.key()] == c and state.facts.separable[full.key(), c.key()]
    unformed = {} if c == full else {c.key(): full}
    assert unformed.keys().isdisjoint(state.facts.commutants)
    assert {**state.facts.commutants, **unformed} == per_s.commutants
    assert state.facts.separable == per_s.separable


@pytest.mark.parametrize("p", [5, 11, 17])
def test_the_stack_settles_every_torus_as_its_own_commutant(p, monkeypatch):
    """The p^2 tori of M_2(F_p) (289 at p = 17) are their own commutants.
    The walk stacks nothing; the suite's check sweeps all p^2 + 2 members
    with one stack, the tori's, which settles every torus and caches it
    as its own commutant, and no per-member check: F_p and M_2(F_p) pass
    by the endpoint proof and are not stacked."""
    state = SuiteState(load_instance_dict(SWEEP_DOCUMENTS[f"klein_m2f{p}"]))
    alg, c = state.inst.algebra, state.ctx.center
    real, stacks = separability._self_commutants, []

    def counted(alg, spaces):
        settled = real(alg, spaces)
        stacks.append((len(spaces), sum(settled)))
        return settled

    monkeypatch.setattr(separability, "_self_commutants", counted)
    subs = state.center_enum.subalgebras
    tori = [s for s in subs if s.dim == 2]
    assert len(tori) == p * p and len(subs) == p * p + 2 and state.azu
    assert stacks == []
    checks = []
    monkeypatch.setattr(separability, "double_centralizer_check", lambda *args: checks.append(args))
    out = CHECKS["theorem_3_9"](state)
    assert out.verdict == "pass" and out.witnesses == {"swept": p * p + 2, "mode": "exhaustive"}
    assert stacks == [(p * p, p * p)] and checks == []
    assert all(state.facts.commutants[s.key()] is s for s in tori)
    monkeypatch.undo()
    assert separability.double_centralizer_sweep(alg, subs, c, state.facts) == failing(
        [double_centralizer_check(alg, s, c) for s in subs]
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS["documents"]("klein_p")))
def test_no_klein_p_document_checks_a_member_one_at_a_time(name, count_calls):
    """In a whole suite on each ``klein_p`` document, every Theorem 3.9
    member passes without ``double_centralizer_check``: the tori as their
    own commutants, F_p and M_2(F_p) by the endpoint proof."""
    checks = count_calls(double_centralizer_check)
    report = run_suite(load_instance_dict(json.loads(WORKLOADS["documents"]("klein_p")[name])), scope="all")
    assert report.violations == [] and checks == []


def test_endpoints_pass_unchecked_only_where_the_facts_prove_them(monkeypatch):
    """The two endpoints, C and R, pass without ``double_centralizer_check``
    only where the facts hold both V(R) = C, by key, and R separable over
    C.  Lacking either, or over a base that is not V(R) (the bases of
    ``test_stacked_sweep_over_any_base_and_list``), they are checked like
    any member, and the failures equal the failing per-member rows."""
    alg = m2f3()
    c, full = center(alg), alg.full_space
    unital = [s for s in (Subspace(F3, 4, m) for m in all_subspaces(F3, 4)) if is_unital_subalgebra(alg, s)]
    checked = []

    def counted(alg, a, base, facts=None):
        checked.append(a.key())
        return double_centralizer_check(alg, a, base, facts)

    monkeypatch.setattr(separability, "double_centralizer_check", counted)
    bases = [c, Subspace(F3, 4, F3.array([[1, 0, 0, 0], [0, 0, 0, 1]])), Subspace(F3, 4, F3.array([[1, 0, 0, 0]]))]
    for base in bases:
        for seed_center, seed_verdict in product([False, True], repeat=2):
            facts = SubalgebraFacts(alg)
            if seed_center:
                facts.commutants[full.key()] = c
            if seed_verdict:  # True over the center
                facts.separable[full.key(), base.key()] = SubalgebraFacts(alg).separable_over(full, base)
            want = failing([double_centralizer_check(alg, a, base) for a in unital])
            del checked[:]
            assert separability.double_centralizer_sweep(alg, unital, base, facts) == want
            ends = [a.key() for a in unital if a in (base, full)]  # the last base is not unital
            proved = seed_center and seed_verdict and base == c
            assert [key for key in checked if key in ends] == ([] if proved else ends)


def test_stacked_sweep_over_any_base_and_list(monkeypatch):
    """Every dimension stacked, on the unital subalgebras of M_2(F_3) over
    the bases of ``test_centrality_clause_matches_the_intersection`` (so
    the base is outside some A), as one list and one member at a time (so
    V(A) is outside the list): the failures equal the failing per-S rows,
    and the commutants computed one at a time are those of the members the
    stack does not settle as their own commutants, and the V(V(A)) whose
    V(A) is not a member, once per distinct space.  Over the center, 8 of
    the 19 unital subalgebras fail."""
    alg = m2f3()
    bases = [center(alg), Subspace(F3, 4, F3.array([[1, 0, 0, 0], [0, 0, 0, 1]])), Subspace(F3, 4, F3.array([[1, 0, 0, 0]]))]
    subalgebras = [s for s in (Subspace(F3, 4, m) for m in all_subspaces(F3, 4)) if is_unital_subalgebra(alg, s)]
    calls = []

    def counted(*args):
        calls.append(args)
        return commutant(*args)

    monkeypatch.setattr(separability, "commutant", counted)
    for base in bases:
        for members in [subalgebras] + [[a] for a in subalgebras]:
            want = failing([double_centralizer_check(alg, a, base) for a in members])
            comm = {a.key(): commutant(alg, a, alg.full_space).key() for a in members}
            settled = {key for key, v in comm.items() if key == v}
            before = len(calls)
            assert separability.double_centralizer_sweep(alg, members, base, SubalgebraFacts(alg)) == want
            assert len(calls) - before == len((set(comm) | set(comm.values())) - settled)
    whole = failing([double_centralizer_check(alg, a, bases[0]) for a in subalgebras])
    assert len(subalgebras) == 19 and len(whole) == 8


def test_sweep_on_three_copies_runs_the_tensor_clause_iff_a_meets_its_commutant_in_the_center():
    """On three copies of M_2(F_3), 98 of the 125 swept members have
    V(A) != A, 75 of them in dimensions whose commutants are stacked, and
    the check's rank test decides whether each is central: for every
    member, the tensor clause runs exactly when A cap V(A), formed
    independently, is the center.  8 of the 98 are central."""
    state = SuiteState(load_instance_dict(SWEEP_DOCUMENTS["klein_m2f3x3"]))
    alg, c, subs = state.inst.algebra, state.ctx.center, state.center_enum.subalgebras
    rows = [double_centralizer_check(alg, a, c, state.facts) for a in subs]
    commutants = [commutant(alg, a, alg.full_space) for a in subs]
    central = [intersection(a, va) == c for a, va in zip(subs, commutants)]
    for a, res, ok in zip(subs, rows, central):
        assert res.subalgebra == a
        assert (res.tensor_clause != "skipped (A not central)") == ok, a.to_json()
    ranked = [ok for a, va, ok in zip(subs, commutants, central) if va != a]
    assert len(subs) == 125 and len(ranked) == 98 and sum(ranked) == 8


def test_sweep_decides_a_self_commutant_member_central_iff_it_is_the_base():
    """V(A) = A gives A cap V(A) = A, so A is central over C iff A = C.
    The maximal commutative subalgebra D of M_2(F_3) swept over [D] is
    central (A = C = V(A)), so its tensor
    clause is evaluated; the 2-dimensional unital subalgebras, the 9 tori
    and the 4 F[N] with N nilpotent, are their own commutants and are not
    central over the center.  The sweep fails exactly the members whose
    check fails."""
    alg = m2f3()
    unital = [s for s in (Subspace(F3, 4, m) for m in all_subspaces(F3, 4)) if is_unital_subalgebra(alg, s)]
    maximal = [s for s in unital if commutant(alg, s, alg.full_space) == s]
    diag = Subspace(F3, 4, F3.array([[1, 0, 0, 0], [0, 0, 0, 1]]))
    assert diag in maximal and len(maximal) == 13 and {s.dim for s in maximal} == {2}
    for members, base in (([diag], diag), (maximal, center(alg))):
        rows = [double_centralizer_check(alg, a, base) for a in members]
        assert separability.double_centralizer_sweep(alg, members, base, SubalgebraFacts(alg)) == failing(rows)
        skipped = [res.tensor_clause == "skipped (A not central)" for res in rows]
        assert skipped == [a != base for a in members]


@pytest.mark.parametrize("verdict", [True, False])
def test_sweep_with_known_verdicts_fails_what_the_check_fails(verdict):
    """Seeded with one verdict, true or false, for every member over the
    base, the sweep passes a member without its check only where the check
    passes: its failures are the failing checks read from the same
    verdicts, and it leaves the same facts.  Over D, D is its own
    commutant and held separable, yet it is the base, so it is central and
    its tensor clause (D (x)_D D = D, not M_2) fails."""
    alg = m2f3()
    unital = [s for s in (Subspace(F3, 4, m) for m in all_subspaces(F3, 4)) if is_unital_subalgebra(alg, s)]
    maximal = [s for s in unital if commutant(alg, s, alg.full_space) == s]
    diag = Subspace(F3, 4, F3.array([[1, 0, 0, 0], [0, 0, 0, 1]]))
    for members, base in (([diag], diag), (maximal, diag), (maximal, center(alg))):
        facts, per_s = SubalgebraFacts(alg), SubalgebraFacts(alg)
        for known in (facts, per_s):
            known.separable.update({(a.key(), base.key()): verdict for a in members})
        want = failing([double_centralizer_check(alg, a, base, per_s) for a in members])
        assert separability.double_centralizer_sweep(alg, members, base, facts) == want
        assert facts.commutants == per_s.commutants and facts.separable == per_s.separable
        assert len(want) == (int(base in members) if verdict else len(members))
        if base == diag:
            assert [(r.tensor_clause, r.commutant_separable) for r in want if r.subalgebra == diag] == [("fails", verdict)]


# -- verdicts on direct sums at the central idempotents 1_e


def test_verdicts_equal_the_solve_on_klein_disjoint2():
    """Every pool candidate of klein_disjoint2 (grown over the center), and
    V(S) of every S of its Theorem 3.9 sweep: the verdicts the suite's
    facts serve over the center equal the tensor-square solve."""
    state = SuiteState(load_builtin("klein_disjoint2"))
    alg, c = state.inst.algebra, state.ctx.center
    spaces = {}
    for cand in _pool(state):
        grown = subalgebra_generated(alg, np.vstack([c.basis, cand.basis]))
        spaces.setdefault(grown.key(), grown)
    for s in state.center_enum.subalgebras:
        v = state.facts.commutant(s)
        spaces.setdefault(v.key(), v)
    verdicts = [state.facts.separable_over(s, c) for s in spaces.values()]
    assert verdicts == [solved_verdict(alg, s, c) for s in spaces.values()]
    assert len(spaces) == 41 and True in verdicts and False in verdicts


def block_subalgebras(inst, e):
    """The unital subalgebras of the block 1_e R (unit 1_e) that hold 1_e."""
    f, alg = inst.field, inst.algebra
    one, ideal = inst.action.idempotents[e], inst.action.ideals[e]
    out = []
    for mat in all_subspaces(f, ideal.dim):
        s = Subspace(f, alg.dim, f.reduce(mat @ ideal.basis))
        if s.contains(one) and _mult_closed(alg, s.basis):
            out.append(s)
    return out


def test_a_direct_sum_is_separable_iff_each_block_is():
    """S = 1_e1 S1 (+) 1_e2 S2 over the center F_3 1_e1 + F_3 1_e2 of
    M_2(F_3) x M_2(F_3), for the 19 unital subalgebras of each block: the
    verdict equals the tensor-square solve, and is true exactly where both
    S1 (+) 1_e2 R and 1_e1 R (+) S2 are separable, 11 x 11 sums in all."""
    inst = load_builtin("klein_disjoint2")
    alg, c = inst.algebra, center(inst.algebra)
    e1, e2 = inst.groupoid.identities
    ideal1, ideal2 = inst.action.ideals[e1], inst.action.ideals[e2]
    firsts, seconds = block_subalgebras(inst, e1), block_subalgebras(inst, e2)
    assert len(firsts) == len(seconds) == 19
    facts = SubalgebraFacts(alg)
    good1 = {s1.key() for s1 in firsts if facts.separable_over(s1.sum(ideal2), c)}
    good2 = {s2.key() for s2 in seconds if facts.separable_over(ideal1.sum(s2), c)}
    assert len(good1) == len(good2) == 11
    separable = 0
    for s1, s2 in product(firsts, seconds):
        s = s1.sum(s2)
        verdict = facts.separable_over(s, c)
        assert verdict == solved_verdict(alg, s, c), s.to_json()
        assert verdict == (s1.key() in good1 and s2.key() in good2), s.to_json()
        separable += verdict
    assert separable == 121


def test_a_non_separable_block_refutes_the_sum():
    # upper triangular matrices in the first block, next to M_2(F_3)
    inst = load_builtin("klein_disjoint2")
    f, alg, c = inst.field, inst.algebra, center(inst.algebra)
    e1, e2 = inst.groupoid.identities
    upper = Subspace(f, 8, f.reduce(f.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]) @ inst.action.ideals[e1].basis))
    s = upper.sum(inst.action.ideals[e2])
    facts = SubalgebraFacts(alg)
    assert not facts.separable_over(s, c)
    assert not solved_verdict(alg, s, c)
    m2 = inst.action.ideals[e1].sum(inst.action.ideals[e2])
    assert facts.separable_over(m2, c) and solved_verdict(alg, m2, c)
    assert list(facts.separable.values()) == [False, True]


def test_a_base_of_scalars_is_decided_as_the_solve():
    """Over F_3 1 rather than the center, R = M_2(F_3) x M_2(F_3) and its
    center are separable and the upper triangular sum is not, as the
    tensor-square solve over F_3 1 finds."""
    inst = load_builtin("klein_disjoint2")
    f, alg = inst.field, inst.algebra
    e1, e2 = inst.groupoid.identities
    scalars = Subspace.span(f, alg.unit)
    upper = Subspace(f, 8, f.reduce(f.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]) @ inst.action.ideals[e1].basis))
    spaces = [alg.full_space, center(alg), upper.sum(inst.action.ideals[e2])]
    facts = SubalgebraFacts(alg)
    verdicts = [facts.separable_over(s, scalars) for s in spaces]
    assert verdicts == [solved_verdict(alg, s, scalars) for s in spaces] == [True, True, False]


def test_a_base_outside_the_subalgebra_is_an_error():
    inst = load_builtin("klein_disjoint2")
    alg, c = inst.algebra, center(inst.algebra)
    scalars = Subspace.span(inst.field, alg.unit)
    with pytest.raises(ValueError, match="not contained"):
        is_separable_subalgebra_over(alg, scalars, c)
    with pytest.raises(ValueError, match="not contained"):
        SubalgebraFacts(alg).separable_over(scalars, c)
    # V(R) = C does not hold the base C + F b1, so it is not separable over it
    base = c.sum(Subspace.span(inst.field, alg.basis_vector(1)))
    assert not double_centralizer_check(alg, alg.full_space, base).commutant_separable


# -- the base-factor shortcut of relative_tensor_dim


def sylvester_tensor_dim(alg, a, b, base):
    """dim A (x)_S B by the rank of the balancing relations, for every A and B."""
    f, ka, kb, k = alg.field, a.dim, b.dim, base.dim
    left = a.coords_rows(alg.products(a.basis, base.basis).transpose(1, 0, 2).reshape(k * ka, alg.dim))
    right = b.coords_rows(alg.products(base.basis, b.basis).reshape(k * kb, alg.dim))
    rows = linalg.sylvester(f, left.reshape(k, ka, ka), right.reshape(k, kb, kb))
    return ka * kb - linalg.rank(f, rows.reshape(k * ka * kb, ka * kb))


TENSOR_DOCUMENTS = {
    "klein_disjoint2": json.loads(WORKLOADS["documents"]("builtins")["klein_disjoint2"]),
    "cyclic_shift_c3x3": json.loads(WORKLOADS["documents"]("objects")["cyclic_shift_c3x3"]),
    "clock_shift(2, 5)": clock_shift(2, 5),
}


@pytest.mark.parametrize("name", sorted(TENSOR_DOCUMENTS))
def test_base_factor_takes_no_rank(name, monkeypatch):
    """At A = C (so V(A) = R) and at A = R (so V(A) = C) the shortcut gives
    the Sylvester rank's dimension without taking a rank; on the
    commutative cyclic_shift_c3x3 both are A = C = R."""
    alg = load_instance_dict(TENSOR_DOCUMENTS[name]).algebra
    c, full = center(alg), alg.full_space
    want = {(a.key(), v.key()): sylvester_tensor_dim(alg, a, v, c) for a, v in ((c, full), (full, c))}
    assert want == {(c.key(), full.key()): alg.dim, (full.key(), c.key()): alg.dim}
    monkeypatch.setattr(linalg, "rank", None)
    for a, v in ((c, full), (full, c)):
        assert relative_tensor_dim(alg, a, v, c) == want[a.key(), v.key()]


def test_relative_tensor_dim_equals_the_sylvester_rank_on_every_sweep_member():
    state = SuiteState(load_builtin("klein_disjoint2"))
    alg, c = state.inst.algebra, state.ctx.center
    for a in state.center_enum.subalgebras:
        v = state.facts.commutant(a)
        assert relative_tensor_dim(alg, a, v, c) == sylvester_tensor_dim(alg, a, v, c), a.to_json()
