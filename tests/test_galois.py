import numpy as np
import pytest

from gglab import linalg
from gglab.algebra import center, commutant, product_space
from gglab.galois import (
    GaloisContext,
    GaloisCoordinates,
    build_skew_groupoid_ring,
    check_galois_coordinates,
    coordinate_sums,
    endomorphism_space,
    j_isomorphism_check,
    solve_galois_coordinates,
    v_in_ideal,
)
from gglab.instances import load_builtin
from gglab.linalg import Subspace


def test_pair_f5_instance_coordinates_certify():
    inst = load_builtin("pair_f5")
    ok, failures = check_galois_coordinates(inst.action, inst.coordinates)
    assert ok and not failures


def test_delta_condition_values():
    inst = load_builtin("pair_f5")
    sums = coordinate_sums(inst.action, inst.coordinates)
    g = inst.groupoid
    for a, s in sums.items():
        if a in g.identities:
            assert np.array_equal(s, inst.action.idempotents[a])
        else:
            assert not np.any(s)


def test_bad_coordinates_fail_with_witness():
    inst = load_builtin("pair_f5")
    pairs = [(x.copy(), y.copy()) for x, y in inst.coordinates.pairs]
    pairs[0] = (pairs[0][0], inst.field.reduce(pairs[0][1] + 1))
    ok, failures = check_galois_coordinates(inst.action, GaloisCoordinates(pairs))
    assert not ok
    arrow, residual = failures[0]
    assert np.any(residual)


@pytest.mark.parametrize("name", ["trivial", "pair_f5", "klein_m2f3", "klein_disjoint2", "cyclic_shift_c3"])
def test_solver_certifies_on_galois_builtins(name):
    inst = load_builtin(name)
    coords = solve_galois_coordinates(inst.action)
    assert coords is not None and coords.certified


def test_jmodule_dims_pair_f5():
    inst = load_builtin("pair_f5")
    ctx = GaloisContext(inst.action)
    g = inst.groupoid
    dims = {g.names[a]: ctx.jmodules[a].dim for a in g.arrows()}
    assert dims == {"e1": 1, "e2": 1, "t": 0, "s": 0}


def test_jmodule_klein_spanned_by_group_elements():
    # J_g for conjugation by u is the line F3 * u
    inst = load_builtin("klein_m2f3")
    ctx = GaloisContext(inst.action)
    g = inst.groupoid
    reps = {
        "e": [1, 0, 0, 1],
        "a": [1, 0, 0, 2],
        "b": [0, 1, 1, 0],
        "c": [0, 1, 2, 0],
    }
    for nm, vec in reps.items():
        jm = ctx.jmodules[g.index(nm)]
        assert jm.dim == 1
        assert jm.space.contains(inst.field.vector(vec))


def test_lemma_comutador_pair_f5():
    inst = load_builtin("pair_f5")
    ctx = GaloisContext(inst.action)
    inv = ctx.invariant_ring
    vr = commutant(inst.algebra, inv, inst.algebra.full_space)
    total = Subspace(
        inst.field,
        2,
        np.vstack([ctx.jmodules[a].space.basis for a in inst.groupoid.arrows() if ctx.jmodules[a].dim]),
    )
    assert vr == total and vr.dim == 2


def test_skew_ring_dims():
    for name, dim in [("pair_f5", 4), ("klein_m2f3", 16), ("klein_disjoint2", 32)]:
        inst = load_builtin(name)
        skew = build_skew_groupoid_ring(inst.action)
        assert skew.dim == dim


def test_skew_ring_pair_f5_is_full_matrix_algebra():
    # R*G for the pair groupoid on F5 x F5 is M2(F5): center 1-dim, dim 4
    inst = load_builtin("pair_f5")
    skew = build_skew_groupoid_ring(inst.action)
    assert skew.dim == 4
    c = center(skew.algebra)
    assert c.dim == 1
    # image under j is the whole 2x2 matrix algebra over F5
    mats = [skew.element_matrix(i) for i in range(4)]
    flat = np.vstack([m.reshape(1, 4) for m in mats])
    assert linalg.rank(inst.field, flat) == 4


def test_j_isomorphism_reports():
    for name in ["pair_f5", "klein_m2f3", "cyclic_shift_c3"]:
        inst = load_builtin(name)
        coords = inst.coordinates or solve_galois_coordinates(inst.action)
        ctx = GaloisContext(inst.action, coords)
        skew = build_skew_groupoid_ring(inst.action)
        rep = j_isomorphism_check(inst.action, skew, ctx.invariant_ring)
        assert rep.ok, (name, rep)


def test_endomorphism_space_full_when_invariants_scalar():
    inst = load_builtin("klein_m2f3")
    ctx = GaloisContext(inst.action)
    end = endomorphism_space(inst.action, ctx.invariant_ring)
    assert end.dim == 16  # all linear maps commute with scalars


def test_gamma_directness_flag():
    inst = load_builtin("klein_m2f3")
    coords = solve_galois_coordinates(inst.action)
    ctx = GaloisContext(inst.action, coords)
    for h in ctx.wide_subgroupoids:
        space, direct = ctx.gamma(h)
        assert direct
        assert space.dim == len(h.members)  # each J is a line


def test_product_space_klein():
    # J_a * J_b = J_ab since the group elements multiply
    inst = load_builtin("klein_m2f3")
    ctx = GaloisContext(inst.action)
    g = inst.groupoid
    a, b = g.index("a"), g.index("b")
    prod = product_space(inst.algebra, ctx.jmodules[a].space, ctx.jmodules[b].space)
    assert prod == ctx.jmodules[g.comp[a][b]].space


def test_v_in_ideal_matches_block_center():
    inst = load_builtin("klein_disjoint2")
    g = inst.groupoid
    e1 = g.index("e1")
    v = v_in_ideal(inst.action, e1)
    assert v.dim == 1  # center of the first M2 block
    one1 = inst.action.idempotents[e1]
    assert v.contains(one1)


def test_theta_values_pair_f5():
    inst = load_builtin("pair_f5")
    coords = inst.coordinates
    check_galois_coordinates(inst.action, coords)
    ctx = GaloisContext(inst.action, coords)
    wide = ctx.wide_subgroupoids
    assert len(wide) == 2
    small = min(wide, key=lambda h: len(h.members))
    big = max(wide, key=lambda h: len(h.members))
    assert ctx.theta(small).dim == 2  # identities fix everything
    assert ctx.theta(big).dim == 1
    assert ctx.gamma(small)[0] == ctx.gamma(big)[0]  # gamma collapses
