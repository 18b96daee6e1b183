import re
from itertools import chain, combinations, product

import numpy as np
import pytest

from gglab.action import ActionError, fixer_subgroupoid, invariants, restrict, validate_action
from gglab.galois import GaloisContext
from gglab.groupoid import Subgroupoid, enumerate_subgroupoids, generated_subgroupoid
from gglab.instances import load_builtin
from gglab.linalg import Subspace


def test_pair_f5_invariants_are_diagonal():
    inst = load_builtin("pair_f5")
    inv = invariants(inst.action, list(inst.groupoid.arrows()))
    assert inv.dim == 1
    assert inv.basis[0].tolist() == [1, 1]  # (a, a) line


def test_klein_invariants_are_scalars():
    inst = load_builtin("klein_m2f3")
    inv = invariants(inst.action, list(inst.groupoid.arrows()))
    assert inv.dim == 1
    assert np.array_equal(inv.basis[0], inst.algebra.unit)


def test_empty_members_full_space():
    inst = load_builtin("pair_f5")
    assert invariants(inst.action, []).dim == inst.algebra.dim


def truncate(act, g: int, x: np.ndarray) -> np.ndarray:
    """x * 1_g, where 1_g = 1_{r(g)}."""
    return act.algebra.mul(x, act.idempotents[act.groupoid.target[g]])


def brute_force_invariants(inst, members):
    """Oracle: elementwise fixed-point scan over all of F_p^n."""
    act = inst.action
    p = inst.field.p
    n = inst.algebra.dim
    fixed = []
    for coeffs in product(range(p), repeat=n):
        r = inst.field.vector(list(coeffs))
        ok = True
        for h in members:
            lhs = act.apply_truncated(h, r)
            rhs = truncate(act, h, r)
            if not np.array_equal(lhs, rhs):
                ok = False
                break
        if ok:
            fixed.append(r)
    return fixed


@pytest.mark.parametrize("name", ["klein_m2f3", "cyclic_shift_c3", "pair_f5"])
def test_invariants_match_elementwise_oracle(name):
    inst = load_builtin(name)
    if inst.field.p ** inst.algebra.dim > 700:
        pytest.skip("oracle too large")
    arrows = list(inst.groupoid.arrows())
    for k in range(len(arrows) + 1):
        for members in combinations(arrows, k):
            space = invariants(inst.action, members)
            for r in brute_force_invariants(inst, members):
                assert space.contains(r)
            count = inst.field.p ** space.dim
            assert count == len(brute_force_invariants(inst, members))


def test_invariants_antitone():
    inst = load_builtin("klein_disjoint2")
    arrows = list(inst.groupoid.arrows())
    small = invariants(inst.action, arrows[:3])
    big = invariants(inst.action, arrows)
    assert small.contains_space(big)


def test_invariants_closure_invariance():
    # R^{beta_members} = R^{beta_<members>}
    inst = load_builtin("klein_disjoint2")
    arrows = list(inst.groupoid.arrows())
    for members in chain.from_iterable(combinations(arrows, k) for k in (1, 2)):
        h = generated_subgroupoid(inst.groupoid, set(members))
        assert invariants(inst.action, members) == invariants(inst.action, h.members)


def test_galois_connection():
    inst = load_builtin("klein_m2f3")
    act = inst.action
    subs = enumerate_subgroupoids(inst.groupoid)
    probes = [invariants(act, h.members) for h in subs]
    probes.append(Subspace.span(inst.field, inst.algebra.unit))
    for h in subs:
        for t in probes:
            # T <= invariants(H) iff H <= fixer(T)
            left = invariants(act, h.members).contains_space(t)
            right = h.members <= fixer_subgroupoid(act, t).members
            assert left == right


def test_fixer_klein_diagonal():
    inst = load_builtin("klein_m2f3")
    diag = Subspace(inst.field, 4, inst.field.array([[1, 0, 0, 0], [0, 0, 0, 1]]))
    h = fixer_subgroupoid(inst.action, diag)
    g = inst.groupoid
    assert h.members == {g.index("e"), g.index("a")}  # conjugation by diag fixes diagonals


def test_fixer_of_unit_span_is_everything():
    inst = load_builtin("cyclic_shift_c3")
    t = Subspace.span(inst.field, inst.algebra.unit)
    assert fixer_subgroupoid(inst.action, t).members == set(inst.groupoid.arrows())


def test_validate_action_rejects_broken_cocycle():
    inst = load_builtin("klein_m2f3")
    g = inst.groupoid
    beta = dict(inst.action.beta)
    a = g.index("a")
    bad = beta[a].copy()
    bad[0, 1] = (bad[0, 1] + 1) % 3
    beta[a] = bad
    with pytest.raises(ActionError, match="^beta_a is not multiplicative on E_e$"):
        validate_action(g, inst.algebra, inst.action.idempotents, beta)


def test_validate_action_rejects_nonorthogonal_idempotents():
    inst = load_builtin("pair_f5")
    idem = dict(inst.action.idempotents)
    e1 = inst.groupoid.index("e1")
    idem[e1] = inst.algebra.unit  # overlaps 1_{e2}
    with pytest.raises(ActionError, match="^1_e1 and 1_e2 are not orthogonal$"):
        validate_action(inst.groupoid, inst.algebra, idem, inst.action.beta)


def test_validate_action_rejects_noncentral_idempotent():
    inst = load_builtin("klein_disjoint2")
    idem = dict(inst.action.idempotents)
    idem[inst.groupoid.index("e1")] = inst.field.vector([1, 0, 0, 0, 0, 0, 0, 0])  # E11 of block 1
    with pytest.raises(ActionError, match="^1_e1 is not central$"):
        validate_action(inst.groupoid, inst.algebra, idem, inst.action.beta)


def test_validate_action_rejects_image_outside_ideal():
    inst = load_builtin("pair_f5")
    g = inst.groupoid
    beta = dict(inst.action.beta)
    beta[g.index("e1")] = inst.field.array([[0, 0], [1, 0]])  # vanishes off E_e1, lands in E_e2
    with pytest.raises(ActionError, match="^beta_e1 maps outside E_e1$"):
        validate_action(g, inst.algebra, inst.action.idempotents, beta)


def with_idempotent(name, arrow, entries):
    inst = load_builtin(name)
    idem = dict(inst.action.idempotents)
    idem[inst.groupoid.index(arrow)] = inst.field.vector(entries)
    return inst.groupoid, inst.algebra, idem, inst.action.beta


def with_maps(name, **maps):
    """``name``'s action data with beta_a replaced for each ``a=matrix``;
    a matrix given as an arrow name is that arrow's own beta."""
    inst = load_builtin(name)
    g = inst.groupoid
    beta = dict(inst.action.beta)
    for arrow, mat in maps.items():
        beta[g.index(arrow)] = inst.action.beta[g.index(mat)] if isinstance(mat, str) else inst.field.array(mat)
    return g, inst.algebra, inst.action.idempotents, beta


@pytest.mark.parametrize(
    "data, message",
    [
        (with_idempotent("pair_f5", "e1", [2, 0]), "1_e1 is not idempotent"),
        # 0 is a central idempotent orthogonal to 1_e1, but 1_e1 + 0 != 1
        (with_idempotent("pair_f5", "e2", [0, 0]), "idempotents do not sum to 1_R; R = direct sum of E_e fails"),
        (with_maps("pair_f5", t=[[0, 0], [1, 1]]), "beta_t does not vanish off its domain ideal"),
        # vanishes off E_e1 and lands in E_e2, with rank 0
        (with_maps("pair_f5", t=[[0, 0], [0, 0]]), "beta_t is not bijective onto E_e2"),
        (with_maps("pair_f5", t=[[0, 0], [2, 0]]), "beta_t does not send 1_e1 to 1_e2"),
        # conjugation by diag(1, -1) is a unital automorphism of M_2, not the identity
        (with_maps("klein_m2f3", e="a"), "beta_e is not the identity on E_e"),
        # every beta is an automorphism, but beta_a beta_b = beta_b
        (with_maps("klein_m2f3", a="e"), "cocycle fails: beta_a o beta_b != beta_c"),
    ],
)
def test_validate_action_names_each_failing_axiom(data, message):
    with pytest.raises(ActionError, match=f"^{re.escape(message)}$"):
        validate_action(*data)


def test_restrict_wide_keeps_algebra():
    inst = load_builtin("klein_m2f3")
    h = [h for h in enumerate_subgroupoids(inst.groupoid) if h.wide][1]
    sub_act = restrict(inst.action, h)
    assert sub_act.algebra is inst.algebra


def test_restrict_non_wide_cuts_ideal():
    inst = load_builtin("pair_f5")
    g = inst.groupoid
    h = generated_subgroupoid(g, {g.index("e1")})
    sub_act = restrict(inst.action, h)
    assert sub_act.algebra.dim == 1
    assert sub_act.groupoid.names == ("e1",)


@pytest.mark.parametrize(
    "name, arrows, label",
    [("pair_f5", ["e1", "t"], "{e1,t}"), ("klein_m2f3", ["e", "a", "b"], "{e,a,b}")],
)
def test_restrict_refuses_a_non_subgroupoid(name, arrows, label):
    # {e1, t} misses t^-1 = s; {e, a, b} misses ab = c
    inst = load_builtin(name)
    g = inst.groupoid
    h = Subgroupoid(g, frozenset(g.index(a) for a in arrows))
    with pytest.raises(ActionError, match=f"^{label} is not a subgroupoid; cannot restrict$"):
        restrict(inst.action, h)


def test_restrict_then_invariants():
    # invariants of the restriction = ambient invariants cut to R_H, wide case
    inst = load_builtin("klein_disjoint2")
    for h in enumerate_subgroupoids(inst.groupoid):
        if not h.wide:
            continue
        sub_act = restrict(inst.action, h)
        assert invariants(sub_act, list(sub_act.groupoid.arrows())) == invariants(
            inst.action, h.members
        )


def test_connecting_arrows_have_zero_j():
    inst = load_builtin("pair_f5")
    ctx = GaloisContext(inst.action)
    g = inst.groupoid
    for a in g.arrows():
        if g.source[a] != g.target[a]:
            assert ctx.jmodules[a].dim == 0
