"""Acceptance criteria, one test per criterion.

Each test name is the pass/fail line for its criterion.  Criterion 7 checks
the Galois correspondence of klein_m2f3 as it truly is: the exhaustive
enumeration finds 11 separable subalgebras containing the invariants,
pinned against an independent discriminant count; theta is injective, and
its image is 5 of the 11.  The Theorem 4.1 identities hold exactly on that
image, so the Galois map is not onto, as Theorem 4.4 predicts (its
biconditional holds with both sides false; see test_suite.py).
"""

import json
import subprocess
import sys
import time
from itertools import chain, combinations, product

import numpy as np
import pytest

from gglab.action import fixer_subgroupoid, invariants, restrict
from gglab.algebra import commutant, product_space
from gglab.fields import Field
from gglab.galois import (
    GaloisCoordinates,
    GaloisContext,
    build_skew_groupoid_ring,
    check_galois_coordinates,
    j_isomorphism_check,
    solve_galois_coordinates,
    v_in_ideal,
)
from gglab.groupoid import enumerate_subgroupoids, is_subgroupoid
from gglab.instances import BUILTIN_NAMES, load_builtin
from gglab.linalg import Subspace
from gglab.separability import (
    SeparabilityCertificate,
    double_centralizer_check,
    enumerate_separable_subalgebras,
    is_separable_subalgebra_over,
    tensor_square,
    verify_certificate,
)
from gglab.suite import run_suite

GALOIS_BUILTINS = [n for n in BUILTIN_NAMES if load_builtin(n).flags.get("galois_expected")]


def certified_context(inst):
    coords = inst.coordinates
    if coords is not None:
        check_galois_coordinates(inst.action, coords)
    else:
        coords = solve_galois_coordinates(inst.action)
    assert coords is not None and coords.certified, inst.name
    return GaloisContext(inst.action, coords)


def decomposition_holds(act, members):
    ctx = GaloisContext(act)
    inv = invariants(act, members)
    vr = commutant(act.algebra, inv, act.algebra.full_space)
    parts = [ctx.jmodules[a] for a in sorted(members)]
    dims = sum(p.dim for p in parts)
    rows = [p.space.basis for p in parts if p.dim]
    total = Subspace(
        act.field, act.algebra.dim, np.vstack(rows) if rows else act.field.zeros((0, act.algebra.dim))
    )
    return total == vr and total.dim == dims


def test_criterion_01_lemma_3_1_decomposition_on_all_galois_builtins():
    t0 = time.monotonic()
    counts = {}
    for name in GALOIS_BUILTINS:
        inst = load_builtin(name)
        checked = 0
        for h in enumerate_subgroupoids(inst.groupoid):
            sub_act, _ = restrict(inst.action, h)
            assert decomposition_holds(sub_act, list(sub_act.groupoid.arrows())), (name, h.label())
            checked += 1
        counts[name] = (
            checked,
            len(enumerate_subgroupoids(inst.groupoid, wide_only=True)),
        )
    # stated counts: klein_m2f3 5 and klein_disjoint2 25 wide checks match
    # exactly; pair_f5's stated 3 is bracketed by 2 wide and 4 with
    # restrictions (all pass)
    assert counts["klein_m2f3"][1] == 5
    assert counts["klein_disjoint2"][1] == 25
    assert counts["pair_f5"] == (4, 2)
    assert time.monotonic() - t0 < 10


def test_criterion_02_theorem_3_3_theta_injective():
    t0 = time.monotonic()
    for name, expect_pairs in [("klein_m2f3", 10), ("klein_disjoint2", 300)]:
        inst = load_builtin(name)
        ctx = certified_context(inst)
        assert all(ctx.jmodules[a].dim > 0 for a in inst.groupoid.arrows()), name
        wide = ctx.wide_subgroupoids
        keys = [ctx.theta(h).key() for h in wide]
        pairs = len(wide) * (len(wide) - 1) // 2
        assert pairs == expect_pairs
        assert len(set(keys)) == len(keys), f"theta not injective on {name}"
    assert time.monotonic() - t0 < 30


def test_criterion_03_lemma_3_4_products_on_central_galois_instances():
    checked_pairs = {}
    for name in ["trivial", "klein_m2f3", "klein_disjoint2"]:
        inst = load_builtin(name)
        ctx = certified_context(inst)
        g = inst.groupoid
        pairs = 0
        for a, b in ctx.composable_pairs():
            prod = product_space(inst.algebra, ctx.jmodules[b].space, ctx.jmodules[a].space)
            assert prod == ctx.jmodules[g.comp[a][b]].space, (name, g.names[a], g.names[b])
            pairs += 1
        for a in g.arrows():
            lhs = product_space(
                inst.algebra, ctx.jmodules[g.inv[a]].space, ctx.jmodules[a].space
            )
            assert lhs == v_in_ideal(inst.action, a), (name, g.names[a])
        checked_pairs[name] = pairs
    assert checked_pairs["klein_m2f3"] == 16


def test_criterion_04_j_isomorphism_on_all_galois_builtins():
    for name in GALOIS_BUILTINS:
        inst = load_builtin(name)
        ctx = certified_context(inst)
        skew = build_skew_groupoid_ring(inst.action)
        rep = j_isomorphism_check(inst.action, skew, ctx.invariant_ring)
        assert rep.dim_skew == rep.dim_end, name
        assert rep.ok, (name, rep)
        if name == "klein_m2f3":
            assert rep.dim_skew == 16 and rep.dim_end == 16


def test_criterion_05_negative_control_pair_f5():
    inst = load_builtin("pair_f5")
    ctx = certified_context(inst)
    g = inst.groupoid
    assert ctx.jmodules[g.index("t")].dim == 0
    assert ctx.jmodules[g.index("s")].dim == 0
    wide = sorted(ctx.wide_subgroupoids, key=lambda h: len(h.members))
    ids_only, full = wide
    assert ctx.gamma(ids_only)[0] == ctx.gamma(full)[0]
    assert ctx.theta(ids_only) != ctx.theta(full)
    # the report must say skip (hypothesis unmet), never violation
    report = run_suite(inst, scope="all")
    rec = next(c for c in report.checks if c.check_id == "theorem_3_10")
    assert rec.verdict == "skip" and rec.hypothesis == "unmet"
    fail = rec.witnesses["double_centralizer_failure"]
    assert fail["invariants_dim"] == 1 and fail["bicommutant_dim"] == 2  # V(V(R^b)) = R
    assert not report.violations


def test_criterion_06_theorem_3_9_sweep_klein_m2f3():
    inst = load_builtin("klein_m2f3")
    ctx = certified_context(inst)
    enum = enumerate_separable_subalgebras(inst.algebra, ctx.center)
    assert enum.exhaustive
    for s in enum.subalgebras:
        res = double_centralizer_check(inst.algebra, s, ctx.center)
        assert res.double_centralizer_holds, s.to_json()
        assert res.commutant_separable, s.to_json()  # certificate re-verified inside
    # the 5 named subalgebras (theta images of the 5 wide subgroups) are among them
    keys = {s.key() for s in enum.subalgebras}
    named = [ctx.theta(h) for h in ctx.wide_subgroupoids]
    assert len({t.key() for t in named}) == 5
    assert all(t.key() in keys for t in named)


def _m2f3_separable_oracle(field):
    """Keys of the separable subalgebras of M_2(F_3), split by isomorphism type.

    Built without the separable-subalgebra enumeration.  A unital subalgebra
    of dimension 2 is F_3[a] for any non-scalar a in it, so it is spanned by
    1 and a; F_3[a] = F_3[x]/(char poly of a) is separable iff the
    discriminant tr(a)^2 - 4 det(a) is nonzero, a split torus F_3 x F_3 when
    it is a nonzero square (1 mod 3) and F_9 otherwise (2 mod 3).  No unital
    subalgebra of dimension 3 is semisimple (F_3^3, F_3 x F_9 and F_27 do not
    embed unitally in M_2(F_3)), so the others are F_3 and M_2(F_3).
    """
    split, nonsplit = set(), set()
    for a11, a12, a21, a22 in product(range(3), repeat=4):
        if a12 == a21 == 0 and a11 == a22:
            continue  # scalar
        disc = ((a11 + a22) ** 2 - 4 * (a11 * a22 - a12 * a21)) % 3
        if disc:
            span = Subspace(field, 4, field.array([[1, 0, 0, 1], [a11, a12, a21, a22]]))
            (split if disc == 1 else nonsplit).add(span.key())
    scalars = Subspace.span(field, field.vector([1, 0, 0, 1]))
    whole = Subspace(field, 4, field.eye(4))
    return {"F_3": {scalars.key()}, "split": split, "F_9": nonsplit, "M_2": {whole.key()}}


def test_criterion_07_fundamental_theorem_klein_m2f3():
    t0 = time.monotonic()
    inst = load_builtin("klein_m2f3")
    f = inst.field
    ctx = certified_context(inst)
    # conjugation by the Klein group fixes only the scalars, so every
    # subalgebra contains the invariants
    assert ctx.invariant_ring == Subspace.span(f, inst.algebra.unit)

    oracle = _m2f3_separable_oracle(f)
    assert {k: len(v) for k, v in oracle.items()} == {"F_3": 1, "split": 6, "F_9": 3, "M_2": 1}
    enum = enumerate_separable_subalgebras(inst.algebra, ctx.invariant_ring)
    assert enum.exhaustive
    keys = {s.key() for s in enum.subalgebras}
    assert len(enum.subalgebras) == len(keys) == 11
    assert keys == set().union(*oracle.values())

    # theta is injective on the 5 wide subgroupoids and lands among the 11
    wide = ctx.wide_subgroupoids
    image = {ctx.theta(h).key() for h in wide}
    assert len(wide) == len(image) == 5
    assert image <= keys

    def identities(s):
        """Theorem 4.1: the J-sum over H_S is V_R(S), over H_{V_R(S)} is S, both direct."""
        vrs = commutant(inst.algebra, s, inst.algebra.full_space)
        sum1, direct1 = ctx.gamma(fixer_subgroupoid(inst.action, s))
        sum2, direct2 = ctx.gamma(fixer_subgroupoid(inst.action, vrs))
        return direct1 and sum1 == vrs, direct2 and sum2 == s

    # the identities hold exactly on theta's image: theta is injective, not onto
    for s in enum.subalgebras:
        if s.key() in image:
            assert identities(s) == (True, True), s.to_json()
            assert ctx.theta(fixer_subgroupoid(inst.action, s)) == s, s.to_json()
        else:
            assert identities(s) != (True, True), s.to_json()

    # named witness off the image: a split torus fixed by the identity alone
    w = Subspace(f, 4, f.array([[1, 0, 0, 1], [0, 1, 0, 1]]))
    assert w.key() in keys - image
    assert fixer_subgroupoid(inst.action, w).members == {inst.groupoid.index("e")}
    assert identities(w) == (False, False)
    assert time.monotonic() - t0 < 60


def test_criterion_08_coordinate_solver_soundness():
    # every corruption that changes a delta sum must be rejected; a corruption
    # whose direction annihilates against x_i through every arrow leaves the
    # system literally valid (possible only across the blocks of
    # klein_disjoint2), and accepting it is the sound verdict
    benign_counts = {}
    for name in GALOIS_BUILTINS:
        inst = load_builtin(name)
        act = inst.action
        coords = solve_galois_coordinates(act)
        assert coords is not None and coords.certified, name
        n = inst.algebra.dim
        benign = 0
        for i in range(len(coords.pairs)):
            for j in range(n):
                pairs = [(x.copy(), y.copy()) for x, y in coords.pairs]
                x, y = pairs[i]
                y[j] = (y[j] + 1) % inst.field.p
                ok, failures = check_galois_coordinates(
                    act, GaloisCoordinates(pairs)
                )
                e = inst.field.zeros(n)
                e[j] = 1
                invisible = all(
                    not np.any(inst.algebra.mul(x, act.apply_truncated(g, e)))
                    for g in inst.groupoid.arrows()
                )
                if invisible:
                    benign += 1
                    assert ok, (name, i, j)  # still a valid coordinate system
                else:
                    assert not ok and failures, (name, i, j)
        benign_counts[name] = benign
    # only the cross-block coordinates of klein_disjoint2 are invisible
    assert benign_counts == {
        "trivial": 0,
        "pair_f5": 0,
        "klein_m2f3": 0,
        "klein_disjoint2": 32,
        "cyclic_shift_c3": 0,
    }


def test_criterion_09_oracle_cross_checks():
    # subgroupoid enumeration vs brute force over all subsets (<= 8 arrows)
    for name in BUILTIN_NAMES:
        g = load_builtin(name).groupoid
        assert g.size <= 8
        brute = sorted(
            (
                frozenset(s)
                for s in chain.from_iterable(
                    combinations(range(g.size), k) for k in range(1, g.size + 1)
                )
                if is_subgroupoid(g, s)
            ),
            key=sorted,
        )
        assert [h.members for h in enumerate_subgroupoids(g)] == brute, name

    # invariants vs elementwise fixed-point scan (F3, dim 4)
    inst = load_builtin("klein_m2f3")
    act = inst.action
    arrows = list(inst.groupoid.arrows())
    space = invariants(act, arrows)
    fixed = 0
    for coeffs in product(range(3), repeat=4):
        r = inst.field.vector(list(coeffs))
        if all(
            np.array_equal(act.apply_truncated(h, r), act.truncate(h, r)) for h in arrows
        ):
            assert space.contains(r)
            fixed += 1
    assert fixed == 3 ** space.dim

    # M2(F3)/F3 separability vs the classical element sum_j E_j1 (x) E_1j
    alg = inst.algebra
    F3 = Field("Fp", 3)
    ts = tensor_square(alg, Subspace.span(F3, alg.unit))
    z = F3.zeros(16)
    z[0] = 1  # E11 (x) E11
    z[2 * 4 + 1] = 1  # E21 (x) E12
    assert verify_certificate(SeparabilityCertificate(ts, z, verified=False))
    assert is_separable_subalgebra_over(alg, alg.full_space, Subspace.span(F3, alg.unit))


def test_criterion_10_suite_json_determinism(cli_env):
    for name in BUILTIN_NAMES:
        cmd = [sys.executable, "-m", "gglab.cli", "suite", "--builtin", name, "--format", "json"]
        a = subprocess.run(cmd, capture_output=True, env=cli_env)
        b = subprocess.run(cmd, capture_output=True, env=cli_env)
        assert a.returncode == b.returncode == 0, name
        assert a.stdout == b.stdout, name
        json.loads(a.stdout)
