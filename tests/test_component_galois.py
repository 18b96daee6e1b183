"""J modules, V_{E_e}(R), the j isomorphism and Lemmas 2.1 and 3.7, decided
in the coordinates of an ideal or one connected component at a time,
against the whole-R computations they replaced; Lemma 3.4's table, which
forms only the products that can be nonzero and reads V_{E_e}(R) as J_e,
against the table of every ordered pair; the stacked coordinate sums
against one product per arrow; and the seed pool, built only where the
enumeration reads it, against the eager pool.

The oracles below are those computations, kept as they were: J_g and
V_{E_e}(R) solved over all of R and eliminated a second time, End(R) and
j over all of R, one fixer and one commutant per wide H, J_x J_y for
every ordered pair with V_{E_e}(R) as the commutant of E_e in itself,
the coordinate sums one arrow at a time, and the pool built before every
enumeration.  The answers must be equal, witnesses in
the same order, on every benchmark document, on four copies of
``pair_f5``, six of ``cyclic_shift_c3``, three of ``klein_m2f3`` and a
union of ``pair_f5`` with ``klein_m2(5)``.  None of them fails a check,
so synthetic states make one part of ``klein_disjoint2`` fail Lemma 3.7,
one part fixer not closed, one block of j not onto or not injective, and
one J module of it or of ``pair_f5`` another subspace of its ideal.
The suite names a failing part where the oracles name wide H: the
verdicts must agree, and the wide H on which an oracle fails must be
exactly those holding the part.  With one component the parts are the
wide H, so on ``klein_m2f3`` the spoiled records must be the oracles'.

A change of basis of R is a metamorphic test of the coordinate code: the
records of the four checks hold only dimensions, booleans and arrow
labels, so they must not move."""

import json
import runpy
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gglab import linalg, suite
from gglab.action import ActionError, invariants
from gglab.galois import (
    GaloisContext,
    GaloisCoordinates,
    JIsomorphismReport,
    SkewGroupoidRing,
    check_galois_coordinates,
    coordinate_sums,
    endomorphism_space,
    j_isomorphism_check,
)
from gglab.groupoid import components, pair_star
from gglab.instances import load_instance_dict
from gglab.linalg import Subspace
from gglab.separability import (
    EXHAUSTIVE_DIM,
    SeparableEnumeration,
    _rational_key_order,
    enumerate_separable_subalgebras,
)
from gglab.algebra import commutant, is_unital_subalgebra, product_space, subalgebra_generated
from gglab.suite import CERTIFICATE_ERRORS, CHECKS, Outcome, SuiteState, _pool, _skip

WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
FP5 = {"kind": "Fp", "p": 5}
BENCHMARK = {
    f"{w}/{name}": json.loads(doc) for w in WORKLOADS["WORKLOADS"] for name, doc in WORKLOADS["documents"](w).items()
}
DOCUMENTS = {
    **BENCHMARK,
    "pair_f5x4": WORKLOADS["disjoint_union"]([WORKLOADS["pair"](FP5)] * 4, "pair_f5x4"),
    "cyclic_shift_c3x6": WORKLOADS["disjoint_union"]([WORKLOADS["cyclic_shift"](FP5)] * 6, "cyclic_shift_c3x6"),
    "klein_m2f3x3": WORKLOADS["disjoint_union"]([WORKLOADS["klein_m2"](3)] * 3, "klein_m2f3x3"),
    "pair_f5+klein_m2(5)": WORKLOADS["disjoint_union"](
        [WORKLOADS["pair"](FP5), WORKLOADS["klein_m2"](5)], "pair_f5+klein_m2(5)"
    ),
}


# -- the oracles: whole-R computations -------------------------------------


def j_module(act, g) -> Subspace:
    f, alg, n = act.field, act.algebra, act.algebra.dim
    eye = f.eye(n)
    cs = act.apply_truncated(g, eye)
    blocks = alg.products(eye, cs).transpose(1, 2, 0) - alg.table.transpose(0, 2, 1)
    rows = np.vstack([act.idempotent_mult[act.groupoid.target[g]] - eye, blocks.reshape(n * n, n)])
    return Subspace.from_rref(f, linalg.nullspace(f, f.reduce(rows)))


def whole_commutant(alg, s1, s2) -> Subspace:
    if s1.dim == 0 or s2.dim == 0:
        return s2
    diff = alg.products(s1.basis, s2.basis) - alg.products(s2.basis, s1.basis).transpose(1, 0, 2)
    stacked = alg.field.reduce(diff.transpose(0, 2, 1).reshape(s1.dim * alg.dim, s2.dim))
    coeffs = linalg.nullspace(alg.field, stacked)
    if coeffs.shape[0] == 0:
        return Subspace.zero(alg.field, alg.dim)
    return Subspace(alg.field, alg.dim, linalg.matmul(alg.field, coeffs, s2.basis))


def v_in_ideal(act, g) -> Subspace:
    """V_{E_g}(R) as the commutant of E_g in itself: for x in E_e with e
    other than r(g) and v in E_g, both x v and v x vanish."""
    ideal = act.ideal(g)
    return commutant(act.algebra, ideal, ideal)


def lemma_3_4(state: SuiteState) -> Outcome:
    """Lemma 3.4's table with J_x J_y formed for every ordered pair."""
    act, g, jm = state.inst.action, state.inst.groupoid, state.ctx.jmodules
    prod = cache(lambda x, y: product_space(act.algebra, jm[x], jm[y]))
    v_ideal = {e: v_in_ideal(act, e) for e in g.identities}
    pair_rows = []
    for a, b in pair_star(g):
        forward, target = prod(b, a), jm[g.comp[a][b]]
        pair_rows.append(
            {
                "g": g.names[a],
                "h": g.names[b],
                "gh": g.names[g.comp[a][b]],
                "equal": forward == target,
                "included": target.contains_space(forward),
                "reversed_equal": prod(a, b) == target,
            }
        )
    particular = [{"g": g.names[a], "equal": prod(g.inv[a], a) == v_ideal[g.target[a]]} for a in g.arrows()]
    witnesses = {"pairs": pair_rows, "particular": particular}
    if not state.central:
        return _skip(
            "Hirata separability not expected; product table reported, inclusions not upgraded to failures",
            witnesses,
        )
    ok = all(row["equal"] for row in pair_rows + particular)
    return Outcome(
        "pass" if ok else "violation",
        f"{len(pair_rows)} composable pairs; J_h J_g = J_gh and J_g^-1 J_g = V_Eg(R)",
        witnesses,
    )


def arrow_sums(act, coords) -> dict:
    """sum_i x_i * beta_g(y_i 1_{g^-1}), one arrow at a time."""
    rows = coords.rows(act)
    out = {}
    for g in act.groupoid.arrows():
        prods = act.algebra.products(rows[0::2], act.apply_truncated(g, rows[1::2]))
        out[g] = act.field.reduce(prods.diagonal().sum(axis=-1))
    return out


def arrow_failures(act, coords) -> list:
    """(arrow, residual) where the delta condition fails, from ``arrow_sums``."""
    g, f, n = act.groupoid, act.field, act.algebra.dim
    out = []
    for a, s in sorted(arrow_sums(act, coords).items()):
        res = f.reduce(s - (act.idempotents[a] if a in g.identities else f.zeros(n)))
        if np.any(res != 0):
            out.append((a, res))
    return out


def whole_endomorphisms(act, invariant_ring) -> Subspace:
    f, n = act.field, act.algebra.dim
    if invariant_ring.dim == 0:
        return Subspace.full(f, n * n)
    rs = act.algebra.products(f.eye(n), invariant_ring.basis).transpose(1, 2, 0)
    rows = linalg.sylvester(f, rs, rs.transpose(0, 2, 1))
    return Subspace.from_rref(f, linalg.nullspace(f, rows.reshape(-1, n * n)))


def whole_j_isomorphism(act, skew, invariant_ring) -> JIsomorphismReport:
    f, n, d = act.field, act.algebra.dim, skew.dim
    end_space = whole_endomorphisms(act, invariant_ring)
    mats = np.array([skew.element_matrix(i) for i in range(d)], dtype=f.dtype).reshape(d, n * n)
    image = Subspace(f, n * n, mats)
    return JIsomorphismReport(d, end_space.dim, image.dim == d, image == end_space)


def lemma_2_1(state: SuiteState) -> Outcome:
    # the fixer is looked up on the suite module, so a patched one is seen
    inst, ctx = state.inst, state.ctx
    probes = [
        ("span(1)", Subspace.span(inst.field, inst.algebra.unit)),
        ("center", ctx.center),
        ("invariants", ctx.invariant_ring),
    ]
    probes += [(f"theta{h.label()}", ctx.theta(h)) for h in ctx.wide_subgroupoids]
    fixers = {}
    for label, t in probes:
        try:
            fixers[label] = suite.fixer_subgroupoid(inst.action, t)
        except CERTIFICATE_ERRORS as e:
            return Outcome(
                "violation",
                f"fixer of {label} is not a subgroupoid",
                {"subalgebra": label, "error": str(e)},
            )
    return Outcome(
        "pass",
        f"{len(probes)} fixer sets certified closed",
        {"fixers": {k: v.label() for k, v in sorted(fixers.items())}},
    )


def lemma_3_7(state: SuiteState) -> Outcome:
    if not state.galois:
        return _skip("Galois gate unmet")
    act, ctx = state.inst.action, state.ctx
    fails = []
    for h in ctx.wide_subgroupoids:
        gam, _ = ctx.gamma(h)
        vs = whole_commutant(act.algebra, invariants(act, ctx.support(h)), act.algebra.full_space)
        if gam != vs:
            fails.append({"subgroupoid": h.label(), "gamma_dim": gam.dim, "commutant_dim": vs.dim})
    return Outcome(
        "violation" if fails else "pass",
        f"gamma(H) = V_R(R^(beta_S_H)) on {len(ctx.wide_subgroupoids)} wide subgroupoids",
        {"failures": fails} if fails else {"checked": len(ctx.wide_subgroupoids)},
    )


def center_enum(state: SuiteState) -> SeparableEnumeration:
    alg, base, facts = state.inst.algebra, state.ctx.center, state.facts
    f = alg.field
    if f.modular and alg.dim <= EXHAUSTIVE_DIM:
        return enumerate_separable_subalgebras(alg, base, None, facts)
    pool = _pool(state)
    spans, candidates = set(), {}
    for cand in pool:
        span = Subspace(f, alg.dim, np.vstack([base.basis, cand.basis]))
        if span.key() not in spans:
            spans.add(span.key())
            grown = subalgebra_generated(alg, span)
            candidates.setdefault(grown.key(), grown)
    out = []
    for key in sorted(candidates, key=None if f.modular else _rational_key_order):
        s = candidates[key]
        if is_unital_subalgebra(alg, s) and facts.separable_over(s, base):
            out.append(s)
    # R is the only subalgebra containing R, so a full base is exhaustive
    full = base.dim == alg.dim
    return SeparableEnumeration(out, full)


def record(out: Outcome) -> str:
    return json.dumps(list(out))


def states(doc: dict) -> tuple[SuiteState, SuiteState]:
    """Two states of ``doc`` that share no cache: the suite's and the oracle's."""
    return SuiteState(load_instance_dict(doc)), SuiteState(load_instance_dict(doc))


# -- equal answers on every document ------------------------------------------


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_ideal_coordinates_equal_the_whole_r_solves(name):
    act = load_instance_dict(DOCUMENTS[name]).action
    ctx = GaloisContext(act)
    alg = act.algebra
    for g in act.groupoid.arrows():
        assert ctx.jmodules[g] == j_module(act, g), g
    for e in act.groupoid.identities:
        want = whole_commutant(alg, alg.full_space, act.ideal(e))
        assert ctx.jmodules[e] == v_in_ideal(act, e) == want, e
    for space in (ctx.center, ctx.invariant_ring, *ctx.jmodules.values()):
        assert commutant(alg, space, alg.full_space) == whole_commutant(alg, space, alg.full_space)


def test_j_modules_are_solved_on_loops_only(count_calls):
    # pair_f5x3 has 6 identities, its only loops, and 6 connecting arrows
    solves = count_calls(linalg.nullspace)
    GaloisContext(load_instance_dict(BENCHMARK["objects/pair_f5x3"]).action).jmodules
    assert len(solves) == 6


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_lemma_3_4_equals_the_all_pairs_table(name):
    state, oracle = states(DOCUMENTS[name])
    assert record(CHECKS["lemma_3_4"](state)) == record(lemma_3_4(oracle))


def random_pairs(act, seed: int) -> GaloisCoordinates:
    """dim R + 2 pairs of random vectors; over Q, with denominators."""
    f, n = act.field, act.algebra.dim
    rng = np.random.default_rng(seed)
    if f.modular:
        rows = rng.integers(0, f.p, (2 * n + 4, n)).tolist()
    else:
        rows = [[Fraction(int(a), int(b)) for a, b in zip(*rng.integers(1, 7, (2, n)))] for _ in range(2 * n + 4)]
    vecs = f.array(rows)
    return GaloisCoordinates(list(zip(vecs[0::2], vecs[1::2])))


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_stacked_coordinate_sums_equal_the_per_arrow_sums(name):
    # the certified system, where there is one, and more pairs than dim R
    state = SuiteState(load_instance_dict(DOCUMENTS[name]))
    act = state.inst.action
    systems = [random_pairs(act, 0)] + ([state.coords] if state.coords is not None else [])
    for coords in systems:
        got, want = coordinate_sums(act, coords), arrow_sums(act, coords)
        assert list(got) == list(want)
        for g in want:
            assert np.array_equal(got[g], want[g]) and got[g].dtype == want[g].dtype, g


def test_stacked_coordinate_sums_fit_int64_at_the_headroom_limit():
    # pair over the largest F_p the loader takes for it, 4^2 (p - 1)^2 < 2^63
    # with 4 the dim of its skew ring, and 24 pairs of entries p - 1: R is
    # F_p x F_p, so a sum over the pairs and b together would have 24
    # nonzero terms of (p - 1)^2 and wrap
    p = 759250111
    act = load_instance_dict(WORKLOADS["pair"]({"kind": "Fp", "p": p})).action
    top = act.field.vector([p - 1] * act.algebra.dim)
    coords = GaloisCoordinates([(top, top)] * 24)
    got, want = coordinate_sums(act, coords), arrow_sums(act, coords)
    assert all(np.array_equal(got[g], want[g]) for g in want)
    assert any(np.any(want[g]) for g in want)


@cache
def certified(name: str):
    state = SuiteState(load_instance_dict(DOCUMENTS[name]))
    assert state.coords is not None, name
    return state.inst.action, state.coords


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(
        ["builtins/pair_f5", "builtins/klein_disjoint2", "objects/pair_f5+cyclic_shift_c3", "rational/pair_qx2"]
    ),
    data=st.data(),
)
def test_a_bumped_coordinate_fails_where_the_per_arrow_check_fails(name, data):
    act, coords = certified(name)
    i = data.draw(st.integers(0, len(coords.pairs) - 1), label="pair")
    side = data.draw(st.sampled_from([0, 1]), label="x or y")
    k = data.draw(st.integers(0, act.algebra.dim - 1), label="entry")
    pairs = [(x.copy(), y.copy()) for x, y in coords.pairs]
    pairs[i][side][k] = act.field.reduce(pairs[i][side][k] + data.draw(st.integers(1, 4), label="bump"))
    bumped = GaloisCoordinates(pairs)
    ok, failures = check_galois_coordinates(act, bumped)
    want = arrow_failures(act, bumped)
    assert ok == (not want)
    assert [a for a, _ in failures] == [a for a, _ in want]
    for (_, res), (_, expect) in zip(failures, want):
        assert np.array_equal(res, expect)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_per_component_checks_equal_the_whole_r_checks(name):
    state, oracle = states(DOCUMENTS[name])
    act = state.inst.action
    if state.galois:
        assert j_isomorphism_check(act, state.skew, state.ctx.invariant_ring) == whole_j_isomorphism(
            act, oracle.skew, oracle.ctx.invariant_ring
        )
    end_space = endomorphism_space(act, state.ctx.invariant_ring, state.inst.algebra.full_space)
    assert end_space == whole_endomorphisms(act, oracle.ctx.invariant_ring)
    assert record(CHECKS["lemma_2_1"](state)) == record(lemma_2_1(oracle))
    assert record(CHECKS["lemma_3_7"](state)) == record(lemma_3_7(oracle))


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_lazy_pool_enumerates_as_the_eager_pool(name):
    state, oracle = states(DOCUMENTS[name])
    enum, want = state.center_enum, center_enum(oracle)
    assert enum.exhaustive == want.exhaustive
    assert [s.key() for s in enum.subalgebras] == [s.key() for s in want.subalgebras]


def test_pool_is_built_only_where_it_is_read(count_calls):
    # the walk decides every document of dim 6 or less over F_p, and a
    # commutative R is its own center; klein_disjoint2 is the one left
    pools = count_calls(_pool)
    built = []
    for name, doc in sorted(BENCHMARK.items()):
        before = len(pools)
        SuiteState(load_instance_dict(doc)).center_enum
        if len(pools) > before:
            built.append(name)
    assert built == ["builtins/klein_disjoint2"]


def test_full_base_enumerates_r_without_a_pool():
    # over Q the pool branch runs; a commutative R is its own center
    alg = load_instance_dict(BENCHMARK["rational/cyclic_shift_c3_q"]).algebra

    def pool():
        raise AssertionError("the pool was built")

    enum = enumerate_separable_subalgebras(alg, alg.full_space, pool)
    assert [s.key() for s in enum.subalgebras] == [alg.full_space.key()]
    # R is the only subalgebra containing R, so the list is exhaustive
    assert enum.exhaustive


# -- synthetic failures on klein_disjoint2 --------------------------------------

DISJOINT = BENCHMARK["builtins/klein_disjoint2"]


def second_part(label: str) -> frozenset:
    """The members of the wide part of klein_disjoint2's second component
    with this label."""
    ctx = GaloisContext(load_instance_dict(DISJOINT).action)
    return next(h.members for h in ctx.wide_parts[1] if h.label() == label)


def holding(state: SuiteState, part: frozenset) -> list[str]:
    """The labels of the wide H, in enumeration order, with ``part`` as
    their part in its component."""
    ctx = state.ctx
    return [h.label() for h in ctx.wide_subgroupoids if any(h.members & c == part for c in ctx.components)]


def spoil_gamma(monkeypatch, doc: dict, part: frozenset):
    """gamma reads 0 on every H whose part in the last component of ``doc``
    is ``part``."""
    last = components(load_instance_dict(doc).groupoid)[-1]
    real = GaloisContext.gamma

    def gamma(self, h):
        space, direct = real(self, h)
        return (Subspace.zero(space.field, space.ambient), direct) if h.members & last == part else (space, direct)

    monkeypatch.setattr(GaloisContext, "gamma", gamma)


def unclosed_fixers(monkeypatch, doc: dict, part: frozenset):
    """Fixers whose part in the last component of ``doc`` is ``part`` are
    reported not closed."""
    g = load_instance_dict(doc).groupoid
    last = components(g)[-1]
    real = suite.fixer_subgroupoid

    def fixer(act, t):
        h = real(act, t)
        if h.members & last == part:
            raise ActionError(f"fixer set {g.label(h.members)} is not closed; theorem violation")
        return h

    monkeypatch.setattr(suite, "fixer_subgroupoid", fixer)


def test_a_failing_part_lists_every_failing_wide_subgroupoid(monkeypatch):
    target = second_part("{e2,a2}")
    spoil_gamma(monkeypatch, DISJOINT, target)
    state, oracle = states(DISJOINT)
    out, want = CHECKS["lemma_3_7"](state), lemma_3_7(oracle)
    assert out.verdict == want.verdict == "violation" and out.detail == want.detail
    # the suite lists the part; the oracle lists each wide H holding it,
    # one for each of the five wide parts of the first copy
    assert [f["subgroupoid"] for f in out.witnesses["failures"]] == ["{e2,a2}"]
    failed = [f["subgroupoid"] for f in want.witnesses["failures"]]
    assert failed == holding(oracle, target) and len(failed) == 5


def test_a_part_fixer_that_is_not_closed_names_the_first_wide_failure(monkeypatch):
    target = second_part("{e2,a2}")
    unclosed_fixers(monkeypatch, DISJOINT, target)
    state, oracle = states(DISJOINT)
    out, want = CHECKS["lemma_2_1"](state), lemma_2_1(oracle)
    assert out.verdict == want.verdict == "violation"
    # the suite names the part, the oracle the first wide H holding it
    assert out.witnesses["subalgebra"] == "theta{e2,a2}"
    assert want.witnesses["subalgebra"] == f"theta{holding(oracle, target)[0]}"
    assert want.witnesses["subalgebra"].startswith("theta{e1")
    # and the wide H whose fixer is not closed are exactly those holding it
    act, ctx = oracle.inst.action, oracle.ctx
    unclosed = []
    for h in ctx.wide_subgroupoids:
        try:
            suite.fixer_subgroupoid(act, ctx.theta(h))
        except ActionError:
            unclosed.append(h.label())
    assert unclosed == holding(oracle, target)


@pytest.mark.parametrize("check", ["lemma_2_1", "lemma_3_7"])
def test_a_spoiled_single_component_gives_the_oracle_record(monkeypatch, check):
    # on klein_m2f3 the parts are the wide H, so nothing is renamed; the
    # spoiled part is the subgroup {e,a}
    doc = BENCHMARK["builtins/klein_m2f3"]
    ctx = GaloisContext(load_instance_dict(doc).action)
    target = ctx.wide_parts[0][1]
    (unclosed_fixers if check == "lemma_2_1" else spoil_gamma)(monkeypatch, doc, target.members)
    state, oracle = states(doc)
    out = CHECKS[check](state)
    assert record(out) == record({"lemma_2_1": lemma_2_1, "lemma_3_7": lemma_3_7}[check](oracle))
    assert out.verdict == "violation"
    named = out.witnesses["subalgebra"] if check == "lemma_2_1" else out.witnesses["failures"][0]["subgroupoid"]
    assert named.endswith(target.label())


def test_part_fixers_are_cut_to_their_component(monkeypatch):
    # fixers whose part in the second copy is {e2,a2} are read as holding
    # the whole second copy: still closed, and each wide H whose part there
    # is {e2,a2} must report it, as the fixer of the whole theta(H) does
    g = load_instance_dict(DISJOINT).groupoid
    target, second = second_part("{e2,a2}"), components(g)[1]
    real = suite.fixer_subgroupoid

    def fixer(act, t):
        h = real(act, t)
        return type(h)(g, h.members | second) if h.members & second == target else h

    monkeypatch.setattr(suite, "fixer_subgroupoid", fixer)
    state, oracle = states(DISJOINT)
    out = CHECKS["lemma_2_1"](state)
    assert record(out) == record(lemma_2_1(oracle))
    assert out.witnesses["fixers"]["theta{e1,e2,a2}"] == "{e1,e2,a2,b2,c2}"


@pytest.mark.parametrize("spoil", ["drop first", "drop last", "repeat"])
def test_a_spoiled_block_of_j_gives_the_whole_r_record(spoil):
    # drop: one basis element of the first or the second copy's block is
    # left out, so that block is not onto; repeat: one is listed twice, so
    # it is not injective
    state, oracle = states(DISJOINT)
    slots = state.skew.slots
    slots = {"drop first": slots[1:], "drop last": slots[:-1], "repeat": slots + [slots[-1]]}[spoil]
    for s in (state, oracle):
        s.__dict__["skew"] = SkewGroupoidRing(slots=list(slots), action=s.inst.action)
    act = state.inst.action
    rep = j_isomorphism_check(act, state.skew, state.ctx.invariant_ring)
    assert rep == whole_j_isomorphism(oracle.inst.action, oracle.skew, oracle.ctx.invariant_ring)
    assert (rep.injective, rep.surjective) == ((False, True) if spoil == "repeat" else (True, False))
    assert CHECKS["j_isomorphism"](state).verdict == "violation"


@pytest.mark.parametrize("doc, arrow, spoil", [
    ("builtins/klein_disjoint2", "a2", "ideal"),
    ("builtins/klein_disjoint2", "a2", "b2"),
    ("builtins/klein_disjoint2", "a2", "zero"),
    ("builtins/pair_f5", "e1", "zero"),
    ("builtins/pair_f5", "s", "ideal"),
    ("builtins/pair_f5", "t", "ideal"),
])
def test_a_spoiled_j_module_gives_the_all_pairs_table(doc, arrow, spoil):
    # J of one arrow is replaced by its ideal E_g, by the J of another
    # loop at its object, or by 0: the suite's table must still be the one
    # with every product formed.  pair_f5's only loops are its identities,
    # and its arrows s and t connect its two objects
    state, oracle = states(BENCHMARK[doc])
    before = CHECKS["lemma_3_4"](SuiteState(load_instance_dict(BENCHMARK[doc])))
    for s in (state, oracle):
        act, g, jm = s.inst.action, s.inst.groupoid, dict(s.ctx.jmodules)
        a = g.index(arrow)
        if spoil == "zero":
            jm[a] = Subspace.zero(act.field, act.algebra.dim)
        else:
            jm[a] = act.ideal(a) if spoil == "ideal" else jm[g.index(spoil)]
        s.ctx.jmodules = jm
    out, want = CHECKS["lemma_3_4"](state), lemma_3_4(oracle)
    assert out.witnesses["pairs"] == want.witnesses["pairs"] != before.witnesses["pairs"]
    if a in g.identities:
        # the suite reads V_{E_e}(R) as J_e, a fact that a spoiled J_e
        # breaks, so only the particular rows that read J_e may move
        moved = [r["g"] for r, w in zip(out.witnesses["particular"], want.witnesses["particular"]) if r != w]
        assert moved == [g.names[b] for b in g.arrows() if g.target[b] == a]
    else:
        assert record(out) == record(want)
    if spoil != "zero":
        rows = out.witnesses["pairs"]
        assert any(not r["equal"] and not r["reversed_equal"] for r in rows)
        assert out.verdict in ("skip", "violation") and (doc == "builtins/pair_f5") == (out.verdict == "skip")


# -- a change of basis of R leaves the records unmoved --------------------------


def change_basis(doc: dict, seed: int) -> dict:
    """``doc`` over F_p in the basis b'_i = sum_j P_ij b_j, for a random
    invertible P: a vector with coordinates x has coordinates x P^-1, the
    structure constants of b'_i b'_j follow, and beta becomes
    P^-T beta P^T on columns."""
    inst = load_instance_dict(doc)
    f, alg = inst.field, inst.algebra
    n, p = alg.dim, f.p
    rng = np.random.default_rng(seed)
    while True:
        mat = rng.integers(0, p, (n, n))
        reduced, pivots = linalg.rref(f, np.hstack([mat, f.eye(n)]))
        if pivots[-1] < n:
            break
    inv = reduced[:, n:]
    new = lambda v: (np.asarray(v) @ inv % p).tolist()  # noqa: E731
    table = np.einsum("ia,jb,abk->ijk", mat, mat, alg.table) % p @ inv % p
    names = inst.groupoid.names
    out = json.loads(json.dumps(doc))
    out["algebra"]["structure"] = [[i, j, k, int(table[i, j, k])] for i, j, k in np.argwhere(table).tolist()]
    out["algebra"]["unit"] = new(alg.unit)
    act = inst.action
    out["action"]["idempotents"] = {names[e]: new(v) for e, v in act.idempotents.items()}
    out["action"]["maps"] = {names[a]: (inv.T @ m @ mat.T % p).tolist() for a, m in act.beta.items()}
    if inst.coordinates is not None:
        out["coordinates"] = [[new(x), new(y)] for x, y in inst.coordinates.pairs]
    return out


@settings(max_examples=6, deadline=None)
@given(
    name=st.sampled_from(["objects/pair_f5x2", "objects/cyclic_shift_c3x2", "builtins/klein_disjoint2"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_change_of_basis_leaves_the_records_unmoved(name, seed):
    doc = BENCHMARK[name]
    moved = change_basis(doc, seed)
    before, after = SuiteState(load_instance_dict(doc)), SuiteState(load_instance_dict(moved))
    for cid in ("jmodules", "j_isomorphism", "lemma_2_1", "lemma_3_7"):
        assert record(CHECKS[cid](after)) == record(CHECKS[cid](before)), cid
