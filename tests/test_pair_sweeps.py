"""The pair sweeps of Lemma 3.2, Lemma 3.6 and Theorem 3.11, and Theorem
3.10's injectivity readings, all read off classes of equal keys, against
the loops they replaced.

The oracles below are those loops, kept as they were: each compares
theta, gamma, J and a join on every pair, or forms theta(H) and gamma(H)
on every H.  The suite's checks read theta and gamma through their
per-component keys instead.  They must return an equal ``Outcome``,
witnesses in the same order, on every benchmark document, on
``clock_shift(2, 5)`` and on four copies of ``pair_f5``.  Lemma 3.2 lists
its non-wide coincidences once per theta-class where the oracle lists
pairs: each class expands into the pairs of its members that are not
both wide, and these must be the oracle's pairs, as a set and in number.
Lemma 3.6 lists each pair of arrows with equal J once where the oracle
lists it once per H holding both: expanded over the H, the pairs must give
the oracle's rows, and so the H on which it fails.
No shipped document runs Theorem 3.11 with a zero J module or has a
Lemma 3.6 clash, so synthetic states (J modules zeroed or made equal,
theta values made to collide) exercise those paths as well."""

import json
import runpy
from itertools import combinations
from pathlib import Path

import pytest

from gglab import groupoid
from gglab.galois import GaloisContext
from gglab.groupoid import Subgroupoid, is_subgroupoid, join
from gglab.instances import clock_shift, load_builtin, load_instance_dict
from gglab.linalg import Subspace
from gglab.suite import CHECKS, Outcome, SuiteState, _dcp_unmet, _skip, run_suite

WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
DOCUMENTS = {
    **{
        f"{w}/{name}": json.loads(doc)
        for w in WORKLOADS["WORKLOADS"]
        for name, doc in WORKLOADS["documents"](w).items()
    },
    "clock_shift(2, 5)": clock_shift(2, 5),
    "pair_f5x4": WORKLOADS["disjoint_union"]([WORKLOADS["pair"]({"kind": "Fp", "p": 5})] * 4, "pair_f5x4"),
}


def lemma_3_2(state: SuiteState) -> Outcome:
    if not state.galois:
        return _skip("Galois gate unmet")
    ctx = state.ctx
    checked = 0
    bad_pairs = []
    non_wide = 0
    non_wide_coincidences = []
    zero_j = {a for a, j in ctx.jmodules.items() if j.dim == 0}
    for h, l in combinations([h for h in ctx.all_subgroupoids if not h.members & zero_j], 2):
        coincide = ctx.theta(h) == ctx.theta(l)
        if h.wide and l.wide:
            checked += 1
            if coincide:
                bad_pairs.append([h.label(), l.label()])
        else:
            non_wide += 1
            if coincide:
                non_wide_coincidences.append([h.label(), l.label()])
    witnesses = {"non_wide_pairs_reported": non_wide, "non_wide_coincidences": non_wide_coincidences}
    witnesses.update({"pairs": bad_pairs} if bad_pairs else {"checked": checked})
    return Outcome(
        "violation" if bad_pairs else "pass",
        f"{checked} gated wide pairs; theta(H)=theta(L) forces H=L",
        witnesses,
    )


def lemma_3_6(state: SuiteState) -> Outcome:
    if not state.galois:
        return _skip("Galois gate unmet")
    ctx, g = state.ctx, state.inst.groupoid
    clashes = [
        {"subgroupoid": h.label(), "g": g.names[a], "h": g.names[b]}
        for h in ctx.all_subgroupoids
        for a, b in combinations(ctx.support(h), 2)
        if ctx.jmodules[a] == ctx.jmodules[b]
    ]
    if clashes:
        pairs = len({(c["g"], c["h"]) for c in clashes})
        detail = f"sigma not injective on the support of G: {pairs} pairs of arrows with equal nonzero J"
        return Outcome("violation", detail, {"clashes": clashes})
    return Outcome(
        "pass", "sigma restricted to each support set is injective", {"subgroupoids": len(ctx.all_subgroupoids)}
    )


def theorem_3_11(state: SuiteState) -> Outcome:
    why = _dcp_unmet(state)
    if why:
        return _skip(why)
    ctx = state.ctx
    bad = []
    pairs = 0
    non_wide_pairs = 0
    non_wide_discrepancies = []
    for h, l in combinations(ctx.all_subgroupoids, 2):
        eq_gamma = ctx.gamma(h)[0] == ctx.gamma(l)[0]
        eq_theta = ctx.theta(h) == ctx.theta(l)
        outside = join(h, l).members - (h.members & l.members)
        j_zero = all(ctx.jmodules[a].dim == 0 for a in outside)
        row = {
            "H": h.label(),
            "L": l.label(),
            "gamma_equal": eq_gamma,
            "theta_equal": eq_theta,
            "j_zero_outside_intersection": j_zero,
        }
        if h.wide and l.wide:
            pairs += 1
            if not (eq_gamma == eq_theta == j_zero):
                bad.append(row)
        else:
            non_wide_pairs += 1
            if not (eq_gamma == eq_theta == j_zero):
                non_wide_discrepancies.append(row)
    witnesses = {"non_wide_pairs_reported": non_wide_pairs, "non_wide_discrepancies": non_wide_discrepancies}
    witnesses.update({"failures": bad} if bad else {"pairs": pairs})
    return Outcome(
        "violation" if bad else "pass",
        f"three-way equivalence checked on {pairs} wide subgroupoid pairs",
        witnesses,
    )


def distinct(keys: list) -> bool:
    return len(set(keys)) == len(keys)


def theorem_3_10(state: SuiteState) -> Outcome:
    ctx = state.ctx
    both = {
        "theta_injective": {
            "wide": state.theta_wide[0],
            "all": distinct([ctx.theta(h).key() for h in ctx.all_subgroupoids]),
        },
        "gamma_injective": {
            "wide": state.gamma_wide_inj,
            "all": distinct([ctx.gamma(h)[0].key() for h in ctx.all_subgroupoids]),
        },
    }
    why = _dcp_unmet(state)
    if why:
        fail = state.dcp_fail
        return _skip(why, both if fail is None else {**both, "double_centralizer_failure": fail})
    ok = state.theta_wide[0] == state.gamma_wide_inj
    return Outcome(
        "pass" if ok else "violation",
        "double centralizer holds for every invariant ring; theta and gamma injectivity coincide",
        both if ok else {"table": both, "note": "equivalence failed on wide domain"},
    )


ORACLES = {"lemma_3_2": lemma_3_2, "lemma_3_6": lemma_3_6, "theorem_3_10": theorem_3_10, "theorem_3_11": theorem_3_11}


def class_pairs(state: SuiteState, witnesses: dict) -> list[tuple[str, str]]:
    """The non-wide coinciding pairs that Lemma 3.2's theta-classes stand
    for: the pairs of each class, in enumeration order, not both wide."""
    wide = {h.label() for h in state.ctx.wide_subgroupoids}
    return [
        (h, l)
        for members in witnesses["non_wide_theta_classes"]
        for h, l in combinations(members, 2)
        if not {h, l} <= wide
    ]


def pair_set(state: SuiteState, out: Outcome) -> Outcome:
    """``out`` with its non-wide coincidences read as (set of pairs,
    count): the suite's expanded from its classes, the oracle's as listed."""
    if not out.witnesses:
        return out
    w = dict(out.witnesses)
    if "non_wide_theta_classes" in w:
        pairs, count = class_pairs(state, w), w["non_wide_coincidences"]
        del w["non_wide_theta_classes"]
    else:
        pairs = [tuple(pair) for pair in w["non_wide_coincidences"]]
        count = len(pairs)
    assert len(set(pairs)) == len(pairs)
    w["non_wide_coincidences"] = (set(pairs), count)
    return out._replace(witnesses=w)


def clashes_per_subgroupoid(state: SuiteState, out: Outcome) -> Outcome:
    """``out`` with each Lemma 3.6 clash repeated for every H holding both
    of its arrows, H in enumeration order, as the oracle lists them."""
    if not (out.witnesses and "clashes" in out.witnesses):
        return out
    g = state.inst.groupoid
    rows = [
        {"subgroupoid": h.label(), **clash}
        for h in state.ctx.all_subgroupoids
        for clash in out.witnesses["clashes"]
        if {g.index(clash["g"]), g.index(clash["h"])} <= h.members
    ]
    return out._replace(witnesses={"clashes": rows})


def assert_sweeps_match(state: SuiteState) -> dict[str, Outcome]:
    """Each bucketed check equals its oracle on ``state``, witness order
    included (Lemma 3.2's coincidences as a set of pairs and their count,
    Lemma 3.6's clashes expanded over the H); returns the outcomes."""
    outs = {}
    for cid, oracle in ORACLES.items():
        out, want = CHECKS[cid](state), oracle(state)
        if cid == "lemma_3_2":
            assert pair_set(state, out) == pair_set(state, want), cid
        elif cid == "lemma_3_6":
            assert json.dumps(list(clashes_per_subgroupoid(state, out))) == json.dumps(list(want)), cid
        else:
            assert json.dumps(list(out)) == json.dumps(list(want)), cid
        outs[cid] = out
    return outs


def first_wide_coincidence(state: SuiteState) -> list[str] | None:
    """The first pair (earlier H, H) with equal theta(H) subspaces that an
    in-order scan of the wide subgroupoids meets, or None."""
    seen = {}
    for h in state.ctx.wide_subgroupoids:
        key = state.ctx.theta(h).key()
        if key in seen:
            return [seen[key].label(), h.label()]
        seen[key] = h
    return None


def zero_space(state: SuiteState) -> Subspace:
    return Subspace(state.inst.field, state.inst.algebra.dim, state.inst.field.zeros((0, state.inst.algebra.dim)))


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_bucketed_sweeps_equal_the_all_pairs_loops(name):
    assert_sweeps_match(SuiteState(load_instance_dict(DOCUMENTS[name])))


def test_sweeps_with_zero_j_modules():
    # J_a1 = J_b1 = 0 on klein_disjoint2, set before any gamma is formed:
    # Lemma 3.2 gates out every subgroupoid holding a1 or b1, and Theorem
    # 3.11 meets pairs whose join lies in Z off H & L ({e1}, {e1,a1}) and
    # pairs with H - Z = L - Z whose join holds c1 ({e1,a1}, {e1,b1})
    state = SuiteState(load_builtin("klein_disjoint2"))
    g = state.inst.groupoid
    for name in ("a1", "b1"):
        state.ctx.jmodules[g.index(name)] = zero_space(state)
    outs = assert_sweeps_match(state)
    rows = outs["theorem_3_11"].witnesses["non_wide_discrepancies"]
    assert {"H": "{e1}", "L": "{e1,a1}", "gamma_equal": True, "theta_equal": False,
            "j_zero_outside_intersection": True} in rows
    assert {"H": "{e1,a1}", "L": "{e1,b1}", "gamma_equal": True, "theta_equal": False,
            "j_zero_outside_intersection": False} in rows
    assert outs["theorem_3_11"].verdict == "violation"


def test_sweeps_with_equal_j_modules():
    # J_b1 := J_a1 puts a clash into every subgroupoid holding both; the
    # suite reports the pair once, the oracle once per such subgroupoid
    state = SuiteState(load_builtin("klein_disjoint2"))
    g = state.inst.groupoid
    state.ctx.jmodules[g.index("b1")] = state.ctx.jmodules[g.index("a1")]
    outs = assert_sweeps_match(state)
    assert outs["lemma_3_6"].verdict == "violation"
    assert outs["lemma_3_6"].witnesses["clashes"] == [{"g": "a1", "h": "b1"}]
    assert outs["lemma_3_6"].detail == "sigma not injective on the support of G: 1 pairs of arrows with equal nonzero J"
    clashes = lemma_3_6(state).witnesses["clashes"]
    holding = [h.label() for h in state.ctx.all_subgroupoids if {g.index("a1"), g.index("b1")} <= h.members]
    assert [c["subgroupoid"] for c in clashes] == holding and len(holding) == 6
    assert {(c["g"], c["h"]) for c in clashes} == {("a1", "b1")}


def test_equal_j_modules_on_one_component():
    # on klein_m2f3, J_b := J_c := J_a gives three clashes, one per pair;
    # the whole group is the only H holding any pair, so the oracle lists
    # the three there
    state = SuiteState(load_builtin("klein_m2f3"))
    g = state.inst.groupoid
    for name in ("b", "c"):
        state.ctx.jmodules[g.index(name)] = state.ctx.jmodules[g.index("a")]
    outs = assert_sweeps_match(state)
    assert outs["lemma_3_6"].witnesses["clashes"] == [
        {"g": "a", "h": "b"}, {"g": "a", "h": "c"}, {"g": "b", "h": "c"}
    ]
    assert [c["subgroupoid"] for c in lemma_3_6(state).witnesses["clashes"]] == ["{e,a,b,c}"] * 3


def test_sweeps_with_colliding_theta():
    # theta of the last wide subgroupoid := theta of the first, injected
    # where each side reads it: the sweeps' key and the oracles' subspace.
    # Lemma 3.2 and Theorem 3.11 report the wide pair as a failure, as the
    # all-pairs loops did, and theta is no longer injective on every H
    state = SuiteState(load_builtin("klein_disjoint2"))
    ctx = state.ctx
    first, last = ctx.wide_subgroupoids[0], ctx.wide_subgroupoids[-1]
    theta, theta_key = ctx.theta, ctx.theta_key
    ctx.theta = lambda h: theta(first) if h == last else theta(h)
    ctx.theta_key = lambda h: theta_key(first) if h == last else theta_key(h)
    outs = assert_sweeps_match(state)
    assert outs["lemma_3_2"].witnesses["pairs"] == [[first.label(), last.label()]]
    assert state.theta_wide == (False, first_wide_coincidence(state)) == (False, [first.label(), last.label()])
    assert outs["theorem_3_11"].verdict == "violation"
    assert outs["theorem_3_10"].witnesses["table"]["theta_injective"] == {"wide": False, "all": False}


def test_sweeps_with_a_collision_inside_one_component():
    # theta({e2,a2}) := theta({e2,b2}) inside the second Klein group of
    # klein_disjoint2, on every H whose part there is {e2,a2}: theta(H) reads
    # theta of H with that part swapped, as the component split demands of
    # a real collision.  The keys see it through the part, the oracles
    # through the whole subspace, and every H holding the part collides
    # with its swap: five wide pairs, one per closed set of the first copy
    # holding e1, and the non-wide pair of the two parts alone
    state = SuiteState(load_builtin("klein_disjoint2"))
    ctx, g = state.ctx, state.inst.groupoid
    comp = ctx.components[1]
    part, swap = (frozenset(map(g.index, names)) for names in (("e2", "a2"), ("e2", "b2")))
    theta = ctx.theta

    def swapped(h):
        return Subgroupoid(g, h.members - part | swap) if h.members & comp == part else h

    ctx.theta = lambda h: theta(swapped(h))
    outs = assert_sweeps_match(state)
    lemma = outs["lemma_3_2"].witnesses
    reported = {frozenset(pair) for pair in lemma["pairs"] + class_pairs(state, lemma)}
    holding = [h for h in ctx.all_subgroupoids if h.members & comp == part]
    assert len(holding) == 6
    assert {frozenset([h.label(), swapped(h).label()]) for h in holding} <= reported
    assert len(lemma["pairs"]) == sum(h.wide for h in holding) == 5
    assert state.theta_wide == (False, first_wide_coincidence(state))
    assert state.theta_wide[1] in lemma["pairs"]
    assert outs["theorem_3_11"].verdict == "violation"
    assert outs["theorem_3_10"].witnesses["table"]["theta_injective"] == {"wide": False, "all": False}


def test_theorem_3_11_forms_no_join(count_calls):
    # with no zero J module, H - Z = L - Z only for H = L, so no pair needs
    # a join; the all-pairs loop formed one per pair, 35 * 34 / 2 = 595
    joins = count_calls(groupoid.join)
    report = run_suite(load_builtin("klein_disjoint2"), scope="all")
    assert [r.verdict for r in report.checks if r.check_id == "theorem_3_11"] == ["pass"]
    assert len(joins) == 0


@pytest.mark.parametrize("name", ["klein_disjoint2", "pair_f5x4"])
def test_one_suite_forms_each_key_once(monkeypatch, name):
    # every theta/gamma coincidence is read off the suite's two key lists,
    # so one all suite asks for each subgroupoid's keys once; the
    # per-check key lists asked 130/95 times on klein_disjoint2's 35
    calls = {"theta_key": 0, "gamma_key": 0}
    for attr in calls:
        method = getattr(GaloisContext, attr)

        def counted(self, h, attr=attr, method=method):
            calls[attr] += 1
            return method(self, h)

        monkeypatch.setattr(GaloisContext, attr, counted)
    inst = load_builtin(name) if name == "klein_disjoint2" else load_instance_dict(DOCUMENTS[name])
    run_suite(inst, scope="all")
    n = len(GaloisContext(inst.action).all_subgroupoids)
    assert n == {"klein_disjoint2": 35, "pair_f5x4": 624}[name]
    assert calls == {"theta_key": n, "gamma_key": n}


def test_lemma_3_8_violation_lists_every_subgroupoid_between():
    # on klein_m2f3 the support of G := {e} puts the three subgroups of
    # order 2 strictly between S_G and G; every other wide H keeps its
    # support, so these are the only rows, as a scan of every arrow set
    # finds them
    state = SuiteState(load_builtin("klein_m2f3"))
    ctx, g = state.ctx, state.inst.groupoid
    whole, e = frozenset(g.arrows()), g.index("e")
    support = ctx.support
    ctx.support = lambda h: [e] if h.members == whole else support(h)
    out = CHECKS["lemma_3_8"](state)
    rows = [
        {"subgroupoid": h.label(), "between": g.label(frozenset(m))}
        for h in ctx.wide_subgroupoids
        for k in range(1, len(h.members))
        for m in combinations(sorted(h.members), k)
        if set(ctx.support(h)) < set(m) and is_subgroupoid(g, m)
    ]
    assert out.verdict == "violation"
    assert out.detail == "3 (H, subgroupoid) pairs with the subgroupoid strictly between S_H and H"
    assert out.witnesses == {"violations": rows}
    assert [r["between"] for r in rows] == ["{e,a}", "{e,b}", "{e,c}"]
