"""Lemma 3.1 and the double-centralizer hypothesis, decided one connected
component at a time, against the all-subgroupoid loops they replaced; and
the per-component keys of theta and gamma against whole-subspace equality.

The oracles below are those loops, kept as they were: each walks every
subgroupoid of G.  The suite's answers must be equal, witnesses in the
same order, on every benchmark document and on a union of ``pair_f5``
with ``klein_m2(5)``.  None of them fails Lemma 3.1.  The hypothesis
fails on most of the unions, each time first on a subgroupoid inside one
component, which is the first one in enumeration order as well.  So
synthetic states make one single-component subgroupoid of
``klein_disjoint2`` fail, for every H that holds it as its part in that
component.  The suite reports that part; the oracle must reach the same
verdict, and the H on which it fails must be exactly those holding the
part.  With one component the parts are the H themselves, so a spoiled
``klein_m2f3`` must give the oracle's record byte for byte.

theta(H) of a subgroupoid spanning several components must equal the sum
over components c of 1_c theta(H_c), formed here from its parts, on the
documents with several components and on shuffled arrow orders of
``klein_disjoint2``: the fact on which ``theta_key`` rests.

``theta_key`` and ``gamma_key`` must split the subgroupoids into the same
classes as the canonical keys of theta(H) and gamma(H) formed whole, on
the same documents, on four copies of ``pair_f5``, on six of
``cyclic_shift_c3`` and on shuffled arrow orders."""

import json
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gglab.action import invariants
from gglab.galois import GaloisContext
from gglab.groupoid import Subgroupoid, components
from gglab.instances import load_instance_dict
from gglab.linalg import Subspace
from gglab.suite import CHECKS, Outcome, SuiteState, _skip

WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
FP5 = {"kind": "Fp", "p": 5}
DOCUMENTS = {
    **{
        f"{w}/{name}": json.loads(doc)
        for w in WORKLOADS["WORKLOADS"]
        for name, doc in WORKLOADS["documents"](w).items()
    },
    "pair_f5+klein_m2(5)": WORKLOADS["disjoint_union"](
        [WORKLOADS["pair"](FP5), WORKLOADS["klein_m2"](5)], "pair_f5+klein_m2(5)"
    ),
}
KEYED = {
    **DOCUMENTS,
    "pair_f5x4": WORKLOADS["disjoint_union"]([WORKLOADS["pair"](FP5)] * 4, "pair_f5x4"),
    "cyclic_shift_c3x6": WORKLOADS["disjoint_union"]([WORKLOADS["cyclic_shift"](FP5)] * 6, "cyclic_shift_c3x6"),
}


def lemma_3_1(state: SuiteState) -> Outcome:
    if not state.galois:
        return _skip("Galois gate unmet")
    act, ctx = state.inst.action, state.ctx
    subs = ctx.all_subgroupoids
    failures = []
    for h in subs:
        vr = state.facts.commutant(ctx.theta(h))
        if not h.wide:
            vr = Subspace(act.field, act.algebra.dim, act.algebra.products(vr.basis, act.unit_of(h)[None])[:, 0])
        total, direct = ctx.gamma(h)
        equal = total == vr
        if not (equal and direct):
            failures.append(
                {
                    "subgroupoid": h.label(),
                    "equal": equal,
                    "direct": direct,
                    "commutant_dim": vr.dim,
                    "sum_dim": total.dim,
                }
            )
    wide = sum(h.wide for h in subs)
    return Outcome(
        "violation" if failures else "pass",
        f"{len(subs)} restriction checks ({wide} wide); decomposition "
        + ("violated" if failures else "exact and direct everywhere"),
        {"failures": failures} if failures else {"checks": len(subs), "wide": wide},
    )


def dcp_fail(state: SuiteState) -> dict | None:
    for h in state.ctx.all_subgroupoids:
        th = state.ctx.theta(h)
        vv = state.facts.commutant(state.facts.commutant(th))
        if vv != th:
            return {"subgroupoid": h.label(), "invariants_dim": th.dim, "bicommutant_dim": vv.dim}
    return None


def assert_checks_match(doc: dict) -> tuple[Outcome, dict | None]:
    """The per-component answers equal the oracles' on ``doc``, with no
    cache shared between them; returns the suite's."""
    state, oracle = SuiteState(load_instance_dict(doc)), SuiteState(load_instance_dict(doc))
    out, fail = CHECKS["lemma_3_1"](state), state.dcp_fail
    assert json.dumps(list(out)) == json.dumps(list(lemma_3_1(oracle)))
    assert fail == dcp_fail(oracle)
    return out, fail


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_per_component_checks_equal_the_all_subgroupoid_loops(name):
    assert_checks_match(DOCUMENTS[name])


def failing_part(monkeypatch, owner, method, spoil, name="builtins/klein_disjoint2"):
    """Make ``owner.method`` answer ``spoil(answer)`` on every H whose part in
    the last component of the document is its last closed set there, and
    return the document and that set's label.  On klein_disjoint2 every
    such H holds an arrow of the first component except the set itself,
    so the first failure in enumeration order spans both components."""
    doc = DOCUMENTS[name]
    g = load_instance_dict(doc).groupoid
    last = components(g)[-1]
    target = [h for h in GaloisContext(load_instance_dict(doc).action).component_subgroupoids if h.members <= last][-1]
    real = getattr(owner, method)

    def patched(self, h):
        answer = real(self, h)
        return spoil(answer) if h.members & last == target.members else answer

    monkeypatch.setattr(owner, method, patched)
    return doc, target.label()


def holding(state: SuiteState, parts: list[str]) -> list[str]:
    """The labels of the H, in enumeration order, whose part in some
    component is one of ``parts``."""
    g, ctx = state.inst.groupoid, state.ctx
    return [h.label() for h in ctx.all_subgroupoids if any(g.label(h.members & c) in parts for c in ctx.components)]


def bicommutant_failures(state: SuiteState) -> list[str]:
    """Every H, in enumeration order, whose theta(H) is not its own
    bicommutant: ``dcp_fail`` without the early stop."""
    facts, ctx = state.facts, state.ctx
    return [h.label() for h in ctx.all_subgroupoids if facts.commutant(facts.commutant(ctx.theta(h))) != ctx.theta(h)]


def states(doc: dict) -> tuple[SuiteState, SuiteState]:
    """Two states of ``doc`` that share no cache: the suite's and the oracle's."""
    return SuiteState(load_instance_dict(doc)), SuiteState(load_instance_dict(doc))


def spoil_directness(answer):
    return answer[0], False


def zero(space):
    # theta reads 0 on the spoiled H, whose bicommutant V_R(R) = C(R) is not 0
    return Subspace(space.field, space.ambient, space.field.zeros((0, space.ambient)))


def test_a_failing_component_lists_every_failure(monkeypatch):
    doc, target = failing_part(monkeypatch, GaloisContext, "gamma", spoil_directness)
    state, oracle = states(doc)
    out, want = CHECKS["lemma_3_1"](state), lemma_3_1(oracle)
    assert out.verdict == want.verdict == "violation" and out.detail == want.detail
    # the suite lists the failing part; the oracle lists every H holding it:
    # the part and its union with each closed set of the first copy (five
    # there, so six in all), in enumeration order
    assert [f["subgroupoid"] for f in out.witnesses["failures"]] == [target]
    failed = [f["subgroupoid"] for f in want.witnesses["failures"]]
    assert failed == holding(oracle, [target]) and len(failed) == 6 and failed[0] != target
    assert out.witnesses["failures"] == [f for f in want.witnesses["failures"] if f["subgroupoid"] == target]


def test_a_failing_component_names_the_first_bicommutant_failure(monkeypatch):
    doc, target = failing_part(monkeypatch, GaloisContext, "theta", zero)
    state, oracle = states(doc)
    fail, want = state.dcp_fail, dcp_fail(oracle)
    # both fail; the suite names the part, the oracle the first H holding it
    assert fail["subgroupoid"] == target and fail["invariants_dim"] == 0
    assert want["subgroupoid"] != target and want["subgroupoid"] == holding(oracle, [target])[0]
    assert bicommutant_failures(oracle) == holding(oracle, [target])


@pytest.mark.parametrize("method, spoil", [("gamma", spoil_directness), ("theta", zero)])
def test_a_spoiled_single_component_gives_the_oracle_record(monkeypatch, method, spoil):
    # with one component the parts are the H, so nothing is renamed
    doc, target = failing_part(monkeypatch, GaloisContext, method, spoil, "builtins/klein_m2f3")
    out, fail = assert_checks_match(doc)
    if method == "gamma":
        assert out.verdict == "violation" and [f["subgroupoid"] for f in out.witnesses["failures"]] == [target]
    else:
        assert fail["subgroupoid"] == target and fail["invariants_dim"] == 0


def classes(subs, key) -> list[list[int]]:
    """The partition of ``subs`` (by position) into classes of equal key."""
    out: dict = {}
    for i, h in enumerate(subs):
        out.setdefault(key(h), []).append(i)
    return sorted(out.values())


def assert_keys_split_like_subspaces(doc: dict):
    """theta_key and gamma_key partition every subgroupoid as the whole
    theta(H) and gamma(H) do, with no cache shared between the two sides."""
    keyed, whole = GaloisContext(load_instance_dict(doc).action), GaloisContext(load_instance_dict(doc).action)
    subs = keyed.all_subgroupoids
    assert classes(subs, keyed.theta_key) == classes(subs, lambda h: invariants(whole.act, h.members).key())
    assert classes(subs, keyed.gamma_key) == classes(subs, lambda h: whole.gamma(h)[0].key())


@pytest.mark.parametrize("name", sorted(KEYED))
def test_component_keys_split_like_the_subspaces(name):
    assert_keys_split_like_subspaces(KEYED[name])


def permuted(doc: dict, order: list[int]) -> dict:
    """``doc`` with its arrows listed in ``order``; maps are keyed by name."""
    gp = doc["groupoid"]
    return {
        **doc,
        "groupoid": {
            **gp,
            "arrows": [gp["arrows"][a] for a in order],
            "compose": [[gp["compose"][a][b] for b in order] for a in order],
            "inverse": [gp["inverse"][a] for a in order],
        },
    }


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["objects/pair_f5x2", "builtins/klein_disjoint2"]), data=st.data())
def test_component_keys_are_blind_to_arrow_order(name, data):
    # a shuffled order interleaves the components' arrows, so no component
    # is a contiguous block of indices
    doc = DOCUMENTS[name]
    order = data.draw(st.permutations(range(len(doc["groupoid"]["arrows"]))))
    assert_keys_split_like_subspaces(permuted(doc, order))


MULTI_COMPONENT = sorted(name for name, doc in DOCUMENTS.items() if len(components(load_instance_dict(doc).groupoid)) > 1)


def theta_from_parts(ctx: GaloisContext, h) -> Subspace:
    """sum_c 1_c theta(H_c), each part solved on its own, with theta(empty) = R."""
    act = ctx.act
    rows = [
        act.algebra.products(invariants(act, h.members & c).basis, act.unit_of(Subgroupoid(act.groupoid, c))[None])[:, 0]
        for c in ctx.components
    ]
    return Subspace(act.field, act.algebra.dim, np.vstack(rows))


def assert_theta_equals_the_invariants(doc: dict):
    ctx = GaloisContext(load_instance_dict(doc).action)
    spanning = 0
    for h in ctx.all_subgroupoids:
        got, want = ctx.theta(h), theta_from_parts(ctx, h)
        assert got == want and got.pivots == want.pivots, h.label()
        spanning += sum(bool(h.members & c) for c in ctx.components) > 1
    assert spanning


@pytest.mark.parametrize("name", MULTI_COMPONENT)
def test_theta_from_parts_equals_the_invariants(name):
    assert_theta_equals_the_invariants(DOCUMENTS[name])


def test_theta_from_parts_covers_the_multi_component_documents():
    assert "builtins/klein_disjoint2" in MULTI_COMPONENT and "pair_f5+klein_m2(5)" in MULTI_COMPONENT
    assert len(MULTI_COMPONENT) >= 5


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_theta_from_parts_is_blind_to_arrow_order(data):
    doc = DOCUMENTS["builtins/klein_disjoint2"]
    order = data.draw(st.permutations(range(len(doc["groupoid"]["arrows"]))))
    assert_theta_equals_the_invariants(permuted(doc, order))
