"""The suite builds no restriction: Proposition 2.2 is decided by
inheritance (its proof is ``prop_2_2``'s docstring), and Lemma 3.1 reads
each restriction's J modules and commutant off the parent.  The
restricted actions are built here instead, as their oracle: on every
subgroupoid of every benchmark document, ``restrict`` passes the full
validators, and the parent-read J modules, commutant and truncated
coordinate pairs equal the computation on the restricted action."""

import json
import runpy
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gglab import action, galois
from gglab.action import restrict, validate_action
from gglab.algebra import commutant
from gglab.galois import GaloisContext, GaloisCoordinates, check_galois_coordinates, coordinate_sums
from gglab.groupoid import enumerate_subgroupoids, validate_groupoid
from gglab.instances import clock_shift, load_builtin, load_instance_dict
from gglab.linalg import Subspace
from gglab.suite import CHECKS, SuiteState, run_suite

# the benchmark's instance documents, read without importing (or writing
# bytecode into) perfbench; its ``builtins`` workload is the five builtins,
# byte for byte
WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
DOCUMENTS = {
    **{
        f"{w}/{name}": json.loads(doc)
        for w in WORKLOADS["WORKLOADS"]
        for name, doc in WORKLOADS["documents"](w).items()
    },
    "clock_shift(2, 5)": clock_shift(2, 5),
    "clock_shift(3, 7)": clock_shift(3, 7),
}


def parent_tables(g, members):
    """H's names, composition and inverse tables read off G's, re-indexed
    in arrow order (an undefined or outside product is -1)."""
    members = sorted(members)
    pos = {a: i for i, a in enumerate(members)}
    names = [g.names[a] for a in members]
    comp = [[pos.get(g.comp[a][b], -1) for b in members] for a in members]
    inv = [pos[g.inv[a]] for a in members]
    return names, comp, inv


def truncated_coordinates(act, coords, h):
    """The truncated pairs (x_i 1_H, y_i 1_H) if they meet the delta
    condition in R on H's arrows, else None.  Read through the embedding
    R_H = 1_H R, this is the restriction's own coordinate condition: for
    g in H each sum lies in E_{r(g)} and 1_g is the parent's 1_g."""
    rows = act.algebra.products(coords.rows(act), act.unit_of(h)[None])[:, 0]
    cand = GaloisCoordinates(list(zip(rows[0::2], rows[1::2])))
    sums = coordinate_sums(act, cand)
    for g in h.members:
        want = act.idempotents[g] if g in act.groupoid.identities else act.field.zeros(act.algebra.dim)
        if not np.array_equal(sums[g], want):
            return None
    return cand


def same_matrices(left: dict, right: dict) -> bool:
    return left.keys() == right.keys() and all(np.array_equal(left[k], right[k]) for k in left)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_every_restriction_passes_the_full_validators(name):
    act = load_instance_dict(DOCUMENTS[name]).action
    g = act.groupoid
    for h in enumerate_subgroupoids(g):
        r = restrict(act, h)
        assert validate_groupoid(*parent_tables(g, h.members)) == r.groupoid, h.label()
        full = validate_action(r.groupoid, r.algebra, r.idempotents, r.beta)
        assert same_matrices(full.idempotents, r.idempotents), h.label()
        assert same_matrices(full.beta, r.beta), h.label()


@pytest.mark.parametrize("name", ["klein_disjoint2", "pair_f5"])
def test_the_suite_never_revalidates_an_action(monkeypatch, name):
    # the load certifies the action once (through instances' own binding);
    # no check calls validate_action again
    inst = load_builtin(name)
    calls = []
    validate = action.validate_action

    def counted(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(action, "validate_action", counted)
    run_suite(inst, scope="all")
    assert len(calls) == 0


@pytest.mark.parametrize("name", ["objects/pair_f5x3", "builtins/klein_disjoint2"])
def test_prop_2_2_builds_no_restriction(count_calls, name):
    # Proposition 2.2 is decided by inheritance: no restriction is built
    # and no truncated pairs are certified, however many subgroupoids
    # there are; the instance's own coordinates and the solve certify once
    # each at most
    inst = load_instance_dict(DOCUMENTS[name])
    restricts = count_calls(action.restrict)
    certifies = count_calls(galois.check_galois_coordinates)
    report = run_suite(inst, scope="all")
    assert [r.verdict for r in report.checks if r.check_id == "prop_2_2"] == ["pass"]
    assert len(restricts) == 0
    assert len(certifies) <= 2


@pytest.mark.parametrize("name", sorted(set(DOCUMENTS) - {"clock_shift(3, 7)"}))
def test_parent_read_facts_equal_the_restricted_computation(name):
    # per subgroupoid H, the restricted action's own J modules, commutant
    # V_{R_H}(R_H^beta) and truncated coordinate sums, embedded into R
    # through the rows of R_H's basis, equal what the suite reads off R
    state = SuiteState(load_instance_dict(DOCUMENTS[name]))
    act, ctx, f, n = state.inst.action, state.ctx, state.inst.field, state.inst.algebra.dim
    assert state.galois
    for h in ctx.all_subgroupoids:
        members = sorted(h.members)
        sub = restrict(act, h)
        sub_ctx = GaloisContext(sub)
        one_h = act.unit_of(h)
        ids = sorted(set(act.groupoid.identities) & h.members)
        emb = f.eye(n) if h.wide else Subspace(f, n, np.vstack([act.ideals[e].basis for e in ids])).basis

        def embed(rows):
            return f.reduce(np.dot(rows, emb))

        assert np.array_equal(embed(sub.algebra.unit), one_h), h.label()

        for i, g in enumerate(members):
            assert Subspace(f, n, embed(sub_ctx.jmodules[i].basis)) == ctx.jmodules[g], h.label()

        vr = commutant(sub.algebra, sub_ctx.invariant_ring, sub.algebra.full_space)
        parent = state.facts.commutant(ctx.theta(h))
        cut = Subspace(f, n, act.algebra.products(parent.basis, one_h[None])[:, 0])
        assert Subspace(f, n, embed(vr.basis)) == cut, h.label()

        cand = truncated_coordinates(act, state.coords, h)
        assert cand is not None, h.label()
        rows = cand.rows(act)
        sub_rows = rows if h.wide else Subspace(f, n, emb).coords_rows(rows)
        old = GaloisCoordinates(list(zip(sub_rows[0::2], sub_rows[1::2])))
        assert check_galois_coordinates(sub, old)[0], h.label()
        sub_sums = coordinate_sums(sub, old)
        sums = coordinate_sums(act, cand)
        assert all(np.array_equal(embed(sub_sums[i]), sums[g]) for i, g in enumerate(members)), h.label()


@pytest.mark.parametrize("name", ["builtins/klein_disjoint2", "objects/pair_f5x3"])
def test_the_suite_computes_each_j_module_once(monkeypatch, name):
    # lemma_3_1 reads every restriction's J_g off the parent's
    inst = load_instance_dict(DOCUMENTS[name])
    calls = Counter()
    j_module = galois.j_module

    def counted(act, g):
        calls[g] += 1
        return j_module(act, g)

    monkeypatch.setattr(galois, "j_module", counted)
    run_suite(inst, scope="all")
    assert calls == Counter(inst.groupoid.arrows())


def test_lemma_3_1_sees_a_dropped_j_module():
    # zero the J module of one arrow whose J is nonzero: exactly the
    # subgroupoids holding that arrow lose the decomposition
    state = SuiteState(load_builtin("klein_m2f3"))
    ctx, g = state.ctx, state.inst.groupoid
    a = g.index("a")
    assert ctx.jmodules[a].dim > 0
    ctx.jmodules[a] = Subspace.zero(state.inst.field, state.inst.algebra.dim)
    out = CHECKS["lemma_3_1"](state)
    assert out.verdict == "violation"
    holding = [h.label() for h in ctx.all_subgroupoids if a in h.members]
    assert 0 < len(holding) < len(ctx.all_subgroupoids)
    assert [f["subgroupoid"] for f in out.witnesses["failures"]] == holding
