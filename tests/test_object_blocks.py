"""Theorem 3.9 and Section 4 read one object block at a time under the
central gate, against the whole-R computations they replace.

The oracle is the whole-R walk: at ``EXHAUSTIVE_DIM = 8`` it walks
``klein_disjoint2`` (dim 8) whole, and its 121 separable subalgebras over
the center must be exactly the sums of the 11 + 11 of the two M_2(F_3)
blocks; the whole-R double-centralizer sweep and the Theorem 4.1
identities over those 121 must agree, member by member, with the
conjunctions of the blocks'; and the suite's Section 4 records must be
those of the whole-R path.  Unions of central documents are a
metamorphic test: Section 4 holds on a union iff it holds on every part,
and the counts multiply.  Objects with 1_e = 0 add nothing, joined by an
arrow or not."""

import dataclasses
import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from gglab import separability, suite
from gglab.instances import builtin, load_builtin, load_instance_dict
from gglab.linalg import Subspace
from gglab.suite import CHECKS, SuiteState, run_suite
from test_separability import failing

WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
OBJECTS = {name: json.loads(doc) for name, doc in WORKLOADS["documents"]("objects").items()}
SECTION_4 = ("theorem_3_9", "fundamental_theorem", "theorem_4_1", "lemma_4_2", "theorem_4_3", "theorem_4_4")


def part(name: str) -> dict:
    """A builtin over F_3: ``trivial`` (F_5 as shipped, all of its entries
    0 or 1) is moved to F_3, so that it sits beside ``klein_m2f3``."""
    doc = builtin(name)
    doc["field"] = {"kind": "Fp", "p": 3}
    return doc


def union(names: list[str]) -> dict:
    return WORKLOADS["disjoint_union"]([part(name) for name in names], "+".join(names))


def records(report, ids=SECTION_4) -> dict:
    return {c.check_id: (c.verdict, c.detail, c.witnesses) for c in report.checks if c.check_id in ids}


def whole(monkeypatch):
    """Take the whole-R path on every document, as before the split."""
    monkeypatch.setattr(suite, "walkable", lambda field, dim: False)


def sums(state: SuiteState) -> dict[tuple, list[Subspace]]:
    """Every sum of one member per block, by its key in R's coordinates,
    with its block members."""
    out = [[]]
    for b in state.blocks:
        out = [members + [s] for members in out for s in b.enum.subalgebras]
    f, n = state.inst.field, state.inst.algebra.dim
    return {
        Subspace(f, n, np.vstack([b.lift(s).basis for b, s in zip(state.blocks, members)])).key(): members
        for members in out
    }


@pytest.fixture(scope="module")
def walked() -> tuple[SuiteState, list[Subspace]]:
    """klein_disjoint2 split into its blocks, and walked whole at
    EXHAUSTIVE_DIM = 8."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(separability, "EXHAUSTIVE_DIM", 8)
        state = SuiteState(load_builtin("klein_disjoint2"))
        state.blocks
        enum = state.center_enum
    assert enum.exhaustive
    return state, enum.subalgebras


# -- the whole-R walk as the oracle -------------------------------------------


def test_whole_walk_is_the_product_of_the_block_walks(walked):
    state, members = walked
    assert state.central and [b.alg.dim for b in state.blocks] == [4, 4]
    assert [len(b.enum.subalgebras) for b in state.blocks] == [11, 11]
    assert {s.key() for s in members} == set(sums(state)) and len(members) == 121


def test_whole_sweep_agrees_member_by_member_with_the_block_clauses(walked):
    """The double-centralizer clauses and the Theorem 4.1 identities of
    each of the 121 sums, computed over R, against those of its block
    members: a conjunction for the double centralizer, the commutant's
    separability and both identities; the tensor clause is skipped unless
    every block member is central, and then holds iff it holds in every
    block.  Each sweep, of a block and of R, fails exactly the members
    whose check fails: none."""
    state, members = walked
    alg, ctx = state.inst.algebra, state.ctx
    by_key = sums(state)
    block_rows = [
        {s.key(): separability.double_centralizer_check(b.alg, s, b.center, b.facts) for s in b.enum.subalgebras}
        for b in state.blocks
    ]
    rows = [separability.double_centralizer_check(alg, s, ctx.center, state.facts) for s in members]
    for b, table in zip(state.blocks, block_rows):
        got = separability.double_centralizer_sweep(b.alg, b.enum.subalgebras, b.center, b.facts)
        assert got == failing(table.values()) == []
    assert separability.double_centralizer_sweep(alg, members, ctx.center, state.facts) == failing(rows) == []
    # R as its own block, for the identities over R
    arrows = frozenset(state.inst.groupoid.arrows())
    r = suite.Block(alg, None, alg, alg.full_space, ctx.center, state.facts, None, arrows, [])
    tensor_seen = set()
    for s, row in zip(members, rows):
        parts = by_key[s.key()]
        got = [table[p.key()] for table, p in zip(block_rows, parts)]
        assert row.double_centralizer_holds == all(g.double_centralizer_holds for g in got)
        assert row.commutant_separable == all(g.commutant_separable for g in got)
        clauses = {g.tensor_clause for g in got}
        if "skipped (A not central)" in clauses:
            assert row.tensor_clause == "skipped (A not central)"
        else:
            assert row.tensor_clause == ("holds" if clauses == {"holds"} else "fails")
        tensor_seen.add(row.tensor_clause)
        identities = [state.identities(b, p) for b, p in zip(state.blocks, parts)]
        assert state.identities(r, s) == (all(i[0] for i in identities), all(i[1] for i in identities))
    assert tensor_seen == {"holds", "skipped (A not central)"}


def test_section_4_records_equal_the_whole_r_walk(monkeypatch):
    monkeypatch.setattr(separability, "EXHAUSTIVE_DIM", 8)
    split = run_suite(load_builtin("klein_disjoint2"))
    whole(monkeypatch)
    want = records(run_suite(load_builtin("klein_disjoint2")))
    assert records(split) == want
    assert want["fundamental_theorem"][0] == "pass" and want["fundamental_theorem"][2]["separable_subalgebras"] == 121


def test_shipped_split_decides_every_record():
    report = run_suite(load_builtin("klein_disjoint2"))
    got = records(report)
    assert {cid: verdict for cid, (verdict, _, _) in got.items()} == {
        "theorem_3_9": "pass",
        "fundamental_theorem": "pass",
        "theorem_4_1": "skip",
        "lemma_4_2": "pass",
        "theorem_4_3": "skip",
        "theorem_4_4": "pass",
    }
    assert got["fundamental_theorem"][1] == "theta is NOT a bijection onto the 121 separable subalgebras (exhaustive)"
    assert got["theorem_3_9"][2] == {"swept": 121, "mode": "exhaustive"}
    assert all(c.verdict != "inconclusive" for c in report.checks)


def test_a_one_object_document_is_its_own_block(count_calls):
    """R is the only block: the state's own enumeration, facts and center,
    and no block algebra is built."""
    built = count_calls(suite.subspace_algebra)
    state = SuiteState(load_builtin("klein_m2f3"))
    (b,) = state.blocks
    assert b.name is None and b.alg is state.inst.algebra and b.facts is state.facts
    assert b.enum is state.center_enum and b.center is state.ctx.center
    run_suite(load_builtin("klein_m2f3"))
    assert built == []


def test_a_block_above_the_cap_keeps_the_whole_r_path(monkeypatch):
    """With the cap below the blocks' dimension 4, R is its own block and
    takes the pool, which leaves the fundamental theorem undecided."""
    monkeypatch.setattr(separability, "EXHAUSTIVE_DIM", 3)
    state = SuiteState(load_builtin("klein_disjoint2"))
    assert state.central and [b.name for b in state.blocks] == [None]
    got = records(run_suite(load_builtin("klein_disjoint2")))
    assert got["fundamental_theorem"][0] == "inconclusive"
    assert got["fundamental_theorem"][2]["mode"] == "pool-restricted"


def test_the_pool_is_not_built_for_a_split_document(count_calls):
    pools = count_calls(suite._pool)
    run_suite(load_builtin("klein_disjoint2"))
    run_suite(load_instance_dict(union(["klein_m2f3"] * 3)))
    assert pools == []


def test_a_spoiled_block_names_its_object(monkeypatch):
    """The second block's sweep is made to fail the double centralizer of
    its first member: Theorem 3.9 fails on that member alone, named by its
    object, in R's coordinates."""
    real = suite.double_centralizer_sweep
    calls = []

    def spoiled(alg, members, base, facts):
        fails = real(alg, members, base, facts)
        calls.append(len(members))
        if len(calls) == 2:
            row = separability.double_centralizer_check(alg, members[0], base, facts)
            fails = [dataclasses.replace(row, double_centralizer_holds=False)] + fails
        return fails

    monkeypatch.setattr(suite, "double_centralizer_sweep", spoiled)
    state = SuiteState(load_builtin("klein_disjoint2"))
    out = CHECKS["theorem_3_9"](state)
    second = state.blocks[1]
    assert out.verdict == "violation" and calls == [11, 11]
    (fail,) = out.witnesses["failures"]
    assert fail["object"] == "e2"
    assert fail["subalgebra"] == second.lift(second.enum.subalgebras[0]).to_json()
    assert fail["result"]["double_centralizer"] is False


# -- the central gate and disjoint unions ---------------------------------------


@pytest.mark.parametrize("name", ["pair_f5", "pair_f5x2", "pair_f5+cyclic_shift_c3"])
def test_the_central_gate_never_holds_with_an_arrow_between_two_objects(name):
    """Under the central gate each 1_e is central, so it lies in
    C(R) = R^beta.  For an arrow g: e -> e' with e != e', the fixed-point
    condition of R^beta at g reads beta_g(1_e 1_{g^-1}) = 1_e 1_{e'}: the
    left side is beta_g(1_e) = 1_{e'}, the right side 0.  So an arrow
    between two objects with 1_e != 0 refutes the gate, and 1_e itself is
    the witness: central, but not fixed at g."""
    doc = builtin(name) if name == "pair_f5" else OBJECTS[name]
    state = SuiteState(load_instance_dict(doc))
    act, g = state.inst.action, state.inst.groupoid
    joining = [a for a in g.arrows() if g.source[a] != g.target[a]]
    assert joining
    for a in joining:
        one = act.idempotents[g.source[a]]
        assert one.any() and act.idempotents[g.target[a]].any()
        assert state.ctx.center.contains(one) and not state.ctx.invariant_ring.contains(one)
    assert state.galois and not state.central
    assert [b.name for b in state.blocks] == [None]


UNIONS = [["trivial", "trivial"], ["trivial", "klein_m2f3"], ["klein_m2f3"] * 3]


@pytest.mark.parametrize("names", UNIONS, ids="+".join)
def test_section_4_holds_on_a_union_iff_on_every_part(names):
    """Section 4 holds on a union of central documents iff it holds on
    every part, the separable subalgebras and the wide subgroupoids
    multiply, and every record is decided."""
    got = records(run_suite(load_instance_dict(union(names))))
    parts = [records(run_suite(load_instance_dict(part(name)))) for name in names]

    def witness(recs, cid, key):
        return recs[cid][2][key]

    for key in ("holds", "image_separable", "surjective", "injective"):
        assert witness(got, "fundamental_theorem", key) == all(witness(p, "fundamental_theorem", key) for p in parts)
    for key in ("separable_subalgebras", "wide_subgroupoids"):
        count = 1
        for p in parts:
            count *= witness(p, "fundamental_theorem", key)
        assert witness(got, "fundamental_theorem", key) == count
    decomposition = all(witness(p, "theorem_4_4", "decomposition_for_all_separable") for p in parts)
    assert witness(got, "theorem_4_4", "decomposition_for_all_separable") == decomposition
    assert got["theorem_3_9"][2]["swept"] == got["fundamental_theorem"][2]["separable_subalgebras"]
    assert all(verdict in ("pass", "skip") for verdict, _, _ in got.values())
    if names == ["trivial", "trivial"]:
        assert got["theorem_4_1"] == ("pass", "both displayed identities on 1 separable subalgebras", {"checked": 1})


@pytest.mark.parametrize("names", UNIONS[:2], ids="+".join)
def test_small_unions_read_as_the_whole_r_walk(names, monkeypatch):
    """At dim 6 or less the whole R is walked too: the records agree."""
    doc = union(names)
    split = run_suite(load_instance_dict(doc))
    whole(monkeypatch)
    assert records(split) == records(run_suite(load_instance_dict(doc)))


def with_zero_objects(doc: dict, joined: bool) -> dict:
    """``doc`` with objects whose 1_e is 0, so E_e = 0: one object z with
    its identity alone, or two, z and w, joined by the arrows u: z -> w
    and its inverse v."""
    doc = json.loads(json.dumps(doc))
    n = len(doc["algebra"]["basis"])
    gp, act = doc["groupoid"], doc["action"]
    old = list(gp["arrows"])
    if joined:
        new, ids = ["z", "w", "u", "v"], ["z", "w"]
        table = {("z", "z"): "z", ("w", "w"): "w", ("u", "z"): "u", ("w", "u"): "u", ("v", "w"): "v",
                 ("z", "v"): "v", ("u", "v"): "w", ("v", "u"): "z"}
        inverse = {"z": "z", "w": "w", "u": "v", "v": "u"}
    else:
        new, ids, table, inverse = ["z"], ["z"], {("z", "z"): "z"}, {"z": "z"}
    gp["arrows"] = old + new
    gp["compose"] = [row + [None] * len(new) for row in gp["compose"]] + [
        [None] * len(old) + [table.get((a, b)) for b in new] for a in new
    ]
    gp["identities"] = gp["identities"] + ids
    gp["inverse"] = gp["inverse"] + [inverse[a] for a in new]
    for e in ids:
        act["idempotents"][e] = [0] * n
    for a in new:
        act["maps"][a] = [[0] * n for _ in range(n)]
    doc.pop("coordinates", None)
    return doc


@pytest.mark.parametrize("joined", [False, True], ids=["alone", "joined"])
def test_objects_with_zero_idempotent_do_not_break_the_split(joined):
    state = SuiteState(load_instance_dict(with_zero_objects(builtin("klein_disjoint2"), joined)))
    assert state.central
    assert [b.name for b in state.blocks] == ["e1", "e2"]
    got = records(run_suite(state.inst))
    want = records(run_suite(load_builtin("klein_disjoint2")))
    if joined:
        # the wide parts {z, w} and {z, w, u, v} have one theta, so theta is
        # not injective on the wide H; the counts are as without them
        assert got["fundamental_theorem"][2]["injective"] is False
        assert got["fundamental_theorem"][2]["separable_subalgebras"] == 121
        assert got["theorem_3_9"] == want["theorem_3_9"]
    else:
        assert got == want
