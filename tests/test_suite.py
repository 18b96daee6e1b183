import hashlib
import json
import runpy
import time
import tracemalloc
from math import comb
from pathlib import Path

import pytest

from gglab import action, algebra, separability, suite
from gglab.instances import BUILTIN_NAMES, builtin, clock_shift, load_builtin, load_instance_dict
from gglab.groupoid import SUBGROUPOID_ARROWS
from gglab.separability import EXHAUSTIVE_DIM, double_centralizer_check
from gglab.suite import CHECKS, MANIFEST, SuiteState, run_suite

# the benchmark's instance generators, read without importing (or writing
# bytecode into) perfbench
WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
BENCH_DOCS = {w: WORKLOADS["documents"](w) for w in WORKLOADS["WORKLOADS"]}

S3_IDS = [cid for cid, _, scope in MANIFEST if scope == "s3"]
ALL_IDS = [cid for cid, _, _ in MANIFEST]


@pytest.fixture(scope="module")
def reports():
    return {name: run_suite(load_builtin(name), scope="all") for name in BUILTIN_NAMES}


def test_full_scope_covers_manifest(reports):
    for name, report in reports.items():
        assert report.check_ids() == ALL_IDS, name


def test_s3_scope(reports):
    report = run_suite(load_builtin("pair_f5"), scope="s3")
    assert report.check_ids() == S3_IDS


def test_no_violations_on_builtins(reports):
    for name, report in reports.items():
        assert report.violations == [], (name, [c.check_id for c in report.violations])
        assert report.exit_code == 0


def test_no_silent_skips(reports):
    # every skip names its failed hypothesis, and only a skip has one unmet
    for report in reports.values():
        for c in report.checks:
            assert (c.hypothesis == "unmet") == (c.verdict == "skip"), (report.instance, c.check_id)
            if c.verdict == "skip":
                assert c.detail


def record(reports, name, cid):
    return next(c for c in reports[name].checks if c.check_id == cid)


def test_pair_f5_negative_control(reports):
    # double-centralizer hypothesis unmet, so 3.10/3.11 skip, never violation
    for cid in ("theorem_3_10", "theorem_3_11"):
        rec = record(reports, "pair_f5", cid)
        assert rec.verdict == "skip"
        assert rec.hypothesis == "unmet"
    rec = record(reports, "pair_f5", "theorem_3_10")
    fail = rec.witnesses.get("double_centralizer_failure")
    assert fail and fail["invariants_dim"] == 1 and fail["bicommutant_dim"] == 2


def test_pair_f5_gamma_collapse(reports):
    rec = record(reports, "pair_f5", "theorem_3_10")
    table = rec.witnesses
    assert table["theta_injective"]["wide"] is True
    assert table["gamma_injective"]["wide"] is False


def test_klein_m2f3_fundamental_theorem_fails_honestly(reports):
    rec = record(reports, "klein_m2f3", "fundamental_theorem")
    assert rec.verdict == "pass"  # a decided property, not a theorem claim
    assert rec.witnesses["separable_subalgebras"] == 11
    assert rec.witnesses["holds"] is False
    assert rec.witnesses["injective"] is True
    assert rec.witnesses["image_separable"] is True
    assert rec.witnesses["surjective"] is False
    # and the biconditional of the characterization is respected
    rec44 = record(reports, "klein_m2f3", "theorem_4_4")
    assert rec44.verdict == "pass"
    assert rec44.witnesses == {
        "fundamental_theorem": False,
        "decomposition_for_all_separable": False,
    }


def test_klein_m2f3_theorem_3_9_sweep(reports):
    rec = record(reports, "klein_m2f3", "theorem_3_9")
    assert rec.verdict == "pass"
    assert rec.witnesses["swept"] == 11
    assert rec.witnesses["mode"] == "exhaustive"


def test_lemma_3_1_counts(reports):
    assert record(reports, "pair_f5", "lemma_3_1").witnesses["checks"] == 4
    assert record(reports, "pair_f5", "lemma_3_1").witnesses["wide"] == 2
    assert record(reports, "klein_m2f3", "lemma_3_1").witnesses["wide"] == 5
    assert record(reports, "klein_disjoint2", "lemma_3_1").witnesses["wide"] == 25


def test_connecting_arrow_observation(reports):
    rec = record(reports, "pair_f5", "connecting_arrows")
    assert rec.verdict == "pass"
    assert set(rec.witnesses["connecting_arrows"]) == {"t", "s"}


def test_non_wide_theta_collision_reported_not_judged(reports):
    # klein_disjoint2: theta({e1}) = theta({e2}) = theta({e1,e2}) = R under
    # the literal all-subgroupoid reading; surfaced as one theta-class of
    # data, with the wide {e1,e2} in it, not as a violation
    rec = record(reports, "klein_disjoint2", "lemma_3_2")
    assert rec.verdict == "pass"
    classes = rec.witnesses["non_wide_theta_classes"]
    assert ["{e1}", "{e1,e2}", "{e2}"] in classes
    # a class of k members, w of them wide, stands for C(k,2) - C(w,2) pairs
    wide = {h.label() for h in SuiteState(load_builtin("klein_disjoint2")).ctx.wide_subgroupoids}
    pairs = sum(comb(len(c), 2) - comb(len(wide.intersection(c)), 2) for c in classes)
    assert rec.witnesses["non_wide_coincidences"] == pairs == 11


def test_report_json_is_one_line():
    report = run_suite(load_builtin("klein_disjoint2"), scope="all")
    text = report.to_json()
    assert text.endswith("\n") and text.count("\n") == 1
    doc = json.loads(text)
    assert doc == report.to_json_dict()
    assert doc["report_version"] == 2
    assert doc["provenance"] == {
        "field": {"kind": "Fp", "p": 3},
        "caps": {"subgroupoid_arrows": SUBGROUPOID_ARROWS, "exhaustive_dim": EXHAUSTIVE_DIM},
    }


def test_json_deterministic():
    a = run_suite(load_builtin("klein_m2f3"), scope="all").to_json()
    b = run_suite(load_builtin("klein_m2f3"), scope="all").to_json()
    assert a == b
    assert '"seconds"' not in a


def test_bad_scope_rejected():
    with pytest.raises(ValueError, match="scope"):
        run_suite(load_builtin("trivial"), scope="s5")


def test_hypothesis_column_consistency(reports):
    for report in reports.values():
        for c in report.checks:
            assert c.verdict in ("pass", "skip", "violation", "inconclusive")
            if c.verdict == "violation":
                assert c.witnesses


# sha256 of run_suite(load_builtin(name), scope).to_json(); a change to any
# verdict, detail or witness of a builtin shows here.  Every digest in this
# file is of report version 2, each report checked, when it was re-pinned,
# to equal its version-1 report under the version's intended edits; the
# "computed with" notes below name the code the version-1 reports matched.
# The digests of central documents were re-pinned once more when
# remark_2_3's passing detail lost "Hirata flag derived" and Section 4
# began to be read one object block at a time, each report checked to equal
# its earlier one under those two edits
REPORT_SHA256 = {
    ("trivial", "all"): "54509a072fb621bede9ad369f5be75a6cdaab177bc00c3990cdc2d5167ff0ab9",
    ("trivial", "s3"): "2af901ad5f94ca5a5347ff8cd1689d1fc0e95b877bf673a49446606c68208821",
    ("pair_f5", "all"): "df17fa631437afa30e861ecdbe54abe2fc526da2a2743b37bdb9293c7f4e67c3",
    ("pair_f5", "s3"): "5cee4850ce72e47415c6bea1d29246260f19a88363e0eadfc024c59833031dd6",
    ("klein_m2f3", "all"): "324e816129247fb36b55a50b3daad25c282abb22dd60ab3731c3b3b3b4843cf1",
    ("klein_m2f3", "s3"): "3b3647ca27acd0c9772558533cb41117ae91aa79a9e9595f3d9f1a050f899684",
    ("klein_disjoint2", "all"): "73f523c3b7b56930041565953cafd6105435235de48d23078eb68847582aabb7",
    ("klein_disjoint2", "s3"): "5ee3dfa5f564fa25647d3a4e2914147c1cec5a74c81c1e9d09fa2121563f22aa",
    ("cyclic_shift_c3", "all"): "c0f4fd85f7691ddd6be501b178f701039b63e7559e1890f584fd05773f023265",
    ("cyclic_shift_c3", "s3"): "424471689fd60797d42fa3e8809a3b286005fed5f208c580f1179cefcbb7c43f",
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_report_json_pinned(reports, name):
    for scope in ("all", "s3"):
        report = reports[name] if scope == "all" else run_suite(load_builtin(name), scope=scope)
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == REPORT_SHA256[name, scope], (name, scope)


@pytest.mark.parametrize("caps", ["exhaustive_dim=2", "subgroupoid_arrows=3"])
def test_report_ignores_the_environment(monkeypatch, caps):
    # the report is a function of the instance alone; gglab reads no
    # environment variable, this one included
    monkeypatch.setenv("GG_LAB_CAPS", caps)
    report = run_suite(load_builtin("klein_m2f3"))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == REPORT_SHA256["klein_m2f3", "all"]


def test_every_check_is_timed():
    inst = load_builtin("klein_m2f3")
    start = time.perf_counter()
    report = run_suite(inst, scope="all")
    wall = time.perf_counter() - start
    assert [c.check_id for c in report.checks if not c.seconds > 0] == []
    assert sum(c.seconds for c in report.checks) <= wall


def test_registry_matches_manifest():
    ids = [cid for cid, _, _ in MANIFEST]
    assert len(set(ids)) == len(ids)
    assert sorted(CHECKS) == sorted(ids)


# sha256 of run_suite(load_instance_dict(doc), scope).to_json() for every
# benchmark document; the builtins workload rebuilds the five builtins
BENCH_REPORT_SHA256 = {
    **{("builtins", name, scope): digest for (name, scope), digest in REPORT_SHA256.items()},
    ("klein_p", "klein_m2f5", "all"): "3edcd817f67c482a0402adf2d62e8b2469feadffabc63bd18210cb73342a7256",
    ("klein_p", "klein_m2f5", "s3"): "9a08bc4b932dfed8bd9154e24aae1aa412a61dbacf896d66122b8324d9ebcf1c",
    ("klein_p", "klein_m2f11", "all"): "19bcf5e1f774e66ddebcda90fd4c1a417f6e4cc775d3e2f68cf38b1256a8aa7a",
    ("klein_p", "klein_m2f11", "s3"): "d75fab39ebf9cf1a1842a95af3debdb71991c3eec7f80a8b5ac714e4f250d63a",
    ("klein_p", "klein_m2f17", "all"): "19dbaf5d340d934121c9b37bb586a23b2cd0b3f329da2ca9d983282807cc3089",
    ("klein_p", "klein_m2f17", "s3"): "fefd59747e6a7968e66c96bead5cc7012bb68222e4527b1ef6f2c1a2b902d1d9",
    ("objects", "pair_f5x2", "all"): "98b38d9b1bc408b0c489a1dae5500ae4907779f9d83ff4bc7523f36f9f03700c",
    ("objects", "pair_f5x2", "s3"): "71df9792b4a1b29cf7d023ffe2af332a26994d973a9b99332179e932a5955f33",
    ("objects", "pair_f5x3", "all"): "bd79908fcb3f4ceb0b7a3dcd33aa73b63a64cc68ed3f92e5696ee9f44108e6b3",
    ("objects", "pair_f5x3", "s3"): "9bd2cefa0ba4493a373283106fe94586453cf4a710a806e20e5719a7741f80ab",
    ("objects", "cyclic_shift_c3x2", "all"): "33306c42eaf619a188cdbe330f05e9ce6ae5f36d3f3f2f160e1f5c5bf2ca410c",
    ("objects", "cyclic_shift_c3x2", "s3"): "1bbf35d1a5a7535b7be43b4d91235804f569f5b600d60f7f5820d0aaa8dc6528",
    ("objects", "cyclic_shift_c3x3", "all"): "1be5e0721e8e8a01a7ef6fd4a0ad5c8775c116b2ec27d163fe51f2386156b052",
    ("objects", "cyclic_shift_c3x3", "s3"): "241ab38053325febbe3a7898d534f63e6b32469046097466bff476a0a21aa529",
    ("objects", "pair_f5+cyclic_shift_c3", "all"): "ccd27da9dce97fd88bc088fbe1b7b6047faefd79dafaf9d385e6c4692c65b89b",
    ("objects", "pair_f5+cyclic_shift_c3", "s3"): "47aafcd9b524b1625361c7636cb677aa9b03d3b9625c1e808e5de8c5d38883b5",
    ("rational", "pair_q", "all"): "084bc7b72dcf5229c92d480d9c5cfbd2463a9f0954df676112fcf297b8a7f7ab",
    ("rational", "pair_q", "s3"): "e087e6042f104304784c0f8db67d407a0317b60f7a3030f947d37507eb680f7b",
    ("rational", "cyclic_shift_c3_q", "all"): "e9b6f8d2f2959dc8d8613d863a3e80616e4323b57cdb2d8a55e3f300b87e5291",
    ("rational", "cyclic_shift_c3_q", "s3"): "a2f478aca736468c99418aeaa63f845bb4f6c60e0da2b2c4a418fb2d924aca8d",
    ("rational", "pair_qx2", "all"): "299658aab35ff9ea2ddde8f5e603f0ded6a777c9041f0779c3710d17045bda5a",
    ("rational", "pair_qx2", "s3"): "e95e153834fffa701e3696b4564794cc8e4ace427ed01db2d7f5a4a108fcb012",
}


@pytest.mark.parametrize(
    "workload, name", [(w, name) for w, docs in BENCH_DOCS.items() for name in docs]
)
def test_benchmark_report_json_pinned(workload, name):
    doc = json.loads(BENCH_DOCS[workload][name])
    for scope in ("all", "s3"):
        report = run_suite(load_instance_dict(doc), scope=scope)
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == BENCH_REPORT_SHA256[workload, name, scope], (workload, name, scope)


PAIR_F5X4 = WORKLOADS["disjoint_union"]([WORKLOADS["pair"]({"kind": "Fp", "p": 5})] * 4, "pair_f5x4")
# sha256 of run_suite(..., scope).to_json() on four copies of pair_f5 (624
# subgroupoids): its 255 gated subgroupoids share one theta, so Lemma 3.2
# lists them as one theta-class, in enumeration order, standing for 32,385
# pairs (the all-pairs sweep listed each pair)
PAIR_F5X4_SHA256 = {
    "all": "4752c84258187b1b5ff98f11fc7452030f06a069366976650aa690aac332ff86",
    "s3": "8d3169ea325776f9a0f390091524b6dc40683bc75608fc7a00e7c0142573763a",
}


def test_pair_f5x4_report_json_pinned():
    for scope in ("all", "s3"):
        report = run_suite(load_instance_dict(PAIR_F5X4), scope=scope)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == PAIR_F5X4_SHA256[scope], scope


PAIR_F5_KLEIN = WORKLOADS["disjoint_union"](
    [WORKLOADS["pair"]({"kind": "Fp", "p": 5}), WORKLOADS["klein_m2"](5)], "pair_f5+klein_m2(5)"
)
# sha256 of run_suite(..., scope).to_json() on pair_f5 beside klein_m2(5):
# one connected, non-central component and one central Klein group,
# computed with theta(H) and gamma(H) formed on every H for the sweeps
PAIR_F5_KLEIN_SHA256 = {
    "all": "e2af9f48f2c8eb94f749d9028f7f4593f02be637d18ac7534fb64644d3498750",
    "s3": "cc1ce701ad17d7c948f96eb240c45dc0723175a2247eda98f3f3a3d5d8e6d13b",
}


def test_pair_f5_klein_m2f5_report_json_pinned():
    for scope in ("all", "s3"):
        report = run_suite(load_instance_dict(PAIR_F5_KLEIN), scope=scope)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == PAIR_F5_KLEIN_SHA256[scope], scope


def test_invariant_rings_formed_per_suite(count_calls):
    # three copies of pair_f5: every invariant ring the suite reads is one
    # of the 12 theta(H_c) of the subgroupoids inside one component, theta
    # of the empty part, or R^beta.  The sweeps of Lemma 3.2 and Theorems
    # 3.10 and 3.11 read theta through its parts; Lemma 2.1 forms one fixer
    # per probe and per wide part (3 + 6), not per wide H (3 + 8); Lemma
    # 3.7's supports are parts' invariant rings already formed.  (30 rings
    # and 11 fixers when Lemmas 2.1 and 3.7 formed theta(H) and
    # R^(beta_S_H) on each of the 8 wide H; 133 rings when the sweeps also
    # formed theta on all 124 subgroupoids.)
    calls, fixers = count_calls(action.invariants), count_calls(action.fixer_subgroupoid)
    run_suite(load_instance_dict(json.loads(BENCH_DOCS["objects"]["pair_f5x3"])), scope="all")
    assert (len(calls), len(fixers)) == (14, 9)


@pytest.mark.parametrize("workload, name, products, commutants", [
    ("objects", "pair_f5x3", 6, 1),
    ("builtins", "klein_disjoint2", 32, 1),
])
def test_lemma_3_4_forms_each_product_once(count_calls, workload, name, products, commutants):
    # one J_x J_y per ordered pair of loops with nonzero J at one object,
    # and no V_E(R), which is read as J_e; the one commutant is the center,
    # formed for the central gate.  (36 products and 7 commutants on
    # pair_f5x3, 32 and 3 on klein_disjoint2, when every ordered arrow pair
    # had its product and every object its V_E(R))
    prods, comms = count_calls(algebra.product_space), count_calls(algebra.commutant)
    CHECKS["lemma_3_4"](SuiteState(load_instance_dict(json.loads(BENCH_DOCS[workload][name]))))
    assert (len(prods), len(comms)) == (products, commutants)


CYCLIC_SHIFT_C3X6 = WORKLOADS["disjoint_union"]([WORKLOADS["cyclic_shift"]({"kind": "Fp", "p": 5})] * 6, "cyclic_shift_c3x6")
# sha256 of run_suite(..., scope).to_json() on six copies of cyclic_shift_c3
# (728 subgroupoids), computed with the closure walk over the whole groupoid
# and Lemma 3.1 and the double-centralizer hypothesis decided on every H
CYCLIC_SHIFT_C3X6_SHA256 = {
    "all": "1ae467a4a4f059543640ee464baf72b50df41cee031adf9e62027db62f86d83c",
    "s3": "40740aee735f8e9381cd8032108b64687c5a7c9808cb09823d843c232c930bde",
}


def test_cyclic_shift_c3x6_report_json_pinned():
    for scope in ("all", "s3"):
        report = run_suite(load_instance_dict(CYCLIC_SHIFT_C3X6), scope=scope)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == CYCLIC_SHIFT_C3X6_SHA256[scope], scope


CYCLIC_SHIFT_C3X8 = WORKLOADS["disjoint_union"]([WORKLOADS["cyclic_shift"]({"kind": "Fp", "p": 5})] * 8, "cyclic_shift_c3x8")
# sha256 of run_suite(..., scope).to_json() on eight copies of
# cyclic_shift_c3 (6,560 subgroupoids, 256 wide), computed with J_g, j, and
# Lemmas 2.1 and 3.7 decided over all of R, on every wide H
CYCLIC_SHIFT_C3X8_SHA256 = {
    "all": "4eded6c4f0a8bf515e10c2bad1edf008bcb63ceeb81b49b1fe24b2e8a3285680",
    "s3": "73bdc43a960ec2ca6040c93474b8b7f5a465d7bd1a6a27fd6e61b275c650d8eb",
}


def test_cyclic_shift_c3x8_report_json_pinned():
    for scope in ("all", "s3"):
        report = run_suite(load_instance_dict(CYCLIC_SHIFT_C3X8), scope=scope)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == CYCLIC_SHIFT_C3X8_SHA256[scope], scope


@pytest.mark.parametrize("p", [5, 11])
def test_theorem_3_9_sweep_closed_form(p):
    """The separable subalgebras of M_2(F_p) over F_p: p(p+1)/2 split tori,
    p(p-1)/2 copies of F_(p^2), F_p and M_2(F_p), so p^2 + 2 in all.  The
    sweep's premise is that every V(S) is among them, and its shared facts
    must give the rows a fresh check gives."""
    state = SuiteState(load_instance_dict(json.loads(BENCH_DOCS["klein_p"][f"klein_m2f{p}"])))
    out = CHECKS["theorem_3_9"](state)
    assert out.verdict == "pass"
    assert out.witnesses == {"swept": p * p + 2, "mode": "exhaustive"}
    keys = {s.key() for s in state.center_enum.subalgebras}
    alg, center = state.inst.algebra, state.ctx.center
    for s in state.center_enum.subalgebras:
        assert state.facts.commutant(s).key() in keys
        shared = double_centralizer_check(alg, s, center, state.facts)
        assert shared == double_centralizer_check(alg, s, center)


def test_theorem_3_9_sweep_computes_no_commutant_one_at_a_time(monkeypatch):
    """On klein_m2f11 the sweep stacks the commutants of its 121 tori.
    The only one-at-a-time commutants of the run are lemma_3_1's, of the
    five theta(H), which the sweep then reads for F_p, M_2(F_p) and the
    three theta tori; taking each S alone, as ``double_centralizer_check``
    does, would make 118 more."""
    calls, during_sweep = [], []
    commutant, sweep = separability.commutant, suite.double_centralizer_sweep

    def counted(alg, s1, s2):
        calls.append(s1.dim)
        return commutant(alg, s1, s2)

    def counted_sweep(*args):
        before = len(calls)
        out = sweep(*args)
        during_sweep.append(len(calls) - before)
        return out

    monkeypatch.setattr(separability, "commutant", counted)
    monkeypatch.setattr(suite, "double_centralizer_sweep", counted_sweep)
    run_suite(load_instance_dict(json.loads(BENCH_DOCS["klein_p"]["klein_m2f11"])), scope="all")
    assert during_sweep == [0]
    assert len(calls) <= 5


@pytest.mark.parametrize(
    "workload, name", [(w, name) for w, docs in BENCH_DOCS.items() for name in docs]
)
def test_instance_flags_are_never_a_hypothesis(workload, name):
    # an author's hirata_expected flag must not gate Lemma 3.4 or Theorem
    # 3.5: the report equals the pinned report of the unflagged document
    doc = json.loads(BENCH_DOCS[workload][name])
    doc["meta"].setdefault("flags", {})["hirata_expected"] = True
    report = run_suite(load_instance_dict(doc), scope="all")
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == BENCH_REPORT_SHA256[workload, name, "all"]


def trivial_c2_f5() -> dict:
    """C_2 acting trivially on F_5, which is not a Galois extension: the
    coordinate sum is the same at e and at g, yet must be 1 at e and 0 at g."""
    return {
        "meta": {"name": "trivial_c2_f5"},
        "field": {"kind": "Fp", "p": 5},
        "groupoid": {
            "arrows": ["e", "g"],
            "compose": [["e", "g"], ["g", "e"]],
            "inverse": ["e", "g"],
            "identities": ["e"],
        },
        "algebra": {"basis": ["1"], "structure": [[0, 0, 0, 1]], "unit": [1]},
        "action": {"idempotents": {"e": [1]}, "maps": {"e": [[1]], "g": [[1]]}},
    }


def test_failed_coordinate_solve_decides_not_galois():
    report = run_suite(load_instance_dict(trivial_c2_f5()), scope="all")
    rec = next(c for c in report.checks if c.check_id == "galois_coordinates")
    assert (rec.verdict, rec.witnesses) == ("pass", {"galois": False})
    assert [c.check_id for c in report.checks if c.verdict == "inconclusive"] == []
    assert report.exit_code == 0


@pytest.mark.parametrize("name", ["pair_f5", "cyclic_shift_c3"])
def test_failing_instance_coordinates_leave_the_gate_to_the_solve(name):
    # the basis-pinned solve decides the Galois gate, so a bad y in the
    # document changes only the galois_coordinates record
    doc = builtin(name)
    doc["coordinates"][0][1][0] += 1
    clean = run_suite(load_builtin(name), scope="all")
    tampered = run_suite(load_instance_dict(doc), scope="all")
    changed = [a["check_id"] for a, b in zip(clean.to_json_dict()["checks"], tampered.to_json_dict()["checks"]) if a != b]
    assert changed == ["galois_coordinates"]
    assert next(c for c in tampered.checks if c.check_id == "galois_coordinates").verdict == "violation"
    assert tampered.exit_code == 1


# sha256 of run_suite(load_instance_dict(clock_shift(n, p)), scope).to_json()
CLOCK_SHIFT_SHA256 = {
    (2, 5, "all"): "f96ac8a71d22dc47d6a6cee319a7dbf16e48db17a5b5cf6a2e540891927f9830",
    (2, 5, "s3"): "6398a3bce45a82fca416bf32fecb08a9aa1ee07e4887867e9195ed46bc94ae95",
    (3, 7, "all"): "bed41969bb77f80fdd0234ab4910e4bdd9bb12cd698d64e924a7e3b62df5111f",
    (3, 7, "s3"): "ac7b5ca11c6b96767912863179afdf3d22bc204858df4dfaf75b96d804e2b926",
    (4, 5, "all"): "bd88cfc9f11a98199e60137abef0f6b37744c2f9f944a346547872a1b734edf9",
    (4, 5, "s3"): "40b138b0bfee9305a7a256d8b1c8c6aeb87b083ef26f52565a8a47461f65ae9c",
}


@pytest.mark.parametrize("n, p", [(2, 5), (3, 7), (4, 5)])
def test_clock_shift_report_json_pinned(n, p):
    for scope in ("all", "s3"):
        report = run_suite(load_instance_dict(clock_shift(n, p)), scope=scope)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == CLOCK_SHIFT_SHA256[n, p, scope], scope


def test_clock_shift_m3f7_runs_in_small_memory():
    # the 81-dimensional skew ring is built from its formula and never
    # checked for associativity, which densely would hold four 81^4 arrays
    tracemalloc.start()
    try:
        report = run_suite(load_instance_dict(clock_shift(3, 7)), scope="all")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    verdicts = [c.verdict for c in report.checks]
    assert {v: verdicts.count(v) for v in set(verdicts)} == {"pass": 25, "inconclusive": 2, "skip": 2}


def test_clock_shift_m4f5_runs_in_seconds():
    # dim R = 16 and |G| = 16 give a 256-dimensional skew ring; re-proving
    # its associativity and j's multiplicativity would take about 20 s on
    # a 2-vCPU Xeon host, against under 1 s for the rest of the suite
    start = time.perf_counter()
    run_suite(load_instance_dict(clock_shift(4, 5)), scope="all")
    assert time.perf_counter() - start < 10


def count_tensor_squares(monkeypatch, inst) -> list[int]:
    """The base dimension of every tensor square built by one suite."""
    built = []
    tensor_square = separability.tensor_square

    def counted(alg, sub):
        built.append(sub.dim)
        return tensor_square(alg, sub)

    monkeypatch.setattr(separability, "tensor_square", counted)
    run_suite(inst, scope="all")
    return built


KLEIN_M2F3X3 = WORKLOADS["disjoint_union"]([WORKLOADS["klein_m2"](3)] * 3, "klein_m2f3x3")
# sha256 of run_suite(..., scope).to_json() on three copies of klein_m2f3:
# Section 4 is decided from one walk of the 11 separable subalgebras of an
# M_2(F_3) block (11^3 = 1,331 sums); the pool-restricted reports it
# replaced were computed with every separability verdict solved on the
# whole S
KLEIN_M2F3X3_SHA256 = {
    "all": "034d66f4a4c0407656e80e6134539f9946d630023468913ee1a8332d1944c693",
    "s3": "1aa92a57765640369e89bab5e5f90d6d74a300cbe3bb8549dfad623312a00a7c",
}


def test_klein_m2f3x3_report_json_pinned():
    for scope in ("all", "s3"):
        report = run_suite(load_instance_dict(KLEIN_M2F3X3), scope=scope)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == KLEIN_M2F3X3_SHA256[scope], scope


KLEIN_M2F11X2 = WORKLOADS["disjoint_union"]([WORKLOADS["klein_m2"](11)] * 2, "klein_m2f11x2")
# sha256 of run_suite(..., scope).to_json() on two copies of klein_m2f11:
# each M_2(F_11) block has 11^2 + 2 = 123 separable subalgebras over its
# center, so the fundamental theorem is decided on 123^2 = 15,129 sums
KLEIN_M2F11X2_SHA256 = {
    "all": "995654c48adb458780adcfc6b2a1519eadb0238dd6e0cc77d097afb989c66ac5",
    "s3": "ded09c94a2cb22cd0de7c1354546ae2787289baab7b869d889fec7c845a82935",
}


def test_klein_m2f11x2_report_json_pinned():
    for scope in ("all", "s3"):
        report = run_suite(load_instance_dict(KLEIN_M2F11X2), scope=scope)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == KLEIN_M2F11X2_SHA256[scope], scope


# every benchmark document and every pinned extra, by name
PINNED_DOCUMENTS = {
    **{name: json.loads(BENCH_DOCS[w][name]) for w, name, _ in BENCH_REPORT_SHA256},
    "pair_f5x4": PAIR_F5X4,
    "pair_f5+klein_m2(5)": PAIR_F5_KLEIN,
    "klein_m2f3x3": KLEIN_M2F3X3,
    "klein_m2f11x2": KLEIN_M2F11X2,
    "cyclic_shift_c3x6": CYCLIC_SHIFT_C3X6,
    "cyclic_shift_c3x8": CYCLIC_SHIFT_C3X8,
    **{f"clock_shift({n}, {p})": clock_shift(n, p) for n, p, _ in CLOCK_SHIFT_SHA256},
}


@pytest.mark.parametrize("name", list(PINNED_DOCUMENTS))
def test_tensor_squares_built_per_suite(monkeypatch, name):
    # lemma_4_2 and the Azumaya flag of a Galois R with R^beta <= C(R) are
    # stated from the certified coordinates, and every other separability
    # verdict of these suites, each member of an exhaustive walk among
    # them, is decided by its trace form, so no tensor square is built
    assert count_tensor_squares(monkeypatch, load_instance_dict(PINNED_DOCUMENTS[name])) == []
