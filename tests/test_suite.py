import hashlib
import json
import runpy
import time
import tracemalloc
from pathlib import Path

import pytest

from gglab import action, algebra, galois, separability, suite
from gglab.instances import BUILTIN_NAMES, builtin, clock_shift, load_builtin, load_instance_dict
from gglab.separability import double_centralizer_check
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
    # every skip names its failed hypothesis
    for report in reports.values():
        for c in report.checks:
            if c.verdict == "skip":
                assert c.hypothesis == "unmet"
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
    # klein_disjoint2: theta({e1}) = theta({e2}) = R under the literal
    # all-subgroupoid reading; surfaced as data, not a violation
    rec = record(reports, "klein_disjoint2", "lemma_3_2")
    assert rec.verdict == "pass"
    assert rec.witnesses["non_wide_coincidences"]


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
# verdict, detail or witness of a builtin shows here
REPORT_SHA256 = {
    ("trivial", "all"): "68f2d632b1ad30318daa9bb7bf1c878a75a3e9ce20c07687b44ec7f124ca66ac",
    ("trivial", "s3"): "e82c68a9b5a6c3cc71e81eba9aceca526c6ecfd09ed89c334c59b32b67919809",
    ("pair_f5", "all"): "7f2a8eec99ea31122f142aee4523981591e0ba9bd1e9d882efbcde2758506125",
    ("pair_f5", "s3"): "71fa4a2f73f9b517256614d9f616435aa87a6dc0b1d805a910bf01ee08f467cf",
    ("klein_m2f3", "all"): "0d622893a3a9d8eecb87444d7eb61eee4401cd442a11dabb08e8558fbc19b15b",
    ("klein_m2f3", "s3"): "d168ea881a1cae024c645819ebc7b37b4e6e1328a91009d657c48f042b915580",
    ("klein_disjoint2", "all"): "8eb3b3b40ba945ef07dd65071bbe71445e6d60d9d5b053040beb697fe76b566d",
    ("klein_disjoint2", "s3"): "b9442818cb833b490a7f6b1abdf433fd872c1ad453a3789c6bf8bb1db46ea5f0",
    ("cyclic_shift_c3", "all"): "52b3fc2d3b59015a5fdbe70a35a84d224c64c7e52ded13c429f82a841f8c7d51",
    ("cyclic_shift_c3", "s3"): "c033080f5bd1e7bdaf11c8362aa0e73b8e8f9b12187f0c1b486c9ab708d29a95",
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
    ("klein_p", "klein_m2f5", "all"): "abc3db1a1d1fa353af7a46d1175adb60a0ae2860c5db87a2bd69ad927b7590e3",
    ("klein_p", "klein_m2f5", "s3"): "4a34a60b9a921298bca1ef30ee14f9bf19c58a1307dc6deb643163c7282eabf3",
    ("klein_p", "klein_m2f11", "all"): "8d5476f3400f6b2a2920fa180a4b428fb0ffada341226cae7e28896ab3f3cceb",
    ("klein_p", "klein_m2f11", "s3"): "f9c7b1de4f5634d1f6454253b6109202fcb096999b94ef47ba5e03954c669a5a",
    ("klein_p", "klein_m2f17", "all"): "630d882f5f4604081295b5a7e162009f58e06e11b70aab0102e89406b1410bdb",
    ("klein_p", "klein_m2f17", "s3"): "3cb7ab5c98c2088b51924a78da310c7b560d32f19e431322d221e980c4d66003",
    ("objects", "pair_f5x2", "all"): "96651b9097bcc54f734820dbfa745bb1e04619d877ee49c272644dfcdcf79110",
    ("objects", "pair_f5x2", "s3"): "aa3ce323b8c5c630b7febc44153e6a7da9c8be946de2d2a58f58b3e2bf11c756",
    ("objects", "pair_f5x3", "all"): "5a123d02e4d85d1db529c0150288ebc6f4ce851e48b34904aaba87a32033d83f",
    ("objects", "pair_f5x3", "s3"): "c1fca1f900922856693edeed6700e81fe09c59189cc7f0f2331f87d3353131b7",
    ("objects", "cyclic_shift_c3x2", "all"): "894a55db7ebb9a8acc9c797f917347b4d76fa35a261cfde5560ee735f9036b3d",
    ("objects", "cyclic_shift_c3x2", "s3"): "eead03a19d71bb4495d8b56c3f64d94438b4cc608aa58e6bca1f9424bd964b01",
    ("objects", "cyclic_shift_c3x3", "all"): "f2c5d80c46b4d83adcd975fe91cfa52a1037b176acdb8c857096c76d8ec49bdf",
    ("objects", "cyclic_shift_c3x3", "s3"): "c45acdf61f6fefb47d4fea2837dfd116085dc796842995c384eaf3930c02ff16",
    ("objects", "pair_f5+cyclic_shift_c3", "all"): "482fee0e67b52e102dcadaea8ea41b9cc340e5b7198d81ac37b0b5dee1d8f30a",
    ("objects", "pair_f5+cyclic_shift_c3", "s3"): "6ec341e6043d3fdd6641319d852e5ccc6f8562d2a91af16e2a4570caabd8ff44",
    ("rational", "pair_q", "all"): "867c77aa7a9ad2b0d424f4a02522126c0e813a311a50127b16642acc956319e7",
    ("rational", "pair_q", "s3"): "b5bdc3e01b2302c3a7098c0f336787fa867e7e2109ecfcbb67d24c9b18506a5c",
    ("rational", "cyclic_shift_c3_q", "all"): "568518daaea66760de6a3e698aabed983368c88cbdbf627b9d70b92128271602",
    ("rational", "cyclic_shift_c3_q", "s3"): "1b660808b93fb51e2e88e95f3b3fb2b306dedf4a9de28776c35ae6b458a7b1cd",
    ("rational", "pair_qx2", "all"): "b88a6c1d32849c8dcb13c29508768d3f0566de8ea9aa558f202222cc6512aa52",
    ("rational", "pair_qx2", "s3"): "d77ac663d34ecc9df6531bd80ef56f0d291b6cc37f811079d549b2f9f96343f8",
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


# sha256 of run_suite(..., scope).to_json() on four copies of pair_f5 (624
# subgroupoids), computed with the all-pairs sweeps of Lemma 3.2 and
# Theorem 3.11: its 255 gated subgroupoids share one theta, so the report
# lists all 32,385 of their pairs, which pins the bucketed emit order
PAIR_F5X4_SHA256 = {
    "all": "e6c9cf4c5e8ab51fed9c2ec130f42ee18d9b97497f709433d5daedd270f52c69",
    "s3": "d27e3912d25843b1ef5571e46e21b05422b296c67995c4d960e4fa750eb42a99",
}


def test_pair_f5x4_report_json_pinned():
    doc = WORKLOADS["disjoint_union"]([WORKLOADS["pair"]({"kind": "Fp", "p": 5})] * 4, "pair_f5x4")
    for scope in ("all", "s3"):
        report = run_suite(load_instance_dict(doc), scope=scope)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == PAIR_F5X4_SHA256[scope], scope


# sha256 of run_suite(..., scope).to_json() on pair_f5 beside klein_m2(5):
# one connected, non-central component and one central Klein group,
# computed with theta(H) and gamma(H) formed on every H for the sweeps
PAIR_F5_KLEIN_SHA256 = {
    "all": "edbcaacc462a9abcd62b8a0ee148a131d19cbcf065667c248f8727dc94daaa85",
    "s3": "712bd5504d9e6199f0bbbaac7444b219b98ac50eea55afc4004508f1295c4cde",
}


def test_pair_f5_klein_m2f5_report_json_pinned():
    doc = WORKLOADS["disjoint_union"](
        [WORKLOADS["pair"]({"kind": "Fp", "p": 5}), WORKLOADS["klein_m2"](5)], "pair_f5+klein_m2(5)"
    )
    for scope in ("all", "s3"):
        report = run_suite(load_instance_dict(doc), scope=scope)
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
    ("objects", "pair_f5x3", 36, 6),
    ("builtins", "klein_disjoint2", 32, 2),
])
def test_lemma_3_4_forms_each_product_once(count_calls, workload, name, products, commutants):
    # one J_x J_y per ordered arrow pair and one V_E(R) per object (60 and
    # 12 on pair_f5x3, 72 and 8 on klein_disjoint2, when each row formed its own)
    prods, comms = count_calls(algebra.product_space), count_calls(galois.v_in_ideal)
    CHECKS["lemma_3_4"](SuiteState(load_instance_dict(json.loads(BENCH_DOCS[workload][name]))))
    assert (len(prods), len(comms)) == (products, commutants)


# sha256 of run_suite(..., scope).to_json() on six copies of cyclic_shift_c3
# (728 subgroupoids), computed with the closure walk over the whole groupoid
# and Lemma 3.1 and the double-centralizer hypothesis decided on every H
CYCLIC_SHIFT_C3X6_SHA256 = {
    "all": "bcc381fbd92d0d8277c959ca7df4cc4f7e0efe41dd81f1905709e86d205bead9",
    "s3": "a94f2e9591f1f97f6719d5b03d75c37112e591583ae883605415380790ad20e5",
}


def test_cyclic_shift_c3x6_report_json_pinned():
    doc = WORKLOADS["disjoint_union"]([WORKLOADS["cyclic_shift"]({"kind": "Fp", "p": 5})] * 6, "cyclic_shift_c3x6")
    for scope in ("all", "s3"):
        report = run_suite(load_instance_dict(doc), scope=scope)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == CYCLIC_SHIFT_C3X6_SHA256[scope], scope


# sha256 of run_suite(..., scope).to_json() on eight copies of
# cyclic_shift_c3 (6,560 subgroupoids, 256 wide), computed with J_g, j, and
# Lemmas 2.1 and 3.7 decided over all of R, on every wide H
CYCLIC_SHIFT_C3X8_SHA256 = {
    "all": "bd36aa6d46205586fddcd6329a0d53d4b0dafbffa8f1bd02602e2f32cc2e3ba8",
    "s3": "fb0001bd65204d98df55fb7c247005380be9a258333ec3050b709a44548b119a",
}


def test_cyclic_shift_c3x8_report_json_pinned():
    doc = WORKLOADS["disjoint_union"]([WORKLOADS["cyclic_shift"]({"kind": "Fp", "p": 5})] * 8, "cyclic_shift_c3x8")
    for scope in ("all", "s3"):
        report = run_suite(load_instance_dict(doc), scope=scope)
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
    (2, 5, "all"): "4946aa405d1fb11b817114d192366c2a4e1a014b19bde5e52ea3f8898fadb5e5",
    (2, 5, "s3"): "884680e08926e6d21dbf1a54e546cf7d2fe2d229f9fdc2bdfd584e122ba66133",
    (3, 7, "all"): "fed657b9ea6aeae525875dc9b2d49ce71764c388c0e500632acc182f6a1b3dc3",
    (3, 7, "s3"): "bb8e827990327c9d7b3c198cbe51df69b7c646e8081a499f98bf94e1ef0b2a0d",
    (4, 5, "all"): "6c0d0cecd8492a6f3c15ff45375010196a38f92fd298ab107bebb6d8b9ae2d4c",
    (4, 5, "s3"): "09326dec44b51ceceba6daf03bb8e943cb7653c00cc451a870a430197d419d0a",
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


@pytest.mark.parametrize(
    "name, squares",
    [("klein_disjoint2", 18), ("klein_m2f3", 0), ("trivial", 0), ("pair_f5", 0), ("cyclic_shift_c3", 0)],
)
def test_tensor_squares_built_per_suite(monkeypatch, name, squares):
    # lemma_4_2 and the Azumaya flag of a Galois R with R^beta <= C(R) are
    # stated from the certified coordinates, so no tensor square is built
    # for them (65, 23, 1, 1 and 1 squares when the solve decided them);
    # the exhaustive walk on klein_m2f3 decides every candidate in stacks,
    # one per dimension, with no tensor square (18 when each candidate had
    # its own, 7 while patterns of under five fills had); klein_disjoint2's
    # verdicts over its center are split at its two 1_e, so each square is
    # of one block over F_3 (40 squares, up to dimension 6 over the
    # 2-dimensional center, when S was solved whole)
    assert len(count_tensor_squares(monkeypatch, load_builtin(name))) == squares


KLEIN_M2F3X3 = WORKLOADS["disjoint_union"]([WORKLOADS["klein_m2"](3)] * 3, "klein_m2f3x3")
# sha256 of run_suite(..., scope).to_json() on three copies of klein_m2f3,
# computed with every separability verdict solved on the whole S
KLEIN_M2F3X3_SHA256 = {
    "all": "c04a0b99c58259a286bca68dc024f0df715f842022765518a35d1b788e834215",
    "s3": "df4ea33b5ed59186b3621b10e423d73ff847eea9bb1fbaae32da2b98d3060db7",
}


def test_klein_m2f3x3_report_json_pinned():
    for scope in ("all", "s3"):
        report = run_suite(load_instance_dict(KLEIN_M2F3X3), scope=scope)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == KLEIN_M2F3X3_SHA256[scope], scope


def test_klein_m2f3x3_splits_its_tensor_squares(monkeypatch):
    # each square is of one block over F_3; solved whole, a suite built 160,
    # up to dimension 10 over the 3-dimensional center
    built = count_tensor_squares(monkeypatch, load_instance_dict(KLEIN_M2F3X3))
    assert len(built) <= 27 and set(built) == {1}
