import hashlib
import time

import pytest

from gglab.instances import BUILTIN_NAMES, load_builtin
from gglab.suite import CHECKS, MANIFEST, run_suite

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
