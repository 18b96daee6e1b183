import json
import subprocess
import sys
import time

import pytest

import gglab
from gglab import suite
from gglab.cli import main
from gglab.instances import BUILTIN_NAMES, _disjoint_copies, builtin, emit_instance, load_builtin
from gglab.suite import run_suite
from test_suite import trivial_c2_f5


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_builtin(capsys):
    code, out, _ = run_cli(["validate", "--builtin", "klein_m2f3"], capsys)
    assert code == 0
    assert "valid" in out


def test_validate_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(emit_instance(builtin("pair_f5")))
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert code == 0


def test_validate_refuses_a_subalgebra_without_generators(tmp_path, capsys):
    doc = builtin("pair_f5")
    doc["subalgebras"] = [{"generators": []}]
    path = tmp_path / "no_generators.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == "error: subalgebras[0].generators must hold at least one vector\n"


@pytest.mark.parametrize(
    "field, value, want",
    [
        ({"kind": "Q"}, "1_0", 'a JSON integer or a "num/den" string'),  # int() would read it as 10
        ({"kind": "Q"}, "1.5", 'a JSON integer or a "num/den" string'),
        ({"kind": "Fp", "p": 5}, "x", "a JSON integer"),
        ({"kind": "Fp", "p": 5}, True, "a JSON integer"),
    ],
)
def test_validate_locates_a_bad_scalar(tmp_path, capsys, field, value, want):
    doc = builtin("pair_f5")
    doc["field"] = field
    doc["action"]["maps"]["t"][1][0] = value
    path = tmp_path / "bad_scalar.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: action.maps.t[1][0]: bad scalar {value!r}: want {want}\n"


def test_validate_bad_file(tmp_path, capsys):
    doc = builtin("pair_f5")
    doc["field"]["p"] = 6
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert "6 is not prime" in err


@pytest.mark.parametrize(
    "p, message",
    [
        (4294967311, "4294967311 is too large: F_p needs p < 2^31"),  # its (p-1)^2 wraps int64
        (2**61 - 1, "2305843009213693951 is too large"),  # prime; trial division would hang
        (2**31 - 1, "F_2147483647 is too large for the algebra (dim 2)"),
        (1000000007, "F_1000000007 is too large for the skew groupoid ring (dim 4)"),
    ],
)
def test_field_without_int64_headroom_is_refused(tmp_path, capsys, p, message):
    doc = builtin("pair_f5")
    doc["field"]["p"] = p
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run_cli(["suite", str(path)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert message in err


def test_suite_refuses_a_non_boolean_central_galois_flag(tmp_path, capsys):
    doc = builtin("pair_f5")
    doc["meta"]["flags"]["central_galois_expected"] = "yes"
    path = tmp_path / "flagged.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["suite", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == "error: meta.flags.central_galois_expected must be a JSON boolean, not 'yes'\n"


@pytest.mark.parametrize(
    "name, reason",
    [
        ("missing.json", "cannot read: No such file or directory"),
        (".", "cannot read: Is a directory"),
        ("latin1.json", "not UTF-8 text"),
    ],
)
def test_unreadable_instance_path_is_a_user_error(tmp_path, capsys, name, reason):
    (tmp_path / "latin1.json").write_bytes(b'{"meta": "\xe9"}')
    path = tmp_path / name
    code, out, err = run_cli(["suite", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: {reason}") and err.count("\n") == 1
    assert "internal error" not in err and "Traceback" not in err


def test_deeply_nested_json_is_a_user_error(tmp_path, capsys):
    # json.loads raises RecursionError, not JSONDecodeError, on deep nesting
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {path}: JSON nested too deeply to decode\n"


def test_suite_refuses_a_groupoid_over_the_enumeration_cap(tmp_path, capsys):
    path = tmp_path / "trivial25.json"
    path.write_text(emit_instance(_disjoint_copies(builtin("trivial"), 25, "trivial25")))
    code, out, err = run_cli(["suite", str(path)], capsys)
    assert code == 2 and out == ""
    assert "groupoid has 25 arrows; enumeration cap is 24" in err


@pytest.mark.parametrize("verb", ["validate", "suite", "theta-table"])
def test_instance_without_arrows_is_refused(tmp_path, capsys, verb):
    doc = {
        "field": {"kind": "Fp", "p": 5},
        "groupoid": {"arrows": [], "compose": [], "inverse": [], "identities": []},
        "algebra": {"basis": [], "structure": [], "unit": []},
        "action": {"idempotents": {}, "maps": {}},
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([verb, str(path)], capsys)
    assert code == 2 and out == ""
    assert err == "error: groupoid.arrows is empty: a groupoid needs at least one arrow\n"


def test_missing_instance_arg():
    # a usage error exits 2; exit 1 is reserved for a recorded violation
    for verb in ("validate", "suite"):
        with pytest.raises(SystemExit) as exc:
            main([verb])
        assert exc.value.code == 2


def test_instance_path_and_builtin_together_refused(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(emit_instance(builtin("pair_f5")))
    with pytest.raises(SystemExit) as exc:
        main(["suite", str(path), "--builtin", "trivial"])
    assert exc.value.code == 2


def test_solve_coordinates(capsys):
    code, out, _ = run_cli(["solve-coordinates", "--builtin", "klein_m2f3"], capsys)
    assert code == 0
    assert "certified" in out


def test_jmodules(capsys):
    code, out, _ = run_cli(["jmodules", "--builtin", "pair_f5"], capsys)
    assert code == 0
    assert "J_t: dim 0" in out


def test_subgroupoids_wide(capsys):
    code, out, _ = run_cli(["subgroupoids", "--builtin", "klein_m2f3", "--wide"], capsys)
    assert code == 0
    assert out.startswith("5 wide subgroupoids")


def test_theta_table(capsys):
    code, out, _ = run_cli(["theta-table", "--builtin", "klein_m2f3"], capsys)
    assert code == 0
    assert "theta injective: True" in out


# klein_disjoint2 has two components, so most of its wide subgroupoids
# span both and their theta(H) reads arrows of each
KLEIN_DISJOINT2_THETA_TABLE = [
    "subgroupoid                theta dim  gamma dim  direct",
    "{e1,a1,b1,c1,e2}                   5          5  True  ",
    "{e1,a1,b1,c1,e2,a2}                3          6  True  ",
    "{e1,a1,b1,c1,e2,a2,b2,c2}          2          8  True  ",
    "{e1,a1,b1,c1,e2,b2}                3          6  True  ",
    "{e1,a1,b1,c1,e2,c2}                3          6  True  ",
    "{e1,a1,e2}                         6          3  True  ",
    "{e1,a1,e2,a2}                      4          4  True  ",
    "{e1,a1,e2,a2,b2,c2}                3          6  True  ",
    "{e1,a1,e2,b2}                      4          4  True  ",
    "{e1,a1,e2,c2}                      4          4  True  ",
    "{e1,b1,e2}                         6          3  True  ",
    "{e1,b1,e2,a2}                      4          4  True  ",
    "{e1,b1,e2,a2,b2,c2}                3          6  True  ",
    "{e1,b1,e2,b2}                      4          4  True  ",
    "{e1,b1,e2,c2}                      4          4  True  ",
    "{e1,c1,e2}                         6          3  True  ",
    "{e1,c1,e2,a2}                      4          4  True  ",
    "{e1,c1,e2,a2,b2,c2}                3          6  True  ",
    "{e1,c1,e2,b2}                      4          4  True  ",
    "{e1,c1,e2,c2}                      4          4  True  ",
    "{e1,e2}                            8          2  True  ",
    "{e1,e2,a2}                         6          3  True  ",
    "{e1,e2,a2,b2,c2}                   5          5  True  ",
    "{e1,e2,b2}                         6          3  True  ",
    "{e1,e2,c2}                         6          3  True  ",
    "theta injective: True   gamma injective: True",
]


def test_theta_table_spanning_two_components(capsys):
    code, out, _ = run_cli(["theta-table", "--builtin", "klein_disjoint2"], capsys)
    assert code == 0
    assert out.splitlines() == KLEIN_DISJOINT2_THETA_TABLE and out.endswith("\n")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_suite_exit_zero(name, capsys):
    code, out, _ = run_cli(["suite", "--builtin", name], capsys)
    assert code == 0
    assert "0 violations" in out


def test_suite_scope_json(capsys):
    code, out, _ = run_cli(["suite", "--builtin", "pair_f5", "--scope", "s3", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["scope"] == "s3"
    assert doc["violations"] == 0


def test_suite_default_scope_is_all(capsys):
    code, out, _ = run_cli(["suite", "--builtin", "trivial", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["scope"] == "all"


def test_removed_cli_surface():
    for argv in (["report", "--builtin", "trivial"], ["suite", "--builtin", "trivial", "--scope", "s4"]):
        with pytest.raises(SystemExit):
            main(argv)
    with pytest.raises(ValueError, match="unknown scope"):
        run_suite(load_builtin("trivial"), scope="s4")


def test_internal_error_is_not_a_violation(monkeypatch, capsys):
    def broken(act, t):
        raise TypeError("broken fixer")

    # Section 3 calls the fixer only inside the lemma_2_1 handler, which
    # must let a bug through instead of recording a violation
    monkeypatch.setattr(suite, "fixer_subgroupoid", broken)
    with pytest.raises(TypeError, match="broken fixer"):
        run_suite(load_builtin("trivial"), scope="s3")
    code, out, err = run_cli(["suite", "--builtin", "trivial", "--scope", "s3"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("Traceback")
    assert err.endswith("\ninternal error: TypeError: broken fixer\n")


def test_builtin_emit_loads_back(tmp_path, capsys):
    code, out, _ = run_cli(["builtin", "cyclic_shift_c3", "--emit"], capsys)
    assert code == 0
    path = tmp_path / "x.json"
    path.write_text(out)
    code2, out2, _ = run_cli(["suite", str(path)], capsys)
    assert code2 == 0


def test_suite_nonzero_on_violation(tmp_path, capsys):
    doc = builtin("pair_f5")
    doc["coordinates"][0][1] = [1, 1]  # breaks the delta condition
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["suite", str(path)], capsys)
    assert code == 1
    assert "violation" in out


def test_json_determinism_subprocess(cli_env):
    # the acceptance-level contract, exercised through the real entry point
    cmd = [sys.executable, "-m", "gglab.cli", "suite", "--builtin", "trivial", "--format", "json"]
    a = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
    b = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
    assert a.returncode == 0 and a.stdout == b.stdout


def test_backend_is_python():
    assert gglab.BACKEND == "python"


def test_solve_coordinates_proves_not_galois(tmp_path, capsys):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(trivial_c2_f5()))
    code, out, _ = run_cli(["solve-coordinates", str(path)], capsys)
    assert code == 0
    assert out == "no coordinate system exists (exact basis-pinned solve): R is not a Galois extension\n"
