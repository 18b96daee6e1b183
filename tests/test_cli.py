import json
import subprocess
import sys
import time

import pytest

import gglab
from gglab import suite
from gglab.cli import main
from gglab.instances import BUILTIN_NAMES, builtin, emit_instance, load_builtin
from gglab.suite import run_suite


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


def test_missing_instance_arg():
    with pytest.raises(SystemExit):
        main(["validate"])


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
