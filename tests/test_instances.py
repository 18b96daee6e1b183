import json
import re
import runpy
from pathlib import Path

import pytest

from gglab.cli import main
from gglab.instances import (
    BUILTIN_NAMES,
    InstanceError,
    builtin,
    clock_shift,
    emit_instance,
    load_builtin,
    load_instance,
    load_instance_dict,
)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_load_and_validate(name):
    inst = load_builtin(name)
    assert inst.name == name


# the benchmark's generators, read without importing (or writing bytecode
# into) perfbench
BENCH_BUILTINS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))[
    "documents"
]("builtins")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_document_equals_the_benchmark_generator(name):
    assert emit_instance(builtin(name)) == BENCH_BUILTINS[name]


def test_unknown_builtin():
    with pytest.raises(InstanceError, match="unknown builtin"):
        builtin("nope")


def test_emit_roundtrip(tmp_path):
    for name in BUILTIN_NAMES:
        doc = builtin(name)
        path = tmp_path / f"{name}.json"
        path.write_text(emit_instance(doc))
        inst = load_instance(path)
        assert inst.name == name
        assert inst.groupoid.size == load_builtin(name).groupoid.size


def test_nonprime_field_rejected():
    doc = builtin("trivial")
    doc["field"]["p"] = 6
    with pytest.raises(ValueError, match="6 is not prime"):
        load_instance_dict(doc)


def test_missing_section_located():
    doc = builtin("trivial")
    del doc["algebra"]
    with pytest.raises(InstanceError, match="algebra"):
        load_instance_dict(doc)


def test_bad_compose_entry_located():
    doc = builtin("pair_f5")
    doc["groupoid"]["compose"][0][0] = "zzz"
    with pytest.raises(InstanceError, match="compose"):
        load_instance_dict(doc)


def test_wrong_identities_rejected():
    doc = builtin("pair_f5")
    doc["groupoid"]["identities"] = ["e1"]
    with pytest.raises(InstanceError, match="identit"):
        load_instance_dict(doc)


def test_wrong_length_coordinates_rejected_at_load():
    doc = builtin("pair_f5")
    doc["coordinates"][0][1] = [1, 1, 1]
    with pytest.raises(InstanceError, match="length"):
        load_instance_dict(doc)


@pytest.mark.parametrize("p", [5.9, "7", True])
def test_modulus_must_be_a_json_integer(p):
    doc = builtin("pair_f5")
    doc["field"]["p"] = p
    with pytest.raises(InstanceError, match=f"^field: modulus p must be a JSON integer, not {p!r}$"):
        load_instance_dict(doc)


@pytest.mark.parametrize("p", [7, 0, None])
def test_a_rational_field_takes_no_modulus(p, tmp_path, capsys):
    doc = builtin("pair_f5")
    doc["field"] = {"kind": "Q", "p": p}
    with pytest.raises(InstanceError, match="^field: rational field takes no modulus$"):
        load_instance_dict(doc)
    target = tmp_path / "q_mod.json"
    target.write_text(json.dumps(doc))
    assert main(["validate", str(target)]) == 2
    assert "field: rational field takes no modulus" in capsys.readouterr().err


def test_wrong_length_idempotent_rejected_at_load():
    doc = builtin("pair_f5")
    doc["action"]["idempotents"]["e1"] = [1, 0, 0]
    with pytest.raises(ValueError, match=re.escape("idempotent for e1 has shape (3,), want (2,)")):
        load_instance_dict(doc)


def test_wrong_length_subalgebra_generator_rejected_at_load():
    doc = builtin("pair_f5")
    doc["subalgebras"] = [{"label": "s", "generators": [[1, 0], [1, 0, 0]]}]
    with pytest.raises(InstanceError, match=re.escape("subalgebras[0] generators must have length 2")):
        load_instance_dict(doc)


def test_failing_coordinates_surface_as_violation():
    # delta condition is a semantic check, reported by the suite with a witness
    from gglab.suite import run_suite

    doc = builtin("pair_f5")
    doc["coordinates"][0][1] = [1, 1]
    inst = load_instance_dict(doc)
    report = run_suite(inst, scope="s3")
    rec = next(c for c in report.checks if c.check_id == "galois_coordinates")
    assert rec.verdict == "violation"
    assert "arrow" in rec.witnesses and "residual" in rec.witnesses
    assert report.exit_code == 1


def test_invalid_json_reports_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InstanceError):
        load_instance(path)


def test_builtin_flags():
    assert load_builtin("klein_m2f3").flags.get("central_galois_expected") is True
    assert load_builtin("pair_f5").flags.get("central_galois_expected") in (False, None)
    assert load_builtin("cyclic_shift_c3").flags.get("galois_expected") is True


@pytest.mark.parametrize("value", ["yes", 1, None, [True]])
def test_central_galois_flag_must_be_a_boolean(value):
    # remark_2_3 compares the flag with its own verdict, so a string would
    # load and then read as a disagreement
    doc = builtin("pair_f5")
    doc["meta"]["flags"]["central_galois_expected"] = value
    with pytest.raises(InstanceError, match=r"^meta\.flags\.central_galois_expected must be a JSON boolean"):
        load_instance_dict(doc)


def test_emitted_json_is_stable():
    a = emit_instance(builtin("klein_m2f3"))
    b = emit_instance(builtin("klein_m2f3"))
    assert a == b
    json.loads(a)  # well-formed


# a ragged matrix and a label that is not a string; the refusal must name
# the offending row or field, not only fail
RAGGED_MAP = {"action.maps.s": [[0], [1, 0]]}
LIST_LABEL = {"subalgebras": [{"label": [1], "generators": []}]}
NAMED = [(RAGGED_MAP, "action.maps.s[1]"), (LIST_LABEL, "subalgebras[0].label")]


# each edit gives one section a wrong JSON type (or an unreadable scalar);
# loading must refuse it as a bad instance, never as an internal error
@pytest.mark.parametrize(
    "edits",
    [
        {"field": 5},
        {"meta": []},
        {"meta.flags": 5},
        {"subalgebras": [5]},
        {"subalgebras": [{"generators": [1]}]},
        {"groupoid.arrows": [["e1"], "e2", "t", "s"]},
        {"groupoid.compose": [5, 5, 5, 5]},
        {"algebra.basis": [1, 2]},
        {"algebra.structure": [5]},
        {"algebra.structure": [["0", 0, 0, 1]]},
        {"algebra.structure": [[0, 0, 0, 1], [1, 1, 1, 1], [0, 0, 0, 1]]},
        {"algebra.unit": 5},
        {"action.idempotents": []},
        {"action.maps": []},
        {"action.maps.t": [5, 5]},
        {"coordinates": [5]},
        {"coordinates": [[5, [0, 1]]]},
        {"field": {"kind": "Q"}, "algebra.unit": ["1/0", 1]},
        RAGGED_MAP,
        LIST_LABEL,
    ],
    ids="+".join,
)
def test_malformed_section_fails_at_load(tmp_path, capsys, edits):
    doc = builtin("pair_f5")
    for path, value in edits.items():
        *parents, key = path.split(".")
        sec = doc
        for k in parents:
            sec = sec[k]
        sec[key] = value
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(doc))
    assert main(["validate", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert all(where in err for named, where in NAMED if edits == named)


def test_repeated_structure_entry_is_refused():
    # a second [i, j, k, c] for the same (i, j, k) would silently replace
    # the first, so the loaded algebra would not be the one stated
    doc = builtin("pair_f5")
    doc["algebra"]["structure"].append([1, 1, 1, 2])
    with pytest.raises(
        InstanceError,
        match=re.escape("algebra.structure[2]: entry [1, 1, 1, 2] repeats (i, j, k) of algebra.structure[1]"),
    ):
        load_instance_dict(doc)


@pytest.mark.parametrize("n, p", [(2, 5), (3, 7)])
def test_clock_shift_loads_central_galois(n, p):
    from gglab.suite import SuiteState

    inst = load_instance_dict(clock_shift(n, p))
    assert (inst.algebra.dim, inst.groupoid.size) == (n * n, n * n)
    assert SuiteState(inst).central


def test_clock_shift_2_is_the_klein_action():
    # clock diag(1, -1), shift the swap, their product [[0, 1], [-1, 0]]
    klein, doc = builtin("klein_m2f3"), clock_shift(2, 3)
    rename = {"e": "c0s0", "a": "c1s0", "b": "c0s1", "c": "c1s1"}
    assert {rename[a]: m for a, m in klein["action"]["maps"].items()} == doc["action"]["maps"]
    assert sorted(klein["algebra"]["structure"]) == sorted(doc["algebra"]["structure"])


@pytest.mark.parametrize("n, p", [(2, 4), (3, 5), (0, 5)])
def test_clock_shift_needs_n_dividing_p_minus_1(n, p):
    with pytest.raises(InstanceError):
        clock_shift(n, p)
