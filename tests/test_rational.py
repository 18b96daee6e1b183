"""Rationals stay exact and canonical on the way to the report.

Over Q every scalar is a Python int when it is integral, else a Fraction.
A float or a numpy integer would make a verdict inexact or overflow, so
every matrix handed to ``linalg.rref`` while the suite runs is checked.
"""

import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_batched import algebras
from test_suite import BENCH_DOCS

from gglab import linalg
from gglab.fields import Field, FieldError
from gglab.instances import InstanceError, load_instance_dict
from gglab.suite import run_suite

Q = Field("Q")


def test_canonical_scalars():
    assert type(Q.parse_scalar("4/2")) is int and Q.parse_scalar("4/2") == 2
    assert Q.parse_scalar("3/6") == Fraction(1, 2)
    with pytest.raises(FieldError):
        Q.parse_scalar(True)
    assert type(Q.zero) is int and type(Q.one) is int
    assert all(type(x) is int for x in Q.eye(2).flat)
    assert [type(x) for x in Q.vector([Fraction(4, 2), np.int64(3), Fraction(1, 2)])] == [
        int,
        int,
        Fraction,
    ]


WANT_Q = 'want a JSON integer or a "num/den" string'


@pytest.mark.parametrize(
    "value", ["1_0", " 1/2", "1/2 ", "\u0663", "1.5", "+1", "1/-2", "1//2", "x", "", True, 1.5, None]
)
def test_a_rational_scalar_is_an_int_or_a_fraction_string(value):
    # int() would read "1_0" as 10 and " 1/2" or the Arabic-Indic digit 3 as numbers
    with pytest.raises(FieldError, match=f"^bad scalar {re.escape(repr(value))}: {re.escape(WANT_Q)}$"):
        Q.parse_scalar(value)


@pytest.mark.parametrize("value", ["1/2", "x", "3", True, 1.5])
def test_a_prime_field_scalar_is_an_int(value):
    with pytest.raises(FieldError, match=f"^bad scalar {re.escape(repr(value))}: want a JSON integer$"):
        Field("Fp", 5).parse_scalar(value)


def test_rational_scalars_round_trip_through_json():
    for x in [0, -3, 10**30, Fraction(-1, 2), Fraction(7, 3), Fraction(-(10**20), 3)]:
        text = Q.scalar_json(x)
        assert Q.parse_scalar(text) == x and type(Q.parse_scalar(text)) is type(x)
    assert Q.parse_scalar("-12") == -12 and Q.parse_scalar("-4/6") == Fraction(-2, 3)
    with pytest.raises(FieldError, match="^bad scalar '1/0': zero denominator$"):
        Q.parse_scalar("1/0")


@pytest.mark.parametrize(
    "path, where",
    [
        (("action", "maps", "t", 1, 0), "action.maps.t[1][0]"),
        (("action", "idempotents", "e2", 1), "action.idempotents.e2[1]"),
        (("algebra", "unit", 0), "algebra.unit[0]"),
        (("algebra", "structure", 1, 3), "algebra.structure[1]"),
        (("coordinates", 1, 0, 1), "coordinates[1][0][1]"),
        (("subalgebras", 0, "generators", 0, 1), "subalgebras[0].generators[0][1]"),
    ],
)
def test_a_bad_scalar_is_located(path, where):
    doc = json.loads(BENCH_DOCS["rational"]["pair_q"])
    doc["coordinates"] = [[[1, 0], [1, 0]], [[0, 1], [0, 1]]]
    doc["subalgebras"] = [{"generators": [[1, 1]]}]
    *parents, key = path
    sec = doc
    for k in parents:
        sec = sec[k]
    sec[key] = "1_0"
    with pytest.raises(InstanceError, match=f"^{re.escape(where)}: bad scalar '1_0': {re.escape(WANT_Q)}$"):
        load_instance_dict(doc)


def check_rref(monkeypatch) -> list:
    """Wrap ``linalg.rref`` so that each Q matrix must hold ints and Fractions
    only; the returned list collects the shapes it saw."""
    seen = []
    rref = linalg.rref

    def wrapped(field, mat):
        if not field.modular:
            assert mat.dtype == object, mat.dtype
            bad = [x for x in mat.flat if type(x) not in (int, Fraction)]
            assert not bad, bad[:3]
            seen.append(mat.shape)
        return rref(field, mat)

    monkeypatch.setattr(linalg, "rref", wrapped)
    return seen


@pytest.mark.parametrize("name", sorted(BENCH_DOCS["rational"]))
def test_rational_documents_reach_rref_canonically(monkeypatch, name):
    seen = check_rref(monkeypatch)
    report = run_suite(load_instance_dict(json.loads(BENCH_DOCS["rational"][name])), scope="all")
    assert seen and report.violations == []


def _trivial_action_doc(alg):
    """The one-arrow groupoid acting trivially on ``alg``, as an instance document."""
    n = alg.dim
    unit = Q.vector_json(alg.unit)
    return {
        "meta": {"name": "trivial_q"},
        "field": {"kind": "Q"},
        "groupoid": {"arrows": ["e"], "compose": [["e"]], "inverse": ["e"], "identities": ["e"]},
        "algebra": {
            "basis": list(alg.labels),
            "structure": [
                [int(i), int(j), int(k), Q.scalar_json(alg.table[i, j, k])]
                for i, j, k in np.argwhere(alg.table != 0)
            ],
            "unit": unit,
        },
        "action": {"idempotents": {"e": unit}, "maps": {"e": Q.matrix_json(Q.eye(n))}},
        "coordinates": [[unit, unit]],
    }


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_random_rational_algebras_reach_rref_canonically(data):
    alg = data.draw(algebras(Q, st.fractions(min_value=-2, max_value=2, max_denominator=2)))
    # a function-scoped fixture would span every example, so patch per example
    with pytest.MonkeyPatch.context() as mp:
        seen = check_rref(mp)
        report = run_suite(load_instance_dict(_trivial_action_doc(alg)), scope="all")
    assert seen and report.violations == []
