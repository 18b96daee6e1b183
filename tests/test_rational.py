"""Rationals stay exact and canonical on the way to the report.

Over Q every scalar is a Python int when it is integral, else a Fraction.
A float or a numpy integer would make a verdict inexact or overflow, so
every matrix handed to ``linalg.rref`` while the suite runs is checked.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_batched import algebras
from test_suite import BENCH_DOCS

from gglab import linalg
from gglab.fields import Field, FieldError
from gglab.instances import load_instance_dict
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
