"""The coordinate certificate of separability over theta(H) against the
tensor-square solve and its substitution check.  The suite states both
Lemma 4.2 and the Azumaya flag of a Galois R with R^beta <= C(R) from the
proof in ``suite._lemma_4_2``; ``separability_from_coordinates`` checks
that proof's clauses on every wide H as the oracle."""

import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from gglab.action import Action
from gglab.galois import GaloisCoordinates
from gglab.groupoid import Subgroupoid
from gglab.instances import clock_shift, load_builtin, load_instance_dict
from gglab.linalg import Subspace
from gglab.separability import (
    SeparabilityCertificate,
    SubalgebraFacts,
    separability_idempotent,
    verify_certificate,
)
from gglab.suite import SuiteState

# the benchmark's instance generators, read without importing (or writing
# bytecode into) perfbench
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


def separability_from_coordinates(act: Action, coords: GaloisCoordinates, h: Subgroupoid, base: Subspace) -> bool:
    """Whether z = sum_i x_i (x) y_i passes the clauses of the proof in
    ``suite._lemma_4_2`` over base = theta(H), for a wide H.

    With t_H(a) = sum_{g in H} beta_g(a 1_{g^-1}), check on the basis
    (every condition is linear in a):
      mu(z) = sum_i x_i y_i = 1,   t_H(R) <= base,
      (I)  a = sum_j x_j t_H(y_j a),
      (II) a = sum_i t_H(a x_i) y_i.
    """
    f, alg = act.field, act.algebra
    eye = f.eye(alg.dim)
    rows = coords.rows(act)
    xs, ys = rows[0::2], rows[1::2]
    # row k is t_H(b_k), so t_H(v) = v @ trace
    trace = f.reduce(sum(act.apply_truncated(g, eye) for g in h.members))
    # lx[i] is the matrix of v -> x_i v, rx[i] of v -> v x_i (on row vectors)
    lx, ly = alg.products(xs, eye), alg.products(ys, eye)
    rx = alg.products(eye, xs).transpose(1, 0, 2)
    ry = alg.products(eye, ys).transpose(1, 0, 2)
    mu = f.reduce(np.matmul(ys[:, None, :], lx).sum(axis=(0, 1)))  # sum_i x_i y_i
    one = f.reduce(np.matmul(f.reduce(np.matmul(ly, trace)), lx).sum(axis=0))  # (I)
    two = f.reduce(np.matmul(f.reduce(np.matmul(rx, trace)), ry).sum(axis=0))  # (II)
    return (
        np.array_equal(mu, alg.unit)
        and np.array_equal(one, eye)
        and np.array_equal(two, eye)
        and base.coords_rows(trace) is not None
    )


def tensor_element(act, coords: GaloisCoordinates) -> np.ndarray:
    """z = sum_i x_i (x) y_i on row-major R (x) R coordinates."""
    rows = coords.rows(act)
    return act.field.reduce(np.dot(rows[0::2].T, rows[1::2])).reshape(-1)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_coordinate_certificate_matches_the_solve(name):
    state = SuiteState(load_instance_dict(DOCUMENTS[name]))
    act, alg = state.inst.action, state.inst.algebra
    assert state.galois
    z = tensor_element(act, state.coords)
    for h in state.ctx.wide_subgroupoids:
        base = state.ctx.theta(h)
        assert separability_from_coordinates(act, state.coords, h, base), h.label()
        solved = separability_idempotent(alg, base)
        assert solved is not None, h.label()
        assert verify_certificate(SeparabilityCertificate(solved.tensor, z)), h.label()


def test_a_base_missing_the_trace_is_refused():
    # over the identities t_H is the identity map, so t_H(R) = R is not in span(1)
    inst = load_builtin("klein_m2f3")
    state = SuiteState(inst)
    ids = Subgroupoid(inst.groupoid, frozenset(inst.groupoid.identities))
    assert ids.wide
    assert not separability_from_coordinates(
        inst.action, state.coords, ids, Subspace.span(inst.field, inst.algebra.unit)
    )
    assert separability_from_coordinates(inst.action, state.coords, ids, state.ctx.theta(ids))


@pytest.mark.parametrize("name", ["klein_m2f3", "klein_disjoint2"])
def test_a_tampered_y_is_refused(name):
    inst = load_builtin(name)
    state = SuiteState(inst)
    pairs = [(x.copy(), y.copy()) for x, y in state.coords.pairs]
    pairs[0] = (pairs[0][0], inst.field.reduce(pairs[0][1] + 1))
    tampered = GaloisCoordinates(pairs)
    for h in state.ctx.wide_subgroupoids:
        assert not separability_from_coordinates(inst.action, tampered, h, state.ctx.theta(h)), h.label()


# upper triangular T_2(F_5) under the one-arrow groupoid: Galois over
# R^beta = R, which is not central, so the solve decides the Azumaya flag,
# and it is false (T_2 is not semisimple)
UPPER_TRIANGULAR = {
    "field": {"kind": "Fp", "p": 5},
    "groupoid": {"arrows": ["e"], "compose": [["e"]], "inverse": ["e"], "identities": ["e"]},
    "algebra": {
        "basis": ["e11", "e12", "e22"],
        "structure": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 2, 1, 1], [2, 2, 2, 1]],
        "unit": [1, 0, 1],
    },
    "action": {"idempotents": {"e": [1, 0, 1]}, "maps": {"e": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS) + ["upper_triangular_f5"])
def test_the_azumaya_flag_matches_the_solve(name):
    # the suite records R separable over C(R) by proof wherever the Galois
    # gate holds and R^beta <= C(R); a fresh solve must agree everywhere
    state = SuiteState(load_instance_dict(DOCUMENTS.get(name, UPPER_TRIANGULAR)))
    alg = state.inst.algebra
    assert state.galois
    assert state.azu == SubalgebraFacts(alg).separable_over(alg.full_space, state.ctx.center)
    assert state.azu == (name != "upper_triangular_f5")
