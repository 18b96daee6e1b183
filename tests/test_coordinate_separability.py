"""The coordinate certificate of separability over theta(H) against the
tensor-square solve and its substitution check."""

import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from gglab.galois import GaloisCoordinates, separability_from_coordinates
from gglab.groupoid import Subgroupoid
from gglab.instances import clock_shift, load_builtin, load_instance_dict
from gglab.linalg import Subspace
from gglab.separability import SeparabilityCertificate, separability_idempotent, verify_certificate
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
