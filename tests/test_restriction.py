"""A restriction inherits the parent's certified axioms; the full
validators, run on every restriction, keep the check ``restrict`` skips."""

import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from gglab import action
from gglab.action import restrict, validate_action
from gglab.groupoid import enumerate_subgroupoids, validate_groupoid
from gglab.instances import clock_shift, load_builtin, load_instance_dict
from gglab.suite import run_suite

# the benchmark's instance documents, read without importing (or writing
# bytecode into) perfbench; its ``builtins`` workload is the five builtins,
# byte for byte
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


def parent_tables(g, members):
    """H's names, composition and inverse tables read off G's, re-indexed
    in arrow order (an undefined or outside product is -1)."""
    members = sorted(members)
    pos = {a: i for i, a in enumerate(members)}
    names = [g.names[a] for a in members]
    comp = [[pos.get(g.comp[a][b], -1) for b in members] for a in members]
    inv = [pos[g.inv[a]] for a in members]
    return names, comp, inv


def same_matrices(left: dict, right: dict) -> bool:
    return left.keys() == right.keys() and all(np.array_equal(left[k], right[k]) for k in left)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_every_restriction_passes_the_full_validators(name):
    act = load_instance_dict(DOCUMENTS[name]).action
    g = act.groupoid
    for h in enumerate_subgroupoids(g):
        r = restrict(act, h)
        assert validate_groupoid(*parent_tables(g, h.members)) == r.groupoid, h.label()
        full = validate_action(r.groupoid, r.algebra, r.idempotents, r.beta)
        assert same_matrices(full.idempotents, r.idempotents), h.label()
        assert same_matrices(full.beta, r.beta), h.label()


@pytest.mark.parametrize("name", ["klein_disjoint2", "pair_f5"])
def test_the_suite_never_revalidates_an_action(monkeypatch, name):
    # the load certifies the action once (through instances' own binding);
    # prop_2_2 and lemma_3_1 restrict to every subgroupoid without calling
    # validate_action again
    inst = load_builtin(name)
    calls = []
    validate = action.validate_action

    def counted(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(action, "validate_action", counted)
    run_suite(inst, scope="all")
    assert len(calls) == 0
