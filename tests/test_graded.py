"""The arrow-graded skew groupoid ring R*G against the checks its
construction no longer runs.

``build_skew_groupoid_ring`` keeps only the basis of R*G = sum_g
E_{r(g)} u_g and j on it, and certifies nothing: associativity, the unit
laws and that j(a u_g) = L_a beta_g is a unital ring map follow from the
action axioms certified at load.  ``skew_algebra`` below writes the
product table down from the formula, and the oracles re-prove all three
on every skew ring of the benchmark documents and of two clock-and-shift
actions: the whole-table check of ``validate_algebra`` and the
multiplicativity loop over j that the suite used to run.
"""

import json
import re
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gglab import algebra
from gglab.algebra import Algebra, AlgebraError, validate_algebra
from gglab.galois import build_skew_groupoid_ring
from gglab.instances import clock_shift, load_instance_dict
from gglab.suite import run_suite

# the benchmark's instance generators, read without importing (or writing
# bytecode into) perfbench
WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
BENCH_DOCS = {name: text for w in WORKLOADS["WORKLOADS"] for name, text in WORKLOADS["documents"](w).items()}
CLOCK_SHIFTS = {"clock_shift(2, 5)": (2, 5), "clock_shift(3, 7)": (3, 7)}


def load(name):
    doc = clock_shift(*CLOCK_SHIFTS[name]) if name in CLOCK_SHIFTS else json.loads(BENCH_DOCS[name])
    return load_instance_dict(doc)


def skew_ring(name):
    return build_skew_groupoid_ring(load(name).action)


def skew_algebra(skew) -> Algebra:
    """R*G as an algebra on the ring's slots, from its product
    (a u_g)(b u_h) = a beta_g(b 1_{g^-1}) u_{gh} and unit sum_e 1_e u_e."""
    act = skew.action
    f, gp, alg = act.field, act.groupoid, act.algebra
    block = {g: [i for i, (a, _) in enumerate(skew.slots) if a == g] for g in gp.arrows()}
    table = f.zeros((skew.dim,) * 3)
    for g in gp.arrows():
        xs = act.ideal(g).basis
        for h in gp.arrows():
            if not gp.composable(g, h):
                continue
            gh = gp.comp[g][h]
            prods = alg.products(xs, act.apply_truncated(g, act.ideal(h).basis))
            coords = act.ideal(gh).coords_rows(prods.reshape(-1, alg.dim))
            assert coords is not None, "skew product left its ideal"
            table[np.ix_(block[g], block[h], block[gh])] = coords.reshape(len(xs), len(block[h]), len(block[gh]))
    unit = f.zeros(skew.dim)
    for e in gp.identities:
        unit[block[e]] = act.ideal(e).coords(act.idempotents[e])
    labels = tuple(f"{gp.names[g]}#{r}" for g, r in skew.slots)
    return Algebra(f, labels, table, unit)


def dense_first_failure(field, table):
    """Both sides of associativity on every basis triple; the row-major
    first triple (i, j, k) where they differ, or None."""
    n = table.shape[0]
    nn = n * n
    left = field.reduce(np.dot(table.reshape(nn, n), table.reshape(n, nn))).reshape(n, n, n, n)
    # right[i,j,k,l] = sum_m c[j,k,m] c[i,m,l]
    mid = np.transpose(table, (1, 0, 2)).reshape(n, nn)
    right = field.reduce(np.dot(table.reshape(nn, n), mid).reshape(n, n, n, n).transpose(2, 0, 1, 3))
    bad = np.argwhere(left != right)
    return None if len(bad) == 0 else tuple(int(x) for x in bad[0][:3])


def revalidate(alg, table):
    return validate_algebra(alg.field, alg.labels, table, alg.unit)


@pytest.mark.parametrize("name", [*BENCH_DOCS, *CLOCK_SHIFTS])
def test_skew_rings_pass_both_certificates(name):
    skew = skew_ring(name)
    alg = skew_algebra(skew)
    f, d = alg.field, skew.dim
    checked = revalidate(alg, alg.table)
    assert np.array_equal(checked.table, alg.table) and np.array_equal(checked.unit, alg.unit)

    # j(b_i b_j) = j(b_i) j(b_j) for all i, j, and j(1) = I
    n = skew.action.algebra.dim
    mats = np.array([skew.element_matrix(i) for i in range(d)], dtype=f.dtype).reshape(d, n * n)
    square = mats.reshape(d, n, n)
    for i in range(d):
        want = f.reduce(np.dot(alg.table[i], mats))  # sum_k table[i, j, k] j(b_k)
        got = f.reduce(np.matmul(square[i], square)).reshape(d, n * n)
        assert np.array_equal(want, got), (name, alg.labels[i])
    assert np.array_equal(f.reduce(np.dot(alg.unit, mats)).reshape(n, n), f.eye(n))


@pytest.mark.parametrize("name", ["klein_m2f3", "pair_f5x2"])
def test_bumped_entry_fails_at_the_dense_first_triple(name):
    skew = skew_ring(name)
    alg, gp = skew_algebra(skew), skew.action.groupoid
    block = {g: [i for i, (a, _) in enumerate(skew.slots) if a == g] for g in gp.arrows()}
    pairs = [(g, h, gp.comp[g][h]) for g in gp.arrows() for h in gp.arrows() if gp.composable(g, h)]

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(pairs), st.data())
    def run(pair, data):
        # one constant inside the composable block E_g u_g x E_h u_h -> E_gh u_gh
        pos = tuple(data.draw(st.sampled_from(block[b])) for b in pair)
        table = alg.table.copy()
        table[pos] = (table[pos] + data.draw(st.integers(1, alg.field.p - 1))) % alg.field.p
        first = dense_first_failure(alg.field, table)
        assert first is not None
        want = "associativity fails at triple ({},{},{})".format(*(alg.labels[i] for i in first))
        with pytest.raises(AlgebraError, match=f"^{re.escape(want)}$"):
            revalidate(alg, table)

    run()


@pytest.mark.parametrize("name", ["klein_disjoint2", "clock_shift(2, 5)"])
def test_the_suite_certifies_no_associativity(monkeypatch, name):
    # the instance algebra is certified once, at load; the suite builds the
    # skew ring from its formula and checks no table for associativity
    inst = load(name)
    calls = []
    check = algebra._check_associative
    monkeypatch.setattr(algebra, "_check_associative", lambda alg, *rest: calls.append(alg.dim) or check(alg, *rest))
    run_suite(inst, scope="all")
    assert calls == []
