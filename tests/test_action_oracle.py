"""The load certificates against their one-at-a-time forms.

``validate_action`` decides each action axiom by stacked products over all
arrows, identities and composable pairs at once, and ``_check_associative``
takes the b_i in chunks; each step does at most ``_purerref.STACK_CELLS``
multiply-adds.  The oracles
below check the same axioms one item at a time, in the order whose first
failure names the error: ``oracle_validate_action`` runs a matmul chain per
arrow, one per composable pair and a rank per arrow, and
``oracle_check_associative`` contracts the table one b_i at a time.  On
every document of the benchmark, both must accept, or both must raise the
same message, after one entry of a map or an idempotent is bumped; and
on the builtins also when the stacks are cut into chunks of a few items.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_suite import BENCH_DOCS

from gglab import _purerref, linalg
from gglab.action import ActionError, validate_action
from gglab.algebra import AlgebraError, _check_associative
from gglab.instances import BUILTIN_NAMES, load_builtin, load_instance_dict
from gglab.linalg import Subspace

DOCS = {f"{w}/{name}": text for w, docs in BENCH_DOCS.items() for name, text in docs.items()}


def oracle_validate_action(g, alg, idempotents, beta) -> None:
    """Raise the ActionError ``validate_action`` must raise, checking one
    identity, arrow or composable pair at a time."""
    field = alg.field
    n = alg.dim
    names = g.names

    idem = {}
    for e in g.identities:
        if e not in idempotents:
            raise ActionError(f"missing idempotent for identity {names[e]}")
        v = field.reduce(np.asarray(idempotents[e]).astype(field.dtype, copy=True))
        if v.shape != (n,):
            raise ActionError(f"idempotent for {names[e]} has shape {v.shape}, want {(n,)}")
        idem[e] = v
    for e in idempotents:
        if e not in idem:
            raise ActionError(f"idempotent given for non-identity arrow {names[e]}")

    bmats = {}
    for a in g.arrows():
        if a not in beta:
            raise ActionError(f"missing matrix for arrow {names[a]}")
        m = field.reduce(np.asarray(beta[a]).astype(field.dtype, copy=True))
        if m.shape != (n, n):
            raise ActionError(f"matrix for {names[a]} has shape {m.shape}, want {(n, n)}")
        bmats[a] = m

    ids = list(idem)
    stacked = np.array(list(idem.values()), dtype=field.dtype).reshape(len(ids), n)
    prods = alg.products(stacked, stacked)
    for k, (e, v) in enumerate(idem.items()):
        if not np.array_equal(prods[k, k], v):
            raise ActionError(f"1_{names[e]} is not idempotent")
        if not np.array_equal(alg.left_mult(v), alg.right_mult(v)):
            raise ActionError(f"1_{names[e]} is not central")
    for k, e in enumerate(ids):
        for l, f in enumerate(ids):
            if e < f and np.any(prods[k, l] != 0):
                raise ActionError(f"1_{names[e]} and 1_{names[f]} are not orthogonal")
    total = field.zeros(n)
    for e in g.identities:
        total = field.reduce(total + idem[e])
    if not np.array_equal(total, alg.unit):
        raise ActionError("idempotents do not sum to 1_R; R = direct sum of E_e fails")

    eye = field.eye(n)
    ideals = {e: Subspace(field, n, alg.products(eye, v[None])[:, 0]) for e, v in idem.items()}
    for a in g.arrows():
        dom = ideals[g.source[a]]
        cod = ideals[g.target[a]]
        m = bmats[a]
        if not np.array_equal(linalg.matmul(field, m, alg.right_mult(idem[g.source[a]])), m):
            raise ActionError(f"beta_{names[a]} does not vanish off its domain ideal")
        imgs = linalg.matmul(field, dom.basis, m.T)
        if cod.coords_rows(imgs) is None:
            raise ActionError(f"beta_{names[a]} maps outside E_{names[g.target[a]]}")
        if linalg.rank(field, imgs) != cod.dim or dom.dim != cod.dim:
            raise ActionError(f"beta_{names[a]} is not bijective onto E_{names[g.target[a]]}")
        if not np.array_equal(linalg.matmul(field, m, idem[g.source[a]]), idem[g.target[a]]):
            raise ActionError(f"beta_{names[a]} does not send 1_{names[g.source[a]]} to 1_{names[g.target[a]]}")
        lhs = linalg.matmul(field, alg.products(dom.basis, dom.basis), m.T)
        if not np.array_equal(lhs, alg.products(imgs, imgs)):
            raise ActionError(f"beta_{names[a]} is not multiplicative on E_{names[g.source[a]]}")

    for e in g.identities:
        rows = ideals[e].basis
        if not np.array_equal(linalg.matmul(field, rows, bmats[e].T), rows):
            raise ActionError(f"beta_{names[e]} is not the identity on E_{names[e]}")

    for a in g.arrows():
        for b in g.arrows():
            if not g.composable(a, b):
                continue
            ab = g.comp[a][b]
            if not np.array_equal(linalg.matmul(field, bmats[a], bmats[b]), bmats[ab]):
                raise ActionError(f"cocycle fails: beta_{names[a]} o beta_{names[b]} != beta_{names[ab]}")


def oracle_check_associative(alg) -> None:
    """Raise the AlgebraError ``_check_associative`` must raise, one b_i at a time."""
    f, t, labels = alg.field, alg.table, alg.labels
    n = alg.dim
    rows, cols = t.reshape(n * n, n), t.reshape(n, n * n)
    for i in range(n):
        diff = f.reduce(np.dot(t[i], cols).reshape(n * n, n) - np.dot(rows, t[i]))
        if diff.any():
            j, k = divmod(int(np.flatnonzero(diff.any(axis=1))[0]), n)
            raise AlgebraError(f"associativity fails at triple ({labels[i]},{labels[j]},{labels[k]})")


def verdict(check, *args) -> str:
    """"accepted", or the message of the ValueError ``check`` raised."""
    try:
        check(*args)
    except (ActionError, AlgebraError) as e:
        return str(e)
    return "accepted"


_LOADED = {}


def loaded(key):
    if key not in _LOADED:
        _LOADED[key] = load_instance_dict(json.loads(DOCS[key]))
    return _LOADED[key]


def in_block_bump(act, a, row, col, c):
    """beta_a + c u v^T for u = row ``row`` of E_{r(a)}'s basis and v = row
    ``col`` of the projection onto E_{d(a)}: the map still vanishes off
    E_{d(a)} and lands in E_{r(a)}, so the checks after those two decide."""
    g, f = act.groupoid, act.field
    cod = act.ideal(a).basis
    u = cod[row % len(cod)]
    v = act.algebra.right_mult(act.idempotents[g.source[a]])[col % act.algebra.dim]
    return f.reduce(act.beta[a] + c * np.outer(u, v))


def test_the_oracles_accept_every_document():
    for key in DOCS:
        inst = loaded(key)
        act = inst.action
        assert verdict(oracle_validate_action, inst.groupoid, inst.algebra, act.idempotents, act.beta) == "accepted"
        assert verdict(oracle_check_associative, inst.algebra) == "accepted"


@pytest.mark.parametrize("key", sorted(DOCS))
def test_a_bumped_entry_gets_the_oracle_verdict(key):
    inst = loaded(key)
    g, alg, act, f = inst.groupoid, inst.algebra, inst.action, inst.field
    targets = [("beta", a) for a in g.arrows()] + [("in-block", a) for a in g.arrows()]
    targets += [("idempotent", e) for e in g.identities]
    bumps = st.integers(1, f.p - 1) if f.modular else st.sampled_from([1, -1, 2, Fraction(1, 2)])
    seen = set()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(targets), st.data())
    def run(target, data):
        kind, a = target
        idem, beta = dict(act.idempotents), dict(act.beta)
        c = data.draw(bumps)
        if kind == "in-block":
            beta[a] = in_block_bump(act, a, data.draw(st.integers(0, alg.dim)), data.draw(st.integers(0, alg.dim)), c)
        else:
            held = beta if kind == "beta" else idem
            m = held[a].copy()
            pos = tuple(data.draw(st.integers(0, s - 1)) for s in m.shape)
            m[pos] = f.reduce(np.array([m[pos] + c], dtype=f.dtype))[0]
            held[a] = m
        want = verdict(oracle_validate_action, g, alg, idem, beta)
        assert verdict(validate_action, g, alg, idem, beta) == want
        seen.add(want)

    run()
    assert len(seen) > 1, seen  # some bump fails


# multiply-adds per chunk: one item each, and a few items each on klein_m2f3
# (arrows, pairs, b_i), cyclic_shift_c3 (arrows, b_i) and klein_disjoint2 (pairs)
@pytest.mark.parametrize("budget", [1, 300, 3000])
def test_small_stack_chunks_keep_every_verdict(monkeypatch, budget):
    monkeypatch.setattr(_purerref, "STACK_CELLS", budget)
    for name in BUILTIN_NAMES:
        inst = load_builtin(name)  # validate_algebra and validate_action accept
        g, alg, act, f = inst.groupoid, inst.algebra, inst.action, inst.field
        for a in g.arrows():
            beta = dict(act.beta)
            beta[a] = in_block_bump(act, a, a, -1 - a, 1)
            want = verdict(oracle_validate_action, g, alg, act.idempotents, beta)
            assert verdict(validate_action, g, alg, act.idempotents, beta) == want, (name, a)
        n = alg.dim
        for pos in {(0, 0, 0), (n // 2, n - 1, 0), (n - 1, n - 1, n - 1)}:
            table = alg.table.copy()
            table[pos] = (table[pos] + 1) % f.p
            bumped = type(alg)(f, alg.labels, table, alg.unit)
            want = verdict(oracle_check_associative, bumped)
            assert verdict(_check_associative, bumped) == want, (name, pos)
