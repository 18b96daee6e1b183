from itertools import chain, combinations

import pytest

from gglab.groupoid import (
    GroupoidError,
    closure,
    enumerate_subgroupoids,
    generated_subgroupoid,
    Subgroupoid,
    is_subgroupoid,
    join,
    pair_star,
    validate_groupoid,
)
from gglab.instances import load_builtin


def pair_groupoid():
    return load_builtin("pair_f5").groupoid


def klein():
    return load_builtin("klein_m2f3").groupoid


def brute_force_subgroupoids(g):
    """Oracle: test closedness of every nonempty subset directly."""
    out = []
    arrows = list(g.arrows())
    for subset in chain.from_iterable(
        combinations(arrows, k) for k in range(1, len(arrows) + 1)
    ):
        if is_subgroupoid(g, subset):
            out.append(frozenset(subset))
    return sorted(out, key=sorted)


@pytest.mark.parametrize("name", ["trivial", "pair_f5", "klein_m2f3", "klein_disjoint2", "cyclic_shift_c3"])
def test_enumeration_matches_brute_force(name):
    g = load_builtin(name).groupoid
    got = [h.members for h in enumerate_subgroupoids(g)]
    assert got == brute_force_subgroupoids(g)


def wide_count(g):
    return sum(h.wide for h in enumerate_subgroupoids(g))


def test_wide_counts():
    assert wide_count(pair_groupoid()) == 2
    assert wide_count(klein()) == 5
    assert wide_count(load_builtin("klein_disjoint2").groupoid) == 25
    assert len(enumerate_subgroupoids(load_builtin("trivial").groupoid)) == 1


def test_validate_rejects_broken_associativity():
    # force (tt)t != t(tt) by corrupting a one-object group table
    names = ["e", "a", "b"]
    comp = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    inv = [0, 2, 1]
    validate_groupoid(names, comp, inv)  # C3 is fine
    bad = [row[:] for row in comp]
    bad[1][1] = 0
    with pytest.raises(GroupoidError):
        validate_groupoid(names, bad, inv)


def test_validate_rejects_the_empty_groupoid():
    # refused by the validator itself, so every path to a Groupoid is covered
    with pytest.raises(GroupoidError, match="needs at least one arrow"):
        validate_groupoid([], [], [])


def test_validate_rejects_partiality_mismatch():
    g = pair_groupoid()
    comp = [list(row) for row in g.comp]
    # define a product whose d/r do not match
    i, j = next((a, b) for a in g.arrows() for b in g.arrows() if comp[a][b] < 0)
    comp[i][j] = 0
    with pytest.raises(GroupoidError):
        validate_groupoid(g.names, comp, g.inv)


def test_closure_laws():
    g = load_builtin("klein_disjoint2").groupoid
    arrows = list(g.arrows())
    for seed in combinations(arrows, 2):
        c = closure(g, set(seed))
        assert set(seed) <= c  # extensive
        assert closure(g, c) == c  # idempotent
    a, b = closure(g, {0}), closure(g, {0, 1})
    assert a <= b  # monotone


def test_generated_rejects_empty_seed():
    with pytest.raises(GroupoidError, match="empty seed"):
        generated_subgroupoid(pair_groupoid(), set())


def test_generated_pair_from_t():
    g = pair_groupoid()
    t = g.index("t")
    h = generated_subgroupoid(g, {t})
    assert h.members == frozenset(g.arrows())  # t, s, e1, e2


def test_join_is_least_upper_bound():
    g = klein()
    subs = enumerate_subgroupoids(g)
    members = {h.members for h in subs}
    for h in subs:
        for l in subs:
            j = join(h, l)
            assert h.members | l.members <= j.members
            assert j.members in members


def isotropy_group(g, e: int) -> Subgroupoid:
    """All arrows with d(g) = r(g) = e; certified to be a group."""
    if e not in g.identities:
        raise GroupoidError(f"{g.names[e]} is not an identity")
    members = frozenset(a for a in g.arrows() if g.source[a] == e and g.target[a] == e)
    for a in members:
        for b in members:
            if g.comp[a][b] < 0:  # cannot happen: d=r=e throughout
                raise GroupoidError("isotropy set is not a group")
    return Subgroupoid(g, members)


def test_isotropy_group():
    g = pair_groupoid()
    iso = isotropy_group(g, g.index("e1"))
    assert iso.members == {g.index("e1")}
    with pytest.raises(GroupoidError):
        isotropy_group(g, g.index("t"))


def test_pair_star_counts():
    assert len(pair_star(klein())) == 16
    assert len(pair_star(pair_groupoid())) == 8


def test_enumeration_cap():
    # 25 objects and only their identity arrows: one arrow over the cap
    n = 25
    comp = [[g if g == h else -1 for h in range(n)] for g in range(n)]
    g = validate_groupoid([f"e{i}" for i in range(n)], comp, list(range(n)))
    with pytest.raises(GroupoidError, match="enumeration cap is 24"):
        enumerate_subgroupoids(g)
