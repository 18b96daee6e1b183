import json
import runpy
from itertools import chain, combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gglab import groupoid
from gglab.groupoid import (
    GroupoidError,
    closure,
    components,
    enumerate_subgroupoids,
    generated_subgroupoid,
    Subgroupoid,
    is_subgroupoid,
    join,
    pair_star,
    validate_groupoid,
)
from gglab.instances import load_builtin, load_instance_dict

# the benchmark's instance generators, read without importing (or writing
# bytecode into) perfbench
WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
FP5 = {"kind": "Fp", "p": 5}
UNIONS = {
    **{
        name: json.loads(doc)
        for w in WORKLOADS["WORKLOADS"]
        for name, doc in WORKLOADS["documents"](w).items()
    },
    "pair_f5x4": WORKLOADS["disjoint_union"]([WORKLOADS["pair"](FP5)] * 4, "pair_f5x4"),
    "pair_f5+klein_m2(5)": WORKLOADS["disjoint_union"](
        [WORKLOADS["pair"](FP5), WORKLOADS["klein_m2"](5)], "pair_f5+klein_m2(5)"
    ),
}


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


def whole_groupoid_subgroupoids(g):
    """Oracle: the closure BFS over every arrow of G at once, as the
    enumeration ran before it split G into connected components."""
    found = {closure(g, {a}) for a in g.arrows()}
    frontier = list(found)
    while frontier:
        nxt = []
        for s in frontier:
            for a in g.arrows():
                if a in s:
                    continue
                c = closure(g, s | {a})
                if c not in found:
                    found.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(found, key=sorted)


def groupoid_of(name):
    return load_instance_dict(UNIONS[name]).groupoid


def permuted(g, order):
    """G with arrow ``order[i]`` renumbered i, validated afresh."""
    pos = {a: i for i, a in enumerate(order)}
    pos[-1] = -1
    comp = [[pos[g.comp[a][b]] for b in order] for a in order]
    return validate_groupoid([g.names[a] for a in order], comp, [pos[g.inv[a]] for a in order])


@pytest.mark.parametrize("name", sorted(UNIONS))
def test_enumeration_matches_the_whole_groupoid_walk(name):
    g = groupoid_of(name)
    assert [h.members for h in enumerate_subgroupoids(g)] == whole_groupoid_subgroupoids(g)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["pair_f5x2", "klein_disjoint2"]), data=st.data())
def test_enumeration_is_blind_to_arrow_order(name, data):
    # a shuffled order interleaves the components' arrows, so none of them
    # is a contiguous block of indices
    g0 = groupoid_of(name)
    g = permuted(g0, data.draw(st.permutations(list(g0.arrows()))))
    assert [h.members for h in enumerate_subgroupoids(g)] == whole_groupoid_subgroupoids(g)


@pytest.mark.parametrize("name, walks", [
    ("pair_f5x3", 3),
    ("cyclic_shift_c3x3", 3),
    ("klein_disjoint2", 2),
    ("pair_f5x4", 4),
    ("klein_m2f5", 1),
])
def test_each_component_is_walked_once(count_calls, name, walks):
    # one closed-set walk per component (31, 13 and 7 on the first three
    # when the walk ran once for every union already built)
    g = groupoid_of(name)
    calls = count_calls(groupoid._closed_sets)
    enumerate_subgroupoids(g)
    assert len(calls) == walks == len(components(g))


def test_components_join_objects_along_arrows():
    # pair_f5 is connected: t and s join its two objects
    assert components(pair_groupoid()) == [frozenset(pair_groupoid().arrows())]
    mixed = groupoid_of("pair_f5+klein_m2(5)")
    by_name = [{mixed.names[a] for a in c} for c in components(mixed)]
    assert by_name == [{"e11", "e21", "t1", "s1"}, {"e2", "a2", "b2", "c2"}]
    # interleaved: the components come by least arrow, whatever their layout
    g0 = groupoid_of("pair_f5x2")
    g = permuted(g0, [0, 4, 1, 5, 2, 6, 3, 7])
    assert components(g) == [frozenset({0, 2, 4, 6}), frozenset({1, 3, 5, 7})]
    assert [{g.names[a] for a in c} for c in components(g)] == [
        {g0.names[a] for a in range(4)},
        {g0.names[a] for a in range(4, 8)},
    ]


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
