"""Finite groupoids: validation, subgroupoids, closures, enumeration.

Arrows are dense integer indices with a name table.  Composition is a
full table with -1 for "undefined"; source/range are derived from the
inverse table (d(g) = g^-1 g, r(g) = g g^-1) and then certified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

SUBGROUPOID_ARROWS = 24  # the subset walk refuses larger groupoids


class GroupoidError(ValueError):
    pass


@dataclass(frozen=True)
class Groupoid:
    names: tuple[str, ...]
    comp: tuple[tuple[int, ...], ...]  # comp[g][h] = gh, -1 if undefined
    inv: tuple[int, ...]
    source: tuple[int, ...]  # d(g)
    target: tuple[int, ...]  # r(g)
    identities: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.names)

    def arrows(self) -> range:
        return range(self.size)

    def composable(self, g: int, h: int) -> bool:
        return self.source[g] == self.target[h]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise GroupoidError(f"unknown arrow {name!r}") from None

    def label(self, members) -> str:
        return "{" + ",".join(self.names[g] for g in sorted(members)) + "}"


@dataclass(frozen=True)
class Subgroupoid:
    """A closed arrow set of ``parent``.  The class is frozen, so ``wide``
    and ``label`` are computed once per object, on first use: the pair
    sweeps of the suite read them many times per subgroupoid."""

    parent: Groupoid = field(compare=False)
    members: frozenset[int] = frozenset()

    @cached_property
    def wide(self) -> bool:
        return self.members.issuperset(self.parent.identities)

    @cached_property
    def _label(self) -> str:
        return self.parent.label(self.members)

    def label(self) -> str:
        return self._label


def validate_groupoid(names, comp, inv) -> Groupoid:
    """Certify the groupoid axioms on raw tables, or raise with a witness."""
    n = len(names)
    if n == 0:
        raise GroupoidError("groupoid.arrows is empty: a groupoid needs at least one arrow")
    if len(set(names)) != n:
        raise GroupoidError("duplicate arrow names")
    if len(comp) != n or any(len(row) != n for row in comp):
        raise GroupoidError("composition table is not n x n")
    if len(inv) != n:
        raise GroupoidError("inverse list has wrong length")
    comp = tuple(tuple(int(x) for x in row) for row in comp)
    inv = tuple(int(x) for x in inv)
    for g in range(n):
        if not 0 <= inv[g] < n:
            raise GroupoidError(f"inverse({names[g]}) out of range")
        for h in range(n):
            if not -1 <= comp[g][h] < n:
                raise GroupoidError(f"compose({names[g]},{names[h]}) out of range")

    # d/r from the inverse; both products must exist
    source, target = [], []
    for g in range(n):
        d = comp[inv[g]][g]
        r = comp[g][inv[g]]
        if d < 0 or r < 0:
            raise GroupoidError(
                f"compose({names[g]},{names[inv[g]]}) undefined but inverse "
                f"demands d({names[g]})=r({names[g]})"
                if r < 0
                else f"compose({names[inv[g]]},{names[g]}) undefined"
            )
        source.append(d)
        target.append(r)

    idset = sorted(set(source) | set(target))
    for e in idset:
        if not (source[e] == e and target[e] == e and inv[e] == e and comp[e][e] == e):
            raise GroupoidError(f"{names[e]} is forced to be an identity but is not idempotent")

    for g in range(n):
        for h in range(n):
            defined = comp[g][h] >= 0
            if defined != (source[g] == target[h]):
                raise GroupoidError(
                    f"compose({names[g]},{names[h]}) "
                    + ("defined but d(g) != r(h)" if defined else "undefined though d(g) = r(h)")
                )
            if defined:
                gh = comp[g][h]
                if source[gh] != source[h] or target[gh] != target[g]:
                    raise GroupoidError(f"d/r of product wrong at ({names[g]},{names[h]})")

    for g in range(n):
        if comp[target[g]][g] != g or comp[g][source[g]] != g:
            raise GroupoidError(f"identities do not act trivially on {names[g]}")
        if comp[g][inv[g]] != target[g] or comp[inv[g]][g] != source[g]:
            raise GroupoidError(f"inverse law fails at {names[g]}")

    for g in range(n):
        for h in range(n):
            if comp[g][h] < 0:
                continue
            for k in range(n):
                if comp[h][k] < 0:
                    continue
                if comp[comp[g][h]][k] != comp[g][comp[h][k]]:
                    raise GroupoidError(
                        f"associativity fails at ({names[g]},{names[h]},{names[k]})"
                    )

    return Groupoid(
        names=tuple(names),
        comp=comp,
        inv=inv,
        source=tuple(source),
        target=tuple(target),
        identities=tuple(idset),
    )


def closure(g: Groupoid, seed) -> frozenset[int]:
    """Least subset containing seed closed under inverse and products."""
    cur = set(seed)
    for a in seed:
        if not 0 <= a < g.size:
            raise GroupoidError(f"arrow index {a} out of range")
    frontier = set(cur)
    while frontier:
        new: set[int] = set()
        for a in frontier:
            if g.inv[a] not in cur:
                new.add(g.inv[a])
        for a in cur:
            for b in cur:
                c = g.comp[a][b]
                if c >= 0 and c not in cur and c not in new:
                    new.add(c)
        cur |= new
        frontier = new
    return frozenset(cur)


def generated_subgroupoid(g: Groupoid, seed) -> Subgroupoid:
    """Subgroupoid generated by a nonempty arrow set."""
    seed = set(seed)
    if not seed:
        raise GroupoidError("subgroupoids are nonempty; empty seed rejected")
    return Subgroupoid(g, closure(g, seed))


def join(h: Subgroupoid, l: Subgroupoid) -> Subgroupoid:
    return generated_subgroupoid(h.parent, h.members | l.members)


def is_subgroupoid(g: Groupoid, members) -> bool:
    members = set(members)
    if not members:
        return False
    for a in members:
        if g.inv[a] not in members:
            return False
        for b in members:
            c = g.comp[a][b]
            if c >= 0 and c not in members:
                return False
    return True


def components(g: Groupoid) -> list[frozenset[int]]:
    """The arrow sets of the connected components, by least arrow.

    Objects are joined along each arrow's source and target; an arrow
    belongs to the component of its source."""
    root = {e: e for e in g.identities}

    def find(e: int) -> int:
        while root[e] != e:
            root[e] = e = root[root[e]]
        return e

    for a in g.arrows():
        root[find(g.source[a])] = find(g.target[a])
    arrows: dict[int, list[int]] = {}
    for a in g.arrows():
        arrows.setdefault(find(g.source[a]), []).append(a)
    return [frozenset(c) for c in arrows.values()]


def _closed_sets(g: Groupoid, arrows) -> set[frozenset[int]]:
    """The closed sets generated inside ``arrows``, a union of components:
    start from the minimal ones, then extend each known one by an arrow."""
    found = {closure(g, {a}) for a in arrows}
    frontier = list(found)
    while frontier:
        nxt = []
        for s in frontier:
            for a in arrows:
                if a in s:
                    continue
                c = closure(g, s | {a})
                if c not in found:
                    found.add(c)
                    nxt.append(c)
        frontier = nxt
    return found


def enumerate_subgroupoids(g: Groupoid) -> list[Subgroupoid]:
    """All subgroupoids, lexicographic on sorted member lists.

    The closed sets of each connected component are found alone, once, by
    ``_closed_sets``; the subgroupoids of G are then every nonempty union
    of one closed set per component, or none from a component.  That list
    is complete and has no repeats: products and inverses of arrows in one
    component stay in it, so a subset of G is closed iff its part in each
    component is empty or closed, and the parts determine the union.  The
    cost is the sum of the components' closure walks, not the walk over
    their product.  Groupoids with more than ``SUBGROUPOID_ARROWS`` arrows
    in total are refused.
    """
    if g.size > SUBGROUPOID_ARROWS:
        raise GroupoidError(
            f"groupoid has {g.size} arrows; enumeration cap is {SUBGROUPOID_ARROWS}"
        )
    found = [frozenset()]
    for comp in components(g):
        closed = [frozenset(), *_closed_sets(g, comp)]
        found = [s | t for s in found for t in closed]
    return [Subgroupoid(g, s) for s in sorted(found, key=sorted) if s]


def pair_star(g: Groupoid) -> list[tuple[int, int]]:
    """The composable pairs (g,h) with d(g) = r(h), in index order."""
    return [(a, b) for a in g.arrows() for b in g.arrows() if g.composable(a, b)]
