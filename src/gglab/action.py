"""Unital groupoid actions on algebras: validation, invariants, fixers.

An action stores one central idempotent per identity (cutting the
unital ideal E_e = 1_e R) and one full-dimension matrix per arrow; the
matrix of beta_g must vanish off E_{g^-1} and carry it onto E_g.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .algebra import Algebra, subspace_algebra
from .fields import Field
from .groupoid import Groupoid, Subgroupoid, is_subgroupoid
from .linalg import Subspace


class ActionError(ValueError):
    pass


@dataclass(frozen=True)
class Action:
    groupoid: Groupoid
    algebra: Algebra
    idempotents: dict[int, np.ndarray]  # identity arrow -> 1_e
    beta: dict[int, np.ndarray]  # arrow -> dim x dim matrix

    @property
    def field(self) -> Field:
        return self.algebra.field

    @cached_property
    def ideals(self) -> dict[int, Subspace]:
        """E_e = 1_e R for each identity, as subspaces of R."""
        out = {}
        eye = self.field.eye(self.algebra.dim)
        for e, one_e in self.idempotents.items():
            out[e] = Subspace(self.field, self.algebra.dim, self.algebra.products(eye, one_e[None])[:, 0])
        return out

    def ideal(self, g: int) -> Subspace:
        """E_g = E_{r(g)}."""
        return self.ideals[self.groupoid.target[g]]

    @cached_property
    def idempotent_mult(self) -> dict[int, np.ndarray]:
        """Multiplication-by-1_e matrices (1_e is central, so one matrix)."""
        return {e: self.algebra.right_mult(v) for e, v in self.idempotents.items()}

    @cached_property
    def fix_operators(self) -> np.ndarray:
        """D_a = beta_a - (multiplication by 1_{r(a)}), stacked by arrow.
        beta_a vanishes off E_{a^-1}, so a fixes r exactly when D_a r = 0."""
        g = self.groupoid
        return np.stack([self.field.reduce(self.beta[a] - self.idempotent_mult[g.target[a]]) for a in g.arrows()])

    def unit_of(self, h: Subgroupoid) -> np.ndarray:
        """1_H = sum of 1_e over the identities e of H: a central
        idempotent of R and the unit of R_H = 1_H R."""
        one = self.field.zeros(self.algebra.dim)
        for e in sorted(set(self.groupoid.identities) & h.members):
            one = self.field.reduce(one + self.idempotents[e])
        return one

    def apply_truncated(self, g: int, x: np.ndarray) -> np.ndarray:
        """beta_g(x * 1_{g^-1}) of x, or of each row of x: project to
        E_{g^-1}, then transport."""
        xg = linalg.matmul(self.field, x, self.idempotent_mult[self.groupoid.source[g]].T)
        return linalg.matmul(self.field, xg, self.beta[g].T)


def validate_action(g: Groupoid, alg: Algebra, idempotents, beta) -> Action:
    """Certify every action axiom by explicit finite checks."""
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

    act = Action(groupoid=g, algebra=alg, idempotents=idem, beta=bmats)

    # central orthogonal idempotents summing to 1 (standing assumption R = sum E_e)
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

    ideals = act.ideals
    for a in g.arrows():
        dom = ideals[g.source[a]]  # E_{a^-1} = E_{d(a)}
        cod = ideals[g.target[a]]
        m = bmats[a]
        # vanishing off the domain ideal, image inside the codomain ideal
        dmat = act.idempotent_mult[g.source[a]]
        if not np.array_equal(linalg.matmul(field, m, dmat), m):
            raise ActionError(f"beta_{names[a]} does not vanish off its domain ideal")
        imgs = linalg.matmul(field, dom.basis, m.T)  # beta_a of each basis row
        if cod.coords_rows(imgs) is None:
            raise ActionError(f"beta_{names[a]} maps outside E_{names[g.target[a]]}")
        # bijective onto E_a
        if linalg.rank(field, imgs) != cod.dim or dom.dim != cod.dim:
            raise ActionError(f"beta_{names[a]} is not bijective onto E_{names[g.target[a]]}")
        # unit preservation and multiplicativity on a basis of the domain
        if not np.array_equal(linalg.matmul(field, m, idem[g.source[a]]), idem[g.target[a]]):
            raise ActionError(f"beta_{names[a]} does not send 1_{names[g.source[a]]} to 1_{names[g.target[a]]}")
        lhs = linalg.matmul(field, alg.products(dom.basis, dom.basis), m.T)
        if not np.array_equal(lhs, alg.products(imgs, imgs)):
            raise ActionError(f"beta_{names[a]} is not multiplicative on E_{names[g.source[a]]}")

    for e in g.identities:
        # identity on E_e
        rows = ideals[e].basis
        if not np.array_equal(linalg.matmul(field, rows, bmats[e].T), rows):
            raise ActionError(f"beta_{names[e]} is not the identity on E_{names[e]}")

    for a in g.arrows():
        for b in g.arrows():
            if not g.composable(a, b):
                continue
            ab = g.comp[a][b]
            lhs = linalg.matmul(field, bmats[a], bmats[b])
            if not np.array_equal(lhs, bmats[ab]):
                raise ActionError(
                    f"cocycle fails: beta_{names[a]} o beta_{names[b]} != beta_{names[ab]}"
                )
    return act


def invariants(act: Action, members) -> Subspace:
    """{r | beta_h(r 1_{h^-1}) = r 1_h for all h in members}.

    ``members`` may be any arrow subset, not only a subgroupoid.
    """
    members = sorted(set(int(m) for m in members))
    n = act.algebra.dim
    if not members:
        return Subspace.full(act.field, n)
    rows = act.fix_operators[members].reshape(len(members) * n, n)
    return Subspace.from_rref(act.field, linalg.nullspace(act.field, rows))


def fixer_subgroupoid(act: Action, t: Subspace) -> Subgroupoid:
    """H_T: arrows fixing every element of T; certified to be a subgroupoid."""
    g = act.groupoid
    moved = (linalg.matmul(act.field, act.fix_operators, t.basis.T) != 0).any(axis=(1, 2))
    members = {a for a in g.arrows() if not moved[a]}
    if not is_subgroupoid(g, members):
        # Would falsify the closure lemma for fixers; surface loudly.
        raise ActionError(
            f"fixer set {g.label(members)} is not closed; theorem violation"
        )
    return Subgroupoid(g, frozenset(members))


def restrict(act: Action, h: Subgroupoid) -> Action:
    """Action of H on R_H = sum of E_e over the identities e of H.

    For a wide H, R_H is R itself; otherwise it is an algebra on the
    reduced basis of the ideal sum, whose rows are its embedding.

    Only what is new to the restriction is certified: that H is closed,
    that R_H is closed under products with unit 1_H = sum 1_e
    (``subspace_algebra``), and that each 1_e and each beta_a lands in
    R_H (``to_sub``).  The rest is inherited from the parent, which
    passed ``validate_groupoid`` and ``validate_action`` at load:

    - A nonempty closed H holds d(a) = a^-1 a for each of its arrows, so
      it has identities, and its tables are those of G restricted to H
      and re-indexed by the order-preserving ``pos``.  Each groupoid
      axiom on H is the same axiom of G at the same arrows.
    - The embedding i: R_H -> R, c -> c . basis, is injective (the basis
      rows are independent) and multiplicative onto 1_H R, since the
      product table of R_H is read off the products in R.  The
      restricted data are 1'_e = i^-1(1_e) and beta'_a = i^-1 beta_a i.
      So each axiom ``validate_action`` checks on (H, R_H) -- the 1'_e
      central, orthogonal idempotents summing to the unit, beta'_a
      vanishing off E'_{d(a)} and a unital algebra isomorphism onto
      E'_{r(a)}, beta'_e the identity on E'_e, beta'_a beta'_b =
      beta'_ab -- is the parent's axiom at the same arrows and
      composable pairs, read through i.  For a wide H, i is the
      identity map of R.
    """
    g = act.groupoid
    field = act.field
    if not is_subgroupoid(g, h.members):
        raise ActionError(f"{g.label(h.members)} is not a subgroupoid; cannot restrict")
    members = sorted(h.members)
    h_ids = sorted(set(g.identities) & h.members)

    # G's tables on the member arrows, re-indexed; H is closed, so every
    # product and inverse stays inside it
    pos = {a: i for i, a in enumerate(members)}
    sub_g = Groupoid(
        names=tuple(g.names[a] for a in members),
        comp=tuple(tuple(-1 if g.comp[a][b] < 0 else pos[g.comp[a][b]] for b in members) for a in members),
        inv=tuple(pos[g.inv[a]] for a in members),
        source=tuple(pos[g.source[a]] for a in members),
        target=tuple(pos[g.target[a]] for a in members),
        identities=tuple(pos[e] for e in h_ids),
    )

    if h.wide:
        idem = {pos[e]: act.idempotents[e] for e in h_ids}
        beta = {pos[a]: act.beta[a] for a in members}
        return Action(groupoid=sub_g, algebra=act.algebra, idempotents=idem, beta=beta)

    ring = Subspace(field, act.algebra.dim, np.vstack([act.ideals[e].basis for e in h_ids]))
    labels = [f"r{i}" for i in range(ring.dim)]
    sub_alg = subspace_algebra(act.algebra, ring, act.unit_of(h), labels)

    def to_sub(rows):
        c = ring.coords_rows(rows)
        if c is None:
            raise ActionError("restriction left the restricted ring")
        return c

    idem = {pos[e]: to_sub(act.idempotents[e][None])[0] for e in h_ids}
    beta = {pos[a]: to_sub(linalg.matmul(field, ring.basis, act.beta[a].T)).T for a in members}
    return Action(groupoid=sub_g, algebra=sub_alg, idempotents=idem, beta=beta)
