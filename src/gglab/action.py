"""Unital groupoid actions on algebras: validation, invariants, fixers.

An action stores one central idempotent per identity (cutting the
unital ideal E_e = 1_e R) and one full-dimension matrix per arrow; the
matrix of beta_g must vanish off E_{g^-1} and carry it onto E_g.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import _purerref, linalg
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
        """E_e = 1_e R for each identity, as subspaces of R: spanned by the
        b_i 1_e, the columns of P_e (``idempotent_mult``)."""
        return {e: Subspace(self.field, self.algebra.dim, m.T) for e, m in self.idempotent_mult.items()}

    def ideal(self, g: int) -> Subspace:
        """E_g = E_{r(g)}."""
        return self.ideals[self.groupoid.target[g]]

    @cached_property
    def idempotent_mult(self) -> dict[int, np.ndarray]:
        """Multiplication-by-1_e matrices P_e (1_e is central, so one
        matrix), formed for all identities in one product."""
        ids = list(self.idempotents)
        vecs = np.array([self.idempotents[e] for e in ids], dtype=self.field.dtype).reshape(len(ids), self.algebra.dim)
        return dict(zip(ids, self.algebra.right_mult(vecs)))

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
    """Certify every action axiom by explicit finite checks.

    Each axiom is decided for all identities, arrows or composable pairs
    at once, by stacked products taken in slices of at most
    ``_purerref.STACK_CELLS`` multiply-adds (``_purerref.stacked``), which
    also bounds the entries of each array a slice makes, since each entry
    of a product costs at least one multiply-add.  With P_e the matrix of
    right multiplication by 1_e, the projection of R onto E_e:

    - the 1_e are idempotent, central, pairwise orthogonal and sum to 1_R;
    - beta_a vanishes off E_{d(a)} and lands in E_{r(a)}: beta_a P_{d(a)}
      = beta_a and P_{r(a)} beta_a = beta_a;
    - beta_a(1_{d(a)}) = 1_{r(a)}, beta_e P_e = P_e for each identity e,
      and beta_a beta_b = beta_{ab} for each composable pair;
    - beta_a(xy) = beta_a(x) beta_a(y) for x, y in a basis of E_{d(a)}.

    Multiplicativity on E_{d(a)} is multiplicativity on R: both sides are
    bilinear, so the basis pairs decide E_{d(a)}, and since beta_a
    vanishes off E_{d(a)} and 1_{d(a)} is a central idempotent, for all
    x, y in R, beta_a(xy) = beta_a((x 1_{d(a)})(y 1_{d(a)})) =
    beta_a(x 1_{d(a)}) beta_a(y 1_{d(a)}) = beta_a(x) beta_a(y).  A check
    on all of R would cost (n / dim E_{d(a)})^2 times more.

    Bijectivity of beta_a: E_{d(a)} -> E_{r(a)} needs no check of its
    own.  With a^-1 a = d(a) and a a^-1 = r(a), the cocycle and the
    identity axioms make beta_{a^-1} beta_a = beta_{d(a)} the identity
    on E_{d(a)} and beta_a beta_{a^-1} = beta_{r(a)} the identity on
    E_{r(a)}, and beta_a, beta_{a^-1} map each ideal into the other; so
    beta_{a^-1} is a two-sided inverse of beta_a between E_{d(a)} and
    E_{r(a)}.  Ranks are computed only on a document that fails, to name
    its first failure in the order arrow by arrow (vanishing, landing,
    bijectivity, unit, multiplicativity), then the identities, then the
    composable pairs.
    """
    field = alg.field
    n = alg.dim
    names = g.names
    ids, arrows = list(g.identities), list(g.arrows())

    pos = {e: i for i, e in enumerate(ids)}
    vecs = _stack_entries(field, idempotents, ids, (n,), names, "idempotent", "identity")
    extra = [e for e in idempotents if e not in pos]
    if extra:
        raise ActionError(f"idempotent given for non-identity arrow {names[extra[0]]}")
    mats = _stack_entries(field, beta, arrows, (n, n), names, "matrix", "arrow")
    act = Action(groupoid=g, algebra=alg, idempotents=dict(zip(ids, vecs)), beta=dict(zip(arrows, mats)))

    # central orthogonal idempotents summing to 1 (standing assumption R = sum E_e)
    proj = np.array(list(act.idempotent_mult.values()), dtype=field.dtype)  # P_e, stacked like ids
    prods = field.reduce(np.matmul(proj, vecs.T))  # prods[l, :, k] = 1_k 1_l
    at = np.arange(len(ids))
    idempotent = (prods[at, :, at] == vecs).all(axis=1)
    central = (alg.left_mult(vecs) == proj).all(axis=(1, 2))
    if not (idempotent & central).all():
        k = int(np.argmin(idempotent & central))
        raise ActionError(f"1_{names[ids[k]]} is {'not central' if idempotent[k] else 'not idempotent'}")
    nonzero = prods.any(axis=1)  # [l, k]: 1_k 1_l != 0, symmetric as the 1_e are central
    if np.count_nonzero(nonzero) > np.count_nonzero(nonzero.diagonal()):
        k, l = np.argwhere(np.triu(nonzero.T, 1))[0]
        raise ActionError(f"1_{names[ids[k]]} and 1_{names[ids[l]]} are not orthogonal")
    if not np.array_equal(field.reduce(vecs.sum(axis=0)), alg.unit):
        raise ActionError("idempotents do not sum to 1_R; R = direct sum of E_e fails")

    src = np.array([pos[g.source[a]] for a in arrows])
    tgt = np.array([pos[g.target[a]] for a in arrows])
    # a basis of each E_e, padded with zero rows to the widest, and its
    # products; row 0 of ``rows`` is zero, and E_e's basis starts at starts[i]
    bases = [act.ideals[e].basis for e in ids]
    width = max(len(b) for b in bases)
    rows = np.concatenate([field.zeros((1, n)), *bases])
    starts = accumulate([len(b) for b in bases[:-1]], initial=1)
    dom = rows[[[s + j if j < len(b) else 0 for j in range(width)] for s, b in zip(starts, bases)]]
    mult_work = width * n**3 + width * width * n * n  # products() of two stacks of width rows
    dom_prods = _purerref.stacked(len(ids), mult_work, lambda s: alg.products(dom[s], dom[s]))
    dom_prods = dom_prods.reshape(len(ids), width * width, n)

    def arrow_checks(s):
        """Columns: beta_a vanishes off E_{d(a)}, lands in E_{r(a)}, sends
        1_{d(a)} = P_{d(a)} 1_R to 1_{r(a)}, is multiplicative on E_{d(a)},
        and is the identity on E_{d(a)} (read at the identities only)."""
        m, mt, d = mats[s], np.swapaxes(mats[s], 1, 2), src[s]
        on_dom = field.reduce(np.matmul(m, proj[d]))
        imgs = field.reduce(np.matmul(dom[d], mt))
        lhs = field.reduce(np.matmul(dom_prods[d], mt))
        return np.stack(
            [
                _equal(on_dom, m),
                _equal(field.reduce(np.matmul(proj[tgt[s]], m)), m),
                _equal(field.reduce(np.matmul(on_dom, alg.unit)), vecs[tgt[s]]),
                _equal(lhs, alg.products(imgs, imgs)),
                _equal(on_dom, proj[d]),
            ],
            axis=1,
        )

    # imgs and lhs take less than a second products()
    checks = _purerref.stacked(len(arrows), 2 * n**3 + n * n + 2 * mult_work, arrow_checks)
    vanishes, lands, unital, mult, identity = checks.T
    identity = identity[ids]
    pairs = [(a, b, g.comp[a][b]) for a in arrows for b in arrows if g.composable(a, b)]
    left, right, ab = (np.array(c) for c in zip(*pairs))
    cocycle = _purerref.stacked(
        len(pairs), n**3, lambda s: _equal(field.reduce(np.matmul(mats[left[s]], mats[right[s]])), mats[ab[s]])
    )

    if (vanishes & lands & unital & mult).all() and identity.all() and cocycle.all():
        return act
    for a in arrows:
        d, r = g.source[a], g.target[a]
        if not vanishes[a]:
            raise ActionError(f"beta_{names[a]} does not vanish off its domain ideal")
        if not lands[a]:
            raise ActionError(f"beta_{names[a]} maps outside E_{names[r]}")
        dom_a, cod_a = act.ideals[d], act.ideals[r]
        if dom_a.dim != cod_a.dim or linalg.rank(field, linalg.matmul(field, dom_a.basis, mats[a].T)) != cod_a.dim:
            raise ActionError(f"beta_{names[a]} is not bijective onto E_{names[r]}")
        if not unital[a]:
            raise ActionError(f"beta_{names[a]} does not send 1_{names[d]} to 1_{names[r]}")
        if not mult[a]:
            raise ActionError(f"beta_{names[a]} is not multiplicative on E_{names[d]}")
    if not identity.all():
        e = ids[int(np.argmin(identity))]
        raise ActionError(f"beta_{names[e]} is not the identity on E_{names[e]}")
    a, b, c = pairs[int(np.argmin(cocycle))]
    raise ActionError(f"cocycle fails: beta_{names[a]} o beta_{names[b]} != beta_{names[c]}")


def _stack_entries(field, given, keys, shape, names, kind, owner) -> np.ndarray:
    """given[k] for each k of keys, reduced, as one array of shape
    (len(keys), *shape); else the ActionError for the first entry that
    is missing or has another shape."""
    try:
        out = np.array([given[k] for k in keys], dtype=field.dtype)
        if out.shape == (len(keys), *shape):
            return field.reduce(out)
    except (KeyError, ValueError, TypeError):
        pass
    for k in keys:
        if k not in given:
            raise ActionError(f"missing {kind} for {owner} {names[k]}")
        got = np.shape(given[k])
        if got != shape:
            raise ActionError(f"{kind} for {names[k]} has shape {got}, want {shape}")
    # every entry has the right shape, so one of them does not convert: raise that
    return field.reduce(np.array([given[k] for k in keys], dtype=field.dtype))


def _equal(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Whether x[i] and y[i] hold the same entries, for each i along the first axis."""
    return (x.reshape(len(x), -1) == y.reshape(len(y), -1)).all(axis=1)


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
