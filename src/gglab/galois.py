"""Galois coordinates, the modules J_g, theta/sigma/gamma, skew groupoid
rings, and the injectivity machinery built on them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .action import Action, invariants
from .algebra import commutant
from .groupoid import Subgroupoid, components, enumerate_subgroupoids
from .linalg import Subspace


class GaloisError(ValueError):
    pass


@dataclass
class GaloisCoordinates:
    """Pairs (x_i, y_i) witnessing the coordinate condition."""

    pairs: list[tuple[np.ndarray, np.ndarray]]

    def rows(self, act: Action) -> np.ndarray:
        """x_1, y_1, x_2, y_2, ... as the rows of one array."""
        vecs = [v for pair in self.pairs for v in pair]
        return np.array(vecs, dtype=act.field.dtype).reshape(len(vecs), act.algebra.dim)


def coordinate_sums(act: Action, coords: GaloisCoordinates) -> dict[int, np.ndarray]:
    """For each arrow g: sum_i x_i * beta_g(y_i 1_{g^-1})."""
    rows = coords.rows(act)
    out = {}
    for g in act.groupoid.arrows():
        # the terms are the diagonal of all products x_i * beta_g(y_j 1_{g^-1})
        prods = act.algebra.products(rows[0::2], act.apply_truncated(g, rows[1::2]))
        out[g] = act.field.reduce(prods.diagonal().sum(axis=-1))
    return out


def check_galois_coordinates(act: Action, coords: GaloisCoordinates):
    """Certify the delta condition: sum = 1_g for identities, 0 otherwise.

    Returns (ok, failures) where failures list (arrow, residual vector).
    """
    g = act.groupoid
    failures = []
    for a, s in sorted(coordinate_sums(act, coords).items()):
        want = act.idempotents[a] if a in g.identities else act.field.zeros(act.algebra.dim)
        res = act.field.reduce(s - want)
        if np.any(res != 0):
            failures.append((a, res))
    return not failures, failures


def solve_galois_coordinates(act: Action) -> GaloisCoordinates | None:
    """Coordinates with the x side pinned to the algebra basis, or None.

    The condition is linear in the y_i once the x_i are fixed, so this
    is a single exact solve.  Pinning loses nothing: if any system
    (x_i, y_i) exists, write x_i = sum_k a_ik b_k; since beta_g and the
    truncation are linear, (b_k, sum_i a_ik y_i) is one too.  So None
    proves that R is not a Galois extension of its invariants.
    """
    alg = act.algebra
    f = act.field
    n = alg.dim
    gp = act.groupoid
    # unknown: concatenated y_1..y_n; row blocks: one per arrow, whose
    # column block i is left_mult(b_i) @ beta_a with left_mult(b_i) = table[i].T
    lefts = alg.table.transpose(0, 2, 1)
    blocks = []
    rhs = []
    for a in gp.arrows():
        blocks.append(f.reduce(np.matmul(lefts, act.beta[a])).transpose(1, 0, 2).reshape(n, n * n))
        rhs.append(act.idempotents[a] if a in gp.identities else f.zeros(n))
    sol = linalg.solve(f, np.vstack(blocks), np.concatenate(rhs))
    if sol is None:
        return None
    pairs = [(alg.basis_vector(i), sol[i * n : (i + 1) * n]) for i in range(n)]
    coords = GaloisCoordinates(pairs)
    ok, _ = check_galois_coordinates(act, coords)
    if not ok:
        raise GaloisError("internal: solved coordinates failed certification")
    return coords


def j_module(act: Action, g: int) -> Subspace:
    """J_g = {r in E_g | r * beta_g(x 1_{g^-1}) = x r for all x}."""
    f = act.field
    alg = act.algebra
    n = alg.dim
    gp = act.groupoid
    eye = f.eye(n)
    cs = act.apply_truncated(g, eye)  # row x: c_x = beta_g(b_x 1_{g^-1})
    # block x, row k, column i: coordinate k of b_i c_x - b_x b_i
    blocks = alg.products(eye, cs).transpose(1, 2, 0) - alg.table.transpose(0, 2, 1)
    rows = np.vstack([act.idempotent_mult[gp.target[g]] - eye, blocks.reshape(n * n, n)])
    return Subspace.from_rref(f, linalg.nullspace(f, f.reduce(rows)))


@dataclass
class SkewGroupoidRing:
    slots: list[tuple[int, int]]  # basis index -> (arrow, row of E_{r(arrow)} basis)
    action: Action

    @property
    def dim(self) -> int:
        return len(self.slots)

    def element_matrix(self, idx: int) -> np.ndarray:
        """Image under j of the idx-th basis element, as a matrix on R."""
        g, row = self.slots[idx]
        v = self.action.ideal(g).basis[row]
        return linalg.matmul(
            self.action.field, self.action.algebra.left_mult(v), self.action.beta[g]
        )


def build_skew_groupoid_ring(act: Action) -> SkewGroupoidRing:
    """R*G = sum over arrows g of E_{r(g)} u_g, with product
    (a u_g)(b u_h) = a beta_g(b 1_{g^-1}) u_{gh} and unit sum_e 1_e u_e.

    Only the basis is kept: the suite reads the dimension and j of each
    basis element (``element_matrix``), so no product table is formed.
    Nothing is re-checked here: associativity, the unit laws and that
    j(a u_g) = L_a beta_g is a unital ring map all follow from the action
    axioms that ``validate_action`` certified at load.  Take a in E_{r(g)},
    b in E_{r(h)} and c in E_{r(k)}.

    - If d(g) != r(h), then b 1_{g^-1} = 0, so the blocks of
      non-composable pairs are zero; and beta_g vanishes on the image
      E_{r(h)} of L_b beta_h, so j(a u_g) j(b u_h) = 0 as well.
    - Otherwise beta_g is multiplicative on E_{g^-1}, that is
      beta_g L_b = L_{beta_g(b)} beta_g there, and beta_g beta_h = beta_{gh}.
      So j(a u_g) j(b u_h) = L_{a beta_g(b)} beta_{gh}, the image of the
      product; and when h, k compose too, both bracketings of
      (a u_g)(b u_h)(c u_k) are a beta_g(b) beta_{gh}(c 1_{h^-1}) u_{ghk}.
      A triple where one pair does not compose is 0 either way, since
      d(gh) = d(h) and r(hk) = r(h).
    - sum_e L_{1_e} beta_e = sum_e (projection onto E_e) = I, because
      beta_e is the identity on E_e and the 1_e are central orthogonal
      idempotents summing to 1.  This gives j(1) = I, and with
      beta_h(1_{h^-1}) = 1_{r(h)} the unit laws.
    """
    gp = act.groupoid
    slots = [(g, row) for g in gp.arrows() for row in range(act.ideal(g).dim)]
    return SkewGroupoidRing(slots=slots, action=act)


def endomorphism_space(act: Action, invariant_ring: Subspace) -> Subspace:
    """End(R) as a right module over the invariant ring: matrices F with
    F @ R_s = R_s @ F for every basis element s (flattened, canonical)."""
    f = act.field
    n = act.algebra.dim
    if invariant_ring.dim == 0:
        return Subspace.full(f, n * n)
    # right_mult(s) for each basis row s; F R_s - R_s F = 0 on row-major
    # flat F is the Sylvester operator of (R_s, R_s^T), negated
    rs = act.algebra.products(f.eye(n), invariant_ring.basis).transpose(1, 2, 0)
    rows = linalg.sylvester(f, rs, rs.transpose(0, 2, 1))
    return Subspace.from_rref(f, linalg.nullspace(f, rows.reshape(-1, n * n)))


@dataclass
class JIsomorphismReport:
    dim_skew: int
    dim_end: int
    injective: bool
    surjective: bool

    @property
    def ok(self) -> bool:
        return self.dim_skew == self.dim_end and self.injective and self.surjective


def j_isomorphism_check(act: Action, skew: SkewGroupoidRing, invariant_ring: Subspace) -> JIsomorphismReport:
    """Materialize j on the skew-ring basis and decide by ranks whether it
    is a bijection onto End(R) over the invariants.  That j is a unital
    ring map is proved in ``build_skew_groupoid_ring``."""
    f = act.field
    n = act.algebra.dim
    end_space = endomorphism_space(act, invariant_ring)
    d = skew.dim
    mats = np.array([skew.element_matrix(i) for i in range(d)], dtype=f.dtype).reshape(d, n * n)
    image = Subspace(f, n * n, mats)
    return JIsomorphismReport(
        dim_skew=d,
        dim_end=end_space.dim,
        injective=image.dim == d,
        surjective=image == end_space,
    )


def theta(act: Action, h: Subgroupoid) -> Subspace:
    """The Galois map value R^{beta_H}."""
    return invariants(act, h.members)


def gamma(act: Action, members, jmods: dict[int, Subspace]) -> tuple[Subspace, bool]:
    """Sum of the J_g over the arrows ``members``, plus a directness
    certificate (dim check)."""
    f = act.field
    n = act.algebra.dim
    parts = [jmods[a] for a in sorted(members)]
    total = sum(p.dim for p in parts)
    stacked = (
        np.vstack([p.basis for p in parts if p.dim]) if total else f.zeros((0, n))
    )
    space = Subspace(f, n, stacked)
    return space, space.dim == total


def v_in_ideal(act: Action, g: int) -> Subspace:
    """V_{E_g}(R): the commutant of R inside the ideal E_g."""
    return commutant(act.algebra, act.algebra.full_space, act.ideal(g))


class GaloisContext:
    """Shared per-instance cache: subgroupoids, J modules, theta/gamma and
    their per-component keys."""

    def __init__(self, act: Action):
        self.act = act

    @cached_property
    def all_subgroupoids(self) -> list[Subgroupoid]:
        return enumerate_subgroupoids(self.act.groupoid)

    @cached_property
    def wide_subgroupoids(self) -> list[Subgroupoid]:
        return [h for h in self.all_subgroupoids if h.wide]

    @cached_property
    def component_subgroupoids(self) -> list[Subgroupoid]:
        """The subgroupoids that lie inside one connected component.

        A statement about every subgroupoid that splits along components
        is decided on these.  Let 1_c be the sum of the 1_e over the
        objects e of a component c.  The 1_e are central orthogonal
        idempotents summing to 1, certified at load, so the 1_c are too,
        and R = sum_c R_c with R_c = 1_c R.  Write H = union of H_c, with
        H_c the part of H in c, possibly empty.

        - 1_c lies in theta(H): for h in c, beta_h(1_c 1_{h^-1}) =
          beta_h(1_{d(h)}) = 1_{r(h)} = 1_c 1_{r(h)}; for h outside c both
          sides vanish.
        - theta(H) = sum_c 1_c theta(H), since each 1_c is central and in
          it; and 1_c theta(H) = 1_c theta(H_c), which is R_c when H_c is
          empty, since the condition at h reads only r 1_{d(h)} and
          r 1_{r(h)}, both zero on R_c for h outside c.
        - For a subalgebra X holding every 1_c,
          V_R(X) = sum_c V_{R_c}(1_c X): x commutes with y in X iff each
          1_c x commutes with 1_c y, which lies in X, as products across
          components vanish.
        - J_g lies in E_{r(g)} <= R_c for g in c, so the sum of the J_g
          over H is the direct sum over c of the sums over H_c, and it is
          direct iff each of those is."""
        return [h for h in self.all_subgroupoids if any(h.members <= c for c in self.components)]

    @cached_property
    def components(self) -> list[frozenset[int]]:
        return components(self.act.groupoid)

    def theta_key(self, h: Subgroupoid) -> tuple:
        """A key of theta(H) from its parts: one entry per component c,
        equal for two subgroupoids iff their theta(H_c) are equal, with
        theta(empty) = R.  So theta(H) = theta(L) iff the keys are equal.

        With the facts in ``component_subgroupoids``, theta(H) is the
        intersection of the theta(H_c), and
        theta(H_c) = 1_c theta(H_c) + (1 - 1_c)R: the condition at an arrow
        of c reads only r 1_c.  So theta(H) = sum_c 1_c theta(H_c), and
        projecting by 1_c gives back each 1_c theta(H_c), hence theta(H_c).
        Then theta(H) = theta(L) iff theta(H_c) = theta(L_c) for every c.
        Each part is formed once, through ``theta``'s cache: the sum over c
        of the closed sets of c, not one subspace per subgroupoid."""
        return self._part_key(h, "_theta_parts", self.theta)

    def gamma_key(self, h: Subgroupoid) -> tuple:
        """A key of gamma(H) from its parts, as ``theta_key``, with
        gamma(empty) = 0.  gamma(H) is the sum of the gamma(H_c), and
        gamma(H_c) lies in R_c, since each J_g does for g in c.  So
        projecting gamma(H) by 1_c gives gamma(H_c), and gamma(H) = gamma(L)
        iff gamma(H_c) = gamma(L_c) for every c."""
        return self._part_key(h, "_gamma_parts", lambda part: self.gamma(part)[0])

    def _part_key(self, h: Subgroupoid, name: str, value) -> tuple:
        # part -> small id, equal iff the parts' canonical keys are equal;
        # ids are cheap to hash and compare in the sweeps' buckets
        ids, cache = self.__dict__.setdefault(name, ({}, {}))
        key = []
        for c in self.components:
            part = h.members & c
            if part not in cache:
                cache[part] = ids.setdefault(value(Subgroupoid(h.parent, part)).key(), len(ids))
            key.append(cache[part])
        return tuple(key)

    @cached_property
    def jmodules(self) -> dict[int, Subspace]:
        return {g: j_module(self.act, g) for g in self.act.groupoid.arrows()}

    @cached_property
    def invariant_ring(self) -> Subspace:
        return invariants(self.act, list(self.act.groupoid.arrows()))

    @cached_property
    def center(self) -> Subspace:
        from .algebra import center as _center

        return _center(self.act.algebra)

    def theta(self, h: Subgroupoid) -> Subspace:
        key = frozenset(h.members)
        cache = self.__dict__.setdefault("_theta_cache", {})
        if key not in cache:
            cache[key] = theta(self.act, h)
        return cache[key]

    def gamma(self, h: Subgroupoid) -> tuple[Subspace, bool]:
        key = frozenset(h.members)
        cache = self.__dict__.setdefault("_gamma_cache", {})
        if key not in cache:
            cache[key] = gamma(self.act, h.members, self.jmodules)
        return cache[key]

    def support(self, h: Subgroupoid) -> list[int]:
        return [a for a in sorted(h.members) if self.jmodules[a].dim > 0]
