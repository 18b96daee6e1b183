"""Galois coordinates, the modules J_g, theta/sigma/gamma, skew groupoid
rings, and the injectivity machinery built on them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .action import Action, invariants
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
    """For each arrow g: sum_i x_i * beta_g(y_i 1_{g^-1}), for all arrows in
    one stacked contraction.

    With z[g, i] = beta_g(y_i 1_{g^-1}) and w[i, b] the coordinates of
    x_i b_b, the sum at g is sum_{i,b} z[g, i, b] w[i, b].  The sums over b
    are taken for every i and g in one batched product and reduced before
    the sum over i: each has dim R terms, so int64 holds it under the
    loader's headroom guard for any number of pairs."""
    f, gp, rows = act.field, act.groupoid, coords.rows(act)
    arrows = list(gp.arrows())
    proj = np.stack([act.idempotent_mult[gp.source[g]].T for g in arrows])
    betas = np.stack([act.beta[g].T for g in arrows])
    z = f.reduce(np.matmul(f.reduce(np.matmul(rows[1::2], proj)), betas))  # [g, i, b]
    w = act.algebra.left_mult(rows[0::2]).transpose(0, 2, 1)  # [i, b, k]
    sums = f.reduce(f.reduce(np.matmul(z.transpose(1, 0, 2), w)).sum(axis=0))  # [g, k]
    return dict(zip(arrows, sums))


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
    """J_g = {r in E_g | r * beta_g(x 1_{g^-1}) = x r for all x}.

    It is solved for in the coordinates of E_g = E_{r(g)}, with x over the
    basis of E_{d(g)} only.  The condition is linear in x, and R is the
    sum of the E_e, so x may run over a basis of each E_e.  Let r lie in
    E_g.  For x in E_e with e neither d(g) nor r(g), both sides vanish, as
    the 1_e are central orthogonal idempotents: x 1_{g^-1} =
    x 1_e 1_{d(g)} = 0, and x r = x 1_e 1_{r(g)} r = 0.  When d(g) differs
    from r(g), x in E_{d(g)} gives r beta_g(x) = x r = 0; beta_g maps
    E_{d(g)} onto E_{r(g)}, so r E_{r(g)} = 0 and r = r 1_{r(g)} = 0, which
    meets the condition at x in E_{r(g)} as well.  So J_g = 0 on such an
    arrow, and it is returned before any system is formed.  On a loop,
    writing r = t B, with B the RREF basis of E_g, puts r in E_g, and the
    t form an RREF nullspace, so t B is the canonical basis of J_g with no
    second elimination (``Subspace.from_coords``)."""
    f = act.field
    alg = act.algebra
    if act.groupoid.source[g] != act.groupoid.target[g]:
        return Subspace.zero(f, alg.dim)
    ideal = act.ideal(g)
    if ideal.dim == 0:
        return ideal
    xs = ideal.basis  # E_{d(g)} = E_g on a loop
    cs = act.apply_truncated(g, xs)  # row x: c_x = beta_g(x 1_{g^-1})
    # block x, row k, column i: coordinate k of e_i c_x - x e_i, e_i the basis of E_g
    blocks = alg.products(ideal.basis, cs).transpose(1, 2, 0) - alg.products(xs, ideal.basis).transpose(0, 2, 1)
    return ideal.from_coords(linalg.nullspace(f, f.reduce(blocks.reshape(-1, ideal.dim))))


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


def endomorphism_space(act: Action, invariant_ring: Subspace, block: Subspace) -> Subspace:
    """End(B) as a right module over the invariant ring, for a subspace B
    that every right multiplication R_s maps into itself: matrices F with
    F @ R_s = R_s @ F on B for every basis element s (flattened, canonical),
    in the coordinates of B's RREF basis.  A vector of B has its entries at
    the pivots as coordinates; with B = R they are its own coordinates."""
    f = act.field
    m = block.dim
    # right_mult(s) on B for each basis row s; F R_s - R_s F = 0 on
    # row-major flat F is the Sylvester operator of (R_s, R_s^T), negated
    rs = act.algebra.products(block.basis, invariant_ring.basis)[:, :, block.pivots].transpose(1, 2, 0)
    rs = rs[rs.any(axis=(1, 2))]  # an s that vanishes on B adds no condition
    if len(rs) == 0:
        return Subspace.full(f, m * m)
    rows = linalg.sylvester(f, rs, rs.transpose(0, 2, 1))
    return Subspace.from_rref(f, linalg.nullspace(f, rows.reshape(-1, m * m)))


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
    ring map is proved in ``build_skew_groupoid_ring``.

    It is decided one connected component c at a time, on R_c = 1_c R with
    1_c the sum of the 1_e over the objects of c.  Each 1_c is central and
    lies in R^beta (``GaloisContext.component_subgroupoids``).

    - End(R)_{R^beta} is the direct sum over c of the blocks End(R_c),
      each over R^beta.  An F in it commutes with right multiplication by
      1_c, the projection onto R_c, so F maps each R_c into itself and is
      the sum of its restrictions F_c.  Right multiplication by any s maps
      R_c into itself too, so F commutes with it iff every F_c commutes
      with its restriction to R_c.
    - j(a u_g) = L_a beta_g lies in the block of g's component c: it
      vanishes off E_{d(g)} <= R_c and maps into E_{r(g)} <= R_c.  So the
      image of j is the direct sum over c of the images of the basis
      elements a u_g with g in c.

    Hence dim End is the sum of the blocks' dimensions; j is injective iff
    it is on each block, since each block's image has at most as many
    dimensions as it has basis elements; and j is onto iff each block's
    image is its block of End, since both sides are direct sums over the
    same blocks.  A block is computed in the coordinates of the RREF basis
    of R_c."""
    f, n, gp = act.field, act.algebra.dim, act.groupoid
    dim_end, injective, surjective = 0, True, True
    for arrows in components(gp):
        space = Subspace(f, n, np.vstack([act.ideals[e].basis for e in gp.identities if e in arrows]))
        end_space = endomorphism_space(act, invariant_ring, space)
        slots = [(g, row) for g, row in skew.slots if g in arrows]
        image = _j_block_image(act, slots, space)
        dim_end += end_space.dim
        injective &= image.dim == len(slots)
        surjective &= image == end_space
    return JIsomorphismReport(dim_skew=skew.dim, dim_end=dim_end, injective=injective, surjective=surjective)


def _j_block_image(act: Action, slots: list[tuple[int, int]], space: Subspace) -> Subspace:
    """The span of j(a u_g) restricted to ``space``, over the skew basis
    elements ``slots``, as flattened matrices in the coordinates of the
    space's RREF basis."""
    f, alg, m = act.field, act.algebra, space.dim
    rows: dict[int, list[int]] = {}
    for g, row in slots:
        rows.setdefault(g, []).append(row)
    mats = []
    for g, picked in rows.items():
        # row i: beta_g of basis row i; then a beta_g(.) for each a
        images = linalg.matmul(f, space.basis, act.beta[g].T)
        prods = alg.products(act.ideal(g).basis[picked], images)[:, :, space.pivots]
        mats.append(prods.transpose(0, 2, 1).reshape(len(picked), m * m))
    return Subspace(f, m * m, np.vstack(mats) if mats else f.zeros((0, m * m)))


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

    @cached_property
    def wide_parts(self) -> list[list[Subgroupoid]]:
        """For each component c, the parts H_c of the wide subgroupoids H:
        the subgroupoids inside c that hold every identity of c.  The wide
        H are the unions of one part per component, so there are Pi_c W_c
        of them from Sigma_c W_c parts."""
        ids = frozenset(self.act.groupoid.identities)
        return [[h for h in self.component_subgroupoids if c & ids <= h.members <= c] for c in self.components]

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
        Each part is formed once, through ``invariants``' cache: the sum over c
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
        """R^beta = theta(G), through the ``invariants`` cache theta(G) shares."""
        return self.invariants(self.act.groupoid.arrows())

    @cached_property
    def center(self) -> Subspace:
        from .algebra import center as _center

        return _center(self.act.algebra)

    def theta(self, h: Subgroupoid) -> Subspace:
        """The Galois map value theta(H) = R^{beta_H}, the invariants of H's arrows."""
        return self.invariants(h.members)

    def invariants(self, arrows) -> Subspace:
        """R^{beta_S} for an arrow set S, formed once per set."""
        key = frozenset(arrows)
        cache = self.__dict__.setdefault("_invariants_cache", {})
        if key not in cache:
            cache[key] = invariants(self.act, key)
        return cache[key]

    def gamma(self, h: Subgroupoid) -> tuple[Subspace, bool]:
        key = frozenset(h.members)
        cache = self.__dict__.setdefault("_gamma_cache", {})
        if key not in cache:
            cache[key] = gamma(self.act, h.members, self.jmodules)
        return cache[key]

    def support(self, h: Subgroupoid) -> list[int]:
        return [a for a in sorted(h.members) if self.jmodules[a].dim > 0]
