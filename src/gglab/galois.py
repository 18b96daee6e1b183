"""Galois coordinates, the modules J_g, theta/sigma/gamma, skew groupoid
rings, and the injectivity machinery built on them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .action import Action, invariants
from .algebra import Algebra, commutant, validate_algebra
from .groupoid import Subgroupoid, enumerate_subgroupoids, pair_star
from .linalg import Subspace


class GaloisError(ValueError):
    pass


@dataclass
class GaloisCoordinates:
    """Pairs (x_i, y_i) witnessing the coordinate condition."""

    pairs: list[tuple[np.ndarray, np.ndarray]]
    certified: bool = False

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
    coords.certified = not failures
    return coords.certified, failures


def solve_galois_coordinates(act: Action) -> GaloisCoordinates | None:
    """Search for coordinates with the x-side pinned to the algebra basis.

    The condition is linear in the y_i once the x_i are fixed, so this
    is a single exact solve.  None means no solution exists *for this
    linearization* -- inconclusive, not a proof of non-Galois.
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


@dataclass
class JModule:
    arrow: int
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim


def j_module(act: Action, g: int) -> JModule:
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
    return JModule(g, Subspace(f, n, linalg.nullspace(f, f.reduce(rows))))


@dataclass
class SkewGroupoidRing:
    algebra: Algebra  # validated; basis labeled (arrow, ideal basis vector)
    slots: list[tuple[int, int]]  # basis index -> (arrow, row of E_{r(arrow)} basis)
    action: Action

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def element_matrix(self, idx: int) -> np.ndarray:
        """Image under j of the idx-th basis element, as a matrix on R."""
        g, row = self.slots[idx]
        v = self.action.ideal(g).basis[row]
        return linalg.matmul(
            self.action.field, self.action.algebra.left_mult(v), self.action.beta[g]
        )


def build_skew_groupoid_ring(act: Action) -> SkewGroupoidRing:
    """The twisted direct sum of the E_g, re-certified associative."""
    f = act.field
    gp = act.groupoid
    alg = act.algebra
    slots = []
    for g in gp.arrows():
        for row in range(act.ideal(g).dim):
            slots.append((g, row))
    dim = len(slots)
    block_start = {}
    pos = 0
    for g in gp.arrows():
        block_start[g] = pos
        pos += act.ideal(g).dim

    table = f.zeros((dim, dim, dim))
    for g in gp.arrows():
        xs = act.ideal(g).basis
        for h in gp.arrows():
            if not gp.composable(g, h):
                continue
            gh = gp.comp[g][h]
            prods = alg.products(xs, act.apply_truncated(g, act.ideal(h).basis))
            coords = act.ideal(gh).coords_rows(prods.reshape(-1, alg.dim))
            if coords is None:
                raise GaloisError("skew product left its ideal; theorem violation")
            rows = slice(block_start[g], block_start[g] + len(xs))
            cols = slice(block_start[h], block_start[h] + act.ideal(h).dim)
            out = slice(block_start[gh], block_start[gh] + act.ideal(gh).dim)
            table[rows, cols, out] = coords.reshape(len(xs), act.ideal(h).dim, act.ideal(gh).dim)

    unit = f.zeros(dim)
    for e in gp.identities:
        coords = act.ideal(e).coords(act.idempotents[e])
        unit[block_start[e] : block_start[e] + act.ideal(e).dim] = coords
    labels = [f"{gp.names[g]}#{r}" for g, r in slots]
    skew_alg = validate_algebra(f, labels, table, unit)  # associativity re-certified
    return SkewGroupoidRing(algebra=skew_alg, slots=slots, action=act)


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
    return Subspace(f, n * n, linalg.nullspace(f, rows.reshape(-1, n * n)))


@dataclass
class JIsomorphismReport:
    dim_skew: int
    dim_end: int
    injective: bool
    surjective: bool
    multiplicative: bool
    unital: bool

    @property
    def ok(self) -> bool:
        return (
            self.dim_skew == self.dim_end
            and self.injective
            and self.surjective
            and self.multiplicative
            and self.unital
        )


def j_isomorphism_check(act: Action, skew: SkewGroupoidRing, invariant_ring: Subspace) -> JIsomorphismReport:
    """Materialize j on the skew-ring basis and verify it is a unital ring
    isomorphism onto End(R) over the invariants."""
    f = act.field
    n = act.algebra.dim
    end_space = endomorphism_space(act, invariant_ring)
    d = skew.dim
    mats = np.array([skew.element_matrix(i) for i in range(d)], dtype=f.dtype).reshape(d, n * n)
    image = Subspace(f, n * n, mats)
    injective = image.dim == skew.dim
    surjective = image == end_space

    # one i at a time, which keeps the arrays at d * n^2 entries
    square = mats.reshape(d, n, n)
    mult = True
    for i in range(d):
        want = f.reduce(np.dot(skew.algebra.table[i], mats))  # j(b_i b_j) = sum_k table[i, j, k] j(b_k)
        got = f.reduce(np.matmul(square[i], square)).reshape(d, n * n)  # j(b_i) j(b_j)
        if not np.array_equal(want, got):
            mult = False
            break
    unital = np.array_equal(f.reduce(np.dot(skew.algebra.unit, mats)).reshape(n, n), f.eye(n))
    return JIsomorphismReport(
        dim_skew=skew.dim,
        dim_end=end_space.dim,
        injective=injective,
        surjective=surjective,
        multiplicative=mult,
        unital=unital,
    )


def theta(act: Action, h: Subgroupoid) -> Subspace:
    """The Galois map value R^{beta_H}."""
    return invariants(act, h.members)


def gamma(act: Action, members, jmods: dict[int, JModule]) -> tuple[Subspace, bool]:
    """Sum of the J_g over the arrows ``members``, plus a directness
    certificate (dim check)."""
    f = act.field
    n = act.algebra.dim
    parts = [jmods[a].space for a in sorted(members)]
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
    """Shared per-instance cache: subgroupoids, J modules, theta/gamma."""

    def __init__(self, act: Action, coords: GaloisCoordinates | None = None):
        self.act = act
        self.coords = coords

    @property
    def galois_certified(self) -> bool:
        return bool(self.coords and self.coords.certified)

    @cached_property
    def all_subgroupoids(self) -> list[Subgroupoid]:
        return enumerate_subgroupoids(self.act.groupoid, wide_only=False)

    @cached_property
    def wide_subgroupoids(self) -> list[Subgroupoid]:
        return [h for h in self.all_subgroupoids if h.wide]

    @cached_property
    def jmodules(self) -> dict[int, JModule]:
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

    def composable_pairs(self) -> list[tuple[int, int]]:
        return pair_star(self.act.groupoid)
