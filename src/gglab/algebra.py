"""Finite-dimensional associative unital algebras via structure constants.

Elements are coefficient vectors over the scalar field; multiplication
is the bilinear extension of the structure-constant table
c[i][j][k] = coefficient of b_k in b_i * b_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, pairwise
from typing import NamedTuple

import numpy as np

from . import linalg
from .fields import Field
from .linalg import Subspace


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class Algebra:
    field: Field
    labels: tuple[str, ...]
    table: np.ndarray  # shape (n, n, n)
    unit: np.ndarray  # coefficient vector of 1_R

    @property
    def dim(self) -> int:
        return len(self.labels)

    def products(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """All products x*y for rows x of xs and y of ys, shape (len(xs), len(ys), n).

        Two contractions with the structure-constant table, each reduced:
        first the rows of x*b_j for every x, then the combinations by y.
        """
        n = self.dim
        left = self.field.reduce(np.dot(xs, self.table.reshape(n, n * n))).reshape(len(xs), n, n)
        return self.field.reduce(np.matmul(ys, left))

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise AlgebraError("dimension mismatch")
        return self.products(x[None], y[None])[0, 0]

    def left_mult(self, x: np.ndarray) -> np.ndarray:
        """Matrix of y -> x*y acting on column vectors."""
        n = self.dim
        m = np.dot(x, self.table.reshape(n, n * n)).reshape(n, n)
        return self.field.reduce(m.T)

    def right_mult(self, y: np.ndarray) -> np.ndarray:
        """Matrix of x -> x*y acting on column vectors."""
        n = self.dim
        tt = np.transpose(self.table, (1, 0, 2)).reshape(n, n * n)
        m = np.dot(y, tt).reshape(n, n)
        return self.field.reduce(m.T)

    def basis_vector(self, i: int) -> np.ndarray:
        v = self.field.zeros(self.dim)
        v[i] = self.field.one
        return v

    def basis_vectors(self) -> list[np.ndarray]:
        return [self.basis_vector(i) for i in range(self.dim)]

    @cached_property
    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.dim)



class Grading(NamedTuple):
    """Consecutive blocks B_g of the basis, one per arrow g of a groupoid,
    with ``comp[g][h]`` = gh (-1 where g, h do not compose), such that
    B_g B_h lies in B_gh, and is 0 where g, h do not compose.  An
    algebra without more structure has the one-block grading of the
    trivial group."""

    sizes: tuple[int, ...]
    comp: tuple[tuple[int, ...], ...]


def validate_algebra(field: Field, labels, table, unit, grading: Grading | None = None) -> Algebra:
    """Certify associativity and the unit laws on all basis triples,
    block by block over ``grading`` (by default the one-block grading)."""
    n = len(labels)
    if len(set(labels)) != n:
        raise AlgebraError("duplicate basis labels")
    table = np.asarray(table)
    if table.shape != (n, n, n):
        raise AlgebraError(f"structure constants have shape {table.shape}, want {(n, n, n)}")
    table = field.reduce(table.astype(field.dtype, copy=True))
    unit = field.reduce(np.asarray(unit).astype(field.dtype, copy=True))
    if unit.shape != (n,):
        raise AlgebraError("unit vector has wrong length")
    alg = Algebra(field=field, labels=tuple(labels), table=table, unit=unit)
    _check_associative(alg, Grading((n,), ((0,),)) if grading is None else grading)
    _check_unit_laws(alg)
    return alg


def _check_associative(alg: Algebra, grading: Grading) -> None:
    """Raise unless (b_i b_j) b_k = b_i (b_j b_k) on every basis triple,
    naming the row-major first triple that fails.

    First certify that only the blocks B_g x B_h -> B_gh of composable
    pairs hold nonzero constants.  Then a triple of blocks (g, h, k) can
    fail only where g, h and h, k both compose: if g, h do not, (xy)z = 0,
    and x(yz) != 0 would need g, hk to compose, so d(g) = r(hk) = r(h), a
    contradiction; the case of h, k is symmetric.  Each remaining triple
    is two contractions that land in block ghk.
    """
    f, t, labels = alg.field, alg.table, alg.labels
    starts = [0, *accumulate(grading.sizes)]
    span = [slice(a, b) for a, b in pairwise(starts)]
    comp = grading.comp
    # block[g, h][a, b, m]: coordinate m (in B_gh) of the a-th of B_g times the b-th of B_h
    block = {
        (g, h): t[span[g], span[h], span[gh]]
        for g, row in enumerate(comp)
        for h, gh in enumerate(row)
        if gh >= 0
    }
    if sum(np.count_nonzero(b) for b in block.values()) != np.count_nonzero(t):
        outside = t.copy()
        for g, h in block:
            outside[span[g], span[h], span[comp[g][h]]] = 0
        i, j, k = (int(x) for x in np.argwhere(outside != 0)[0])
        raise AlgebraError(
            f"structure constant outside the grading at ({labels[i]},{labels[j]},{labels[k]})"
        )
    # (xy)z: rows (a b, m) of B_g B_h times columns (m, c l) of B_gh B_k;
    # x(yz): rows (b c, m) of B_h B_k times the (m, l) slice of each x in B_g B_hk
    rows, cols = {}, {}
    for pair, xy in block.items():
        a, b, m = xy.shape
        rows[pair], cols[pair] = xy.reshape(a * b, m), xy.reshape(a, b * m)
    first = None
    for g, h in block:
        for k, hk in enumerate(comp[h]):
            if hk < 0:
                continue
            right = np.matmul(rows[h, k], block[g, hk])  # [a, (b, c), l]
            diff = f.reduce(np.dot(rows[g, h], cols[comp[g][h], k]).reshape(right.shape) - right)
            if diff.any():
                a, bc, _ = np.argwhere(diff)[0]
                b, c = divmod(int(bc), grading.sizes[k])
                here = (starts[g] + int(a), starts[h] + b, starts[k] + c)
                first = here if first is None else min(first, here)
    if first is not None:
        i, j, k = first
        raise AlgebraError(f"associativity fails at triple ({labels[i]},{labels[j]},{labels[k]})")


def _check_unit_laws(alg: Algebra) -> None:
    """Raise unless 1*b_i = b_i = b_i*1 for every basis element."""
    # column i of left_mult(unit) is 1*b_i, of right_mult(unit) b_i*1
    eye = alg.field.eye(alg.dim)
    left_ok = np.all(alg.left_mult(alg.unit) == eye, axis=0)
    right_ok = np.all(alg.right_mult(alg.unit) == eye, axis=0)
    for i, label in enumerate(alg.labels):
        if not left_ok[i]:
            raise AlgebraError(f"unit law fails: 1*{label} != {label}")
        if not right_ok[i]:
            raise AlgebraError(f"unit law fails: {label}*1 != {label}")


def center(alg: Algebra) -> Subspace:
    """{z | z b_i = b_i z for all i}: the center, a commutative unital subalgebra."""
    return commutant(alg, alg.full_space, alg.full_space)


def commutant(alg: Algebra, s1: Subspace, s2: Subspace) -> Subspace:
    """V_{S2}(S1): elements of S2 commuting with every basis element of S1."""
    if s1.dim == 0:
        return s2
    if s2.dim == 0:
        return s2
    # row (a, k), column j: coordinate k of s_a t_j - t_j s_a
    diff = alg.products(s1.basis, s2.basis) - alg.products(s2.basis, s1.basis).transpose(1, 0, 2)
    stacked = alg.field.reduce(diff.transpose(0, 2, 1).reshape(s1.dim * alg.dim, s2.dim))
    coeffs = linalg.nullspace(alg.field, stacked)
    if coeffs.shape[0] == 0:
        return Subspace.zero(alg.field, alg.dim)
    return Subspace(alg.field, alg.dim, linalg.matmul(alg.field, coeffs, s2.basis))


def product_rows(alg: Algebra, a: Subspace, b: Subspace) -> np.ndarray:
    """Every product xy of basis rows x of a and y of b, one per row."""
    return alg.products(a.basis, b.basis).reshape(a.dim * b.dim, alg.dim)


def product_space(alg: Algebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of all products xy, x in a, y in b."""
    return Subspace(alg.field, alg.dim, product_rows(alg, a, b))


def _is_mult_closed(alg: Algebra, sub: Subspace) -> bool:
    return sub.coords_rows(product_rows(alg, sub, sub)) is not None


def is_unital_subalgebra(alg: Algebra, sub: Subspace) -> bool:
    return sub.contains(alg.unit) and _is_mult_closed(alg, sub)


def subalgebra_generated(alg: Algebra, seed) -> Subspace:
    """Least unital subalgebra containing the seed vectors."""
    vecs = list(seed.basis) if isinstance(seed, Subspace) else [np.asarray(v) for v in seed]
    cur = Subspace.span(alg.field, [alg.unit] + vecs)
    while True:
        prods = product_rows(alg, cur, cur)
        if cur.coords_rows(prods) is not None:
            return cur
        cur = Subspace(alg.field, alg.dim, np.vstack([cur.basis, prods]))


def subspace_algebra(alg: Algebra, sub: Subspace, unit_vec: np.ndarray, labels=None) -> Algebra:
    """A closed subspace with its own unit, as a standalone Algebra on
    sub's basis rows.

    A closed subspace of an associative algebra is associative, so only
    closure, the unit's membership and the unit laws are checked; the unit
    may be a local one such as 1_e.
    """
    k = sub.dim
    table = sub.coords_rows(product_rows(alg, sub, sub))
    if table is None:
        raise AlgebraError("subspace is not closed under multiplication")
    table = table.reshape(k, k, k)
    unit_coords = sub.coords(unit_vec)
    if unit_coords is None:
        raise AlgebraError("designated unit lies outside the subspace")
    if labels is None:
        labels = [f"s{i}" for i in range(k)]
    small = Algebra(field=alg.field, labels=tuple(labels), table=table, unit=unit_coords)
    _check_unit_laws(small)
    return small
