"""Finite-dimensional associative unital algebras via structure constants.

Elements are coefficient vectors over the scalar field; multiplication
is the bilinear extension of the structure-constant table
c[i][j][k] = coefficient of b_k in b_i * b_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _purerref, linalg
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
        Stacks of rows, shapes (..., r, n) and (..., s, n), give the
        products within each stack entry, shape (..., r, s, n).
        """
        n = self.dim
        left = self.field.reduce(np.dot(xs, self.table.reshape(n, n * n))).reshape(*xs.shape, n)
        return self.field.reduce(np.matmul(ys[..., None, :, :], left))

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise AlgebraError("dimension mismatch")
        return self.products(x[None], y[None])[0, 0]

    def left_mult(self, x: np.ndarray) -> np.ndarray:
        """Matrix of y -> x*y acting on column vectors; one per row of a stack x."""
        n = self.dim
        m = np.dot(x, self.table.reshape(n, n * n)).reshape(*x.shape, n)
        return self.field.reduce(np.swapaxes(m, -1, -2))

    def right_mult(self, y: np.ndarray) -> np.ndarray:
        """Matrix of x -> x*y acting on column vectors; one per row of a stack y."""
        n = self.dim
        tt = np.transpose(self.table, (1, 0, 2)).reshape(n, n * n)
        m = np.dot(y, tt).reshape(*y.shape, n)
        return self.field.reduce(np.swapaxes(m, -1, -2))

    def basis_vector(self, i: int) -> np.ndarray:
        v = self.field.zeros(self.dim)
        v[i] = self.field.one
        return v

    def basis_vectors(self) -> list[np.ndarray]:
        return [self.basis_vector(i) for i in range(self.dim)]

    @cached_property
    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.dim)


def validate_algebra(field: Field, labels, table, unit) -> Algebra:
    """Certify associativity and the unit laws on all basis triples."""
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
    _check_associative(alg)
    _check_unit_laws(alg)
    return alg


def _check_associative(alg: Algebra) -> None:
    """Raise unless (b_i b_j) b_k = b_i (b_j b_k) on every basis triple,
    naming the row-major first triple that fails.

    Both sides are contractions of the table with itself, taken for a
    chunk of the b_i at a time: 2 n^4 multiply-adds per b_i, and at most
    ``_purerref.STACK_CELLS`` per chunk (or one b_i), which also bounds
    the entries of each array a chunk makes.
    """
    f, t, labels = alg.field, alg.table, alg.labels
    n = alg.dim
    rows, cols = t.reshape(n * n, n), t.reshape(n, n * n)
    step = max(1, _purerref.STACK_CELLS // max(2 * n**4, 1))
    for lo in range(0, n, step):
        ts = t[lo : lo + step]
        # [i, (j, k), l]: coefficient l of (b_i b_j) b_k - b_i (b_j b_k)
        diff = np.dot(ts.reshape(-1, n), cols).reshape(len(ts), n * n, n)
        diff -= np.matmul(rows, ts)
        bad = f.reduce(diff).any(axis=2)
        if bad.any():
            i, jk = divmod(int(np.flatnonzero(bad)[0]), n * n)
            j, k = divmod(jk, n)
            raise AlgebraError(f"associativity fails at triple ({labels[lo + i]},{labels[j]},{labels[k]})")


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
    """V_{S2}(S1): elements of S2 commuting with every basis element of S1.

    The answer is solved for in the coordinates of S2; the nullspace is in
    RREF, so its image under S2's basis is canonical without a second
    elimination (``Subspace.from_coords``)."""
    if s1.dim == 0:
        return s2
    if s2.dim == 0:
        return s2
    # row (a, k), column j: coordinate k of s_a t_j - t_j s_a
    diff = alg.products(s1.basis, s2.basis) - alg.products(s2.basis, s1.basis).transpose(1, 0, 2)
    stacked = alg.field.reduce(diff.transpose(0, 2, 1).reshape(s1.dim * alg.dim, s2.dim))
    return s2.from_coords(linalg.nullspace(alg.field, stacked))


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
