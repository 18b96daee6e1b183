"""Finite-dimensional associative unital algebras via structure constants.

Elements are coefficient vectors over the scalar field; multiplication
is the bilinear extension of the structure-constant table
c[i][j][k] = coefficient of b_k in b_i * b_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise AlgebraError("dimension mismatch")
        n = self.dim
        m = np.dot(x, self.table.reshape(n, n * n)).reshape(n, n)
        return self.field.reduce(np.dot(y, m))

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

    # associativity on basis triples: (bi bj) bk == bi (bj bk)
    nn = n * n
    flat = table.reshape(nn, n)
    left = field.reduce(np.dot(flat, table.reshape(n, nn))).reshape(n, n, n, n)
    # right[i,j,k,l] = sum_m c[j,k,m] c[i,m,l]
    mid = np.transpose(table, (1, 0, 2)).reshape(n, nn)  # mid[m,(i,l)] = c[i,m,l]
    right = field.reduce(
        np.dot(table.reshape(nn, n), mid).reshape(n, n, n, n).transpose(2, 0, 1, 3)
    )
    if not np.array_equal(left, right):
        idx = np.argwhere(left != right)[0]
        i, j, k = (int(x) for x in idx[:3])
        raise AlgebraError(
            f"associativity fails at triple ({labels[i]},{labels[j]},{labels[k]})"
        )
    for i in range(n):
        b = alg.basis_vector(i)
        if not np.array_equal(alg.mul(unit, b), b):
            raise AlgebraError(f"unit law fails: 1*{labels[i]} != {labels[i]}")
        if not np.array_equal(alg.mul(b, unit), b):
            raise AlgebraError(f"unit law fails: {labels[i]}*1 != {labels[i]}")
    return alg


def center(alg: Algebra) -> Subspace:
    """{z | z b_i = b_i z for all i}, certified commutative unital subalgebra."""
    sub = commutant(alg, alg.full_space, alg.full_space)
    sub.flags["is_subalgebra"] = _is_mult_closed(alg, sub)
    return sub


def commutant(alg: Algebra, s1: Subspace, s2: Subspace) -> Subspace:
    """V_{S2}(S1): elements of S2 commuting with every basis element of S1."""
    if s1.dim == 0:
        return s2
    if s2.dim == 0:
        return s2
    rows = []
    for s in s1.basis:
        rows.append(linalg.matmul(alg.field, alg.left_mult(s) - alg.right_mult(s), s2.basis.T))
    stacked = alg.field.reduce(np.vstack(rows))
    coeffs = linalg.nullspace(alg.field, stacked)
    if coeffs.shape[0] == 0:
        return Subspace.zero(alg.field, alg.dim)
    return Subspace(alg.field, alg.dim, linalg.matmul(alg.field, coeffs, s2.basis))


def _is_mult_closed(alg: Algebra, sub: Subspace) -> bool:
    return all(
        sub.contains(alg.mul(u, v)) for u in sub.basis for v in sub.basis
    )


def is_unital_subalgebra(alg: Algebra, sub: Subspace) -> bool:
    return sub.contains(alg.unit) and _is_mult_closed(alg, sub)


def subalgebra_generated(alg: Algebra, seed, include_unit: bool = True) -> Subspace:
    """Least (unital) subalgebra containing the seed vectors."""
    vecs = list(seed.basis) if isinstance(seed, Subspace) else [np.asarray(v) for v in seed]
    if include_unit:
        vecs = [alg.unit] + vecs
    cur = Subspace.span(alg.field, vecs) if vecs else Subspace.zero(alg.field, alg.dim)
    while True:
        prods = [alg.mul(u, v) for u in cur.basis for v in cur.basis]
        nxt = Subspace(alg.field, alg.dim, np.vstack([cur.basis] + [p.reshape(1, -1) for p in prods]))
        if nxt.dim == cur.dim:
            nxt.flags["is_subalgebra"] = True
            return nxt
        cur = nxt


def subspace_algebra(alg: Algebra, sub: Subspace, unit_vec: np.ndarray, labels=None) -> tuple[Algebra, np.ndarray]:
    """A closed subspace with its own unit, as a standalone Algebra.

    Returns (algebra on sub's basis, embedding matrix rows -> ambient).
    """
    k = sub.dim
    table = alg.field.zeros((k, k, k))
    for i in range(k):
        for j in range(k):
            prod = alg.mul(sub.basis[i], sub.basis[j])
            coords = sub.coords(prod)
            if coords is None:
                raise AlgebraError("subspace is not closed under multiplication")
            table[i, j, :] = coords
    unit_coords = sub.coords(unit_vec)
    if unit_coords is None:
        raise AlgebraError("designated unit lies outside the subspace")
    if labels is None:
        labels = [f"s{i}" for i in range(k)]
    small = validate_algebra(alg.field, labels, table, unit_coords)
    return small, sub.basis.copy()
