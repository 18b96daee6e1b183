"""Separability idempotents over a subring, Azumaya detection, double
centralizers, and the separable-subalgebra enumeration feeding the
Galois-correspondence checks.

Every positive separability answer carries a certificate: here one found
by the solve over R (x)_S R and re-verified by substitution, or, for R
over an invariant ring theta(H), the element sum_i x_i (x) y_i of the
certified Galois coordinates, which ``galois.separability_from_coordinates``
checks without building R (x)_S R.  Every negative answer is a rank
argument from the solve here (the defining system is genuinely linear, so
"no solution" is a proof); a failed coordinate check proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (
    Algebra,
    commutant,
    is_unital_subalgebra,
    product_space,
    subalgebra_generated,
    subspace_algebra,
)
from .linalg import Subspace, all_subspaces

EXHAUSTIVE_DIM = 6  # above this dimension the subalgebra sweep is pool-restricted


@dataclass
class RelativeTensorSquare:
    """R (x)_S R as a quotient of R (x) R by the balancing relations."""

    algebra: Algebra
    subring: Subspace
    relations: np.ndarray  # RREF rows inside R (x) R (row-major (k,l) index)
    rel_pivots: list[int]
    quotient_coords: list[int]  # non-pivot flat indices

    @property
    def dim(self) -> int:
        return len(self.quotient_coords)

    def reduce_vector(self, v: np.ndarray) -> np.ndarray:
        """Canonical coset representatives of the vectors along v's last axis.

        A pivot column of the RREF relations is a unit column, so
        eliminating every pivot coordinate at once is the same as one by one.
        """
        return self.algebra.field.reduce(v - np.matmul(v[..., self.rel_pivots], self.relations))

    def lift(self, q: np.ndarray) -> np.ndarray:
        n2 = self.algebra.dim ** 2
        out = self.algebra.field.zeros(n2)
        out[self.quotient_coords] = q
        return out


def tensor_square(alg: Algebra, sub: Subspace) -> RelativeTensorSquare:
    """Build R (x)_S R from the relation span {bi*s (x) bj - bi (x) s*bj}.

    The relation of (s, i, j) is row (i, j) of ``linalg.sylvester`` with
    a[s, i] = bi*s and b[s, j] = s*bj.
    """
    f = alg.field
    n = alg.dim
    eye = f.eye(n)
    left = alg.products(eye, sub.basis).transpose(1, 0, 2)  # [s, i] = bi*s
    right = alg.products(sub.basis, eye)  # [s, j] = s*bj
    rows = linalg.sylvester(f, left, right).reshape(sub.dim * n * n, n * n)
    rel_mat, pivots = linalg.rref(f, rows)
    rel_mat = rel_mat[: len(pivots)]
    quotient = [c for c in range(n * n) if c not in set(pivots)]
    return RelativeTensorSquare(alg, sub, rel_mat, pivots, quotient)


@dataclass
class SeparabilityCertificate:
    tensor: RelativeTensorSquare
    element: np.ndarray  # representative in R (x) R, row-major


def _mu_matrix(alg: Algebra) -> np.ndarray:
    """Multiplication map R (x) R -> R on flat coordinates."""
    n = alg.dim
    return alg.table.reshape(n * n, n).T


def _commute_operators(alg: Algebra) -> np.ndarray:
    """z -> b_r z - z b_r on flat R (x) R coordinates (bimodule actions), for each r.

    Left multiplication by b_r is table[r].T, right multiplication
    table[:, r].T.
    """
    t = alg.table
    return linalg.sylvester(alg.field, t.transpose(0, 2, 1), t.transpose(1, 2, 0))


def separability_idempotent(alg: Algebra, sub: Subspace) -> SeparabilityCertificate | None:
    """Separability element of R over S, or None (provably none exists).

    Solves {mu(z) = 1, r.z = z.r in R (x)_S R for all basis r} exactly in
    quotient coordinates, then re-verifies the solution by substitution.
    """
    f = alg.field
    n = alg.dim
    ts = tensor_square(alg, sub)
    qc = ts.quotient_coords
    q = ts.dim
    # moved[r, c] is the image of the quotient basis vector qc[c] under r.z - z.r
    moved = ts.reduce_vector(_commute_operators(alg)[:, :, qc].transpose(0, 2, 1))[..., qc]
    system = np.vstack([_mu_matrix(alg)[:, qc], moved.transpose(0, 2, 1).reshape(n * q, q)])
    sol = linalg.solve(f, system, np.concatenate([alg.unit, f.zeros(n * q)]))
    if sol is None:
        return None
    z = ts.lift(sol)
    cert = SeparabilityCertificate(ts, z)
    if not verify_certificate(cert):
        raise RuntimeError("internal: separability solution failed substitution")
    return cert


def verify_certificate(cert: SeparabilityCertificate) -> bool:
    """Independent substitution check of mu(z)=1 and r.z = z.r mod relations.

    With z = sum z[i, j] b_i (x) b_j, mu(z) = sum_i b_i * z[i] and
    b_r z - z b_r = table[r].T @ z - z @ table[:, r].
    """
    alg = cert.tensor.algebra
    f = alg.field
    n = alg.dim
    z = cert.element.reshape(n, n)
    t = alg.table
    mu = f.reduce(f.reduce(np.matmul(z[:, None, :], t)).sum(axis=(0, 1)))
    if not np.array_equal(mu, alg.unit):
        return False
    moved = f.reduce(np.matmul(t.transpose(0, 2, 1), z) - np.matmul(z, t.transpose(1, 0, 2)))
    return not np.any(cert.tensor.reduce_vector(moved.reshape(n, n * n)) != 0)


@dataclass
class DoubleCentralizerResult:
    subalgebra: Subspace
    bicommutant: Subspace
    double_centralizer_holds: bool
    commutant_separable: bool
    tensor_clause: str  # "holds" | "fails" | "skipped (A not central)"


def double_centralizer_check(
    alg: Algebra, a: Subspace, center_sub: Subspace, facts: SubalgebraFacts | None = None
) -> DoubleCentralizerResult:
    """The Azumaya double-centralizer statement, clause by clause.

    Commutants and separability verdicts are read from ``facts``, which a
    sweep shares across its members; a standalone call starts an empty one.
    """
    facts = SubalgebraFacts(alg) if facts is None else facts
    va = facts.commutant(a)
    vva = facts.commutant(va)
    holds = vva == a
    sep = facts.separable_over(va, center_sub)
    # A central over C: A cap V(A) = C, i.e. the center of A is exactly C.
    # C lies in both, and dim(A cap V(A)) = dim A + dim V(A) - dim(A + V(A))
    central = (
        a.contains_space(center_sub)
        and va.contains_space(center_sub)
        and a.dim + va.dim - linalg.rank(alg.field, np.vstack([a.basis, va.basis]))
        == center_sub.dim
    )
    if central:
        # mu: A (x)_S V(A) -> R is an isomorphism iff the relative tensor
        # product has dim R and the products span R
        ok = (
            relative_tensor_dim(alg, a, va, center_sub) == alg.dim
            and _products_span(alg, a, va)
        )
        tensor_clause = "holds" if ok else "fails"
    else:
        tensor_clause = "skipped (A not central)"
    return DoubleCentralizerResult(a, vva, holds, sep, tensor_clause)


def relative_tensor_dim(alg: Algebra, a: Subspace, b: Subspace, base: Subspace) -> int:
    """dim of A (x)_S B for subalgebras A, B both containing the central S.

    Works in internal coordinates of A and B; the balancing relations
    a_i s (x) b_j - a_i (x) s b_j stay inside A and B because S is
    central and contained in both.
    """
    f = alg.field
    ka, kb, k = a.dim, b.dim, base.dim
    if ka == 0 or kb == 0:
        return 0
    left = a.coords_rows(alg.products(a.basis, base.basis).transpose(1, 0, 2).reshape(k * ka, alg.dim))
    right = b.coords_rows(alg.products(base.basis, b.basis).reshape(k * kb, alg.dim))
    if left is None or right is None:
        raise ValueError("base does not stabilize the factors")
    rows = linalg.sylvester(f, left.reshape(k, ka, ka), right.reshape(k, kb, kb))
    return ka * kb - linalg.rank(f, rows.reshape(k * ka * kb, ka * kb))


def _products_span(alg: Algebra, a: Subspace, b: Subspace) -> bool:
    return product_space(alg, a, b).dim == alg.dim


def is_separable_subalgebra_over(alg: Algebra, sub: Subspace, base: Subspace) -> bool:
    """S separable over a base contained in S: certificate in S (x)_base S.

    S must be a unital subalgebra, as every commutant is and as the
    enumeration checks first; ``subspace_algebra`` refuses any other S.
    """
    base_coords = sub.coords_rows(base.basis)
    if base_coords is None:
        return False
    small = subspace_algebra(alg, sub, alg.unit)
    base_sub = Subspace(alg.field, sub.dim, base_coords)
    return separability_idempotent(small, base_sub) is not None


class SubalgebraFacts:
    """Facts about subspaces S of one algebra R, each computed once and kept
    by canonical key: the commutant V_R(S), and whether S is a unital
    subalgebra separable over a base."""

    def __init__(self, alg: Algebra):
        self.alg = alg
        self.commutants: dict[tuple, Subspace] = {}
        self.separable: dict[tuple, bool] = {}  # (S key, base key) -> verdict

    def commutant(self, s: Subspace) -> Subspace:
        key = s.key()
        if key not in self.commutants:
            self.commutants[key] = commutant(self.alg, s, self.alg.full_space)
        return self.commutants[key]

    def separable_over(self, s: Subspace, base: Subspace) -> bool:
        key = (s.key(), base.key())
        if key not in self.separable:
            self.separable[key] = is_separable_subalgebra_over(self.alg, s, base)
        return self.separable[key]


def _rational_key_order(key: tuple) -> tuple:
    """Sort order of Q subspace keys, whose entries mix ints and "a/b"
    strings: an int sorts before a string, and two of a kind compare as
    they do in the key itself, so keys that compare alone keep their order."""
    return tuple(tuple((type(x) is str, x) for x in row) for row in key)


@dataclass
class SeparableEnumeration:
    subalgebras: list[Subspace]  # S >= base, unital, separable over base
    exhaustive: bool
    note: str


def enumerate_separable_subalgebras(
    alg: Algebra, base: Subspace, pool: list[Subspace] | None = None, facts: SubalgebraFacts | None = None
) -> SeparableEnumeration:
    """Unital subalgebras S with base <= S <= R, separable over base.

    Exhaustive subspace walk when dim R is at or below the cap (prime
    fields only); otherwise the provided pool (already-generated
    subalgebra candidates) is filtered and the result is labeled
    pool-restricted.  Every candidate contains the base.  Each one that
    passes the unital-subalgebra filter has its separability verdict read
    from, or recorded in, ``facts``.
    """
    f = alg.field
    facts = SubalgebraFacts(alg) if facts is None else facts
    exhaustive = f.modular and alg.dim <= EXHAUSTIVE_DIM
    candidates: dict[tuple, Subspace] = {}

    if exhaustive:
        # subspaces containing base <-> subspaces of a complement of base
        comp_idx = [c for c in range(alg.dim) if c not in base.pivots]
        for quot in all_subspaces(f, len(comp_idx)):
            lift = f.zeros((quot.shape[0], alg.dim))
            lift[:, comp_idx] = quot
            cand = Subspace(f, alg.dim, np.vstack([base.basis, lift]))
            candidates.setdefault(cand.key(), cand)
        note = "exhaustive"
    else:
        note = "pool-restricted"
        for cand in pool or []:
            grown = subalgebra_generated(alg, np.vstack([base.basis, cand.basis]))
            candidates.setdefault(grown.key(), grown)

    out = []
    for key in sorted(candidates, key=None if f.modular else _rational_key_order):
        s = candidates[key]
        if is_unital_subalgebra(alg, s) and facts.separable_over(s, base):
            out.append(s)
    return SeparableEnumeration(out, exhaustive, note)
