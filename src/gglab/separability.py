"""Separability idempotents over a subring, Azumaya detection, double
centralizers, and the separable-subalgebra enumeration feeding the
Galois-correspondence checks.

Every separability verdict here is a rank argument or a certificate.
Where the base B is a unital subalgebra central in S whose own regular
trace form is nondegenerate (``_gram_base``), "S is separable over B"
is "S is semisimple", and the rank of S's trace form (Gram) matrix
decides it (``_gram_verdicts``): full rank proves S separable in any
characteristic, and a degenerate matrix proves it not separable over Q,
over F_p when p^2 > dim S, and for a commutative S.  Every other verdict
comes from the solve over S (x)_B S: a positive answer carries a
separability element, re-verified by substitution, and a negative one is
a rank argument from the solve (the defining system is genuinely linear,
so "no solution" is a proof).  R over an invariant ring theta(H), and
over its center when R^beta <= C(R), is not decided here: the suite
proves it from the certified Galois coordinates (``suite._lemma_4_2``).

The exhaustive walk (``_walk``) filters the candidates of one RREF pivot
pattern together and decides the unital subalgebras of one dimension,
across every pattern, together: where the base passes ``_gram_base``,
one stacked rank (``_purerref.rank_mod_stack``) decides every
candidate's Gram matrix.  That rank holds its stack column-major, as
(n, s, m), so each column step reads and updates contiguous blocks
rather than one strided row per matrix.  The candidates it leaves undecided, and every
candidate over any other base, are decided one at a time by
``is_separable_subalgebra_over``, so the solve over S (x)_B S and its
substitution check live in ``separability_idempotent`` alone.  Each
member it finds carries the canonical key the walk built for it.

The Theorem 3.9 sweep (``double_centralizer_sweep``) returns only the
members that fail the double-centralizer statement.  It passes the two
endpoints, the base C and R, by proof where the facts hold V(R) = C and
R separable over C, with no check.  Over F_p it then settles the other
members of each dimension that are their own commutants together
(``_self_commutants``); over Q it checks every member alone, since the
stacked rank is mod p.  V(S) is the nullspace of S's commutator matrix.
A member whose unreduced matrix annihilates its own basis lies in its
commutant, and if one stacked rank of the matrix is also n minus dim S,
then V(S) = S: such a member, a torus of M_2(F_p) say, is cached as its
own commutant, with no nullspace formed.  A settled member that is not
the base and is already known separable over it passes with no check:
V(V(S)) = S, S is not central, and V(S) = S is separable, which is the
proof the sweep carries for it.  Every other commutant is computed one
S at a time (``SubalgebraFacts.commutant``), and every other member's
clauses are read by ``double_centralizer_check`` from the commutants
cached by canonical key.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations, groupby, product

import numpy as np

from . import _purerref, linalg
from .algebra import (
    Algebra,
    commutant,
    is_unital_subalgebra,
    product_space,
    subalgebra_generated,
    subspace_algebra,
)
from .linalg import Subspace

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
    double_centralizer_holds: bool
    commutant_separable: bool
    tensor_clause: str  # "holds" | "fails" | "skipped (A not central)"


def double_centralizer_check(
    alg: Algebra, a: Subspace, center_sub: Subspace, facts: SubalgebraFacts | None = None
) -> DoubleCentralizerResult:
    """The Azumaya double-centralizer statement, clause by clause.

    Commutants and separability verdicts are read from ``facts``, which a
    sweep shares across its members; a standalone call starts an empty one.
    V(V(A)) = A iff their canonical keys are equal.
    """
    facts = SubalgebraFacts(alg) if facts is None else facts
    va = facts.commutant(a)
    vva = facts.commutant(va)
    # A central over C: A cap V(A) = C, i.e. the center of A is exactly C
    if va.key() == a.key():  # A cap V(A) = A
        central = a.key() == center_sub.key()
    else:  # C lies in both, and dim(A cap V(A)) = dim A + dim V(A) - dim(A + V(A))
        central = (
            a.contains_space(center_sub)
            and va.contains_space(center_sub)
            and a.dim + va.dim - linalg.rank(alg.field, np.vstack([a.basis, va.basis])) == center_sub.dim
        )
    separable = facts.separable.get((va.key(), center_sub.key()))
    # is_separable_subalgebra_over refuses a base outside V(A) with a
    # ValueError; V(A) is not separable over such a base
    if separable is None:
        separable = va.contains_space(center_sub) and facts.separable_over(va, center_sub)
    tensor = "skipped (A not central)"
    if central:
        # mu: A (x)_S V(A) -> R is an isomorphism iff the relative tensor
        # product has dim R and the products span R
        ok = relative_tensor_dim(alg, a, va, center_sub) == alg.dim and product_space(alg, a, va).dim == alg.dim
        tensor = "holds" if ok else "fails"
    return DoubleCentralizerResult(a, vva.key() == a.key(), separable, tensor)


def double_centralizer_sweep(
    alg: Algebra, subalgebras: list[Subspace], center_sub: Subspace, facts: SubalgebraFacts
) -> list[DoubleCentralizerResult]:
    """The rows of ``double_centralizer_check`` that fail, over the members
    of ``subalgebras``, in order, sharing ``facts``.  A row fails when
    V(V(A)) != A, when V(A) is not separable over the base, or when its
    tensor clause fails.

    The two endpoints, the base C and R itself, pass without a check
    where ``facts`` holds V(R) = C, by key, and R separable over C.  Both
    are read from ``facts``, never assumed:

    - V(C) = R, since C = V(R) commutes with all of R, and V(R) = C; so
      V(V(A)) = A at both ends.
    - V(C) = R is separable over C by that verdict, and V(R) = C is
      separable over itself, with separability element 1 (x) 1.
    - A cap V(A) = C at both ends (C cap R = C), so both are central, and
      C (x)_C R = R = R (x)_C C (``relative_tensor_dim``: a factor equal
      to the base takes no rank), with the products spanning R, as 1 lies
      in C.  So the tensor clause holds.

    Over F_p, every other member whose commutant ``facts`` lacks is then
    stacked, one stack per dimension (``_self_commutants``): each one the
    stack settles as its own commutant, such as a torus of M_2(F_p), is
    cached as V(A) = A itself.  Over Q every member is checked one at a
    time, since the stacked rank is mod p.  A member A whose cached
    commutant is A, that is not the base, and that ``facts`` already
    holds separable over the base, passes without a check:
    V(V(A)) = V(A) = A; A cap V(A) = A is not the base, so A is not
    central and the tensor clause is skipped; and V(A) = A is separable
    by that verdict.  The check would read all three from ``facts`` and
    add nothing to it.  Every other member is checked, and each commutant
    it needs and the cache lacks is computed then.
    """
    bkey, rkey = center_sub.key(), alg.full_space.key()
    vr = facts.commutants.get(rkey)
    proved = {bkey, rkey} if vr is not None and vr.key() == bkey and facts.separable.get((rkey, bkey)) else set()
    todo: dict[int, dict[tuple, Subspace]] = {}
    for s in subalgebras if alg.field.modular else []:
        if s.key() not in facts.commutants and s.key() not in proved:
            todo.setdefault(s.dim, {})[s.key()] = s
    for group in todo.values():
        members = list(group.values())
        facts.commutants.update((s.key(), s) for s, own in zip(members, _self_commutants(alg, members)) if own)
    fails = []
    for s in subalgebras:
        key = s.key()
        own = facts.commutants.get(key)
        if key in proved or (key != bkey and own is not None and own.key() == key and facts.separable.get((key, bkey))):
            continue
        res = double_centralizer_check(alg, s, center_sub, facts)
        if not (res.double_centralizer_holds and res.commutant_separable and res.tensor_clause != "fails"):
            fails.append(res)
    return fails


def _self_commutants(alg: Algebra, spaces: list[Subspace]) -> list[bool]:
    """Whether V_R(S) = S, for each S of ``spaces`` (all of one dimension
    k, over F_p).

    Row (a, j) of S's commutator matrix holds coordinate j of
    s_a e_c - e_c s_a in column c, so V(S) is its nullspace.  A member
    whose unreduced matrix annihilates its own basis has S <= V(S),
    checked by substitution; one stacked rank of the matrices of those
    members follows, and rank n - k leaves dim V(S) = k, so V(S) = S.
    The members are taken a slice at a time (``_purerref.stacked``).
    """
    f, n = alg.field, alg.dim
    k = spaces[0].dim
    # [i, c, j] = coordinate j of b_i e_c - e_c b_i, unreduced, so that its
    # entries stay below p in size
    diff = (alg.table - alg.table.transpose(1, 0, 2)).reshape(n, n * n)

    def settled(part):
        bases = np.stack([s.basis for s in spaces[part]])
        mats = f.reduce(np.matmul(bases, diff)).reshape(len(bases), k, n, n)
        mats = mats.transpose(0, 1, 3, 2).reshape(len(bases), k * n, n)
        own = ~f.reduce(np.matmul(mats, bases.transpose(0, 2, 1))).any(axis=(1, 2))
        if own.any():
            own[own] = _purerref.rank_mod_stack(mats[own], f.p) == n - k
        return own

    return _purerref.stacked(len(spaces), k * n * n, settled).tolist()


def relative_tensor_dim(alg: Algebra, a: Subspace, b: Subspace, base: Subspace) -> int:
    """dim of A (x)_S B for subalgebras A, B both containing the central S.

    Works in internal coordinates of A and B; the balancing relations
    a_i s (x) b_j - a_i (x) s b_j stay inside A and B because S is
    central and contained in both.

    A factor equal to S takes no rank: S (x)_S B -> B, s (x) v -> s v, is
    well defined (s s' (x) v and s (x) s' v both go to s s' v) and has the
    inverse v -> 1 (x) v, since 1 lies in S and s (x) v = 1 (x) s v.  So
    the dimension is dim B, and likewise dim A when B = S.
    """
    f = alg.field
    ka, kb, k = a.dim, b.dim, base.dim
    if ka == 0 or kb == 0:
        return 0
    left = a.coords_rows(alg.products(a.basis, base.basis).transpose(1, 0, 2).reshape(k * ka, alg.dim))
    right = b.coords_rows(alg.products(base.basis, b.basis).reshape(k * kb, alg.dim))
    if left is None or right is None:
        raise ValueError("base does not stabilize the factors")
    if a == base:
        return kb
    if b == base:
        return ka
    rows = linalg.sylvester(f, left.reshape(k, ka, ka), right.reshape(k, kb, kb))
    return ka * kb - linalg.rank(f, rows.reshape(k * ka * kb, ka * kb))


def _gram_verdicts(field, tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The trace-form test on each algebra S of structure constants
    tables[g] (shape (d, d, d)) over the prime field: boolean arrays
    (separable, decided) of length g, where ``separable`` holds only where
    ``decided`` does.

    The Gram matrix of S's regular trace form is T_ij = Tr(L_(b_i b_j)) =
    sum_k tables[g, i, j, k] tr_k, with tr_k = Tr(L_(b_k)) =
    sum_j tables[g, k, j, j]; over F_p its rank is read off one stacked
    elimination.  rad S is a nilpotent ideal, so x y is nilpotent, of
    trace 0, for x in rad S and every y: rad S lies in ker T.  So
    rank T = d proves S semisimple, which over a perfect field (F_p or Q)
    is separable.  A degenerate T proves S not semisimple:

    - over Q, since ker T is then a nil ideal: x in ker T has
      Tr(L_x^m) = T(x, x^(m-1)) = 0 for every m >= 1, so L_x, and x, are
      nilpotent in characteristic 0;
    - over F_p when p^2 > d, or S is commutative: a semisimple S is a
      product of blocks M_m(F_q) with m^2 <= d, so m < p (m = 1 when S is
      commutative), and the regular trace form of a block,
      m Tr_(F_q/F_p)(tr(x y)), is nondegenerate because p does not divide m.

    The rest, over F_p with p^2 <= d, S not commutative and T degenerate,
    are left undecided: M_2(F_2) and M_3(F_3) are separable with T = 0.
    """
    g, d = tables.shape[:2]
    tr = field.reduce(np.einsum("gkjj->gk", tables))
    gram = field.reduce(np.matmul(tables, tr[:, None, :, None])[..., 0])
    if field.modular:
        full = _purerref.rank_mod_stack(gram, field.p) == d
    else:
        full = np.array([linalg.rank(field, t) == d for t in gram], dtype=bool)
    if not field.modular or field.p**2 > d:
        return full, np.ones(g, dtype=bool)
    commutative = ~np.any(tables != tables.transpose(0, 2, 1, 3), axis=(1, 2, 3))
    return full, full | commutative


def _gram_base(alg: Algebra, base: Subspace) -> bool:
    """Whether ``_gram_verdicts`` decides separability over ``base`` for
    every unital subalgebra S >= base of ``alg``: base is a unital
    subalgebra, central in ``alg``, whose own regular trace form is
    nondegenerate.  Its structure constants are read with ``coords_rows``.

    Such a base B is commutative, so the trace form decides exactly
    whether B is separable over the prime field F.  B lies in the center
    of S, and then S is separable over B iff S is separable over F
    (DeMeyer & Ingraham, *Separable Algebras over Commutative Rings*,
    LNM 181, Ch. II).  If S is separable over B, it is over F by
    transitivity.  If S is separable over F, then S (x)_F B is separable
    over B by base change, and s (x) b -> s b maps it onto S as a
    B-algebra, since B is central, so S is separable over B as a quotient.
    A base that fails the test keeps the solve.
    """
    f, n, k = alg.field, alg.dim, base.dim
    if k == 0 or not base.contains(alg.unit):
        return False
    # [x, (j, c)] = coordinate c of b_x e_j, and of e_j b_x
    left = f.reduce(np.matmul(base.basis, alg.table.reshape(n, n * n)))
    right = f.reduce(np.matmul(base.basis, alg.table.transpose(1, 0, 2).reshape(n, n * n)))
    if np.any(left != right):
        return False
    # row (x, y) = b_x b_y
    table = base.coords_rows(f.reduce(np.matmul(base.basis, left.reshape(k, n, n))).reshape(k * k, n))
    return table is not None and bool(_gram_verdicts(f, table.reshape(1, k, k, k))[0][0])


def is_separable_subalgebra_over(alg: Algebra, sub: Subspace, base: Subspace) -> bool:
    """S separable over a base contained in S.

    Where the base, in S, passes ``_gram_base``, the rank of S's trace
    form decides (``_gram_verdicts``).  Every other S, and any S that
    test leaves undecided, is solved by ``separability_idempotent`` in
    S (x)_base S, whose solution is substituted back.

    S must be a subalgebra with R's unit, as every commutant is and as
    the enumeration checks first;
    ``subspace_algebra`` refuses any other S.  A base outside S is the
    caller's error, not a verdict.
    """
    base_coords = sub.coords_rows(base.basis)
    if base_coords is None:
        raise ValueError("base is not contained in the subalgebra")
    small = subspace_algebra(alg, sub, alg.unit)
    base_sub = Subspace(alg.field, sub.dim, base_coords)
    if _gram_base(small, base_sub):
        separable, decided = _gram_verdicts(alg.field, small.table[None])
        if decided[0]:
            return bool(separable[0])
    return separability_idempotent(small, base_sub) is not None


class SubalgebraFacts:
    """Facts about subspaces S of one algebra R, each computed once and kept
    by canonical key: the commutant V_R(S), and whether S is a unital
    subalgebra separable over a base (``is_separable_subalgebra_over``).
    V_R(R) is the center of R, so a ``center`` already computed is
    recorded as V_R(R) and never solved again."""

    def __init__(self, alg: Algebra, center: Subspace | None = None):
        self.alg = alg
        self.commutants: dict[tuple, Subspace] = {}
        if center is not None:
            self.commutants[alg.full_space.key()] = center
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


def walkable(field, dim: int) -> bool:
    """Whether ``enumerate_separable_subalgebras`` walks every subspace of
    an algebra of this dimension over this field (``_walk``)."""
    return field.modular and dim <= EXHAUSTIVE_DIM


def enumerate_separable_subalgebras(
    alg: Algebra,
    base: Subspace,
    pool: Callable[[], list[Subspace]] | None = None,
    facts: SubalgebraFacts | None = None,
) -> SeparableEnumeration:
    """Unital subalgebras S with base <= S <= R, separable over base.

    Exhaustive subspace walk when dim R is at or below the cap (prime
    fields only, see ``_walk``); otherwise the seed pool, which ``pool``
    builds when called, is filtered and the result is labeled
    pool-restricted.  Every candidate contains the base.  Each one that
    passes the unital-subalgebra filter has its separability verdict read
    from, or recorded in, ``facts``.  When the base is R itself, R is the
    only subalgebra that contains it, so the list [R] (or [] if R is not
    separable over itself) is exhaustive over any field and dimension: its
    verdict is read from ``facts`` and the pool is not built.
    """
    f = alg.field
    facts = SubalgebraFacts(alg) if facts is None else facts
    if base.dim == alg.dim:
        return SeparableEnumeration([base] if facts.separable_over(base, base) else [], True)
    if walkable(f, alg.dim):
        found = _walk(alg, base, facts)
        return SeparableEnumeration([found[k] for k in sorted(found)], True)

    # the subalgebra grown from a seed depends only on its span, so each
    # distinct span(base + candidate) is grown once
    candidates: dict[tuple, Subspace] = {}
    spans: set[tuple] = set()
    for cand in [] if pool is None else pool():
        span = Subspace(f, alg.dim, np.vstack([base.basis, cand.basis]))
        if span.key() not in spans:
            spans.add(span.key())
            grown = subalgebra_generated(alg, span)
            candidates.setdefault(grown.key(), grown)
    out = []
    for key in sorted(candidates, key=None if f.modular else _rational_key_order):
        s = candidates[key]
        if is_unital_subalgebra(alg, s) and facts.separable_over(s, base):
            out.append(s)
    return SeparableEnumeration(out, False)


def _patterns(m: int):
    """Pivot columns and free cells of each RREF pattern of the subspaces
    of F^m: the zero space first, then by dimension and pivots."""
    for k in range(m + 1):
        for pivots in combinations(range(m), k):
            taken = set(pivots)
            yield pivots, [(r, c) for r in range(k) for c in range(pivots[r] + 1, m) if c not in taken]


def _fills(p: int, m: int, pivots: tuple, free: list, chunk: int):
    """Every RREF matrix of one pattern over F_p, in ``itertools.product``
    order of its free cells (the last cell varies fastest, as in
    ``np.indices``), as int64 stacks (count, k, m).

    The last cells vary inside a stack, as many as keep it at ``chunk``
    matrices or fewer; the others are fixed per stack.
    """
    inner = 0
    while inner < len(free) and p ** (inner + 1) <= chunk:
        inner += 1
    outer = free[: len(free) - inner]
    digits = np.indices((p,) * inner, dtype=np.int64).reshape(inner, p**inner).T
    k = len(pivots)
    template = np.zeros((len(digits), k, m), dtype=np.int64)
    template[:, range(k), list(pivots)] = 1
    cells = free[len(free) - inner :]
    template[:, [r for r, _ in cells], [c for _, c in cells]] = digits
    for head in product(range(p), repeat=len(outer)):
        stack = template.copy()
        stack[:, [r for r, _ in outer], [c for _, c in outer]] = head
        yield stack


def _walk(alg: Algebra, base: Subspace, facts: SubalgebraFacts) -> dict[tuple, Subspace]:
    """Every unital subalgebra S >= base separable over base, by key.

    A subspace containing the base is the base plus a subspace of the
    coordinates off the base pivots, one per RREF matrix there.  The fills
    of each pivot pattern are filtered in stacks (``_closed_fills``); the
    unital subalgebras that pass, except those whose verdict ``facts``
    already holds, are decided one dimension at a time.  Where the base
    passes ``_gram_base``, settled once before any member is, one
    ``_gram_verdicts`` call ranks the trace forms of every member of the
    dimension, across its patterns.  Each member it leaves undecided, and
    every member over any other base, is decided by
    ``is_separable_subalgebra_over``.  Each verdict goes into ``facts``
    under the candidate's canonical key.
    """
    f, n = alg.field, alg.dim
    comp = [c for c in range(n) if c not in base.pivots]
    bkey = base.key()
    gram = _gram_base(alg, base)
    found: dict[tuple, Subspace] = {}
    for d, patterns in groupby(_patterns(len(comp)), lambda pattern: base.dim + len(pattern[0])):
        # the closed candidates left to decide, one entry per stack of fills:
        # (RREF bases, structure constants, pivot columns, canonical keys)
        todo: list[tuple[np.ndarray, np.ndarray, list[int], list[tuple]]] = []
        for pivots, free in patterns:
            piv = sorted(base.pivots + [comp[c] for c in pivots])
            for stack in _fills(f.p, len(comp), pivots, free, _purerref.stack_size(d * n * n)):
                bases, tables = _closed_fills(alg, base, comp, pivots, piv, stack)
                keys, new = [tuple(map(tuple, b)) for b in bases.tolist()], []
                for i, key in enumerate(keys):
                    known = facts.separable.get((key, bkey))
                    if known is None:
                        new.append(i)
                    elif known:
                        found[key] = Subspace.from_rref(f, bases[i], piv, key)
                if new:
                    todo.append((bases[new], tables[new], piv, [keys[i] for i in new]))
        if not todo:
            continue
        members = [(basis, piv, key) for bases, _, piv, keys in todo for basis, key in zip(bases, keys)]
        separable = decided = np.zeros(len(members), dtype=bool)
        if gram:
            separable, decided = _gram_verdicts(f, np.concatenate([t for _, t, _, _ in todo]))
        for (basis, piv, key), ranked, done in zip(members, separable.tolist(), decided.tolist()):
            s = None if done and not ranked else Subspace.from_rref(f, basis, piv, key)
            verdict = ranked if done else is_separable_subalgebra_over(alg, s, base)
            facts.separable[(key, bkey)] = verdict
            if verdict:
                found[key] = s
    return found


def _closed_fills(
    alg: Algebra, base: Subspace, comp: list[int], pivots: tuple, piv: list[int], stack: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The RREF bases (count, d, n) of the candidates base + lift(quot),
    quot over ``stack``, that are unital subalgebras, and their structure
    constants (count, d, d, d) in their own coordinates; ``piv`` are the
    pivot columns the candidates share.

    Canonical bases without elimination: the lifted rows are in RREF and
    vanish on the base pivots, so clearing the base rows at the lifted
    pivots leaves the unique RREF, rows ordered by pivot.  All candidates
    of a pattern share its pivot columns, so a vector's only possible
    coordinates are its entries there, and it lies in S iff they
    reproduce it.
    """
    f, n = alg.field, alg.dim
    lifted = [comp[c] for c in pivots]
    lifts = f.zeros((len(stack), len(pivots), n))
    lifts[:, :, comp] = stack
    cleared = f.reduce(base.basis - np.matmul(base.basis[:, lifted], lifts))
    bases = np.concatenate([cleared, lifts], axis=1)[:, np.argsort(base.pivots + lifted)]
    bases = bases[~f.reduce(alg.unit - np.matmul(alg.unit[piv], bases)).any(axis=1)]
    d = len(piv)
    left = f.reduce(np.matmul(bases, alg.table.reshape(n, n * n))).reshape(len(bases), d, n, n)
    prods = f.reduce(np.matmul(bases[:, None], left))  # [g, x, y] = b_x b_y
    tables = prods[..., piv]  # the products' coordinates, where they lie in S
    closed = ~f.reduce(prods - np.matmul(tables, bases[:, None])).any(axis=(1, 2, 3))
    return bases[closed], tables[closed]
