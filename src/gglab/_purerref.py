"""Row-reduction kernels: the exact Gauss-Jordan eliminations of gglab.

``rref_mod`` reduces an int64 matrix mod p and ``rref_frac`` an object
matrix of rationals.  Each copies the matrix into Python lists of rows,
reduces those, stores the result back into the matrix and returns the
pivot columns; ``linalg.rref`` is their only caller.

``rref_mod_stack`` reduces a whole stack of equally shaped int64
matrices mod p at once, column by column in numpy.  It serves the
exhaustive subalgebra walk and the Theorem 3.9 double-centralizer sweep
of ``separability``, whose matrices are small but come by the hundreds.
It picks the same pivot rows as ``rref_mod``, so each matrix of the
stack ends in the same (unique) RREF.

``rref_frac`` keeps every entry in the canonical form of ``fields``: a
Python ``int`` when integral, else a ``Fraction``.  Integer rows are
therefore eliminated in int arithmetic, and only a pivot other than 1 or
-1 brings a division, through ``Fraction``, into a row.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import _canon


def rref_mod(mat: np.ndarray, p: int) -> list[int]:
    """Reduce ``mat`` (int64, entries in 0..p-1) to RREF in place, mod p."""
    m, n = mat.shape
    if m == 0 or n == 0:
        return []
    rows = mat.tolist()
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pr = -1
        for i in range(r, m):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [(a - f * b) % p for a, b in zip(ri, rr)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    mat[...] = rows
    return pivots


STACK_CELLS = 1 << 20  # int64 entries a stacked step handles at once (8 MB)


def _inv_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p elementwise: the inverse of each nonzero entry.

    Every factor is below p < 2^31, so each product fits in int64.
    """
    out = np.ones_like(x)
    base, e = x % p, p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def rref_mod_stack(mats: np.ndarray, p: int) -> np.ndarray:
    """Reduce each matrix of ``mats`` (int64, shape (s, m, n), entries in
    0..p-1) to RREF in place, mod p, and return the (s, n) boolean mask of
    pivot columns.

    Each matrix keeps its own current row, and its pivot in column c is
    its first nonzero entry at or below that row, as in ``rref_mod``.  The
    stack is reduced ``STACK_CELLS`` entries at a time.
    """
    s, m, n = mats.shape
    mask = np.zeros((s, n), dtype=bool)
    if m == 0 or n == 0:
        return mask
    step = max(1, STACK_CELLS // (m * n))
    for lo in range(0, s, step):
        _reduce_block(mats[lo : lo + step], mask[lo : lo + step], p)
    return mask


def _reduce_block(mats: np.ndarray, mask: np.ndarray, p: int) -> None:
    s, m, n = mats.shape
    rows = np.arange(m)
    row = np.zeros(s, dtype=np.int64)  # each matrix's next pivot row
    below = np.ones((s, m), dtype=bool)  # rows at or below it
    for c in range(n):
        cand = (mats[:, :, c] != 0) & below
        has = cand.any(axis=1)
        if not has.any():
            continue
        sel = np.flatnonzero(has)
        whole = len(sel) == s
        sub = mats if whole else mats[sel]
        at = np.arange(len(sel))
        r, pr = row[sel], cand[sel].argmax(axis=1)
        prow = sub[at, pr]
        sub[at, pr] = sub[at, r]
        prow = prow * _inv_mod(prow[:, c], p)[:, None] % p
        sub[at, r] = prow
        factor = sub[:, :, c].copy()
        factor[at, r] = 0
        sub -= factor[:, :, None] * prow[:, None, :]
        sub %= p
        if not whole:
            mats[sel] = sub
        mask[sel, c] = True
        row[sel] += 1
        below[sel] = rows >= row[sel, None]


def rref_frac(mat: np.ndarray) -> list[int]:
    """Reduce an object matrix of ints and Fractions to canonical RREF in place."""
    m, n = mat.shape
    if m == 0 or n == 0:
        return []
    rows = [[x if type(x) is int else _canon(x) for x in r] for r in mat.tolist()]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pr = -1
        for i in range(r, m):
            if rows[i][c] != 0:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv == -1:
            rows[r] = [-x for x in rows[r]]
        elif piv != 1:
            inv = 1 / Fraction(piv)
            rows[r] = [_canon(x * inv) for x in rows[r]]
        rr = rows[r]
        for i in range(m):
            f = rows[i][c]
            if i != r and f != 0:
                rows[i] = [_canon(a - f * b) if b else a for a, b in zip(rows[i], rr)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    mat[...] = rows
    return pivots
