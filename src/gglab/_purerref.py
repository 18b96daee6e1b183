"""Row-reduction kernels: the one exact Gaussian elimination in gglab.

``rref_mod`` reduces an int64 matrix mod p and ``rref_frac`` an object
matrix of rationals.  Each copies the matrix into Python lists of rows,
reduces those, stores the result back into the matrix and returns the
pivot columns; ``linalg.rref`` is their only caller.

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
