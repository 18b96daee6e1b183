"""Row-reduction kernels: the one exact Gaussian elimination in gglab.

``rref_mod`` reduces an int64 matrix mod p and ``rref_frac`` an object
matrix of Fractions.  Each copies the matrix into Python lists of rows,
reduces those, stores the result back into the matrix and returns the
pivot columns; ``linalg.rref`` is their only caller.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


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
    """Reduce an object matrix of Fractions to RREF in place."""
    m, n = mat.shape
    if m == 0 or n == 0:
        return []
    rows = [[Fraction(x) for x in r] for r in mat.tolist()]
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
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    mat[...] = rows
    return pivots
