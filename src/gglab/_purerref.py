"""Row-reduction kernels: the exact eliminations of gglab.

``rref_mod`` reduces an int64 matrix mod p and ``rref_frac`` an object
matrix of rationals, Gauss-Jordan, to the canonical RREF.  Each copies
the matrix into Python lists of rows, reduces those, stores the result
back into the matrix and returns the pivot columns; ``linalg.rref`` is
their only caller.

``rank_mod_stack`` is the one stacked kernel: it computes only the rank
mod p of each matrix of a stack of equally shaped int64 matrices, column
by column in numpy.  It serves the exhaustive subalgebra walk and the
Theorem 3.9 double-centralizer sweep of ``separability``, whose matrices
are small but come by the hundreds, and which only count pivots.  So it
eliminates forward, fraction-free: no inverse, no normalised pivot row
and no back-substitution.  Each product it forms is of two entries in
0..p-1, below p^2 < 2^62 since p < 2^31 (``fields.Field``), so int64
never overflows: piv * row_i - f_i * row_pivot lies strictly between
-p^2 and p^2.  It holds the stack column-major, as (n, s, m): the column
a step reads and the columns after it that it updates are then each one
contiguous block, where the (s, m, n) layout made them strided slices of
every matrix.  With the last column's empty update skipped as well, 289
stacked 8 x 4 matrices over F_17 take 0.28 ms instead of 0.48 ms, and
307 stacked 2 x 2 matrices 0.059 ms instead of 0.077 ms (2-vCPU Xeon,
medians of 15 interleaved best-of-20 timings).

``stack_size`` and ``stacked`` are gglab's one stack budget: every
stacked step, of this kernel and of the load-time certification and the
subalgebra walk and sweep, takes its items in consecutive slices of at
most ``STACK_CELLS`` int64 entries (or multiply-adds) at once, or one
item per slice when an item alone is larger.

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


def stack_size(cells: int) -> int:
    """How many items of ``cells`` int64 entries (or multiply-adds) one
    stacked step holds: at most ``STACK_CELLS`` entries, and at least one item."""
    return max(1, STACK_CELLS // max(1, cells))


def stacked(count: int, cells: int, step_fn) -> np.ndarray:
    """step_fn(s) over consecutive slices s of range(count), each of
    ``stack_size(cells)`` items, concatenated; step_fn(slice(None)) when
    one slice covers them all."""
    step = stack_size(cells)
    if step >= count:
        return step_fn(slice(None))
    return np.concatenate([step_fn(slice(lo, lo + step)) for lo in range(0, count, step)])


def rank_mod_stack(mats: np.ndarray, p: int) -> np.ndarray:
    """The rank mod p of each matrix of ``mats`` (int64, shape (s, m, n),
    entries in 0..p-1), an int64 array of length s.  ``mats`` is not
    changed.

    In column c each matrix takes as pivot its first nonzero entry in a
    row that has not been a pivot row yet, and every other such row i
    becomes piv * row_i - f_i * row_pivot mod p, where f_i is its entry
    in column c.  Scaling a row by the unit piv keeps the row space, so
    each matrix keeps its rank, which is its number of pivot rows.  Only
    the columns after c are updated, since no later step reads column c,
    and none after the last column.

    Each slice of ``stack_size(m * n)`` matrices is copied column-major,
    as (n, s, m), so that column c of every matrix, and the columns after
    it, are contiguous blocks.
    """
    s, m, n = mats.shape
    if m == 0 or n == 0:
        return np.zeros(s, dtype=np.int64)

    def ranks(block: np.ndarray) -> np.ndarray:
        cols = block.transpose(2, 0, 1).copy()  # [c, g, i] = block[g, i, c]
        at = np.arange(len(block))
        free = np.ones(block.shape[:2], dtype=bool)  # rows not yet a pivot row
        for c in range(n):
            col = cols[c]
            cand = (col != 0) & free
            pr = cand.argmax(axis=1)
            has = cand[at, pr]
            if not has.any():
                continue
            free[at, pr] &= ~has
            if c + 1 == n:  # no column is left to update
                break
            cand[at, pr] = False
            piv = col[at, pr]
            piv[piv == 0] = 1  # a matrix without a pivot here is only scaled
            rest = cols[c + 1 :]
            prow = rest[:, at, pr]  # [c', g]: the pivot row's entries after c
            rest *= piv[:, None]
            rest -= (col * cand)[None] * prow[:, :, None]
            rest %= p
        return m - free.sum(axis=1)

    return stacked(s, m * n, lambda part: ranks(mats[part]))


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
