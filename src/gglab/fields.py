"""Exact scalar fields: prime fields F_p and the rationals.

All arithmetic in the package is exact.  F_p elements are canonical
integers in 0..p-1 held in int64 numpy arrays.  Rational elements are
held in object arrays in one canonical form: a Python ``int`` when the
denominator is 1, else a ``fractions.Fraction``; never a float or a
numpy integer.  Python ints are exact bignums, so sums and products of
object arrays stay exact, and the only division, ``Field.inv``, goes
through ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class FieldError(ValueError):
    pass


def _canon(x):
    """The canonical rational: an int if integral, else a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return int(x.numerator) if x.denominator == 1 else x


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Field:
    """A prime field F_p (kind="Fp") or the rationals (kind="Q")."""

    kind: str
    p: int = 0

    def __post_init__(self):
        if self.kind == "Fp":
            # F_p elements are int64 and products of two must fit; the bound
            # also keeps trial division below 2^15.5 steps
            if self.p >= 2**31:
                raise FieldError(f"{self.p} is too large: F_p needs p < 2^31")
            if not _is_prime(self.p):
                raise FieldError(f"{self.p} is not prime")
        elif self.kind == "Q":
            if self.p:
                raise FieldError("rational field takes no modulus")
        else:
            raise FieldError(f"unknown field kind {self.kind!r}")

    @property
    def modular(self) -> bool:
        return self.kind == "Fp"

    @property
    def dtype(self):
        return np.int64 if self.modular else object

    # -- array constructors -------------------------------------------------

    def zeros(self, shape) -> np.ndarray:
        # an object array of zeros holds the Python int 0
        return np.zeros(shape, dtype=self.dtype)

    def eye(self, n: int) -> np.ndarray:
        m = self.zeros((n, n))
        for i in range(n):
            m[i, i] = self.one
        return m

    def array(self, rows) -> np.ndarray:
        if self.modular:
            return np.array(rows, dtype=np.int64) % self.p
        return np.array([[_canon(x) for x in r] for r in rows], dtype=object)

    def vector(self, entries) -> np.ndarray:
        if self.modular:
            return np.array(entries, dtype=np.int64) % self.p
        return np.array([_canon(x) for x in entries], dtype=object)

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        return arr % self.p if self.modular else arr

    # -- scalars -------------------------------------------------------------

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    # -- (de)serialization ----------------------------------------------------

    def parse_scalar(self, v):
        """Instance-file scalar: an int, or "a/b" for rationals."""
        if isinstance(v, str):
            if self.modular:
                raise FieldError(f"fraction string {v!r} in a prime-field instance")
            num, _, den = v.partition("/")
            try:
                return _canon(Fraction(int(num), int(den) if den else 1))
            except ZeroDivisionError:
                raise FieldError(f"bad scalar {v!r}") from None
        if isinstance(v, bool) or not isinstance(v, int):
            raise FieldError(f"bad scalar {v!r}")
        return v % self.p if self.modular else v

    def scalar_json(self, v):
        if self.modular:
            return int(v) % self.p
        v = _canon(v)
        return v if type(v) is int else f"{v.numerator}/{v.denominator}"

    def vector_json(self, vec) -> list:
        return [self.scalar_json(x) for x in vec]

    def matrix_json(self, mat) -> list:
        return [self.vector_json(r) for r in mat]

    def to_json(self) -> dict:
        return {"kind": "Fp", "p": self.p} if self.modular else {"kind": "Q"}

    @staticmethod
    def from_json(d: dict) -> "Field":
        kind = d.get("kind")
        if kind == "Fp":
            p = d.get("p")
            if isinstance(p, bool) or not isinstance(p, int):
                raise FieldError(f"modulus p must be a JSON integer, not {p!r}")
            return Field("Fp", p)
        if kind == "Q":
            if "p" in d:
                raise FieldError("rational field takes no modulus")
            return Field("Q")
        raise FieldError(f"unknown field kind {kind!r}")
