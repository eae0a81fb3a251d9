"""Exact arithmetic substrate: dense GF(p) linear algebra and subspaces,
the package's error types, and the primality and int64-envelope checks.

Conventions used throughout the package:

* vectors over GF(p) are 1-d numpy int64 arrays with entries in [0, p);
* :func:`fp_matmul` is the one product of such arrays: it refuses an inner
  dimension k with k (p-1)^2 >= 2^63 and reduces the product mod p;
* matrices are wrapped in :class:`FpMatrix`, whose row reduction is
  deterministic (leftmost pivot column, smallest row index), so kernel and
  subspace bases are reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Iterable, Sequence

import numpy as np


class ExactKernelError(ValueError):
    """Raised on malformed inputs (dimension mismatches, bad moduli, ...)."""


class BudgetError(ExactKernelError):
    """A computation would exceed the configured size budget."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


class ScopeError(ExactKernelError):
    """The request falls outside the modeled scope (e.g. non-abelian Sylow)."""


@lru_cache(maxsize=256)
def _is_prime(p: int) -> bool:
    """Trial division; memoized, since every matrix and algebra checks its
    modulus and a large prime costs milliseconds."""
    return p >= 2 and not any(p % d == 0 for d in range(2, isqrt(p) + 1))


def _is_p_power(n: int, p: int) -> bool:
    """Is n = p^k for some k >= 0?"""
    while n > 1 and n % p == 0:
        n //= p
    return n == 1


def _check_prime(p: int) -> None:
    if not _is_prime(p):
        raise ExactKernelError(f"modulus {p} is not prime")


# ---------------------------------------------------------------------------
# dense matrices over GF(p)
# ---------------------------------------------------------------------------


def _check_envelope(bound: int, what: str) -> None:
    """int64 arithmetic is exact only while every intermediate stays below
    2^63; bound is the largest one the caller can produce."""
    if bound >= 2 ** 63:
        raise ScopeError("%s = %d leaves the int64 envelope (< 2^63)" % (what, bound))


def reduce_mod(a, p: int) -> np.ndarray:
    """The int64 array a reduced into [0, p), as a - (a // p) p: numpy's
    floor division by a scalar takes a fast path that % does not, and the
    result equals a % p for every int64 entry (any wrap in (a // p) p
    cancels in the difference, which lies in [0, p))."""
    a = np.asarray(a, dtype=np.int64)
    return a - a // p * p


def fp_matmul(a: np.ndarray, b: np.ndarray, p: int):
    """a @ b mod p for int64 arrays with entries in [0, p), 1-d or 2-d: the
    package's one product over GF(p).  Each output entry sums k products
    below (p-1)^2 for the inner dimension k, so k (p-1)^2 < 2^63 is checked
    first; outside that envelope it raises ScopeError instead of wrapping."""
    _check_envelope(a.shape[-1] * (p - 1) ** 2, "k * (p-1)^2")
    c = a @ b
    c %= p
    return c


class FpMatrix:
    """Dense matrix over GF(p) with deterministic row reduction.

    Products are fp_matmul's; row reduction needs (p-1)^2 < 2^63 and raises
    ScopeError outside that envelope instead of wrapping."""

    __slots__ = ("a", "p")

    def __init__(self, entries, p: int):
        _check_prime(p)
        self.a = reduce_mod(entries, p)  # a new array, never the caller's
        if self.a.ndim != 2:
            raise ExactKernelError("matrix entries must be 2-dimensional")
        self.p = p

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "FpMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), p)

    @classmethod
    def identity(cls, n: int, p: int) -> "FpMatrix":
        return cls(np.eye(n, dtype=np.int64), p)

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def _like(self, other) -> "FpMatrix":
        if not isinstance(other, FpMatrix) or other.p != self.p:
            raise ExactKernelError("matrix operands must share the modulus")
        return other

    def __add__(self, other):
        o = self._like(other)
        return FpMatrix(self.a + o.a, self.p)

    def __sub__(self, other):
        o = self._like(other)
        return FpMatrix(self.a - o.a, self.p)

    def __neg__(self):
        return FpMatrix(-self.a, self.p)

    def __matmul__(self, other):
        if isinstance(other, FpMatrix):
            return FpMatrix(fp_matmul(self.a, other.a, self.p), self.p)
        return fp_matmul(self.a, np.asarray(other, dtype=np.int64), self.p)

    def scale(self, c: int) -> "FpMatrix":
        return FpMatrix(self.a * (c % self.p), self.p)

    def __eq__(self, other):
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def is_zero(self) -> bool:
        return not self.a.any()

    def copy(self) -> "FpMatrix":
        return FpMatrix(self.a.copy(), self.p)

    def rref(self):
        """Reduced row echelon form.

        Pivots walk columns left to right, choosing the smallest row index
        with a nonzero entry; returns (matrix, pivot column list).  Each
        pivot is one update of columns c onward (the pivot row is 0 left of c).
        """
        p = self.p
        _check_envelope((p - 1) ** 2, "(p-1)^2")
        m = self.a.copy()
        nr, nc = m.shape
        pivots = []
        r = 0
        for c in range(nc):
            if r >= nr:
                break
            nz = m[r:, c].nonzero()[0]
            if not len(nz):
                continue
            sel = r + int(nz[0])
            if sel != r:
                m[[r, sel], c:] = m[[sel, r], c:]
            if m[r, c] != 1:
                m[r, c:] = m[r, c:] * pow(int(m[r, c]), -1, p) % p
            rows = m[:, c].nonzero()[0]
            if len(rows) > 1:
                # clear column c in every nonzero row at once, then restore the pivot row
                row = m[r, c:].copy()
                m[rows, c:] = reduce_mod(m[rows, c:] - m[rows, c, None] * row, p)
                m[r, c:] = row
            pivots.append(c)
            r += 1
        return FpMatrix(m, p), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> list[np.ndarray]:
        """Right nullspace basis: per free column f, 1 at f and -R[i, f] at pivot c_i."""
        R, pivots = self.rref()
        free = np.delete(np.arange(self.cols), pivots)
        K = np.zeros((len(free), self.cols), dtype=np.int64)
        K[np.arange(len(free)), free] = 1
        K[:, pivots] = -R.a[:len(pivots), free].T % self.p
        return list(K)

    def solve(self, b) -> np.ndarray | None:
        """One solution of Ax = b, or None if inconsistent (deterministic:
        free variables are set to 0)."""
        b = np.asarray(b, dtype=np.int64) % self.p
        aug = FpMatrix(np.hstack([self.a, b.reshape(-1, 1)]), self.p)
        R, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = np.zeros(self.cols, dtype=np.int64)
        x[pivots] = R.a[:len(pivots), -1]
        return x

    def inv(self) -> "FpMatrix":
        """The inverse.  A monomial matrix, with one nonzero entry d_i =
        M[i, s(i)] in each row and column, is D P with P a permutation and
        inverts as P^T D^{-1}: entry (s(i), i) is 1/d_i.  Every other matrix
        is inverted by row reduction of [M | I]."""
        if self.rows != self.cols:
            raise ExactKernelError("only square matrices are invertible")
        n = self.rows
        rows, cols = np.nonzero(self.a)
        if np.array_equal(rows, np.arange(n)) and self.a.any(axis=0).all():  # one per row, every column
            out = np.zeros((n, n), dtype=np.int64)
            out[cols, rows] = [pow(d, -1, self.p) for d in self.a[rows, cols].tolist()]
            return FpMatrix(out, self.p)
        aug = FpMatrix(np.hstack([self.a, np.eye(n, dtype=np.int64)]), self.p)
        R, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ExactKernelError("matrix is singular")
        return FpMatrix(R.a[:, n:], self.p)

    def __repr__(self):
        return "FpMatrix(p=%d,\n%s)" % (self.p, self.a)


def mat_kernel(M: FpMatrix) -> list[np.ndarray]:
    """Basis of {v : Mv = 0}; empty list for an injective map."""
    return M.kernel()


# ---------------------------------------------------------------------------
# subspaces of GF(p)^d, represented by lists of vectors
# ---------------------------------------------------------------------------


def row_space_basis(vectors: Iterable, d: int, p: int) -> list[np.ndarray]:
    """Canonical (RREF) basis of the span of the given vectors in GF(p)^d."""
    vecs = [np.asarray(v, dtype=np.int64) for v in vectors]  # FpMatrix reduces mod p
    for v in vecs:
        if v.shape != (d,):
            raise ExactKernelError("vector of length %d in ambient dimension %d" % (len(v), d))
    if not vecs:
        return []
    R, pivots = FpMatrix(np.array(vecs), p).rref()
    return [R.a[i].copy() for i in range(len(pivots))]


def subspace_contains(basis: Sequence, v, p: int) -> bool:
    """Membership test with one row reduction: reduce the basis and clear v
    at every pivot at once, v - v[pivots] R, as RREF rows are the identity
    at their pivots (each term reduced before the sum: the rref envelope)."""
    v = np.asarray(v, dtype=np.int64) % p
    if not len(basis):
        return not v.any()
    R, pivots = FpMatrix(np.array(list(basis)), p).rref()
    if v.shape != (R.cols,):
        raise ExactKernelError("vector of shape %r in ambient dimension %d" % (v.shape, R.cols))
    terms = v[pivots, None] * R.a[:len(pivots)] % p
    return not ((v - terms.sum(axis=0)) % p).any()


def subspace_eq(b1: Sequence, b2: Sequence, d: int, p: int) -> bool:
    r1 = row_space_basis(b1, d, p)
    r2 = row_space_basis(b2, d, p)
    return len(r1) == len(r2) and all(np.array_equal(x, y) for x, y in zip(r1, r2))
