"""Exact arithmetic substrate: dense GF(p) linear algebra and subspaces,
the package's error types, the primality and int64-envelope checks, and
the one memo behind every cache shared across calls.

Conventions used throughout the package:

* vectors and matrices over GF(p) are 1-d and 2-d numpy int64 arrays with
  entries in [0, p), wherever they cross a function boundary;
* :func:`fp_matmul` is the one product of such arrays: it refuses an inner
  dimension k with k (p-1)^2 >= 2^63 and reduces the product mod p;
* :class:`FpMatrix` wraps an array only to row-reduce it: rref, rank,
  kernel, solve and inv, all returning arrays.  Its row reduction is
  deterministic (leftmost pivot column, smallest row index), so kernel and
  subspace bases are reproducible;
* :func:`memo` is the one cache shared across calls, behind one lock.
"""

from __future__ import annotations

import threading
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


_memo_lock = threading.RLock()


def memo(cache: dict, key, build, *args):
    """cache[key], stored as build(*args) on a miss.  A hit is one dict read
    with no lock; a miss takes the package's one reentrant lock and reads
    again before it builds, so each value is built once under threads and a
    build may read other memos.  build never returns None (a miss)."""
    out = cache.get(key)
    if out is None:
        with _memo_lock:
            out = cache.get(key)
            if out is None:
                out = cache[key] = build(*args)
    return out


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
    """A matrix over GF(p), wrapped only to row-reduce it.

    Row reduction is deterministic (leftmost pivot column, smallest row
    index), needs (p-1)^2 < 2^63 and raises ScopeError outside that envelope
    instead of wrapping.  Everything it returns is a plain int64 array."""

    __slots__ = ("a", "p")

    def __init__(self, entries, p: int):
        _check_prime(p)
        self.a = reduce_mod(entries, p)  # a new array, never the caller's
        if self.a.ndim != 2:
            raise ExactKernelError("matrix entries must be 2-dimensional")
        self.p = p

    def rref(self) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form.

        Pivots walk columns left to right, choosing the smallest row index
        with a nonzero entry; returns (array, pivot column list).  Each
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
        return m, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> list[np.ndarray]:
        """Right nullspace basis, empty for an injective map: per free column
        f, 1 at f and -R[i, f] at pivot c_i."""
        R, pivots = self.rref()
        cols = self.a.shape[1]
        free = np.delete(np.arange(cols), pivots)
        K = np.zeros((len(free), cols), dtype=np.int64)
        K[np.arange(len(free)), free] = 1
        K[:, pivots] = -R[:len(pivots), free].T % self.p
        return list(K)

    def solve(self, b) -> np.ndarray | None:
        """One solution of Ax = b, or None if inconsistent (deterministic:
        free variables are set to 0)."""
        b = np.asarray(b, dtype=np.int64) % self.p
        R, pivots = FpMatrix(np.hstack([self.a, b.reshape(-1, 1)]), self.p).rref()
        cols = self.a.shape[1]
        if cols in pivots:
            return None
        x = np.zeros(cols, dtype=np.int64)
        x[pivots] = R[:len(pivots), -1]
        return x

    def inv(self) -> np.ndarray:
        """The inverse.  A monomial matrix, with one nonzero entry d_i =
        M[i, s(i)] in each row and column, is D P with P a permutation and
        inverts as P^T D^{-1}: entry (s(i), i) is 1/d_i.  Every other matrix
        is inverted by row reduction of [M | I]; a singular one raises."""
        n = len(self.a)
        if self.a.shape != (n, n):
            raise ExactKernelError("only square matrices are invertible")
        rows, cols = np.nonzero(self.a)
        if np.array_equal(rows, np.arange(n)) and self.a.any(axis=0).all():  # one per row, every column
            out = np.zeros((n, n), dtype=np.int64)
            out[cols, rows] = [pow(d, -1, self.p) for d in self.a[rows, cols].tolist()]
            return out
        R, pivots = FpMatrix(np.hstack([self.a, np.eye(n, dtype=np.int64)]), self.p).rref()
        if pivots != list(range(n)):
            raise ExactKernelError("matrix is singular")
        return R[:, n:].copy()

    def __repr__(self):
        return "FpMatrix(p=%d,\n%s)" % (self.p, self.a)


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
    return [R[i].copy() for i in range(len(pivots))]


def subspace_contains(basis: Sequence, v, p: int) -> bool:
    """Membership test with one row reduction: reduce the basis and clear v
    at every pivot at once, v - v[pivots] R, as RREF rows are the identity
    at their pivots (each term reduced before the sum: the rref envelope)."""
    v = np.asarray(v, dtype=np.int64) % p
    if not len(basis):
        return not v.any()
    R, pivots = FpMatrix(np.array(list(basis)), p).rref()
    if v.shape != R.shape[1:]:
        raise ExactKernelError("vector of shape %r in ambient dimension %d" % (v.shape, R.shape[1]))
    terms = v[pivots, None] * R[:len(pivots)] % p
    return not ((v - terms.sum(axis=0)) % p).any()


def subspace_eq(b1: Sequence, b2: Sequence, d: int, p: int) -> bool:
    r1 = row_space_basis(b1, d, p)
    r2 = row_space_basis(b2, d, p)
    return len(r1) == len(r2) and all(np.array_equal(x, y) for x, y in zip(r1, r2))
