"""Exact arithmetic substrate: prime-field scalars, dense GF(p) linear algebra,
and truncated multivariate polynomials with per-variable exponent caps.

Conventions used throughout the package:

* vectors over GF(p) are 1-d numpy int64 arrays with entries in [0, p);
* matrices are wrapped in :class:`FpMatrix`, which fixes a deterministic
  row-reduction (leftmost pivot column, smallest row index) so that kernel
  and subspace bases are reproducible;
* truncated polynomials store sparse coefficient dicts keyed by exponent
  tuples; any monomial with an exponent >= its cap is discarded, which is
  exactly reduction modulo the ideal (x_i^{cap_i}).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Iterable, Mapping, Sequence

import numpy as np

# Arbitrary-precision rationals.  The stdlib type already guarantees
# denominator > 0 and gcd(num, den) = 1, which is all we need.
BigRational = Fraction


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


def _check_prime(p: int) -> None:
    if not _is_prime(p):
        raise ExactKernelError(f"modulus {p} is not prime")


class FpScalar:
    """An element of the prime field GF(p).

    Bulk structures (vectors, matrices, polynomial coefficient dicts) store
    raw int residues for speed; this class is the element-level API with
    checked arithmetic.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        _check_prime(p)
        self.value = value % p
        self.p = p

    def _coerce(self, other) -> "FpScalar":
        if isinstance(other, FpScalar):
            if other.p != self.p:
                raise ExactKernelError("mixed moduli %d and %d" % (self.p, other.p))
            return other
        return FpScalar(int(other), self.p)

    def __add__(self, other):
        o = self._coerce(other)
        return FpScalar(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FpScalar(self.value - o.value, self.p)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return FpScalar(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return FpScalar(-self.value, self.p)

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        return FpScalar(pow(self.value, k, self.p), self.p)

    def inv(self) -> "FpScalar":
        if self.value == 0:
            raise ZeroDivisionError("0 has no inverse in GF(%d)" % self.p)
        return FpScalar(pow(self.value, -1, self.p), self.p)

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.p
        return isinstance(other, FpScalar) and self.p == other.p and self.value == other.value

    def __hash__(self):
        return hash((self.value, self.p))

    def __int__(self):
        return self.value

    def __repr__(self):
        return "FpScalar(%d, p=%d)" % (self.value, self.p)


# ---------------------------------------------------------------------------
# dense matrices over GF(p)
# ---------------------------------------------------------------------------


def _check_envelope(bound: int, what: str) -> None:
    """int64 arithmetic is exact only while every intermediate stays below
    2^63; bound is the largest one the caller can produce."""
    if bound >= 2 ** 63:
        raise ScopeError("%s = %d leaves the int64 envelope (< 2^63)" % (what, bound))


class FpMatrix:
    """Dense matrix over GF(p) with deterministic row reduction.

    Products need cols * (p-1)^2 < 2^63 and row reduction (p-1)^2 < 2^63;
    outside that envelope they raise ScopeError instead of wrapping."""

    __slots__ = ("a", "p")

    def __init__(self, entries, p: int):
        _check_prime(p)
        a = np.array(entries, dtype=np.int64)
        if a.ndim != 2:
            raise ExactKernelError("matrix entries must be 2-dimensional")
        self.a = a % p
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
        _check_envelope(self.cols * (self.p - 1) ** 2, "cols * (p-1)^2")
        if isinstance(other, FpMatrix):
            return FpMatrix(self.a @ other.a, self.p)
        v = np.asarray(other, dtype=np.int64)
        return (self.a @ v) % self.p

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
        with a nonzero entry; returns (matrix, pivot column list).
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
            nz = np.flatnonzero(m[r:, c])
            if not len(nz):
                continue
            sel = r + int(nz[0])
            if sel != r:
                m[[r, sel]] = m[[sel, r]]
            inv = pow(int(m[r, c]), -1, p)
            m[r] = (m[r] * inv) % p
            # the pivot row is fixed while its column is cleared, so one
            # update over all other nonzero rows equals the row-by-row loop
            rows = np.flatnonzero(m[:, c])
            rows = rows[rows != r]
            m[rows] = (m[rows] - np.outer(m[rows, c], m[r])) % p
            pivots.append(c)
            r += 1
        return FpMatrix(m, p), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> list[np.ndarray]:
        """Basis of the right nullspace, one vector per free column."""
        R, pivots = self.rref()
        nc = self.cols
        free = [c for c in range(nc) if c not in pivots]
        basis = []
        for f in free:
            v = np.zeros(nc, dtype=np.int64)
            v[f] = 1
            for i, c in enumerate(pivots):
                v[c] = (-R.a[i, f]) % self.p
            basis.append(v)
        return basis

    def solve(self, b) -> np.ndarray | None:
        """One solution of Ax = b, or None if inconsistent (deterministic:
        free variables are set to 0)."""
        b = np.asarray(b, dtype=np.int64) % self.p
        aug = FpMatrix(np.hstack([self.a, b.reshape(-1, 1)]), self.p)
        R, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = np.zeros(self.cols, dtype=np.int64)
        for i, c in enumerate(pivots):
            x[c] = R.a[i, -1]
        return x

    def inv(self) -> "FpMatrix":
        if self.rows != self.cols:
            raise ExactKernelError("only square matrices are invertible")
        n = self.rows
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
    vecs = [np.asarray(v, dtype=np.int64) % p for v in vectors]
    for v in vecs:
        if v.shape != (d,):
            raise ExactKernelError("vector of length %d in ambient dimension %d" % (len(v), d))
    if not vecs:
        return []
    R, pivots = FpMatrix(np.array(vecs), p).rref()
    return [R.a[i].copy() for i in range(len(pivots))]


def subspace_contains(basis: Sequence, v, p: int) -> bool:
    """Membership test by rank comparison."""
    v = np.asarray(v, dtype=np.int64) % p
    if not len(basis):
        return not v.any()
    M = FpMatrix(np.array(list(basis)), p)
    return FpMatrix(np.vstack([M.a, v]), p).rank() == M.rank()

def subspace_eq(b1: Sequence, b2: Sequence, d: int, p: int) -> bool:
    r1 = row_space_basis(b1, d, p)
    r2 = row_space_basis(b2, d, p)
    return len(r1) == len(r2) and all(np.array_equal(x, y) for x, y in zip(r1, r2))


def subspace_intersect(bases: Sequence[Sequence], d: int, p: int) -> list[np.ndarray]:
    """Basis of the intersection of the given subspaces of GF(p)^d.

    Pairwise: stack the two bases as columns [U | -W]; kernel vectors split
    as (a, b) with Ua = Wb, so Ua runs through the intersection.
    """
    _check_prime(p)
    cleaned = [row_space_basis(b, d, p) for b in bases]
    if not cleaned:
        raise ExactKernelError("need at least one subspace")
    cur = cleaned[0]
    for nxt in cleaned[1:]:
        if not cur or not nxt:
            cur = []
            break
        U = np.array(cur).T
        W = np.array(nxt).T
        M = FpMatrix(np.hstack([U, (-W) % p]), p)
        combos = M.kernel()
        vecs = [(U @ kv[: len(cur)]) % p for kv in combos]
        cur = row_space_basis(vecs, d, p)
    return cur


# ---------------------------------------------------------------------------
# truncated polynomials
# ---------------------------------------------------------------------------


def _norm_coeff(c, modulus):
    if modulus is None:
        return c if isinstance(c, Fraction) else Fraction(c)
    return int(c) % modulus


class TruncPoly:
    """Sparse polynomial in ``variables`` with per-variable exponent caps.

    ``coeffs`` maps exponent tuples to coefficients.  Over GF(p) pass
    ``modulus=p`` (coefficients stored as int residues); ``modulus=None``
    means BigRational coefficients.  Monomials at or above a cap are
    discarded on construction and during multiplication -- this implements
    the quotient by (x_i^{cap_i}).
    """

    __slots__ = ("variables", "caps", "coeffs", "modulus")

    def __init__(self, variables, caps, coeffs: Mapping | None = None, modulus: int | None = None):
        self.variables = tuple(variables)
        self.caps = tuple(int(c) for c in caps)
        if len(self.variables) != len(self.caps):
            raise ExactKernelError("caps and variables differ in length")
        if any(c < 1 for c in self.caps):
            raise ExactKernelError("caps must be >= 1")
        if modulus is not None:
            _check_prime(modulus)
        self.modulus = modulus
        clean = {}
        for e, c in (coeffs or {}).items():
            e = tuple(int(x) for x in e)
            if len(e) != len(self.caps):
                raise ExactKernelError("exponent arity mismatch")
            if any(x < 0 for x in e):
                raise ExactKernelError("negative exponent")
            if any(x >= cap for x, cap in zip(e, self.caps)):
                continue
            c = _norm_coeff(c, modulus)
            if c:
                clean[e] = c
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables, caps, modulus=None):
        return cls(variables, caps, {}, modulus)

    @classmethod
    def const(cls, variables, caps, value, modulus=None):
        z = tuple(0 for _ in variables)
        return cls(variables, caps, {z: value}, modulus)

    @classmethod
    def variable(cls, name, variables, caps, modulus=None):
        i = tuple(variables).index(name)
        e = tuple(1 if j == i else 0 for j in range(len(tuple(variables))))
        return cls(variables, caps, {e: 1}, modulus)

    # -- ring structure ----------------------------------------------------

    def _compat(self, other: "TruncPoly") -> None:
        if (
            self.variables != other.variables
            or self.caps != other.caps
            or self.modulus != other.modulus
        ):
            raise ExactKernelError("polynomials live in different truncated rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncPoly.const(self.variables, self.caps, other, self.modulus)
        self._compat(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return TruncPoly(self.variables, self.caps, out, self.modulus)

    __radd__ = __add__

    def __neg__(self):
        return TruncPoly(
            self.variables, self.caps, {e: -c for e, c in self.coeffs.items()}, self.modulus
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncPoly.const(self.variables, self.caps, other, self.modulus)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._compat(other)
        caps = self.caps
        out: dict = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                if any(x >= cap for x, cap in zip(e, caps)):
                    continue
                out[e] = out.get(e, 0) + ca * cb
        return TruncPoly(self.variables, caps, out, self.modulus)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        return TruncPoly(
            self.variables, self.caps, {e: v * c for e, v in self.coeffs.items()}, self.modulus
        )

    def __pow__(self, k: int):
        if k < 0:
            raise ExactKernelError("negative power of a truncated polynomial")
        res = TruncPoly.const(self.variables, self.caps, 1, self.modulus)
        base = self
        while k:
            if k & 1:
                res = res * base
            k >>= 1
            if k:
                base = base * base
        return res

    def __eq__(self, other):
        return (
            isinstance(other, TruncPoly)
            and self.variables == other.variables
            and self.caps == other.caps
            and self.modulus == other.modulus
            and self.coeffs == other.coeffs
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- inspection / conversion -------------------------------------------

    def coeff(self, e) -> int | Fraction:
        return self.coeffs.get(tuple(e), _norm_coeff(0, self.modulus))

    def degree(self) -> int:
        """Total degree (-1 for the zero polynomial)."""
        return max((sum(e) for e in self.coeffs), default=-1)

    def sorted_terms(self):
        """Terms in graded-lexicographic order of exponent vectors."""
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def reduce_mod(self, p: int) -> "TruncPoly":
        """Reduce BigRational coefficients mod p; every denominator must be
        prime to p (a non p-integral coefficient raises)."""
        if self.modulus is not None:
            raise ExactKernelError("polynomial is already modular")
        out = {}
        for e, c in self.coeffs.items():
            if c.denominator % p == 0:
                raise ExactKernelError("coefficient %s is not %d-integral" % (c, p))
            out[e] = c.numerator * pow(c.denominator, -1, p) % p
        return TruncPoly(self.variables, self.caps, out, p)

    def substitute(self, images: Mapping[str, "TruncPoly"]) -> "TruncPoly":
        """Substitute each variable by a polynomial (all images must live in
        one common ring); monomials are expanded with cached powers."""
        if not self.coeffs:
            tmpl = next(iter(images.values()))
            return TruncPoly.zero(tmpl.variables, tmpl.caps, tmpl.modulus)
        tmpl = next(iter(images.values()))
        pow_cache: dict[tuple[str, int], TruncPoly] = {}

        def power(name, k):
            key = (name, k)
            if key not in pow_cache:
                pow_cache[key] = images[name] ** k
            return pow_cache[key]

        acc = TruncPoly.zero(tmpl.variables, tmpl.caps, tmpl.modulus)
        for e, c in self.coeffs.items():
            term = TruncPoly.const(tmpl.variables, tmpl.caps, c, tmpl.modulus)
            for name, k in zip(self.variables, e):
                if k:
                    term = term * power(name, k)
            acc = acc + term
        return acc

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                ("%s" % v if k == 1 else "%s^%d" % (v, k))
                for v, k in zip(self.variables, e)
                if k
            )
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            else:
                bits.append("%s*%s" % (c, mono))
        return " + ".join(bits)

    def __repr__(self):
        return "TruncPoly(%s)" % self


def poly_mul_trunc(a: TruncPoly, b: TruncPoly) -> TruncPoly:
    """Product in the shared truncated ring (caps discard overflow monomials)."""
    return a * b
