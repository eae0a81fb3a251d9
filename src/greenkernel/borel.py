"""Finite-dimensional local augmented commutative GF(p)-algebras in Borel
form k[x_1..x_l]/(x_i^{q_i}), their subalgebras, and linear/algebra maps.

The monomial basis is ordered graded-lexicographically on exponent vectors,
so index 0 is the constant monomial (augmentation = coefficient 0) and the
last index is the top monomial x_1^{q_1-1}...x_l^{q_l-1}.  An element
prints its nonzero coordinates in that order through format_terms, the one
monomial formatter of the package.

Element vectors are numpy int64 coordinate arrays.  Every product comes
from one mixed-radix Kronecker encoding of the monomials, enc[i] =
sum_k e_k w_k with radix 2 q_k - 1 for variable k: a product of monomials is
the sum of their codes with no carry between digits, and the code sum is a
basis code exactly when no exponent reaches its cap.  outer_products
multiplies two big integers with one slot per code to form every product of
two stacks of vectors, each pair in its own block of slots; mul_vec is its
one-by-one case.  mult_matrix and pairing_matrix gather from a vector
scattered to the codes, and sum_of_products is the matching scatter-add.  The Frobenius u -> u^p is one
index scatter from code e to code p e, so an algebra map checks each
relation img^q = 0 with no product and builds each power table img^k by
p-adic rounds, img^{pk+j} = Frob(img^k) img^j.  The socle of
k[x_i]/(x_i^{q_i}) is its top monomial, read off the basis with no kernel.

A Subalgebra works in the coordinates of its RREF basis b_0, ..., b_{k-1}.
It contains 1 = e_0, so b_0 = 1 and every other b_i is 0 at index 0.  Both
kinds of algebra thus share one convention: coordinate 0 is the unit and
the augmentation, and the maximal ideal m is spanned by the other
coordinates.

The arithmetic envelope is dim * (p-1)^2 < 2^63, the bound on any product
coefficient before reduction; BorelAlgebra refuses anything larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exactkernel import (
    ExactKernelError,
    FpMatrix,
    _check_envelope,
    _check_prime,
    _is_p_power,
    fp_matmul,
    reduce_mod,
    row_space_basis,
)


class El:
    """An element of a local algebra, as a coordinate vector over its basis."""

    __slots__ = ("algebra", "vec")

    def __init__(self, algebra, vec):
        self.algebra = algebra
        self.vec = np.asarray(vec, dtype=np.int64) % algebra.p
        if self.vec.shape != (algebra.dim,):
            raise ExactKernelError("coordinate vector has wrong length")

    def _coerce(self, other) -> "El":
        if isinstance(other, El):
            if other.algebra != self.algebra:
                raise ExactKernelError("elements of different algebras")
            return other
        return El(self.algebra, self.algebra.one_vec() * (int(other) % self.algebra.p))

    def __add__(self, other):
        o = self._coerce(other)
        return El(self.algebra, self.vec + o.vec)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return El(self.algebra, self.vec - o.vec)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return El(self.algebra, -self.vec)

    def __mul__(self, other):
        if isinstance(other, El):
            if other.algebra != self.algebra:
                raise ExactKernelError("elements of different algebras")
            return El(self.algebra, self.algebra.mul_vec(self.vec, other.vec))
        return El(self.algebra, self.vec * (int(other) % self.algebra.p))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        res = self.algebra.one()
        base = self
        while k:
            if k & 1:
                res = res * base
            k >>= 1
            if k:
                base = base * base
        return res

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._coerce(other)
        return (
            isinstance(other, El)
            and other.algebra == self.algebra
            and bool(np.array_equal(self.vec, other.vec))
        )

    def is_zero(self) -> bool:
        return not self.vec.any()

    def aug(self) -> int:
        return self.algebra.aug_vec(self.vec)

    def is_unit(self) -> bool:
        return self.aug() != 0

    def inv(self) -> "El":
        """Inverse via geometric series on the nilpotent part:
        (c(1 + z))^{-1} = c^{-1}(1 - z + z^2 - ...)."""
        a = self.algebra
        c = self.aug()
        if c == 0:
            raise ExactKernelError("element is nilpotent, not invertible")
        cinv = pow(c, -1, a.p)
        z = El(a, (self.vec * cinv) % a.p) - a.one()
        acc = a.one()
        term = a.one()
        sign = -1
        while True:
            term = term * z
            if term.is_zero():
                break
            acc = acc + term * sign
            sign = -sign
        return acc * cinv

    def __repr__(self):
        """The nonzero terms in basis (graded-lex) order; a Subalgebra
        element prints its ambient image."""
        a, vec = self.algebra, self.vec
        while isinstance(a, Subalgebra):
            a, vec = a.ambient, a.from_sub(vec)
        return format_terms(a.var_names, ((a.basis[i], int(vec[i])) for i in np.flatnonzero(vec)))


def mono_str(names, e) -> str:
    """The monomial with exponents e as 'x*y^2' ('' for the constant)."""
    return "*".join(v if k == 1 else "%s^%d" % (v, k) for v, k in zip(names, e) if k)


def format_terms(names, terms) -> str:
    """(exponents, coefficient) pairs as '2 + x*y + 3*x^2', in the order
    given; '0' when there are none."""
    bits = []
    for e, c in terms:
        mono = mono_str(names, e)
        bits.append(str(c) if not mono else mono if c == 1 else "%s*%s" % (c, mono))
    return " + ".join(bits) or "0"


def _read_only(vecs) -> tuple[np.ndarray, ...]:
    """The arrays, frozen against writes, for invariants kept on an algebra."""
    for v in vecs:
        v.flags.writeable = False
    return tuple(vecs)


def _read_only_pairs(pairs) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The (vector, matrix) pairs, each array frozen against writes."""
    return tuple(_read_only(pair) for pair in pairs)


class _LocalAlgebraOps:
    """Shared derived operations on coordinates where index 0 is the unit and
    the augmentation, and the maximal ideal m is every other coordinate.

    Concrete classes provide p, dim, mul_vec, mult_matrix, pairing_matrix,
    the socle basis _socle, and ideal_generators: pairs (g, M(g)) of lifts g
    of a basis of m/m^2 and their multiplication matrices.  By Nakayama's
    lemma the g generate m as an ideal and the algebra as an algebra, so
    identities that are linear in one factor and multiplicative are decided
    on them."""

    @cached_property
    def _one(self) -> np.ndarray:
        return _read_only([np.eye(1, self.dim, dtype=np.int64)[0]])[0]

    def one_vec(self) -> np.ndarray:
        """The unit e_0; one read-only array per algebra."""
        return self._one

    def aug_vec(self, vec) -> int:
        return int(vec[0])

    @cached_property
    def _radical(self) -> tuple[np.ndarray, ...]:
        return _read_only(list(np.eye(self.dim, dtype=np.int64)[1:]))

    def radical_span_vecs(self) -> list[np.ndarray]:
        """RREF basis of the maximal ideal, e_1, ..., e_{dim-1}; computed
        once, read-only."""
        return list(self._radical)

    def one(self) -> El:
        return El(self, self.one_vec())

    def zero(self) -> El:
        return El(self, np.zeros(self.dim, dtype=np.int64))

    def element(self, vec) -> El:
        return El(self, vec)

    def scalar(self, c: int) -> El:
        return El(self, self.one_vec() * (int(c) % self.p))

    def basis_elements(self) -> list[El]:
        return [El(self, v) for v in np.eye(self.dim, dtype=np.int64)]

    def socle_vecs(self) -> list[np.ndarray]:
        """Basis of the annihilator of the maximal ideal (the concrete
        class's _socle).  Computed once per algebra; the vectors are
        read-only."""
        return list(self._socle)

    def socle_basis(self) -> list[El]:
        return [El(self, v) for v in self.socle_vecs()]

    def nilpotency_exponent(self) -> int:
        """Least e with m^e = 0: m^{e+1} = m^e m is spanned by the products
        of a basis of m^e with the ideal generators (m^e is an ideal)."""
        span = self.radical_span_vecs()
        gens = np.array([g for g, _ in self.ideal_generators])
        e = 1
        while span:
            span = row_space_basis(self.outer_products(np.array(span), gens).reshape(-1, self.dim),
                                   self.dim, self.p)
            e += 1
            if e > self.dim + 1:
                raise ExactKernelError("radical fails to be nilpotent")
        return e


@dataclass(frozen=True)
class TensorProduct:
    """Result of a Kuenneth tensor A (x) B: the product algebra and the
    (i, j) -> basis-index table used by coproducts."""

    algebra: "BorelAlgebra"
    left: "BorelAlgebra"
    right: "BorelAlgebra"
    pair_index: np.ndarray


class BorelAlgebra(_LocalAlgebraOps):
    """k[x_1..x_l]/(x_1^{q_1},..,x_l^{q_l}) over GF(p) on the monomial basis."""

    def __init__(self, p: int, profile, var_names=None):
        _check_prime(p)
        profile = tuple(int(q) for q in profile)
        for q in profile:
            if q < p or not _is_p_power(q, p):
                raise ExactKernelError("profile entry %d is not a positive power of %d" % (q, p))
        self.p = p
        self.profile = profile
        self.nvars = len(profile)
        if var_names is None:
            var_names = tuple("x%d" % (i + 1) for i in range(self.nvars)) if self.nvars != 1 else ("x",)
        self.var_names = tuple(var_names)
        if len(self.var_names) != self.nvars:
            raise ExactKernelError("need one variable name per profile entry")
        dim = 1
        for q in profile:
            dim *= q
        self.dim = dim
        bound = dim * (p - 1) ** 2  # largest product coefficient before reduction
        _check_envelope(bound, "dim * (p-1)^2")
        exps = [()]
        for q in profile:
            exps = [e + (k,) for e in exps for k in range(q)]
        exps.sort(key=lambda e: (sum(e), e))
        self.basis: list[tuple] = exps
        self.index: dict[tuple, int] = {e: i for i, e in enumerate(exps)}
        # mixed-radix Kronecker codes, radix 2q-1 per variable (see module doc)
        weights = np.cumprod([1] + [2 * q - 1 for q in profile])
        self.enc = _read_only([np.array(exps, dtype=np.int64).reshape(dim, -1) @ weights[:-1]])[0]
        self._ncodes = int(weights[-1])
        self._slot = next(np.dtype("<u%d" % b) for b in (1, 2, 4, 8) if bound < 256 ** b)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, BorelAlgebra)
            and self.p == other.p
            and self.profile == other.profile
            and self.var_names == other.var_names
        )

    def __hash__(self):
        return hash((self.p, self.profile, self.var_names))

    def __repr__(self):
        if not self.profile:
            return "BorelAlgebra(F_%d)" % self.p
        rel = ", ".join("%s^%d" % (v, q) for v, q in zip(self.var_names, self.profile))
        return "BorelAlgebra(F_%d[%s]/(%s))" % (self.p, ", ".join(self.var_names), rel)

    # -- primitive operations -----------------------------------------------

    def _scatter(self, vec, dtype=np.int64) -> np.ndarray:
        """vec, or each row of a stack of them, reduced mod p and placed at
        the codes; other positions hold 0."""
        vec = np.asarray(vec, dtype=np.int64)
        out = np.zeros(vec.shape[:-1] + (self._ncodes,), dtype=dtype)
        out[..., self.enc] = vec % self.p
        return out

    def outer_products(self, U, V) -> np.ndarray:
        """Every product U[i] V[j], as an (m, n, dim) array, from one
        big-integer product (Kronecker substitution): U[i] sits at slot i S
        and V[j] at slot j m S, with S = _ncodes and m = len(U).  Every code
        sum is below S, so U[i] V[j] fills block i + j m alone, and each of
        its slots sums at most dim products below (p-1)^2, which the slot
        width holds: nothing wraps or carries."""
        (m, _), (n, _), S = np.shape(U), np.shape(V), self._ncodes
        if not (m and n):
            return np.zeros((m, n, self.dim), dtype=np.int64)
        Vs = np.zeros(((n - 1) * m + 1) * S, dtype=self._slot)
        Vs[np.arange(n)[:, None] * (m * S) + self.enc] = np.asarray(V, dtype=np.int64) % self.p
        a, b = (int.from_bytes(x.tobytes(), "little") for x in (self._scatter(U, self._slot), Vs))
        c = np.frombuffer((a * b).to_bytes(m * n * S * self._slot.itemsize, "little"),
                          dtype=self._slot)
        return (c.reshape(n, m, S).transpose(1, 0, 2)[..., self.enc] % self.p).astype(np.int64)

    def mul_vec(self, u, v) -> np.ndarray:
        """The product uv: outer_products of one row by one row."""
        return self.outer_products(np.reshape(u, (1, -1)), np.reshape(v, (1, -1)))[0, 0]

    @cached_property
    def _frob(self) -> tuple[np.ndarray, np.ndarray]:
        """Basis indices of the monomials e with every p e_i < q_i, and the
        indices of x^{pe}: code(pe) = p enc(e) has no digit overflow there."""
        E = np.array(self.basis, dtype=np.int64).reshape(self.dim, -1)
        keep = np.flatnonzero((self.p * E < np.array(self.profile, dtype=np.int64)).all(axis=1))
        pos = np.zeros(self._ncodes, dtype=np.int64)
        pos[self.enc] = np.arange(self.dim)
        return keep, pos[self.p * self.enc[keep]]

    def frobenius(self, vec) -> np.ndarray:
        """vec^p, or that of each row of a stack, by one index scatter: over
        GF(p), (sum c_e x^e)^p is sum c_e x^{pe}, and x^{pe} = 0 unless
        every p e_i < q_i."""
        src, dst = self._frob
        vec = np.asarray(vec, dtype=np.int64)
        out = np.zeros(vec.shape, dtype=np.int64)
        out[..., dst] = vec[..., src] % self.p
        return out

    def mult_matrix(self, vec) -> np.ndarray:
        """Matrix of left multiplication by vec: entry (k, j) is the
        coefficient of vec at code enc[k] - enc[j], read modulo _ncodes (numpy
        wraps negative indices).  When e_j does not divide e_k the difference
        has a negative digit d; the lowest one reads as 2q-1+d >= q, so the
        position is padding and holds 0."""
        U = self._scatter(vec)
        return U[self.enc[:, None] - self.enc[None, :]]

    def pairing_matrix(self, lam) -> np.ndarray:
        """G[i, j] = lam(e_i e_j): lam read at the code sum enc[i] + enc[j]."""
        L = self._scatter(lam)
        return L[self.enc[:, None] + self.enc[None, :]]

    def sum_of_products(self, C) -> np.ndarray:
        """sum_{i, j} C[i, j] e_i e_j, the adjoint of pairing_matrix's gather:
        C scatter-added at the code sums enc[i] + enc[j] and read back at the
        codes (each code gets at most dim terms below p, inside the envelope)."""
        acc = np.zeros(self._ncodes, dtype=np.int64)
        np.add.at(acc, self.enc[:, None] + self.enc[None, :], np.asarray(C, dtype=np.int64) % self.p)
        return acc[self.enc] % self.p

    @cached_property
    def _socle(self) -> tuple[np.ndarray, ...]:
        """The top monomial, in closed form: x^e x_i = 0 for every i exactly
        when every e_i = q_i - 1 (the unit when there are no variables)."""
        return _read_only([np.eye(1, self.dim, self.dim - 1, dtype=np.int64)[0]])

    @cached_property
    def ideal_generators(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The variables x_i, in order, with their multiplication matrices;
        computed once, read-only."""
        gens = (self.gen(i).vec for i in range(self.nvars))
        return _read_only_pairs((g, self.mult_matrix(g)) for g in gens)

    # -- convenience ---------------------------------------------------------

    def gen(self, i: int = 0) -> El:
        e = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self.monomial(e)

    def gens(self) -> list[El]:
        return [self.gen(i) for i in range(self.nvars)]

    def monomial(self, e) -> El:
        v = np.zeros(self.dim, dtype=np.int64)
        v[self.index[tuple(e)]] = 1
        return El(self, v)

    def top_monomial(self) -> El:
        return El(self, self._socle[0])

    def to_json(self) -> dict:
        return {"p": self.p, "profile": list(self.profile), "vars": list(self.var_names)}


def make_algebra(p: int, profile, var_names=None) -> BorelAlgebra:
    """The Borel algebra with the given p-power profile."""
    return BorelAlgebra(p, profile, var_names)


def tensor(A: BorelAlgebra, B: BorelAlgebra) -> TensorProduct:
    """Kuenneth tensor product with its pair index.

    The result has the concatenated profile; variable names are suffixed
    where they would collide.
    """
    if A.p != B.p:
        raise ExactKernelError("tensor factors over different primes")
    names = list(A.var_names) + list(B.var_names)
    if len(set(names)) != len(names):
        names = ["%sL" % v for v in A.var_names] + ["%sR" % v for v in B.var_names]
    C = BorelAlgebra(A.p, A.profile + B.profile, tuple(names))
    # C's radices are A's followed by B's, so a (x) b has code
    # enc_A(a) + ncodes_A * enc_B(b); invert C.enc on the code range
    pos = np.zeros(C._ncodes, dtype=np.int64)
    pos[C.enc] = np.arange(C.dim)
    pair = pos[A.enc[:, None] + A._ncodes * B.enc[None, :]]
    return TensorProduct(C, A, B, pair)


def _intertwines(X, pairs, p: int) -> bool:
    """X . M_s = M_t . X for every pair (M_s, M_t) of multiplication
    matrices: the linear map X turns multiplication by s into
    multiplication by t.  pairs may be lazy; the first failure stops it."""
    return all(np.array_equal(fp_matmul(X, Ms, p), fp_matmul(Mt, X, p)) for Ms, Mt in pairs)


# coefficients in the left factor of one outer_products call of
# _times_powers: the packed integers of a call then stay within a few MB,
# and a row of a 2^16-dimensional algebra is multiplied alone
_BATCH = 1 << 16


def _times_powers(B, R, P, out) -> None:
    """Fill out, (len(R) (len(P) + 1), dim), with the rows r u for r in R and
    u in 1, P[0], P[1], ..., ordered as the pairs (r, u).  Each nonzero P[j]
    takes one outer_products with the nonzero rows of R, _BATCH
    coefficients of them at a time.  That column of blocks is a lopsided
    pair of big integers, which CPython multiplies piece by piece at about
    the cost of the separate products; one grid for all of P would be a
    balanced product of integers half made of gaps, about 1.5 times slower
    at dimension 729.  Rows of zeros take no product."""
    out = out.reshape(len(R), len(P) + 1, B.dim, copy=False)  # a view: writes reach the caller
    out[:, 0], out[:, 1:] = R, 0
    live, step = np.flatnonzero(R.any(axis=1)), max(1, _BATCH // B.dim)
    for j in np.flatnonzero(P.any(axis=1)):
        for s in range(0, len(live), step):
            r = live[s:s + step]
            out[r, j + 1] = B.outer_products(R[r], P[j:j + 1])[:, 0]


class AlgebraMap:
    """Linear map between local algebras as a (target.dim x source.dim)
    matrix over GF(p), with flags recording verified structure."""

    __slots__ = ("source", "target", "matrix", "is_algebra_map")

    def __init__(self, source, target, matrix, is_algebra_map=False):
        self.source = source
        self.target = target
        m = np.asarray(matrix, dtype=np.int64) % target.p
        if m.shape != (target.dim, source.dim):
            raise ExactKernelError("matrix shape %r does not match map" % (m.shape,))
        self.matrix = m
        self.is_algebra_map = is_algebra_map

    @classmethod
    def identity(cls, A) -> "AlgebraMap":
        return cls(A, A, np.eye(A.dim, dtype=np.int64), is_algebra_map=True)

    @classmethod
    def from_generator_images(cls, A: BorelAlgebra, B, images) -> "AlgebraMap":
        """Extend generator images multiplicatively over the monomial basis.

        Checks the defining relations first (each image to the q_i-th power
        is 0: a chain of Frobenius scatters); a violated relation raises 'not
        an algebra map'.  Each image g then gets its power table g^0..g^{q-1}
        by p-adic rounds, g^{pk+j} = Frob(g^k) g^j: a round that takes the
        table's length L to pL scatters the rows k >= L/p of the table once
        and multiplies them by g^1..g^{p-1} (see _times_powers).  The tables
        are combined one variable at a time the same way, into the
        lexicographic order of the exponents, and the columns are then
        permuted into A's graded order.
        """
        images = [img if isinstance(img, El) else El(B, img) for img in images]
        if len(images) != A.nvars:
            raise ExactKernelError("need one generator image per variable")
        p = A.p
        for img, q in zip(images, A.profile):
            v = img.vec
            while q > 1:
                v, q = B.frobenius(v), q // p
            if v.any():
                raise ExactKernelError(
                    "not an algebra map: generator image fails its defining relation"
                )
        cols = B.one_vec()[None]  # rows: images of the monomials, lexicographic
        for img, q in zip(images, A.profile):
            table = np.empty((q, B.dim), dtype=np.int64)  # g^0..g^{q-1}
            table[0], table[1] = B.one_vec(), img.vec
            for j in range(2, p):
                table[j] = B.mul_vec(table[j - 1], img.vec)
            L = p
            while L < q:  # the new exponents pk + j, k from L/p on
                _times_powers(B, B.frobenius(table[L // p:L]), table[1:p], table[L:p * L])
                L *= p
            if len(cols) == 1:  # the first variable
                cols = table
            else:
                cols, prev = np.empty((len(cols) * q, B.dim), dtype=np.int64), cols
                cols[:q] = table
                _times_powers(B, prev[1:], table[1:], cols[q:])
        strides = np.cumprod((1,) + A.profile[::-1])[-2::-1]  # lexicographic index of x^e
        lex = (np.array(A.basis, dtype=np.int64).reshape(A.dim, -1) * strides).sum(axis=1)
        graded = np.empty(A.dim, dtype=np.int64)  # the inverse permutation, by a scatter
        graded[lex] = np.arange(A.dim)
        matrix = np.empty((B.dim, A.dim), dtype=np.int64)
        matrix.T[graded] = cols  # column j: the row of basis monomial j
        cols = table = None  # freed before AlgebraMap reduces a copy of the matrix
        return cls(A, B, matrix, is_algebra_map=True)

    def apply(self, el):
        vec = el.vec if isinstance(el, El) else np.asarray(el, dtype=np.int64)
        return El(self.target, fp_matmul(self.matrix, vec, self.target.p))

    def __call__(self, el):
        return self.apply(el)

    def compose(self, other: "AlgebraMap") -> "AlgebraMap":
        """self o other (apply other first)."""
        if other.target != self.source:
            raise ExactKernelError("maps do not compose")
        return AlgebraMap(
            other.source,
            self.target,
            fp_matmul(self.matrix, other.matrix, self.target.p),
            is_algebra_map=self.is_algebra_map and other.is_algebra_map,
        )

    def __add__(self, other):
        if other.source != self.source or other.target != self.target:
            raise ExactKernelError("map shapes differ")
        return AlgebraMap(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other):
        if other.source != self.source or other.target != self.target:
            raise ExactKernelError("map shapes differ")
        return AlgebraMap(self.source, self.target, self.matrix - other.matrix)

    def scale(self, c: int) -> "AlgebraMap":
        return AlgebraMap(self.source, self.target, self.matrix * (c % self.target.p))

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraMap)
            and self.source == other.source
            and self.target == other.target
            and bool(np.array_equal(self.matrix, other.matrix))
        )

    def rank(self) -> int:
        return FpMatrix(self.matrix, self.target.p).rank()

    def is_injective(self) -> bool:
        return self.rank() == self.source.dim

    def is_surjective(self) -> bool:
        return self.rank() == self.target.dim

    def check_unital(self) -> bool:
        return bool(np.array_equal(self.matrix[:, 0], self.target.one_vec()))  # f(1): column 0

    def check_multiplicative(self) -> bool:
        """Is this linear map A -> B a unital algebra map?

        Decided on the ideal generators g of A as f . M_A(g) = M_B(f(g)) . f,
        with M_A(g) read from A's cache: then f(g a) = f(g) f(a) for every a,
        and induction on monomials in the generators gives f(ab) = f(a) f(b).
        The exhaustive check over basis pairs is kept in the tests as an
        oracle.
        """
        X, T = self.matrix, self.target
        if not self.check_unital():
            return False
        gens = self.source.ideal_generators
        return _intertwines(X, ((M, T.mult_matrix(fp_matmul(X, g, T.p))) for g, M in gens), T.p)

    def check_module_map(self, f: "AlgebraMap") -> bool:
        """Is self: B -> A an A-module map along the algebra map f: A -> B,
        self(f(a) b) = a self(b)?

        Decided on a = 1 and the ideal generators a = g of A as
        X . M_B(f(a)) = M_A(a) . X for X the matrix of self, with M_A(g) read
        from A's cache; since f is multiplicative, induction on monomials
        gives the identity for every a.  For a = 1 it reads X = X once f(1)
        = 1, so a = 1 is f.check_unital(), with no product (a non-unital f
        is refused).  The exhaustive check over basis pairs is kept in the
        tests as an oracle.
        """
        A, B = self.target, self.source
        if f.source != A or f.target != B:
            raise ExactKernelError("module structure map has wrong endpoints")
        if not f.is_algebra_map:
            raise ExactKernelError("module structure map must be an algebra map")
        X, F, p = self.matrix, f.matrix, A.p
        if not f.check_unital():
            return False
        return _intertwines(X, ((B.mult_matrix(fp_matmul(F, g, p)), M)
                                for g, M in A.ideal_generators), p)

    def __repr__(self):
        return "AlgebraMap(%r -> %r)" % (self.source, self.target)


def algebra_map(A: BorelAlgebra, B, generator_images) -> AlgebraMap:
    """Extend generator images to an algebra map (relations checked)."""
    return AlgebraMap.from_generator_images(A, B, generator_images)


class Subalgebra(_LocalAlgebraOps):
    """A unital, multiplicatively closed subspace of a Borel algebra, in its
    own coordinates; the RREF basis makes coordinates a plain column pick.

    The span S contains 1 = e_0 exactly when the first RREF row b_0 is 1;
    the other rows are then 0 at index 0, so they span the maximal ideal m.
    Closure is proved on generators, by the pivot-coordinate test of to_sub
    (exact for an RREF basis, no row reduction).  Let D = span(G) + G m for
    the generators G found so far.  While D != m, the first e_i (i >= 1)
    whose index is no pivot of D lies outside D; it joins G once
    b_i S = {b_i b_j} lies in S, and its products b_i m join D.  At the end
    m = span(G) + G m.  G lies in the nilpotent ideal of the ambient
    algebra, so iterating this (Nakayama) gives m in the span of the
    monomials in G; those lie in S as each g S lies in S.  So S is the
    algebra generated by G, and closed.  It costs one outer_products call
    per generator, the products of the whole basis with it.

    G m = m^2, and the e_i chosen are exactly those whose index is no pivot
    of m^2: a product g u, u in m, has its leading index after g's, so an
    index that is a pivot of m^2 is already one of D when the walk reaches
    it.  Hence G lifts a basis of m/m^2, and the products of the proof give
    the ideal generators and their matrices with no second pass.
    """

    def __init__(self, ambient, basis_vecs):
        self.ambient = ambient
        self.p = ambient.p
        rows = row_space_basis(list(basis_vecs), ambient.dim, ambient.p)
        if not rows:
            raise ExactKernelError("empty subalgebra")
        if not np.array_equal(rows[0], ambient.one_vec()):
            raise ExactKernelError("subalgebra must contain 1")
        self.basis_matrix = B = np.array(rows)  # (dim x ambient.dim), RREF rows
        self.pivots = [int(np.flatnonzero(r)[0]) for r in rows]
        self._free = np.delete(np.arange(ambient.dim), self.pivots)
        self.dim = k = len(rows)
        self._gen_matrices: dict[int, np.ndarray] = {}  # i -> M(e_i), e_i in G
        span, lead = np.zeros((0, k), dtype=np.int64), set()  # D in RREF, its pivots
        while len(lead) < k - 1:
            i = next(j for j in range(1, k) if j not in lead)
            prods = ambient.outer_products(B, rows[i][None])[:, 0]  # rows b_j b_i
            if not self._spans(prods):
                raise ExactKernelError("subspace is not closed under multiplication")
            coords = prods[:, self.pivots]  # row 0 is e_i itself, the rest b_i m
            self._gen_matrices[i] = coords.T
            R, piv = FpMatrix(np.vstack([span, coords]), self.p).rref()
            span, lead = R[:len(piv)], set(piv)

    def _spans(self, V) -> bool:
        """Do the rows of V, reduced mod p, lie in the span?  Only non-pivot columns can differ."""
        cols = fp_matmul(V[:, self.pivots], self.basis_matrix[:, self._free], self.p)
        return bool(np.array_equal(cols, V[:, self._free]))

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Subalgebra)
            and self.ambient == other.ambient
            and self.dim == other.dim
            and bool(np.array_equal(self.basis_matrix, other.basis_matrix))
        )

    def __hash__(self):
        return hash((self.ambient, self.dim, self.basis_matrix.tobytes()))

    def __repr__(self):
        return "Subalgebra(dim %d of %r)" % (self.dim, self.ambient)

    # coordinates: RREF rows have identity on pivot columns
    def to_sub(self, ambient_vec) -> np.ndarray:
        """Coordinates of an ambient vector, or of each row of a stack of them
        (one span check for the whole stack)."""
        v = reduce_mod(ambient_vec, self.p)
        if not self._spans(v.reshape(-1, self.ambient.dim)):
            raise ExactKernelError("vector lies outside the subalgebra")
        return v[..., self.pivots]

    def from_sub(self, coords) -> np.ndarray:
        c = np.asarray(coords, dtype=np.int64) % self.p
        return fp_matmul(c, self.basis_matrix, self.p)

    def mul_vec(self, u, v) -> np.ndarray:
        prod = self.ambient.mul_vec(self.from_sub(u), self.from_sub(v))
        return self.to_sub(prod)

    def outer_products(self, U, V) -> np.ndarray:
        """Every product U[i] V[j], as an (m, n, dim) array."""
        return self.to_sub(self.ambient.outer_products(self.from_sub(U), self.from_sub(V)))

    def frobenius(self, vec) -> np.ndarray:
        return self.to_sub(self.ambient.frobenius(self.from_sub(vec)))

    def mult_matrix(self, vec) -> np.ndarray:
        """Left multiplication in subalgebra coordinates: the pivot rows of
        the ambient matrix applied to the basis (closure was verified on
        construction)."""
        M = self.ambient.mult_matrix(self.from_sub(vec))[self.pivots]
        return fp_matmul(M, self.basis_matrix.T, self.p)

    def pairing_matrix(self, lam) -> np.ndarray:
        """G[i, j] = lam(b_i b_j) = B . G_ambient(lam') . B^T, where lam' is
        lam placed at the pivots, so lam'(v) = lam(to_sub(v)) on the span."""
        amb = np.zeros(self.ambient.dim, dtype=np.int64)
        amb[self.pivots] = np.asarray(lam, dtype=np.int64) % self.p
        B, p = self.basis_matrix, self.p
        return fp_matmul(fp_matmul(B, self.ambient.pairing_matrix(amb), p), B.T, p)

    @cached_property
    def _socle(self) -> tuple[np.ndarray, ...]:
        """The kernel of the stacked multiplication matrices of the ideal
        generators: z m = 0 iff z g = 0 for each g."""
        gens = self.ideal_generators
        if not gens:
            return (self.one_vec(),)
        return _read_only(FpMatrix(np.vstack([M for _, M in gens]), self.p).kernel())

    @cached_property
    def ideal_generators(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The e_i, i >= 1, whose index is no pivot of the RREF basis of m^2,
        with their multiplication matrices; read-only.  These are the
        generators of the closure proof, with the matrices it formed.

        The pivots of a subspace in RREF are among those of the whole space,
        and m is e_1, ..., e_{dim-1}, so these e_i and m^2 together span m:
        they lift a basis of m/m^2."""
        return _read_only_pairs(
            (self._radical[i - 1], M) for i, M in sorted(self._gen_matrices.items()))

    def include(self) -> AlgebraMap:
        """The inclusion into the ambient algebra, as an AlgebraMap."""
        return AlgebraMap(self, self.ambient, self.basis_matrix.T, is_algebra_map=True)

    def element_to_ambient(self, el: El) -> El:
        return El(self.ambient, self.from_sub(el.vec))


def subalgebra_close(A, vectors) -> Subalgebra:
    """Smallest unital subalgebra of A containing the given elements.

    The span C of 1 and the elements grows by the products of the given
    vectors with what was added last, to a fixed point; then v C lies in C
    for every given v, so C holds every monomial in them and is the algebra
    they generate.  Subalgebra proves it closed on its own generators."""
    vecs = [v.vec if isinstance(v, El) else np.asarray(v, dtype=np.int64) for v in vectors]
    span = fresh = row_space_basis(vecs + [A.one_vec()], A.dim, A.p)
    while vecs:
        fresh = row_space_basis(A.outer_products(np.array(fresh), np.array(vecs)).reshape(-1, A.dim),
                                A.dim, A.p)
        grown = row_space_basis(span + fresh, A.dim, A.p)
        if len(grown) == len(span):
            break
        span = grown
    return Subalgebra(A, span)


def socle_basis(A) -> list[El]:
    """Basis of soc A = annihilator of the maximal ideal."""
    return A.socle_basis()


def is_unit(A, u) -> bool:
    """Units of a local augmented algebra are the elements with nonzero
    augmentation."""
    el = u if isinstance(u, El) else El(A, u)
    return el.is_unit()
