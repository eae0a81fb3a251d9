"""Test-side polynomial oracle: truncated polynomials, the Honda logarithm
and Fraction exponential, the formal sum by powers, restriction through
the iterated coproduct, subspace intersection and stable elements by
per-coset kernels, the rank of A(G) by counting orbits on P^n (no algebra),
permutation products and double cosets one product at a time, the
nilpotency exponent and socle extensions on the whole radical basis rather
than on ideal generators, a subalgebra's ideal generators from its own
radical products, every pair product of a list of rows (the closure test
Subalgebra once ran), the socle as a kernel and the inverse by augmented
row reduction (where BorelAlgebra and FpMatrix use closed forms), the
element and embedding helpers only the tests read, and the check that an
array is a GF(p) array.

The package computes with coordinate arrays only (Kronecker-coded Borel
vectors, the (D, D) residue array of the group law).  These slow,
independent paths are what the tests compare it against.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from greenkernel import green
from greenkernel.borel import AlgebraMap, El, format_terms
from greenkernel.exactkernel import (
    ExactKernelError,
    FpMatrix,
    row_space_basis,
    subspace_contains,
)
from greenkernel.fgl import Fgl, HondaParams, _check_cap, _honda_phi, m_series
from greenkernel.frobform import socle_generator
from greenkernel.green import value_abelian
from greenkernel.grp import abelian_decompose, double_cosets, perm_inv, sylow


class TruncPoly:
    """Sparse polynomial in ``variables`` with per-variable exponent caps.

    ``coeffs`` maps exponent tuples to coefficients: int residues mod
    ``modulus``, or Fractions when ``modulus`` is None.  Monomials at or
    above a cap are discarded, which is the quotient by (x_i^{cap_i}).
    """

    __slots__ = ("variables", "caps", "coeffs", "modulus")

    def __init__(self, variables, caps, coeffs=None, modulus: int | None = None):
        self.variables = tuple(variables)
        self.caps = tuple(int(c) for c in caps)
        if len(self.variables) != len(self.caps):
            raise ExactKernelError("caps and variables differ in length")
        if any(c < 1 for c in self.caps):
            raise ExactKernelError("caps must be >= 1")
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
            c = Fraction(c) if modulus is None else int(c) % modulus
            if c:
                clean[e] = c
        self.coeffs = clean

    @classmethod
    def zero(cls, variables, caps, modulus=None):
        return cls(variables, caps, {}, modulus)

    @classmethod
    def const(cls, variables, caps, value, modulus=None):
        return cls(variables, caps, {(0,) * len(tuple(variables)): value}, modulus)

    @classmethod
    def variable(cls, name, variables, caps, modulus=None):
        variables = tuple(variables)
        e = tuple(int(v == name) for v in variables)
        return cls(variables, caps, {e: 1}, modulus)

    def _compat(self, other: "TruncPoly") -> None:
        if (self.variables, self.caps, self.modulus) != (other.variables, other.caps, other.modulus):
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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._compat(other)
        out: dict = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                if all(x < cap for x, cap in zip(e, self.caps)):
                    out[e] = out.get(e, 0) + ca * cb
        return TruncPoly(self.variables, self.caps, out, self.modulus)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        return TruncPoly(self.variables, self.caps,
                         {e: v * c for e, v in self.coeffs.items()}, self.modulus)

    def __pow__(self, k: int):
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
            and (self.variables, self.caps, self.modulus, self.coeffs)
            == (other.variables, other.caps, other.modulus, other.coeffs)
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, e):
        return self.coeffs.get(tuple(e), 0)

    def sorted_terms(self):
        """Terms in graded-lexicographic order of exponent vectors."""
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def reduce_mod(self, p: int) -> "TruncPoly":
        """Reduce Fraction coefficients mod p; a denominator divisible by p
        raises."""
        out = {}
        for e, c in self.coeffs.items():
            if c.denominator % p == 0:
                raise ExactKernelError("coefficient %s is not %d-integral" % (c, p))
            out[e] = c.numerator * pow(c.denominator, -1, p)
        return TruncPoly(self.variables, self.caps, out, p)

    def substitute(self, images) -> "TruncPoly":
        """Substitute each variable by a polynomial (all images live in one
        common ring); monomials are expanded with cached powers."""
        tmpl = next(iter(images.values()))
        powers: dict = {}
        acc = TruncPoly.zero(tmpl.variables, tmpl.caps, tmpl.modulus)
        for e, c in self.coeffs.items():
            term = TruncPoly.const(tmpl.variables, tmpl.caps, c, tmpl.modulus)
            for name, k in zip(self.variables, e):
                if k:
                    if (name, k) not in powers:
                        powers[name, k] = images[name] ** k
                    term = term * powers[name, k]
            acc = acc + term
        return acc

    def __str__(self):
        return format_terms(self.variables, self.sorted_terms())


def honda_log(params: HondaParams) -> TruncPoly:
    """The logarithm sum_{q^i < trunc} x^{q^i}/p^i over the rationals."""
    coeffs = {}
    e, i = 1, 0
    while e < params.trunc:
        coeffs[(e,)] = Fraction(1, params.p ** i)
        e *= params.q
        i += 1
    return TruncPoly(("x",), (params.trunc,), coeffs, modulus=None)


def honda_exp_coeffs(p: int, q: int, K: int) -> list[Fraction]:
    """Coefficients e_0..e_K of the compositional inverse of the logarithm:
    e_{1+j(q-1)} = phi_j / p^j (phi from the package's integer solver) and
    every other e_k is 0."""
    e = [Fraction(0)] * (K + 1)
    if K < 1:
        return e
    for j, c in enumerate(_honda_phi(p, q, (K - 1) // (q - 1))):
        e[1 + j * (q - 1)] = Fraction(c, p ** j)
    return e


def _conv(a, b, cap: int, p: int):
    """Truncated product of univariate coefficient vectors."""
    return np.convolve(a, b)[:cap] % p


def _powers(vec, top: int, cap: int, p: int) -> np.ndarray:
    """Rows vec^0 .. vec^(top-1) truncated at x^cap, stopping before the
    first zero power."""
    one = np.zeros(cap, dtype=np.int64)
    one[0] = 1
    pw = [one]
    while len(pw) < top:
        cur = _conv(pw[-1], vec, cap, p)
        if not cur.any():
            break
        pw.append(cur)
    return np.array(pw)


def formal_sum(fgl: Fgl, a, b) -> np.ndarray:
    """F(a, b) for univariate coefficient vectors a, b of one length, at
    most the computed truncation: sum_i a^i (sum_j F[i, j] b^j)."""
    p, F = fgl.p, fgl.F
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    if a.shape != b.shape or a.ndim != 1:
        raise ExactKernelError("formal_sum arguments live in different rings")
    cap = len(a)
    _check_cap(fgl, cap)
    # F is symmetric, so its last nonzero row bounds the powers of both
    rows = np.flatnonzero(F.any(axis=1))
    apow = _powers(a, rows[-1] + 1, cap, p)
    bpow = _powers(b, rows[-1] + 1, cap, p)
    rows = rows[rows < len(apow)]
    inner = (F[rows, : len(bpow)] @ bpow) % p
    out = np.zeros(cap, dtype=np.int64)
    for ai, bi in zip(apow[rows], inner):
        if bi.any():
            out = (out + _conv(ai, bi, cap, p)) % p
    return out


# -- restriction through the iterated coproduct ----------------------------------


def _iterated_coproduct(level, slots: int) -> dict:
    """Terms of the (slots-1)-fold coproduct of the generator x, as a dict
    {(e_1..e_slots): coeff}; slots >= 1.  Column e of the coproduct matrix
    is psi(x^e) = psi(x)^e."""
    pair = level.hopf.square.pair_index
    p = level.algebra.p
    terms = {(1,): 1}
    for _ in range(slots - 1):
        new: dict = {}
        for key, c in terms.items():
            M = level.hopf.coproduct.matrix[:, key[0]][pair]
            for a, b in zip(*np.nonzero(M)):
                k2 = (int(a), int(b)) + key[1:]
                new[k2] = (new.get(k2, 0) + c * int(M[a, b])) % p
        terms = {k: v for k, v in new.items() if v}
    return terms


def _component_power_table(src_level, r_i: int, s_j: int, m: int, p: int, n: int,
                           out_cap: int, slots_cap: int) -> list[np.ndarray]:
    """Powers (as coefficient vectors in H_{r_i}) of the component image of
    the generator of H_{s_j} under the hom C_{p^{r_i}} -> C_{p^{s_j}},
    g -> h^m: the image is [m'](x^{q^{max(r_i - s_j, 0)}})."""
    q = p ** n
    pt = p ** max(s_j - r_i, 0)
    if m % pt:
        raise ExactKernelError("internal consistency: hom fails its congruence")
    u = max(r_i - s_j, 0)
    series = m_series(src_level.fgl, m // pt, out_cap)
    vec = np.zeros(out_cap, dtype=np.int64)
    spread = vec[:: q ** u]  # x^e -> x^{e q^u}
    spread[:] = series[: len(spread)]
    table = [np.zeros(out_cap, dtype=np.int64)]
    table[0][0] = 1
    for _ in range(slots_cap - 1):
        table.append(_conv(table[-1], vec, out_cap, p))
    return table


def restrict_by_coproduct(alpha, p: int, n: int) -> AlgebraMap:
    """A(alpha.target) -> A(alpha.source), each target generator sent
    through the iterated coproduct of its tower level (one tensor slot per
    cyclic factor of the source), slot i pushed through the cyclic-component
    map and the slots multiplied monomial by monomial in A(source)."""
    src, tgt = alpha.source, alpha.target
    v_src = value_abelian(src.exponents, p, n)
    v_tgt = value_abelian(tgt.exponents, p, n)
    A_src = v_src.algebra
    q = p ** n
    k = src.rank
    images = []
    for j, s_j in enumerate(tgt.exponents):
        if k == 0:
            images.append(A_src.zero())
            continue
        delta = _iterated_coproduct(v_tgt.levels[j], k)
        tables = [
            _component_power_table(v_src.levels[i], r_i, s_j, alpha.matrix[j][i], p, n,
                                   out_cap=q ** r_i, slots_cap=q ** s_j)
            for i, r_i in enumerate(src.exponents)
        ]
        out = np.zeros(A_src.dim, dtype=np.int64)
        for key, c in delta.items():
            partial = [((), int(c))]
            for i in range(k):
                vec_i = tables[i][key[i]]
                partial = [
                    (exps + (int(e),), (coeff * int(vec_i[e])) % p)
                    for exps, coeff in partial
                    for e in np.flatnonzero(vec_i)
                ]
            for exps, coeff in partial:
                out[A_src.index[exps]] = (out[A_src.index[exps]] + coeff) % p
        images.append(El(A_src, out))
    return AlgebraMap.from_generator_images(v_tgt.algebra, A_src, images)


# -- stable elements, one kernel per double coset ----------------------------------


def subspace_intersect(bases, d: int, p: int) -> list[np.ndarray]:
    """The RREF basis of the intersection of the given subspaces of GF(p)^d.

    Pairwise: stack the two bases as columns [U | -W]; kernel vectors split
    as (a, b) with Ua = Wb, so Ua runs through the intersection.
    """
    cleaned = [row_space_basis(b, d, p) for b in bases]
    if not cleaned:
        raise ExactKernelError("need at least one subspace")
    cur = cleaned[0]
    for nxt in cleaned[1:]:
        if not cur or not nxt:
            return []
        U = np.array(cur).T
        W = np.array(nxt).T
        combos = FpMatrix(np.hstack([U, (-W) % p]), p).kernel()
        cur = row_space_basis([(U @ kv[: len(cur)]) % p for kv in combos], d, p)
    return cur



def stable_basis_by_intersection(G, p: int, n: int) -> list:
    """The RREF basis of A(G) inside A(P): one kernel of res_H - c_g res_K
    per double coset PgP, intersected pairwise."""
    P = sylow(G, p)
    dec_P = abelian_decompose(P, p)
    A_P = value_abelian(dec_P.exponents, p, n).algebra
    kernels = []
    for g in double_cosets(G, P, P):
        dec_H = abelian_decompose(P.intersection(G.conjugate_subgroup(P, g)), p)
        dec_K = abelian_decompose(P.intersection(G.conjugate_subgroup(P, perm_inv(g))), p)
        res_H = green.restrict(green._inclusion_hom(dec_H, dec_P), p, n)
        res_K = green.restrict(green._inclusion_hom(dec_K, dec_P), p, n)
        cg = green.restrict(green._conjugation_hom(dec_H, dec_K, g), p, n)
        kernels.append(FpMatrix((res_H - cg.compose(res_K)).matrix, p).kernel())
    return subspace_intersect(kernels, A_P.dim, p)


def rank_by_orbit_count(G, p: int, n: int) -> int:
    """dim A(G) for G with an abelian Sylow p-subgroup P, without any
    algebra: (1/|W|) sum over w in W = N_G(P)/P of |C_P(w)|^n, the number of
    W-orbits on P^n (Burnside's lemma).  N_G(P) and each centralizer are
    found by conjugating every element of P.  P is abelian, so all of a
    coset gP share C_P(g), and the sum is (1/|N_G(P)|) sum over N_G(P)."""
    P = sylow(G, p)
    conj = {}  # g -> [g x g^{-1} for x in P], for g in N_G(P)
    for g in G.elements:
        gi = perm_inv(g)
        images = [perm_mul_by_images(perm_mul_by_images(g, x), gi) for x in P.elements]
        if all(y in P for y in images):
            conj[g] = images
    total = sum(sum(x == y for x, y in zip(P.elements, images)) ** n for images in conj.values())
    if total % len(conj):
        raise ExactKernelError("orbit count is not an integer")
    return total // len(conj)


# -- permutation products and double cosets, one product at a time ------------------


def perm_mul_by_images(a, b) -> tuple:
    """(a * b)(i) = a[b[i]], one image at a time."""
    return tuple(a[x] for x in b)


def double_cosets_by_products(G, L, K) -> list:
    """Representatives of L\\G/K, each the least element of its double
    coset, found by forming every l g k with perm_mul_by_images."""
    if not L.is_subgroup_of(G) or not K.is_subgroup_of(G):
        raise ExactKernelError("double cosets need subgroups of G")
    covered: set = set()
    reps = []
    for g in G.elements:  # sorted: the first uncovered element is the least
        if g in covered:
            continue
        reps.append(g)
        for l in L.elements:
            lg = perm_mul_by_images(l, g)
            if lg not in covered:
                covered.update(perm_mul_by_images(lg, k) for k in K.elements)
    return reps


# -- the whole radical basis where the package reads ideal generators -------------


def nilpotency_exponent_by_radical(A) -> int:
    """Least e with m^e = 0, each power spanned by the products of a basis
    of the one before with every vector of the RREF radical basis."""
    rad = A.radical_span_vecs()
    mats = [A.mult_matrix(r) for r in rad]
    span, e = rad, 1
    while span:
        span = row_space_basis(np.vstack([np.array(span) @ M.T for M in mats]), A.dim, A.p)
        e += 1
        if e > A.dim + 1:
            raise ExactKernelError("radical fails to be nilpotent")
    return e


def socle_by_kernel(A) -> list[np.ndarray]:
    """The socle as the kernel of the stacked multiplication matrices of the
    ideal generators (z m = 0 iff z g = 0 for each g); the unit when there
    are none."""
    gens = A.ideal_generators
    if not gens:
        return [A.one_vec()]
    return FpMatrix(np.vstack([M for _, M in gens]), A.p).kernel()


def inverse_by_rref(M: FpMatrix) -> np.ndarray:
    """M^{-1} from the row reduction of [M | I]; raises 'matrix is singular'
    unless the left block reduces to I."""
    n = len(M.a)
    R, pivots = FpMatrix(np.hstack([M.a, np.eye(n, dtype=np.int64)]), M.p).rref()
    if pivots != list(range(n)):
        raise ExactKernelError("matrix is singular")
    return R[:, n:]


def _pair_products(A, rows) -> np.ndarray:
    """The products rows[i] rows[j], i <= j, in A, one per output row; a
    (0, A.dim) stack when there are no rows."""
    R = np.asarray(rows, dtype=np.int64).reshape(-1, A.dim)
    out = [(R[i:] @ A.mult_matrix(r).T) % A.p for i, r in enumerate(R)]
    return np.vstack(out) if out else np.zeros((0, A.dim), dtype=np.int64)


def ideal_generators_two_pass(S) -> list[tuple[np.ndarray, np.ndarray]]:
    """Subalgebra.ideal_generators in two passes over S's own products: the
    RREF radical of e_i - aug(e_i) 1, the augmentation read in the ambient
    algebra; m^2 from every product of two radical rows by S.mult_matrix; and
    the radical rows whose pivot is no pivot of m^2, with their matrices."""
    p, d = S.p, S.dim
    one = S.to_sub(S.ambient.one_vec())
    rad = row_space_basis([(e - S.ambient.aug_vec(S.from_sub(e)) * one) % p
                           for e in np.eye(d, dtype=np.int64)], d, p)
    square = row_space_basis([v for r in rad for v in np.array(rad) @ S.mult_matrix(r).T], d, p)
    taken = {int(np.flatnonzero(r)[0]) for r in square}
    return [(r, S.mult_matrix(r)) for r in rad if int(np.flatnonzero(r)[0]) not in taken]


def extend_socle_map_by_radical(f: AlgebraMap, socle_image, socle_gen_B=None) -> AlgebraMap:
    """frobform.extend_socle_map with one Kronecker block per RREF radical
    vector of A instead of one per ideal generator (same errors, no
    module-map check on the result)."""
    A, B = f.source, f.target
    z = (socle_gen_B if socle_gen_B is not None else socle_generator(B)).vec
    img = socle_image.vec if isinstance(socle_image, El) else np.asarray(socle_image)
    if not img.any():
        raise ExactKernelError("socle image must be nonzero")
    if not subspace_contains(A.socle_vecs(), img, A.p):
        raise ExactKernelError("image must lie in soc A")
    p, dA, dB = A.p, A.dim, B.dim
    IA, IB = np.eye(dA, dtype=np.int64), np.eye(dB, dtype=np.int64)
    blocks = []
    for g in A.radical_span_vecs():
        Mg_A = A.mult_matrix(g)
        Mg_B = B.mult_matrix((f.matrix @ g) % p)
        blocks.append((np.kron(IA, Mg_B.T) - np.kron(Mg_A, IB)) % p)
    blocks.append(np.kron(IA, z.reshape(1, -1)) % p)
    rhs = np.zeros(sum(len(b) for b in blocks), dtype=np.int64)
    rhs[-dA:] = img
    sol = FpMatrix(np.vstack(blocks), p).solve(rhs)
    if sol is None:
        raise ExactKernelError(
            "internal consistency: no module extension exists (contradicts self-injectivity)"
        )
    return AlgebraMap(B, A, sol.reshape(dA, dB), module_over=f)


def extension_or_error(extend, f: AlgebraMap, socle_image):
    """The matrix of extend(f, socle_image) as lists, or the message of the
    ExactKernelError it raises: what two socle-extension routes must agree on."""
    try:
        return extend(f, socle_image).matrix.tolist()
    except ExactKernelError as err:
        return str(err)


# -- element and embedding helpers ---------------------------------------------------


def from_exp_dict(A, d) -> El:
    """The element sum c x^e of A for d = {e: c}."""
    v = np.zeros(A.dim, dtype=np.int64)
    for e, c in d.items():
        v[A.index[tuple(e)]] = (v[A.index[tuple(e)]] + int(c)) % A.p
    return El(A, v)


def element_from_ambient(S, el: El) -> El:
    """An element of the ambient algebra of the Subalgebra S, in S's
    coordinates (raises when it lies outside S)."""
    return El(S, S.to_sub(el.vec))


def emb_left(T) -> AlgebraMap:
    """a -> a (x) 1 for the TensorProduct T: monomials to monomials."""
    M = np.zeros((T.algebra.dim, T.left.dim), dtype=np.int64)
    M[T.pair_index[:, 0], np.arange(T.left.dim)] = 1
    return AlgebraMap(T.left, T.algebra, M, is_algebra_map=True)


def emb_right(T) -> AlgebraMap:
    """b -> 1 (x) b for the TensorProduct T."""
    M = np.zeros((T.algebra.dim, T.right.dim), dtype=np.int64)
    M[T.pair_index[0, :], np.arange(T.right.dim)] = 1
    return AlgebraMap(T.right, T.algebra, M, is_algebra_map=True)


def is_fp_array(X, p: int) -> bool:
    """Is X what the package passes for a GF(p) vector or matrix: a numpy
    int64 array with every entry in [0, p)?"""
    return (isinstance(X, np.ndarray) and X.dtype == np.int64
            and bool(((X >= 0) & (X < p)).all()))
