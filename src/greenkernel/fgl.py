"""Honda formal group law of height n over GF(p), by exact rational arithmetic.

The construction: the height-n logarithm is

    log(x) = sum_{i >= 0} x^{q^i} / p^i,        q = p^n,

its compositional inverse exp is computed degree by degree, and the group
law is F(x, y) = exp(log x + log y).  Every coefficient of F is p-integral
(asserted; Hazewinkel's functional-equation lemma), so F reduces mod p; all
downstream coproducts are generated from this reduction.  Its defining
property mod p is [p](x) = x^q.

The group law is the binomial expansion sum_{a,b} e_{a+b} C(a+b, a)
log(x)^a log(y)^b, computed as the sandwich L^T M L of scaled-integer
matrices (one block per residue class mod q-1, by the grading) with a
single shared power-of-p denominator, and reduced once.  An
Fgl owns the result as a dense (D, D) int64 residue array, and the series
operations (formal sum, inverse, [m]-series) take and return int64
coefficient vectors.  TruncPoly appears only on the Fraction reference path
kept for cross-checking.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .exactkernel import ExactKernelError, TruncPoly, _check_prime


@dataclass(frozen=True)
class HondaParams:
    """Prime p, height n >= 1, total truncation degree trunc (exponents run
    in [0, trunc))."""

    p: int
    n: int
    trunc: int

    def __post_init__(self):
        _check_prime(self.p)
        if self.n < 1:
            raise ExactKernelError("height must be >= 1")
        if self.trunc < 2:
            raise ExactKernelError("truncation degree must be >= 2")

    @property
    def q(self) -> int:
        return self.p ** self.n


@dataclass(frozen=True, eq=False)
class Fgl:
    """A computed formal group law: F[i, j] is the coefficient of x^i y^j
    mod p, for i, j < D (a read-only (D, D) int64 array)."""

    params: HondaParams
    F: np.ndarray

    @property
    def p(self) -> int:
        return self.params.p

    @property
    def q(self) -> int:
        return self.params.q


def honda_log(params: HondaParams) -> TruncPoly:
    """The logarithm sum_{q^i < trunc} x^{q^i}/p^i over BigRational."""
    coeffs = {}
    e, i = 1, 0
    while e < params.trunc:
        coeffs[(e,)] = Fraction(1, params.p ** i)
        e *= params.q
        i += 1
    return TruncPoly(("x",), (params.trunc,), coeffs, modulus=None)


def _power_chain_ops(q: int):
    """Binary multiplication chain reaching exponent q from 1; each op is
    (a, b, a+b) meaning series_{a+b} = series_a * series_b."""
    ops = []
    have = {1}

    def build(e):
        if e in have:
            return
        if e % 2 == 0:
            build(e // 2)
            ops.append((e // 2, e // 2, e))
        else:
            build(e - 1)
            ops.append((e - 1, 1, e))
        have.add(e)

    build(q)
    return ops


def honda_exp_coeffs(p: int, q: int, K: int) -> list[Fraction]:
    """Coefficients e_0..e_K of the compositional inverse of the logarithm.

    Degree-by-degree solve of g = u - sum_{i>=1} g^{q^i}/p^i.  The q-powers
    of g are maintained through a binary multiplication chain whose degree-d
    coefficients only involve g-coefficients below d, so one left-to-right
    pass is exact.
    """
    imax, e = 0, q
    while e <= K:
        imax += 1
        e *= q
    ops = _power_chain_ops(q)
    zero = Fraction(0)
    g = [zero] * (K + 1)
    if K >= 1:
        g[1] = Fraction(1)
    # chain[i] holds the series g^{q^i * e} for the chain exponents e
    chain: list[dict[int, list[Fraction]]] = []
    for _ in range(imax):
        lvl: dict[int, list[Fraction]] = {1: [zero] * (K + 1)}
        for (_, _, c) in ops:
            lvl[c] = [zero] * (K + 1)
        chain.append(lvl)
    if imax:
        chain[0][1] = g
    for d in range(2, K + 1):
        for i in range(imax):
            lvl = chain[i]
            if i > 0:
                lvl[1] = chain[i - 1][q]
            for (a, b, c) in ops:
                ma, mb = lvl[a], lvl[b]
                tot = zero
                for t in range(1, d):
                    ca = ma[t]
                    if ca:
                        cb = mb[d - t]
                        if cb:
                            tot += ca * cb
                lvl[c][d] = tot
        val = zero
        pe, ee = p, q
        for i in range(imax):
            if ee <= d:
                val += chain[i][q][d] / pe
            pe *= p
            ee *= q
        g[d] = -val
    return g


def _fgl_rational_reference(params: HondaParams) -> TruncPoly:
    """Fraction-arithmetic evaluation of exp(log x + log y); slow, used for
    cross-checks at small truncation."""
    D = params.trunc
    K = 2 * D - 2
    exp = honda_exp_coeffs(params.p, params.q, K)
    caps = (D, D)
    log = honda_log(params)
    w = TruncPoly(("x", "y"), caps, {}, None)
    for (e,), c in log.coeffs.items():
        w = w + TruncPoly(("x", "y"), caps, {(e, 0): c, (0, e): c}, None)
    F = TruncPoly.zero(("x", "y"), caps, None)
    wp = TruncPoly.const(("x", "y"), caps, 1, None)
    for k in range(1, K + 1):
        wp = wp * w
        if wp.is_zero():
            break
        if exp[k]:
            F = F + wp.scale(exp[k])
    return F


def _fgl_residues(params: HondaParams) -> np.ndarray:
    """F mod p as a dense (D, D) array, from the binomial expansion

        F(x, y) = sum_{a, b < D} e_{a+b} C(a+b, a) L(x)^a L(y)^b

    computed as the scaled-integer sandwich L^T M L over object arrays:
    row a of L is p^{a ew} L(x)^a (p^ew the largest denominator of L below
    x^D), and M[a, b] = e_{a+b} C(a+b, a) is rescaled to the shared
    denominator p^S.  Every entry of the product must be divisible by p^S
    (p-integrality); the quotient is reduced once.
    """
    p, q, D = params.p, params.q, params.trunc
    K = 2 * D - 2
    exp = honda_exp_coeffs(p, q, K)
    # p^ew L(x) as integers: x^{q^i} / p^i scaled by p^ew, for q^i < D
    w = {}
    e, i = 1, 0
    while e < D:
        w[e] = i
        e *= q
        i += 1
    ew = i - 1
    L = np.zeros((D, D), dtype=object)
    L[0, 0] = 1
    for a in range(1, D):
        for e, i in w.items():
            L[a, e:] += L[a - 1, : D - e] * p ** (ew - i)
    # shared exponent: e_k / p^{k ew} = gm_k / p^S with gm_k an integer
    S = max(_p_valuation(c.denominator, p) + k * ew for k, c in enumerate(exp) if c)
    gm = []
    for k, c in enumerate(exp):
        if not c:
            # S bounds only the nonzero coefficients; S - k ew may be negative here
            gm.append(0)
            continue
        m = c * p ** (S - k * ew)
        if m.denominator != 1:
            raise ExactKernelError(
                "internal consistency: exp coefficient %d has denominator %d" % (k, c.denominator)
            )
        gm.append(int(m))
    # grading: L(x)^a lives in degrees = a (mod q-1), and exp(u) = u h(u^{q-1})
    # (checked), so F[i, j] = 0 unless i + j = 1 (mod q-1); the sandwich
    # splits into one block per residue class r of rows, paired with 1 - r
    g = q - 1
    if any(gm[k] for k in range(K + 1) if (k - 1) % g):
        raise ExactKernelError("internal consistency: exp is not graded mod q-1")
    scaled = np.zeros((D, D), dtype=object)
    for r in range(g):
        s = (1 - r) % g
        M = np.array([[gm[a + b] * comb(a + b, a) for b in range(s, D, g)]
                      for a in range(r, D, g)], dtype=object)
        scaled[r::g, s::g] = L[r::g, r::g].T.dot(M).dot(L[s::g, s::g])
    scale = p ** S
    bad = np.argwhere(scaled % scale != 0)
    if len(bad):
        raise ExactKernelError(
            "internal consistency: non p-integral FGL coefficient at exponent %r"
            % (tuple(int(t) for t in bad[0]),)
        )
    return ((scaled // scale) % p).astype(np.int64)


def _p_valuation(m: int, p: int) -> int:
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


_fgl_cache: dict[tuple[int, int], Fgl] = {}
_fgl_lock = threading.Lock()


def honda_fgl(params: HondaParams) -> Fgl:
    """The Honda FGL over GF(p) at the requested truncation.

    Requires trunc >= q so the level-1 reduction is faithful.  Results are
    cached per (p, n) at the largest truncation computed so far; smaller
    requests are served by slicing the residue array.
    """
    if params.trunc < params.q:
        raise ExactKernelError("truncation %d below q = %d" % (params.trunc, params.q))
    key = (params.p, params.n)
    with _fgl_lock:
        hit = _fgl_cache.get(key)
        if hit is not None and hit.params.trunc >= params.trunc:
            if hit.params.trunc == params.trunc:
                return hit
            D = params.trunc
            return Fgl(params, hit.F[:D, :D])
        F = _fgl_residues(params)
        F.flags.writeable = False
        out = Fgl(params, F)
        _fgl_cache[key] = out
        return out


def _conv(a, b, cap: int, p: int):
    """Truncated product of univariate coefficient vectors (exact in int64:
    entries < p^2 * cap stay far below 2^63)."""
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


def _eval_bivariate(fgl: Fgl, avec, bvec, cap: int):
    """F(a(x), b(x)) as a coefficient vector of length cap: the inner sums
    sum_j F[i, j] b^j are the rows of one product F @ powers(b)."""
    p, F = fgl.p, fgl.F
    # only the nonzero rows of F count; F is symmetric, so the last one also
    # bounds the powers of b
    rows = np.flatnonzero(F.any(axis=1))
    apow = _powers(avec, rows[-1] + 1, cap, p)
    bpow = _powers(bvec, rows[-1] + 1, cap, p)
    rows = rows[rows < len(apow)]
    inner = (F[rows, : len(bpow)] @ bpow) % p
    out = np.zeros(cap, dtype=np.int64)
    for ai, bi in zip(apow[rows], inner):
        if bi.any():
            out = (out + _conv(ai, bi, cap, p)) % p
    return out


def _x(cap: int) -> np.ndarray:
    x = np.zeros(cap, dtype=np.int64)
    if cap > 1:
        x[1] = 1
    return x


def formal_sum(fgl: Fgl, a, b) -> np.ndarray:
    """F(a, b) for univariate coefficient vectors a, b of one length."""
    a = np.asarray(a, dtype=np.int64) % fgl.p
    b = np.asarray(b, dtype=np.int64) % fgl.p
    if a.shape != b.shape or a.ndim != 1:
        raise ExactKernelError("formal_sum arguments live in different rings")
    return _eval_bivariate(fgl, a, b, len(a))


def formal_inverse(fgl: Fgl, cap: int) -> np.ndarray:
    """The series i(x) with F(x, i(x)) = 0, to exponents < cap.

    Fixed-point iteration i <- i - F(x, i) gains one correct degree per
    step because F(x, y) = x + y + higher terms.
    """
    p = fgl.p
    x = _x(cap)
    inv = (-x) % p
    for _ in range(cap + 1):
        err = _eval_bivariate(fgl, x, inv, cap)
        if not err.any():
            return inv
        inv = (inv - err) % p
    raise ExactKernelError("internal consistency: formal inverse did not converge")


def m_series(fgl: Fgl, m: int, cap: int) -> np.ndarray:
    """The multiplication-by-m series of the group law, truncated at x^cap.

    [0] = 0, [k+1](x) = F([k](x), x), and [-m](x) = i([m](x)).
    """
    if cap > fgl.params.trunc:
        raise ExactKernelError("cap %d exceeds computed truncation %d" % (cap, fgl.params.trunc))
    p = fgl.p
    x = _x(cap)
    if m == 0:
        return np.zeros(cap, dtype=np.int64)
    series = x
    for _ in range(abs(m) - 1):
        series = _eval_bivariate(fgl, series, x, cap)
    if m < 0:
        inv = formal_inverse(fgl, cap)
        spow = _powers(series, int(np.flatnonzero(inv).max(initial=0)) + 1, cap, p)
        series = (inv[: len(spow)] @ spow) % p
    return series
