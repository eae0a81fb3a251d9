"""Honda formal group law of height n over GF(p), by exact integer arithmetic.

The construction: the height-n logarithm is

    log(x) = sum_{i >= 0} x^{q^i} / p^i,        q = p^n,

its compositional inverse is exp(u) = u phi(u^{q-1}/p) with phi an integer
series, solved degree by degree over Python ints, and the group law is
F(x, y) = exp(log x + log y).  Every coefficient of F is p-integral
(asserted; Hazewinkel's functional-equation lemma), so F reduces mod p; all
downstream coproducts are generated from this reduction.  Its defining
property mod p is [p](x) = x^q.

The group law is the binomial expansion sum_{a,b} e_{a+b} C(a+b, a)
log(x)^a log(y)^b at output-graded p-adic precision: the graded log powers
L~[a, i] = p^{(i-a)/(q-1)} [x^i] log(x)^a and M~[a, b] = C(a+b, a)
phi_{(a+b-1)/(q-1)} are integers, and the sandwich L~^T M~ L~ is
p^{(i+j-1)/(q-1)} F[i, j] at (i, j).  It is computed mod p^N, one block per
residue class mod q-1 (the grading); each entry is divided by its own power
of p (the p-integrality check) and reduced once.

Log powers are built at the precision of their reads.  An Fgl keeps L~ with
the exp coefficients below x^D, which every series needs: every [m]-series,
the formal inverse [-1] among them, is exp(m log x), one vector-matrix
product with L~ under the same scaling, at N = floor((D-2)/(q-1)) + 2.  Its
dense (D, D) int64 residue array F is computed on first read, so a law read
only through its series never runs the sandwich, and is sliced from the
largest F computed so far for (p, n).  F needs exp below x^{2D-1} and
N = floor((2D-3)/(q-1)) + 2: it slices them from the law's log powers when
these cover it (as a law built at D' >= 2D-1 does), else builds them once
for that read.  Nothing here computes with polynomials or Fractions: the
logarithm, the Fraction exponential, the formal sum by powers and the
rational group law are the tests' oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import NamedTuple

import numpy as np

from .exactkernel import ExactKernelError, _check_prime, _memo_lock


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


class _LogPowers(NamedTuple):
    """Row a of L is L~(x)^a below x^D, L~[a, i] = p^{(i-a)/(q-1)} [x^i] L(x)^a,
    built from L~(x) = sum_t p^{(q^t-1)/(q-1) - t} x^{q^t}; exp[k] is
    p^{(k-1)/(q-1)} e_k for k < E, the integer phi_{(k-1)/(q-1)} at
    k = 1 (mod q-1) and 0 elsewhere (exp is graded).  Both are object arrays
    kept mod p^N, N = _precision(q, E), the precision of every product built
    from them.  E = D serves the series below x^D; E = 2D-1 also serves F."""

    L: np.ndarray
    exp: np.ndarray
    N: int


@dataclass(frozen=True, eq=False)
class Fgl:
    """A formal group law below x^D: the scaled log powers it was built from
    serve the series (cached truncations share them), and F, computed on
    first read, is its residue array.  honda_fgl builds the log powers at
    series precision (E = D)."""

    params: HondaParams
    _logs: _LogPowers = field(repr=False)

    @property
    def F(self) -> np.ndarray:
        """F[i, j], the coefficient of x^i y^j mod p for i, j < D, as a
        read-only (D, D) int64 array: a slice of the largest F computed for
        (p, n), else computed once from the log powers sliced to D.  Those
        must reach exp below x^{2D-1}; the log powers of a law built for
        its series at D' >= 2D-1 do, and otherwise this read builds its own
        at F precision (the law keeps its series-precision ones)."""
        D, key = self.params.trunc, (self.p, self.params.n)
        with _memo_lock:
            law, F = _fgl_cache.get(key, (self, None))
            if F is None or len(F) < D:
                logs = self._logs
                if len(logs.exp) < 2 * D - 1:
                    logs = _log_powers(self.params)
                L, exp, N = logs
                F = _fgl_residues(self.params, _LogPowers(L[:D, :D], exp[: 2 * D - 1], N))
                F.flags.writeable = False
                _fgl_cache[key] = (law, F)
        return F[:D, :D]

    @property
    def p(self) -> int:
        return self.params.p

    @property
    def q(self) -> int:
        return self.params.q


def _power_chain_ops(q: int):
    """Binary multiplication chain reaching exponent q from 1; each op is
    (a, b, a+b) meaning series_{a+b} = series_a * series_b."""
    if q == 1:
        return []
    if q % 2:
        return _power_chain_ops(q - 1) + [(q - 1, 1, q)]
    return _power_chain_ops(q // 2) + [(q // 2, q // 2, q)]


def _honda_phi(p: int, q: int, J: int) -> list[int]:
    """The integer series phi_0..phi_J with exp(u) = u phi(u^{q-1}/p).

    Substituting into g = u - sum_{i>=1} g^{q^i}/p^i gives

        phi = 1 - sum_{i>=1} p^{m_i - i} s^{m_i} phi^{q^i},   m_i = (q^i - 1)/(q - 1),

    and m_i >= i, so phi has integer coefficients.  They are solved degree
    by degree over Python ints (no division): the q^i-th powers of phi are
    kept through the binary multiplication chain, each level's base being
    the q-th power of the level below, and phi_j only reads their
    coefficients of degree j - m_i < j.
    """
    ms = []  # m_1, m_2, .. up to J
    m = 1
    while m <= J:
        ms.append(m)
        m = m * q + 1
    ops = _power_chain_ops(q)
    phi = [1] + [0] * J
    # chain[t][c] holds the coefficients of phi^{q^t c}; level t reaches
    # phi^{q^(t+1)}, needed only up to degree J - m_{t+1}
    chain = []
    base = phi
    for _ in ms:
        lvl = {1: base}
        for (_, _, c) in ops:
            lvl[c] = [1] + [0] * J
        chain.append(lvl)
        base = lvl[q]
    scale = [p ** (m - i) for i, m in enumerate(ms, 1)]
    for j in range(1, J + 1):
        phi[j] = -sum(f * lvl[q][j - m] for f, m, lvl in zip(scale, ms, chain) if m <= j)
        for m, lvl in zip(ms, chain):
            if j > J - m:
                break
            for (a, b, c) in ops:
                lvl[c][j] = sum(map(mul, lvl[a][: j + 1], lvl[b][j::-1]))
    return phi


def _precision(q: int, E: int) -> int:
    """N, the p-adic digits that products of exp below x^E need: entry
    k < E carries p^{(k-1)/(q-1)}, and one digit more is kept."""
    return (E - 2) // (q - 1) + 2


def _check_precision(logs: _LogPowers, q: int, D: int, E: int, what: str) -> None:
    """Refuse log powers below x^D, or exp below x^E at N digits, that are
    shorter than a read needs: a silent truncation would be a wrong answer."""
    L, exp, N = logs
    if len(L) < D or len(exp) < E or N < _precision(q, E):
        raise ExactKernelError(
            "internal consistency: log powers (D=%d, exp below x^%d, N=%d) cannot give "
            "the %s below x^%d" % (len(L), len(exp), N, what, D))


def _log_powers(params: HondaParams, E: int | None = None) -> _LogPowers:
    """The graded log powers L~ below x^D and the exp coefficients below
    x^E mod p^N (see _LogPowers).  E defaults to 2D-1, what F needs; the
    series need E = D, which solves phi to half the degree at half the
    p-adic digits."""
    p, q, D = params.p, params.q, params.trunc
    E = 2 * D - 1 if E is None else E
    N = _precision(q, E)
    mod = p ** N
    # L~(x) = sum_t p^{(q^t-1)/(q-1) - t} x^{q^t}: coefficient i of L(x)
    # scaled by p^{(i-1)/(q-1)}
    terms = [(q ** t, p ** ((q ** t - 1) // (q - 1) - t))
             for t in range(D.bit_length()) if q ** t < D]
    # row a is zero left of column a and outside the class a mod (q-1), and
    # every e = q^t is 1 mod (q-1): only that class of each row is updated
    L = np.zeros((D, D), dtype=object)
    L[0, 0] = 1
    for a in range(1, D):
        for e, c in terms:
            L[a, a - 1 + e::q - 1] += L[a - 1, a - 1:D - e:q - 1] * c
        L[a, a::q - 1] %= mod
    exp = np.zeros(E, dtype=object)
    exp[1::q - 1] = [c % mod for c in _honda_phi(p, q, (E - 2) // (q - 1))]
    return _LogPowers(L, exp, N)


def _fgl_residues(params: HondaParams, logs: _LogPowers | None = None) -> np.ndarray:
    """F mod p as a dense (D, D) array, from the binomial expansion

        F(x, y) = sum_{a, b < D} e_{a+b} C(a+b, a) L(x)^a L(y)^b.

    With M~[a, b] = C(a+b, a) p^{(a+b-1)/(q-1)} e_{a+b}, the integer sandwich
    L~^T M~ L~ is p^{(i+j-1)/(q-1)} F[i, j] at (i, j): computed mod p^N,
    reduced after each product, then divided entry by entry by its own
    power of p (p-integrality) and reduced once.
    """
    p, q, D = params.p, params.q, params.trunc
    logs = logs if logs is not None else _log_powers(params)
    _check_precision(logs, q, D, 2 * D - 1, "FGL coefficients")
    L, exp, N = logs
    mod, g = p ** N, q - 1
    # Pascal's rule row by row: C(a+b, a) = sum_{c <= b} C(a-1+c, a-1)
    C = np.ones((D, D), dtype=object)
    for a in range(1, D):
        C[a] = np.cumsum(C[a - 1]) % mod
    # grading: L(x)^a lives in degrees = a (mod q-1) and so does exp, hence
    # F[i, j] = 0 unless i + j = 1 (mod q-1); the sandwich splits into one
    # block per residue class r of rows, paired with s = 1 - r, and block
    # (s, r) is the transpose of block (r, s) since M~ is symmetric
    scaled = np.zeros((D, D), dtype=object)
    for r in range(g):
        s = (1 - r) % g
        if s < r:
            continue
        A, B = np.arange(r, D, g), np.arange(s, D, g)
        M = C[np.ix_(A, B)] * exp[A[:, None] + B[None, :]] % mod
        T = L[r::g, r::g].T.dot(M) % mod
        X = T.dot(L[s::g, s::g]) % mod
        scaled[r::g, s::g], scaled[s::g, r::g] = X, X.T
    # entry (i, j) carries p^{(i+j-1)/g}; F[0, 0] = 0 needs none
    i, j = np.indices((D, D))
    return _divide_reduce(scaled, np.maximum(i + j - 1, 0) // g, p, "FGL coefficient")


def _divide_reduce(scaled: np.ndarray, v: np.ndarray, p: int, what: str) -> np.ndarray:
    """scaled / p^v mod p entry by entry as int64, refusing an entry that
    its power of p does not divide."""
    scale = np.array([p ** k for k in range(int(v.max(initial=0)) + 1)], dtype=object)[v]
    bad = np.argwhere(scaled % scale != 0)
    if len(bad):
        raise ExactKernelError(
            "internal consistency: non p-integral %s at exponent %r"
            % (what, tuple(int(t) for t in bad[0]))
        )
    return ((scaled // scale) % p).astype(np.int64)


# per (p, n): the largest law built so far and the largest F computed so far,
# kept under exactkernel's memo lock (an entry is replaced, not only added)
_fgl_cache: dict[tuple[int, int], tuple[Fgl, np.ndarray | None]] = {}


def honda_fgl(params: HondaParams) -> Fgl:
    """The Honda FGL over GF(p) at the requested truncation.

    Requires trunc >= q so the level-1 reduction is faithful.  Laws are
    cached per (p, n) at the largest truncation built so far; smaller
    requests share its log powers.  Only the log powers are built here,
    at the precision of the series (exp below x^D): F waits for its first
    read, which finds the wider exp it needs in a law built at twice the
    truncation or builds it.
    """
    if params.trunc < params.q:
        raise ExactKernelError("truncation %d below q = %d" % (params.trunc, params.q))
    key = (params.p, params.n)
    with _memo_lock:
        law, F = _fgl_cache.get(key, (None, None))
        if law is not None and law.params.trunc >= params.trunc:
            return law if law.params.trunc == params.trunc else Fgl(params, law._logs)
        out = Fgl(params, _log_powers(params, params.trunc))
        _fgl_cache[key] = (out, F)
        return out


def _check_cap(fgl: Fgl, cap: int) -> None:
    if cap > fgl.params.trunc:
        raise ExactKernelError("cap %d exceeds computed truncation %d" % (cap, fgl.params.trunc))


def _series(fgl: Fgl, m: int, cap: int) -> np.ndarray:
    """[m](x) = exp(m log x) below x^cap, from the graded log powers:

        p^{(i-1)/(q-1)} [m](x)_i = sum_k p^{(k-1)/(q-1)} e_k m^k L~[k, i],

    one object-integer vector-matrix product mod p^N, divided entry by entry
    by its power of p and reduced once.  formal_inverse and m_series both
    call it, not each other, so per-layer traces count each entry point on
    its own."""
    _check_cap(fgl, cap)
    _check_precision(fgl._logs, fgl.q, cap, cap, "series coefficients")
    L, exp, N = fgl._logs
    p, mod = fgl.p, fgl.p ** N
    coef = np.array([c * pow(m, k, mod) for k, c in enumerate(exp[:cap])], dtype=object)
    v = np.maximum(np.arange(cap) - 1, 0) // (fgl.q - 1)  # only i = 1 (mod q-1) is nonzero
    return _divide_reduce(coef.dot(L[:cap, :cap]) % mod, v, p, "series coefficient")


def formal_inverse(fgl: Fgl, cap: int) -> np.ndarray:
    """The series i(x) with F(x, i(x)) = 0, to exponents < cap: the
    [-1]-series exp(-log x)."""
    return _series(fgl, -1, cap)


def m_series(fgl: Fgl, m: int, cap: int) -> np.ndarray:
    """The multiplication-by-m series [m](x) = exp(m log x) of the group law,
    truncated at x^cap (at most the computed truncation)."""
    return _series(fgl, m, cap)
