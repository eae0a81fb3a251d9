"""Honda formal group laws: logarithm, group law, inverse, [m]-series.

The Fraction recursion for exp, the fixed-point inverse and the composition
[k+1](x) = F([k](x), x) are kept here as oracles for the integer phi
recursion and the one-dot series of the library; the logarithm, the Fraction
exp and the formal sum come from the test-side polyoracle."""

import hashlib
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

import greenkernel.fgl as fgl
from greenkernel import hopftower
from greenkernel.cli import EXIT_OK, dispatch
from greenkernel.exactkernel import ExactKernelError
from greenkernel.fgl import (
    Fgl,
    HondaParams,
    _fgl_residues,
    _power_chain_ops,
    formal_inverse,
    honda_fgl,
    m_series,
)
from polyoracle import TruncPoly, formal_sum, honda_exp_coeffs, honda_log


def poly2(F, p: int) -> TruncPoly:
    """The residue array F as a TruncPoly in x, y (the test oracle's ring)."""
    D = F.shape[0]
    return TruncPoly(("x", "y"), (D, D), {(i, j): int(F[i, j]) for i, j in zip(*np.nonzero(F))}, p)


def poly1(v, p: int) -> TruncPoly:
    """A coefficient vector as a univariate TruncPoly."""
    return TruncPoly(("x",), (len(v),), {(e,): int(c) for e, c in enumerate(v) if c}, p)


def sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<i8").tobytes()).hexdigest()


def exp_coeffs_fraction(p: int, q: int, K: int) -> list[Fraction]:
    """Oracle: e_0..e_K by the Fraction solve of g = u - sum_{i>=1} g^{q^i}/p^i,
    degree by degree, with the q-powers of g kept through the binary chain."""
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
    chain = []
    for _ in range(imax):
        lvl = {1: [zero] * (K + 1)}
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
                lvl[c][d] = sum((ma[t] * mb[d - t] for t in range(1, d)), zero)
        val = zero
        pe, ee = p, q
        for i in range(imax):
            if ee <= d:
                val += chain[i][q][d] / pe
            pe *= p
            ee *= q
        g[d] = -val
    return g


def fgl_rational_reference(params: HondaParams) -> TruncPoly:
    """Oracle: exp(log x + log y) in Fraction arithmetic, from the Fraction
    exp recursion; slow, for small truncations."""
    D = params.trunc
    K = 2 * D - 2
    exp = exp_coeffs_fraction(params.p, params.q, K)
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


def inverse_fixed_point(f: Fgl, cap: int) -> np.ndarray:
    """Oracle: i <- i - F(x, i) gains one correct degree per pass."""
    x = np.eye(cap, dtype=np.int64)[1]
    inv = (-x) % f.p
    for _ in range(cap + 1):
        err = formal_sum(f, x, inv)
        if not err.any():
            return inv
        inv = (inv - err) % f.p
    raise AssertionError("fixed point did not converge")


def compose(outer, inner, p: int) -> np.ndarray:
    """outer(inner(x)) truncated at the common length."""
    out = np.zeros(len(inner), dtype=np.int64)
    pw = np.eye(len(inner), dtype=np.int64)[0]
    for c in outer:
        out = (out + c * pw) % p
        pw = np.convolve(pw, inner)[: len(inner)] % p
    return out


def m_series_composed(f: Fgl, ms, cap: int) -> dict:
    """Oracle: [0] = 0, [k+1](x) = F([k](x), x), [-k](x) = i([k](x))."""
    x = np.eye(cap, dtype=np.int64)[1]
    top = max(abs(m) for m in ms)
    series = [np.zeros(cap, dtype=np.int64), x]
    while len(series) <= top:
        series.append(formal_sum(f, series[-1], x))
    inv = inverse_fixed_point(f, cap)
    return {m: series[m] if m >= 0 else compose(inv, series[-m], f.p) for m in ms}


def level1_coproduct(p: int, n: int) -> dict:
    """Independent evaluation of the level-1 coproduct: the binomial
    expression x(x)1 + 1(x)x - sum (1/p) C(p,i) x^{i p^{n-1}} (x)
    x^{(p-i) p^{n-1}}, reduced mod p."""
    from math import comb

    out = {(1, 0): 1, (0, 1): 1}
    e = p ** (n - 1)
    for i in range(1, p):
        c = (-(comb(p, i) // p)) % p
        key = (i * e, (p - i) * e)
        out[key] = (out.get(key, 0) + c) % p
    return {k: v for k, v in out.items() if v}


def fgl_reduced_to_level1(p: int, n: int) -> dict:
    q = p ** n
    f = honda_fgl(HondaParams(p, n, q))
    return poly2(f.F, p).coeffs


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_level1_coproduct_matches_binomial_formula(p, n):
    assert fgl_reduced_to_level1(p, n) == level1_coproduct(p, n)


def test_honda_log_examples():
    f = honda_log(HondaParams(2, 1, 5))
    assert f.coeffs == {(1,): Fraction(1), (2,): Fraction(1, 2), (4,): Fraction(1, 4)}
    f = honda_log(HondaParams(3, 1, 4))
    assert f.coeffs == {(1,): Fraction(1), (3,): Fraction(1, 3)}
    f = honda_log(HondaParams(2, 2, 5))
    assert f.coeffs == {(1,): Fraction(1), (4,): Fraction(1, 2)}


@pytest.mark.parametrize("p,n,K", [(2, 1, 126), (3, 1, 160), (2, 2, 126), (5, 1, 100),
                                   (3, 2, 100), (2, 1, 0), (2, 1, 1), (2, 1, 2), (3, 1, 2)])
def test_integer_exp_matches_fraction_recursion(p, n, K):
    exp = honda_exp_coeffs(p, p ** n, K)
    assert len(exp) == K + 1 and all(isinstance(c, Fraction) for c in exp)
    assert exp == exp_coeffs_fraction(p, p ** n, K)


def test_exp_inverts_log():
    for (p, n, K) in [(2, 1, 16), (3, 1, 12), (2, 2, 10), (2, 1, 40), (3, 1, 30)]:
        q = p ** n
        exp = honda_exp_coeffs(p, q, K)
        # compose: log(exp(u)) must be u up to degree K
        log = honda_log(HondaParams(p, n, K + 1))
        g = TruncPoly(("x",), (K + 1,), {(k,): c for k, c in enumerate(exp) if c}, None)
        comp = log.substitute({"x": g})
        assert comp == TruncPoly(("x",), (K + 1,), {(1,): 1}, None)


def test_scaled_path_matches_rational_reference():
    # _fgl_residues directly: honda_fgl would serve a slice of any larger
    # truncation already cached.  (2, 2, 5) and (3, 2, 10) end on a zero exp
    # coefficient of degree above every nonzero one.
    for (p, n, D) in [(2, 1, 8), (3, 1, 9), (2, 2, 8), (5, 1, 6), (2, 1, 16), (3, 1, 27),
                      (2, 2, 5), (3, 2, 10)]:
        fast = poly2(_fgl_residues(HondaParams(p, n, D)), p)
        slow = fgl_rational_reference(HondaParams(p, n, D)).reduce_mod(p)
        assert fast == slow


# SHA-256 of the little-endian int64 bytes of the (D, D) residue array F[i, j]
# (row i = exponent of x), recorded from the dict-Horner evaluation that the
# sandwich L^T M L replaced.
GOLDEN_F = {
    (2, 1, 64): "7c27e2c602730d4e7570611d241b637258827d85cb1ebbcb45ec650d9ff78258",
    (3, 1, 81): "d2b68cf480ed23b6daa0dd6921fdb5bef4709f54c24259b57f3abcd1a9b73b5f",
    (2, 2, 64): "481054ad7888b7f00423ab2947a48d3772b85fccb5298a08c96ce1eb12829522",
}


# the larger laws, recorded from the sandwich with one shared power of p
# that the output-graded sandwich replaced
GOLDEN_F.update({
    (2, 1, 128): "a59388fe76a7344a31238b8e0b23165d6660e36fad77cda4557bc51dd312e97f",
    (3, 1, 243): "b3c17034929cc65b17fc2095ccaa78d3987d08c1d4490b2a9112e12c25026b8e",
})


@pytest.mark.parametrize("p,n,D", sorted(GOLDEN_F))
def test_residue_array_matches_golden_digest(p, n, D):
    F = honda_fgl(HondaParams(p, n, D)).F
    assert F.shape == (D, D) and F.dtype == np.int64
    digest = hashlib.sha256(np.ascontiguousarray(F, dtype="<i8").tobytes()).hexdigest()
    assert digest == GOLDEN_F[(p, n, D)]


@pytest.mark.parametrize("p,n,D", [(2, 1, 8), (3, 1, 9), (2, 2, 16)])
def test_unit_and_commutativity(p, n, D):
    f = honda_fgl(HondaParams(p, n, D))
    F = poly2(f.F, p)
    # F(x, 0) = x and F(0, y) = y
    for (i, j), c in F.coeffs.items():
        if j == 0:
            assert (i, c) == (1, 1)
        if i == 0:
            assert (j, c) == (1, 1)
    # symmetry
    assert all(F.coeff((j, i)) == c for (i, j), c in F.coeffs.items())


@pytest.mark.parametrize("p,n,D", [(2, 1, 8), (3, 1, 9), (2, 2, 8)])
def test_associativity_within_truncation(p, n, D):
    f = honda_fgl(HondaParams(p, n, D))
    ring = (("x", "y", "z"), (D, D, D))
    x = TruncPoly.variable("x", *ring, modulus=p)
    y = TruncPoly.variable("y", *ring, modulus=p)
    z = TruncPoly.variable("z", *ring, modulus=p)
    def F(a, b):
        return poly2(f.F, p).substitute({"x": a, "y": b})
    assert F(F(x, y), z) == F(x, F(y, z))


def test_formal_inverse_property():
    for (p, n, D) in [(2, 1, 8), (3, 1, 9), (2, 2, 16)]:
        f = honda_fgl(HondaParams(p, n, D))
        inv = formal_inverse(f, D)
        assert inv.shape == (D,) and inv.dtype == np.int64
        x = np.eye(D, dtype=np.int64)[1]
        assert not formal_sum(f, x, inv).any()
        # the oracle: F(x, i(x)) by substitution into the TruncPoly of F
        ring = (("x",), (D,))
        xp = TruncPoly.variable("x", *ring, modulus=p)
        assert poly2(f.F, p).substitute({"x": xp, "y": poly1(inv, p)}).is_zero()


def test_formal_sum_matches_substitution():
    f = honda_fgl(HondaParams(3, 1, 9))
    a = np.array([0, 1, 2, 0, 1, 0, 0, 2, 1])
    b = np.array([0, 2, 0, 1, 0, 0, 1, 0, 0])
    want = poly2(f.F, 3).substitute({"x": poly1(a, 3), "y": poly1(b, 3)})
    assert poly1(formal_sum(f, a, b), 3) == want
    with pytest.raises(ExactKernelError):
        formal_sum(f, a, b[:5])


def test_m_series_examples():
    f2 = honda_fgl(HondaParams(2, 1, 4))
    assert m_series(f2, 1, 4).tolist() == [0, 1, 0, 0]
    assert m_series(f2, 2, 4).tolist() == [0, 0, 1, 0]
    f3 = honda_fgl(HondaParams(3, 1, 9))
    assert m_series(f3, 3, 9).tolist() == [0, 0, 0, 1, 0, 0, 0, 0, 0]
    s0 = m_series(f3, 0, 9)
    assert s0.shape == (9,) and not s0.any()


def test_p_power_series_kills_q_power():
    # [p^r](x) = 0 mod x^{q^r}
    for (p, n) in [(2, 1), (3, 1), (2, 2)]:
        q = p ** n
        for r in (1, 2):
            D = q ** r
            f = honda_fgl(HondaParams(p, n, D))
            assert not m_series(f, p ** r, D).any()


def test_m_series_linear_term():
    f = honda_fgl(HondaParams(3, 1, 9))
    for m in range(-3, 4):
        s = m_series(f, m, 9)
        assert s[1] == m % 3


def test_m_series_multiplicativity():
    f = honda_fgl(HondaParams(2, 1, 8))
    for m1 in range(-3, 4):
        for m2 in range(-3, 4):
            lhs = poly1(m_series(f, m1 * m2, 8), 2)
            inner = poly1(m_series(f, m2, 8), 2)
            outer = poly1(m_series(f, m1, 8), 2)
            comp = outer.substitute({"x": inner})
            assert comp == lhs, (m1, m2)


def test_negative_m_series_is_formal_inverse_composite():
    f = honda_fgl(HondaParams(3, 1, 9))
    s = m_series(f, -1, 9)
    assert np.array_equal(s, formal_inverse(f, 9))
    # [-2] = i([2]) by TruncPoly substitution
    inv = poly1(formal_inverse(f, 9), 3)
    two = poly1(m_series(f, 2, 9), 3)
    assert poly1(m_series(f, -2, 9), 3) == inv.substitute({"x": two})


SERIES_LAWS = [(2, 1, 64), (3, 1, 81), (2, 2, 64)]


@pytest.mark.parametrize("p,n,D", SERIES_LAWS)
def test_series_match_composition_oracles(p, n, D):
    f = honda_fgl(HondaParams(p, n, D))
    ms = list(range(-3, 10)) + [p ** r for r in range(1, 4) if (p ** n) ** (r - 1) < D]
    want = m_series_composed(f, ms, D)
    for m in ms:
        assert np.array_equal(m_series(f, m, D), want[m]), m
    assert np.array_equal(formal_inverse(f, D), inverse_fixed_point(f, D))


# SHA-256 of the little-endian int64 bytes of series vectors, recorded from
# the fixed-point inverse and the composition [k+1](x) = F([k](x), x) that the
# one-dot series replaced; "m" stacks the rows m = -3..9.
GOLDEN_SERIES = {
    ("inverse", 2, 1, 128): "59dffb2d5d7d6f337cf852646256331c90d3db5a9ef3ee030957bddfba4b6970",
    ("p^1", 2, 1, 64): "f60983e21c9cca08114b490d798ca0c0435a6857fd6176a2da8222694af0e852",
    ("p^2", 2, 1, 64): "4cc35b09bb70c96bd57b369962e01866530ad0e39094d2d9c8f327c87517bf85",
    ("p^3", 2, 1, 64): "df05edb4611960f1f7a0dc8ae36bf0784aa023c86ea7d9937df0125f062a88f0",
    ("p^1", 3, 1, 81): "38cb7da623cf67f8cfcb9e627743d01799437045167f72bdc834328eaad6f1ff",
    ("p^2", 3, 1, 81): "19c6902369b085648d4d29b6aa6f342256a10c80169841ffc54fa16b9eb40d99",
    ("p^3", 3, 1, 81): "8032a60f08fbf41cc8031724e1a383ed91537088bcf765af80c8ada3c669a702",
    ("m", 2, 1, 64): "7f8f54211ca6ed582bbb0a105c31471ec0f7515fdabfe4fc22f15caee4a9b031",
    ("m", 3, 1, 81): "ac1f5c957ae9eb215511b001b622756da2123bb9ba281e61c809654665e5e871",
    ("m", 2, 2, 64): "82598ef504202d401d6ca765edd2d9ab57fb4a2c39732ee15363dc7ea83bf33d",
    # recorded from the one-dot series over the shared power of p
    ("p^1", 2, 1, 128): "9589d53da4be6ca2cd95e596f13d93d9b4f267aad6bacaf03befcc18ed0d0c22",
    ("inverse", 3, 1, 243): "187da193561fdbc802144035f6d3aa07166e99557b04b579d1725b185e589c62",
    ("p^1", 3, 1, 243): "5ff3f70548c75bf270393df2b313121ba466e9048f2033cf059fce86fa62d76d",
}


@pytest.mark.parametrize("kind,p,n,D", sorted(GOLDEN_SERIES))
def test_series_match_golden_digest(kind, p, n, D):
    f = honda_fgl(HondaParams(p, n, D))
    if kind == "inverse":
        s = formal_inverse(f, D)
    elif kind == "m":
        s = np.stack([m_series(f, m, D) for m in range(-3, 10)])
    else:
        s = m_series(f, p ** int(kind[2:]), D)
    assert s.dtype == np.int64
    assert sha(s) == GOLDEN_SERIES[(kind, p, n, D)]


def test_series_refuse_cap_beyond_truncation():
    # the D = 8 law cannot know x^10 of the inverse: an inverse at cap 16
    # read 1 there, where the D = 16 law has 0
    assert formal_inverse(honda_fgl(HondaParams(2, 1, 16)), 16)[10] == 0
    f = honda_fgl(HondaParams(2, 1, 8))
    x = np.eye(16, dtype=np.int64)[1]
    for call in (lambda: formal_inverse(f, 16), lambda: m_series(f, 3, 16),
                 lambda: formal_sum(f, x, x)):
        with pytest.raises(ExactKernelError, match="exceeds computed truncation"):
            call()


def test_series_refuse_perturbed_log_data():
    # a scaled exp coefficient off by one breaks p^S-divisibility of the dot
    f = honda_fgl(HondaParams(2, 1, 8))
    L, gm, S = f._logs
    for k in (1, 3):
        bad = list(gm)
        bad[k] += 1
        g = Fgl(f.params, fgl._LogPowers(L, bad, S))
        with pytest.raises(ExactKernelError, match="non p-integral series"):
            m_series(g, 1, 8)
        with pytest.raises(ExactKernelError, match="non p-integral series"):
            formal_inverse(g, 8)


@pytest.mark.parametrize("p,n,D", [(2, 2, 5), (3, 2, 10)])
def test_series_at_truncations_ending_on_zero_exp(p, n, D, monkeypatch):
    monkeypatch.setattr(fgl, "_fgl_cache", {})
    f = honda_fgl(HondaParams(p, n, D))
    assert f.F.shape == (D, D)
    ms = list(range(-3, 5))
    want = m_series_composed(f, ms, D)
    for m in ms:
        assert np.array_equal(m_series(f, m, D), want[m]), m
    assert np.array_equal(formal_inverse(f, D), inverse_fixed_point(f, D))


@pytest.mark.parametrize("p,n,big,small", [(2, 1, 64, 16), (3, 1, 81, 27), (2, 2, 64, 20)])
def test_sliced_law_series_match_cold_build(p, n, big, small, monkeypatch):
    monkeypatch.setattr(fgl, "_fgl_cache", {})
    honda_fgl(HondaParams(p, n, big))
    sliced = honda_fgl(HondaParams(p, n, small))
    assert sliced._logs.L.shape == (big, big)
    monkeypatch.setattr(fgl, "_fgl_cache", {})
    cold = honda_fgl(HondaParams(p, n, small))
    assert cold._logs.L.shape == (small, small)
    assert np.array_equal(sliced.F, cold.F)
    for cap in (small - 3, small):
        assert np.array_equal(formal_inverse(sliced, cap), formal_inverse(cold, cap))
        for m in (-2, 0, 1, 2, 5, p ** 2):
            assert np.array_equal(m_series(sliced, m, cap), m_series(cold, m, cap)), (cap, m)


@pytest.mark.parametrize("p,n,D", [(2, 1, 16), (3, 1, 27), (2, 2, 16)])
def test_series_at_m_zero_and_one(p, n, D):
    f = honda_fgl(HondaParams(p, n, D))
    x = np.eye(D, dtype=np.int64)[1]
    assert not m_series(f, 0, D).any()
    assert np.array_equal(m_series(f, 1, D), x)
    assert np.array_equal(m_series(f, -1, D), formal_inverse(f, D))
    assert not formal_sum(f, x, m_series(f, -1, D)).any()


@pytest.mark.parametrize("p,n,D", [(3, 1, 81), (5, 1, 25), (3, 2, 81)])
def test_inverse_is_minus_x_for_odd_p(p, n, D):
    # for odd p the logarithm is odd, so exp(-log x) = -x
    f = honda_fgl(HondaParams(p, n, D))
    assert np.array_equal(formal_inverse(f, D), (-np.eye(D, dtype=np.int64)[1]) % p)


def test_fgl_requires_trunc_at_least_q():
    with pytest.raises(ExactKernelError):
        honda_fgl(HondaParams(2, 2, 3))


def test_params_validation():
    with pytest.raises(ExactKernelError):
        HondaParams(4, 1, 8)
    with pytest.raises(ExactKernelError):
        HondaParams(2, 0, 8)
    with pytest.raises(ExactKernelError):
        HondaParams(2, 1, 1)


def test_cache_serves_truncations():
    big = honda_fgl(HondaParams(2, 1, 16))
    small = honda_fgl(HondaParams(2, 1, 8))
    assert small.F.shape == (8, 8)
    assert np.array_equal(small.F, big.F[:8, :8])
    assert not small.F.flags.writeable and not big.F.flags.writeable


def _count_sandwiches(monkeypatch) -> list:
    """Empty the law cache and record the (p, n, D) of every F computed."""
    monkeypatch.setattr(fgl, "_fgl_cache", {})
    computed = []
    real = fgl._fgl_residues

    def counted(params, logs=None):
        computed.append((params.p, params.n, params.trunc))
        return real(params, logs)

    monkeypatch.setattr(fgl, "_fgl_residues", counted)
    return computed


@pytest.mark.parametrize("p,n,small,big", [(2, 1, 64, 128), (3, 1, 81, 243)])
def test_law_computed_on_first_read(p, n, small, big, monkeypatch):
    computed = _count_sandwiches(monkeypatch)
    f = honda_fgl(HondaParams(p, n, small))
    for m in (-1, 2):
        m_series(f, m, small)
    assert computed == []  # the series need only the log powers
    before = f.F
    assert computed == [(p, n, small)]
    g = honda_fgl(HondaParams(p, n, big))  # a larger law, its F not yet read
    assert np.array_equal(f.F, before)
    sliced = honda_fgl(HondaParams(p, n, small))
    assert sliced._logs is g._logs and np.array_equal(sliced.F, before)
    assert computed == [(p, n, small)]
    assert sha(g.F) == GOLDEN_F[(p, n, big)]
    assert computed == [(p, n, small), (p, n, big)]
    # every later read is a slice of the largest F
    after = f.F
    assert after.base is g.F.base and sha(after) == GOLDEN_F[(p, n, small)]
    for F in (before, after, sliced.F, g.F):
        assert not F.flags.writeable
        with pytest.raises(ValueError):
            F[0, 1] = 0
    assert computed == [(p, n, small), (p, n, big)]
    monkeypatch.setattr(fgl, "_fgl_cache", {})
    assert np.array_equal(honda_fgl(HondaParams(p, n, small)).F, after)


def test_tower_check_reads_no_law_of_the_top_level(monkeypatch, capsys):
    # pdiv_check reads level r+s+1 only through series and algebra maps: its
    # law is built for the log powers, and no F is computed at D = 64
    computed = _count_sandwiches(monkeypatch)
    monkeypatch.setattr(hopftower, "_level_cache", {})
    argv = ["tower", "check", "--p", "2", "--r", "3", "--s", "2", "--format", "json"]
    assert dispatch(argv) == dispatch(argv) == EXIT_OK
    capsys.readouterr()
    assert fgl._fgl_cache[2, 1][0].params.trunc == 64
    assert computed and all(D < 64 for (_, _, D) in computed)
    assert len(computed) == len(set(computed))


@pytest.mark.parametrize("argv,law", [
    (("--p", "2", "--r", "1", "--s", "2"), (2, 1, 8)),
    (("--p", "3", "--r", "1", "--s", "1"), (3, 1, 9)),
])
def test_tower_check_runs_one_sandwich(monkeypatch, capsys, argv, law):
    # the largest level read (r+s) computes its F first; every smaller
    # level's F is a slice of it
    computed = _count_sandwiches(monkeypatch)
    monkeypatch.setattr(hopftower, "_level_cache", {})
    assert dispatch(["tower", "check", *argv, "--format", "json"]) == EXIT_OK
    capsys.readouterr()
    assert computed == [law]


def test_law_computed_once_across_threads(monkeypatch):
    computed = _count_sandwiches(monkeypatch)
    f = honda_fgl(HondaParams(2, 1, 64))
    results = []
    barrier = threading.Barrier(4)  # more readers than cores

    def read():
        barrier.wait()
        results.append(f.F)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert computed == [(2, 1, 64)]
    assert len(results) == 4 and all(F.base is results[0].base for F in results)
    assert sha(results[0]) == GOLDEN_F[(2, 1, 64)]


def test_sandwich_refuses_inconsistent_exp(monkeypatch):
    # phi_j off by c (j >= 1, 1 + j(q-1) < D) moves the sandwich entry
    # (1 + j(q-1), 0) by c, which is not divisible by the p^j it must carry:
    # a coefficient of F that is not p-integral must raise instead of
    # reducing silently.  (phi_0 = 1 carries p^0, so the check cannot see it.)
    real = fgl._honda_phi
    for (p, n, D, js) in [(2, 1, 8, (1, 3, 6)), (3, 1, 9, (1, 2, 3)), (2, 2, 16, (1, 2, 4))]:
        P = HondaParams(p, n, D)
        for j in js:
            for c in (1, p ** (j - 1)):
                def perturbed(p_, q_, J):
                    phi = real(p_, q_, J)
                    phi[j] += c
                    return phi
                monkeypatch.setattr(fgl, "_honda_phi", perturbed)
                with pytest.raises(ExactKernelError, match="non p-integral FGL coefficient"):
                    fgl._fgl_residues(P)
        monkeypatch.setattr(fgl, "_honda_phi", real)
        # one graded log power entry off by one: L~[1+g, 1+2g] moves the
        # entry (1+2g, 0) by phi_1 = -1, which must carry p^2
        g = p ** n - 1
        L, phi, N = fgl._log_powers(P)
        bad = L.copy()
        bad[1 + g, 1 + 2 * g] += 1
        with pytest.raises(ExactKernelError, match="non p-integral FGL coefficient"):
            fgl._fgl_residues(P, fgl._LogPowers(bad, phi, N))
        assert np.array_equal(fgl._fgl_residues(P, fgl._LogPowers(L, phi, N)),
                              fgl._fgl_residues(P))


@pytest.mark.parametrize("p,n,K", [(2, 1, 60), (3, 1, 60), (2, 2, 60), (5, 1, 40), (3, 2, 60)])
def test_exp_coeffs_contract(p, n, K):
    # the oracle's Fraction exp over the integer phi: e_1 = 1, p-power denominators bounded by the
    # functional-equation lemma, and e_k = 0 unless k = 1 (mod q-1)
    q = p ** n
    exp = honda_exp_coeffs(p, q, K)
    assert exp[0] == 0 and exp[1] == 1
    for k, c in enumerate(exp[1:], 1):
        if (k - 1) % (q - 1):
            assert c == 0, k
        else:
            assert (p ** ((k - 1) // (q - 1))) % c.denominator == 0, k


def test_all_fgl_coefficients_are_p_integral():
    # the rational pipeline asserts integrality internally; double-check on
    # the reference path where coefficients are explicit Fractions
    for (p, n, D) in [(2, 1, 8), (3, 1, 9)]:
        ref = fgl_rational_reference(HondaParams(p, n, D))
        assert all(c.denominator % p for c in ref.coeffs.values())
