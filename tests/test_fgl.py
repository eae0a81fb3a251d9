"""Honda formal group laws: logarithm, group law, inverse, [m]-series."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from greenkernel.exactkernel import ExactKernelError, TruncPoly
from greenkernel.fgl import (
    Fgl,
    HondaParams,
    _fgl_rational_reference,
    _fgl_residues,
    formal_inverse,
    formal_sum,
    honda_exp_coeffs,
    honda_fgl,
    honda_log,
    m_series,
)


def poly2(F, p: int) -> TruncPoly:
    """The residue array F as a TruncPoly in x, y (the test oracle's ring)."""
    D = F.shape[0]
    return TruncPoly(("x", "y"), (D, D), {(i, j): int(F[i, j]) for i, j in zip(*np.nonzero(F))}, p)


def poly1(v, p: int) -> TruncPoly:
    """A coefficient vector as a univariate TruncPoly."""
    return TruncPoly(("x",), (len(v),), {(e,): int(c) for e, c in enumerate(v) if c}, p)


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


def test_exp_inverts_log():
    for (p, n, K) in [(2, 1, 16), (3, 1, 12), (2, 2, 10)]:
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
        slow = _fgl_rational_reference(HondaParams(p, n, D)).reduce_mod(p)
        assert fast == slow


# SHA-256 of the little-endian int64 bytes of the (D, D) residue array F[i, j]
# (row i = exponent of x), recorded from the dict-Horner evaluation that the
# sandwich L^T M L replaced.
GOLDEN_F = {
    (2, 1, 64): "7c27e2c602730d4e7570611d241b637258827d85cb1ebbcb45ec650d9ff78258",
    (3, 1, 81): "d2b68cf480ed23b6daa0dd6921fdb5bef4709f54c24259b57f3abcd1a9b73b5f",
    (2, 2, 64): "481054ad7888b7f00423ab2947a48d3772b85fccb5298a08c96ce1eb12829522",
}


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


def test_sandwich_refuses_inconsistent_exp(monkeypatch):
    # a denominator prime to p in exp, a coefficient of F that is not
    # p-integral, or an exp that breaks the grading must raise instead of
    # truncating, reducing or skipping blocks silently
    import greenkernel.fgl as fgl

    real = fgl.honda_exp_coeffs

    def perturbed(k, c):
        def coeffs(p, q, K):
            exp = real(p, q, K)
            exp[k] += c
            return exp
        return coeffs

    monkeypatch.setattr(fgl, "honda_exp_coeffs", perturbed(3, Fraction(1, 3)))
    with pytest.raises(ExactKernelError, match="denominator"):
        fgl._fgl_residues(HondaParams(2, 1, 8))
    monkeypatch.setattr(fgl, "honda_exp_coeffs", perturbed(2, Fraction(1, 2 ** 40)))
    with pytest.raises(ExactKernelError, match="non p-integral"):
        fgl._fgl_residues(HondaParams(2, 1, 8))
    # at q = 3 only odd exponents of exp may be nonzero; the blocks rely on it
    monkeypatch.setattr(fgl, "honda_exp_coeffs", perturbed(2, Fraction(1)))
    with pytest.raises(ExactKernelError, match="graded"):
        fgl._fgl_residues(HondaParams(3, 1, 9))


def test_all_fgl_coefficients_are_p_integral():
    # the rational pipeline asserts integrality internally; double-check on
    # the reference path where coefficients are explicit Fractions
    for (p, n, D) in [(2, 1, 8), (3, 1, 9)]:
        ref = _fgl_rational_reference(HondaParams(p, n, D))
        assert all(c.denominator % p for c in ref.coeffs.values())
