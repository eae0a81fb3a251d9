"""Frobenius forms, dual bases, form modification, Gysin and socle maps."""

import random
from itertools import product

import numpy as np
import pytest

from greenkernel.exactkernel import ExactKernelError
from greenkernel.borel import AlgebraMap, El, algebra_map, make_algebra, subalgebra_close
from greenkernel.frobform import (
    FrobeniusForm,
    canonical_form,
    check_reciprocity,
    extend_socle_map,
    form_unit,
    gysin,
    is_frobenius_form,
    modify_form,
    socle_generator,
)


def test_canonical_form_examples():
    A = make_algebra(2, (2,))
    lam = canonical_form(A)
    assert lam.value(A.gen()) == 1 and lam.value(A.one()) == 0
    B = make_algebra(3, (9,))
    lam9 = canonical_form(B)
    assert lam9.value(B.monomial((8,))) == 1
    C = make_algebra(2, (2, 2))
    lamc = canonical_form(C)
    assert lamc.value(C.monomial((1, 1))) == 1


def test_canonical_form_requires_gorenstein():
    # span{1, x^3 y, x y^3} in F_2[x,y]/(x^4,y^4) is closed (all products of
    # the two radical generators vanish) and its socle is 2-dimensional
    A = make_algebra(2, (4, 4))
    S = subalgebra_close(A, [A.monomial((3, 1)), A.monomial((1, 3))])
    assert S.dim == 3
    assert len(S.socle_vecs()) == 2
    with pytest.raises(ExactKernelError, match="not Gorenstein"):
        canonical_form(S)


def test_augmentation_not_frobenius_above_dim_one():
    A = make_algebra(3, (3,))
    aug = np.array([1, 0, 0])
    ok, pairing, dual = is_frobenius_form(A, aug)
    assert not ok and dual is None
    E = make_algebra(3, ())
    ok1, _, dual1 = is_frobenius_form(E, np.array([2]))
    assert ok1 and len(dual1) == 1


def test_coefficient_of_top_is_frobenius_antidiagonal():
    p = 3
    A = make_algebra(p, (p,))
    lam = np.zeros(p, dtype=np.int64)
    lam[p - 1] = 1
    ok, pairing, dual = is_frobenius_form(A, lam)
    assert ok
    # pairing <x^i | x^j> = [i + j == p - 1]
    want = np.zeros((p, p), dtype=np.int64)
    for i in range(p):
        want[i, p - 1 - i] = 1
    assert np.array_equal(pairing.a, want)
    # dual basis pairs monomials with complementary monomials
    for j, v in enumerate(dual):
        e = np.zeros(p, dtype=np.int64)
        e[j] = 1
        assert FrobeniusForm(A, lam).pair(El(A, e), v) == 1


def test_modify_form_identity_case():
    A = make_algebra(2, (2,))
    lam = canonical_form(A)
    us = [A.gen(), A.one()]
    lam2 = modify_form(A, lam, us, [lam.value(u) for u in us])
    assert lam2 == lam


def test_modify_form_two_dim_case():
    A = make_algebra(2, (2,))
    lam = canonical_form(A)
    lam2 = modify_form(A, lam, [A.gen(), A.one()], [1, 1])
    assert lam2.value(A.gen()) == 1 and lam2.value(A.one()) == 1
    assert np.array_equal(lam2.vec, np.array([1, 1]))


def test_modify_form_recovers_canonical():
    A = make_algebra(3, (3,))
    x = A.gen()
    lam = canonical_form(A)
    lam2 = modify_form(A, lam, [x ** 2, x, A.one()], [1, 0, 0])
    assert np.array_equal(lam2.vec, np.array([0, 0, 1]))


def test_modify_form_randomized():
    rng = random.Random(23)
    for A in (make_algebra(2, (4,)), make_algebra(3, (3,)), make_algebra(2, (2, 2))):
        lam = canonical_form(A)
        z = socle_generator(A)
        others = [b for b in A.basis_elements() if not np.array_equal(b.vec, z.vec)]
        us = [z] + others
        for _ in range(20):
            ts = [rng.randrange(1, A.p)] + [rng.randrange(A.p) for _ in others]
            lam2 = modify_form(A, lam, us, ts)
            assert [lam2.value(u) for u in us] == ts


def test_modify_form_rejects_zero_socle_target():
    A = make_algebra(2, (2,))
    lam = canonical_form(A)
    with pytest.raises(ExactKernelError, match="t_0"):
        modify_form(A, lam, [A.gen(), A.one()], [0, 1])


def test_modify_form_requires_socle_first():
    A = make_algebra(2, (4,))
    lam = canonical_form(A)
    basis = list(reversed(A.basis_elements()))  # top monomial first = socle: fine
    modify_form(A, lam, basis, [1, 0, 0, 0])
    with pytest.raises(ExactKernelError, match="socle"):
        modify_form(A, lam, A.basis_elements(), [1, 0, 0, 0])  # u_0 = 1 not in socle


def test_form_unit_identity_and_scalar():
    A = make_algebra(3, (3,))
    lam = canonical_form(A)
    assert form_unit(A, lam, lam) == A.one()
    scaled = FrobeniusForm(A, (2 * lam.vec) % 3)
    u = form_unit(A, lam, scaled)
    assert u == A.scalar(2).inv()  # theta = lam . u^{-1} with u = c^{-1}


def test_form_unit_two_dim_solve():
    A = make_algebra(2, (2,))
    lam = canonical_form(A)
    theta = FrobeniusForm(A, np.array([1, 1]))
    u = form_unit(A, lam, theta)
    ui = u.inv()
    for b in A.basis_elements():
        assert theta.value(b) == lam.value(b * ui)


def test_form_unit_rejects_degenerate_theta():
    A = make_algebra(3, (3,))
    lam = canonical_form(A)
    with pytest.raises(ExactKernelError, match="not a Frobenius form"):
        form_unit(A, lam, np.array([1, 0, 0]))  # aug


def test_form_unit_modify_round_trip():
    rng = random.Random(4)
    A = make_algebra(3, (9,))
    lam = canonical_form(A)
    z = socle_generator(A)
    others = [b for b in A.basis_elements() if not np.array_equal(b.vec, z.vec)]
    for _ in range(5):
        ts = [rng.randrange(1, 3)] + [rng.randrange(3) for _ in others]
        lam2 = modify_form(A, lam, [z] + others, ts)
        u = form_unit(A, lam, lam2)
        ui = u.inv()
        for b in A.basis_elements():
            assert lam2.value(b) == lam.value(b * ui)


def test_gysin_identity():
    A = make_algebra(2, (4,))
    lam = canonical_form(A)
    alpha = gysin(AlgebraMap.identity(A), lam, lam)
    assert np.array_equal(alpha.matrix, np.eye(4, dtype=np.int64))


def test_gysin_restriction_example():
    A = make_algebra(2, (4,))
    B = make_algebra(2, (2,), ("y",))
    f = algebra_map(A, B, [B.gen()])
    alpha = gysin(f, canonical_form(A), canonical_form(B))
    assert alpha.apply(B.one()) == A.gen() ** 2
    assert alpha.apply(B.gen()) == A.gen() ** 3
    # adjointness on all pairs
    lamA, lamB = canonical_form(A), canonical_form(B)
    for b in B.basis_elements():
        for a in A.basis_elements():
            assert lamA.pair(alpha.apply(b), a) == lamB.pair(b, f.apply(a))


def test_gysin_of_augmentation_hits_socle():
    for (p, n) in [(2, 2), (3, 1)]:
        q = p ** n
        A = make_algebra(p, (q,))
        F = make_algebra(p, ())
        aug = algebra_map(A, F, [F.zero()])
        alpha = gysin(aug, canonical_form(A), canonical_form(F))
        assert alpha.apply(F.one()) == A.monomial((q - 1,))


def test_gysin_pullback_form_is_frobenius():
    A = make_algebra(2, (4,))
    B = make_algebra(2, (2,), ("y",))
    f = algebra_map(A, B, [B.gen()])
    lamA, lamB = canonical_form(A), canonical_form(B)
    alpha = gysin(f, lamA, lamB)
    pulled = (alpha.matrix.T @ lamA.vec) % 2  # lam_A o alpha as covector on B
    ok, _, _ = is_frobenius_form(B, pulled)
    assert ok


def test_gysin_requires_algebra_map():
    A = make_algebra(2, (2,))
    f = AlgebraMap(A, A, np.eye(2, dtype=np.int64))  # flag not set
    with pytest.raises(ExactKernelError):
        gysin(f, canonical_form(A), canonical_form(A))


def test_extend_socle_map_identity_instance():
    A = make_algebra(2, (4,))
    f = AlgebraMap.identity(A)
    z = socle_generator(A)
    out = extend_socle_map(f, z)
    assert out.check_module_map(f)
    assert out.apply(z) == z
    # the identity matrix satisfies the same constraint system
    ident = AlgebraMap(A, A, np.eye(A.dim, dtype=np.int64))
    assert ident.check_module_map(f) and ident.apply(z) == z


def test_extend_socle_map_matches_gysin_constraints():
    A = make_algebra(2, (4,))
    B = make_algebra(2, (2,), ("y",))
    f = algebra_map(A, B, [B.gen()])
    alpha = gysin(f, canonical_form(A), canonical_form(B))
    sigma_img = alpha.apply(socle_generator(B))
    assert sigma_img == A.gen() ** 3
    out = extend_socle_map(f, sigma_img)
    assert out.check_module_map(f)
    assert out.apply(socle_generator(B)) == sigma_img
    # gysin output itself satisfies the extension constraints
    assert alpha.check_module_map(f)


def test_extend_socle_map_from_trivial():
    A = make_algebra(3, (3, 3))
    F = make_algebra(3, ())
    f = algebra_map(A, F, [F.zero(), F.zero()])
    # wrong direction: the local map must go A -> B = F_p
    out = extend_socle_map(f, socle_generator(A), socle_gen_B=F.one())
    assert out.apply(F.one()) == socle_generator(A)


def test_check_reciprocity():
    A = make_algebra(2, (4,))
    B = make_algebra(2, (2,), ("y",))
    f = algebra_map(A, B, [B.gen()])
    lamA = canonical_form(A)
    alpha = gysin(f, lamA, canonical_form(B))
    assert check_reciprocity(f, alpha, lamA)
    assert check_reciprocity(AlgebraMap.identity(A), AlgebraMap.identity(A), lamA)
    # corrupt alpha: swap two columns -> not a module map -> reciprocity fails
    bad = alpha.matrix.copy()
    bad[:, [0, 1]] = bad[:, [1, 0]]
    assert not check_reciprocity(f, AlgebraMap(B, A, bad), lamA)


def _reciprocity_by_pairs(f, alpha, lam_A) -> bool:
    """Oracle: (f(a)|b)_B = (a|alpha(b))_A checked one basis pair at a time."""
    A, B = f.source, f.target
    for a in A.basis_elements():
        fa = f.apply(a)
        for b in B.basis_elements():
            lhs = lam_A.value(alpha.apply(El(B, B.mul_vec(fa.vec, b.vec))))
            rhs = lam_A.value(El(A, A.mul_vec(a.vec, alpha.apply(b).vec)))
            if lhs != rhs:
                return False
    return True


def test_check_reciprocity_matches_pair_oracle():
    A = make_algebra(3, (9,))
    B = make_algebra(3, (3, 3), ("y", "z"))
    f = algebra_map(A, B, [B.gen(0) + B.gen(1)])
    lamA = canonical_form(A)
    alpha = gysin(f, lamA, canonical_form(B))
    rng = np.random.default_rng(5)
    candidates = [alpha, alpha.scale(2)]
    for _ in range(4):
        bad = alpha.matrix.copy()
        bad[rng.integers(A.dim), rng.integers(B.dim)] += 1
        candidates.append(AlgebraMap(B, A, bad))
    candidates.append(AlgebraMap(B, A, rng.integers(0, 3, (A.dim, B.dim))))
    verdicts = [check_reciprocity(f, c, lamA) for c in candidates]
    assert verdicts == [_reciprocity_by_pairs(f, c, lamA) for c in candidates]
    assert verdicts[:2] == [True, True] and not any(verdicts[2:])


def test_socle_nonvanishing_for_frobenius_forms():
    for A in (make_algebra(2, (4,)), make_algebra(3, (3, 3))):
        lam = canonical_form(A)
        assert lam.value(socle_generator(A)) != 0


def test_socle_transport_search():
    # for theta: A -> B local and nonzero on soc A, some b has
    # b * theta(soc A) = soc B
    A = make_algebra(2, (2,))
    B = make_algebra(2, (2, 2))
    theta = algebra_map(A, B, [B.monomial((1, 0))])  # x -> x1; theta(x) != 0
    zA = socle_generator(A)
    img = theta.apply(zA)
    assert not img.is_zero()
    zB = socle_generator(B)
    found = None
    for coeffs in product(range(2), repeat=B.dim):
        b = El(B, np.array(coeffs, dtype=np.int64))
        if b * img == zB:
            found = b
            break
    assert found is not None


def test_canonical_form_on_subalgebra():
    A = make_algebra(3, (3,))
    S = subalgebra_close(A, [A.gen() ** 2])
    lam = canonical_form(S)
    z = socle_generator(S)
    assert lam.value(z) == 1
    ok, _, _ = is_frobenius_form(S, lam.vec)
    assert ok


def test_extend_socle_map_medium_dims():
    A = make_algebra(2, (8,))
    B = make_algebra(2, (4,), ("y",))
    f = algebra_map(A, B, [B.gen()])
    target = socle_generator(A)  # x^7
    out = extend_socle_map(f, target)
    assert out.check_module_map(f)
    assert out.apply(socle_generator(B)) == target


def test_check_module_map_rejects_perturbed_gysin():
    A = make_algebra(2, (4,))
    B = make_algebra(2, (2, 2), ("y1", "y2"))
    f = algebra_map(A, B, [B.monomial((1, 0)) + B.monomial((0, 1))])
    alpha = gysin(f, canonical_form(A), canonical_form(B))
    assert alpha.check_module_map(f)
    bad = alpha.matrix.copy()
    bad[0, 0] = (bad[0, 0] + 1) % 2
    assert not AlgebraMap(B, A, bad).check_module_map(f)


def test_check_module_map_requires_algebra_map():
    A = make_algebra(2, (2,))
    f = AlgebraMap(A, A, np.eye(2, dtype=np.int64))  # flag not set
    with pytest.raises(ExactKernelError):
        AlgebraMap.identity(A).check_module_map(f)


# -- the canonical form is built once per algebra and is read-only ------------


def test_canonical_form_is_one_object_per_algebra():
    A = make_algebra(3, (9, 3))
    S = subalgebra_close(A, [A.monomial((3, 0))])
    for alg in (A, S):
        assert canonical_form(alg) is canonical_form(alg)


def test_cached_form_refuses_writes():
    A = make_algebra(2, (4, 2))
    lam = canonical_form(A)
    for arr in (lam.vec, lam.pairing.a, lam.dual):
        with pytest.raises(ValueError):
            arr[0] = 1
    # a later caller still sees the form it would have computed
    assert canonical_form(A).value(A.top_monomial()) == 1


def test_value_equal_algebras_give_equal_forms():
    A1, A2 = make_algebra(2, (4, 2)), make_algebra(2, (4, 2))
    assert A1 is not A2 and A1 == A2
    lam1, lam2 = canonical_form(A1), canonical_form(A2)
    assert lam1 is not lam2 and lam1 == lam2
    assert np.array_equal(lam1.dual, lam2.dual)

