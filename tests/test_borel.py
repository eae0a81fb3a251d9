"""Borel algebras: construction, products, socles, units, maps, subalgebras."""

import random
from itertools import product

import numpy as np
import pytest

from greenkernel.exactkernel import ExactKernelError, FpMatrix, ScopeError, row_space_basis
from greenkernel.borel import (
    AlgebraMap,
    BorelAlgebra,
    El,
    Subalgebra,
    algebra_map,
    is_unit,
    make_algebra,
    socle_basis,
    subalgebra_close,
    tensor,
)
from greenkernel.audit import default_subgroup_family
from greenkernel.fgl import HondaParams
from greenkernel.frobform import canonical_form, extend_socle_map, gysin
from greenkernel.green import SubgroupGreenFunctor, value_general
from greenkernel.grp import named_group
from greenkernel.hopftower import honda_level, tower_maps
from polyoracle import (
    TruncPoly,
    _pair_products,
    element_from_ambient,
    emb_left,
    emb_right,
    extend_socle_map_by_radical,
    extension_or_error,
    from_exp_dict,
    is_fp_array,
    nilpotency_exponent_by_radical,
    socle_by_kernel,
)


def test_make_algebra_dims():
    assert make_algebra(3, (3,)).dim == 3
    assert make_algebra(2, (4, 2)).dim == 8
    assert make_algebra(5, ()).dim == 1


def test_make_algebra_relation():
    A = make_algebra(2, (2,))
    x = A.gen()
    assert (x * x).is_zero()
    assert sorted(A.basis) == [(0,), (1,)]


def test_make_algebra_rejects_non_p_power():
    with pytest.raises(ExactKernelError):
        make_algebra(2, (6,))
    with pytest.raises(ExactKernelError):
        make_algebra(3, (1,))


def test_basis_graded_lex_top_monomial_last():
    A = make_algebra(2, (4, 2))
    assert A.basis[0] == (0, 0)
    assert A.basis[-1] == (3, 1)
    assert A.basis == sorted(A.basis, key=lambda e: (sum(e), e))


def test_tensor_kuenneth():
    A = make_algebra(3, (3,))
    B = make_algebra(3, (3,))
    T = tensor(A, B)
    assert T.algebra.dim == 9
    assert T.algebra.profile == (3, 3)
    # embeddings are algebra maps landing on the factor generators
    xa = emb_left(T).apply(A.gen())
    xb = emb_right(T).apply(B.gen())
    assert xa == T.algebra.gen(0)
    assert xb == T.algebra.gen(1)
    assert (xa * xb) == T.algebra.monomial((1, 1))


def test_tensor_with_trivial_factor():
    A = make_algebra(2, (4,))
    E = make_algebra(2, ())
    T = tensor(A, E)
    assert T.algebra.dim == A.dim
    assert T.algebra.profile == (4,)


def test_tensor_profile_concat():
    A = make_algebra(2, (2,))
    T = tensor(A, A)
    assert T.algebra.profile == (2, 2)
    assert T.algebra.dim == 4


@pytest.mark.parametrize("p,pa,pb", [
    (2, (128,), (128,)), (2, (4, 2), (8,)), (3, (9,), (3, 3)), (2, (2, 2), (2, 4)),
    (5, (), (5,)), (3, (3,), ()),
])
def test_tensor_pair_index_matches_lookup_loop(p, pa, pb):
    A, B = make_algebra(p, pa), make_algebra(p, pb)
    T = tensor(A, B)
    C = T.algebra
    want = np.array([[C.index[ea + eb] for eb in B.basis] for ea in A.basis], dtype=np.int64)
    assert np.array_equal(T.pair_index, want)


@pytest.mark.parametrize("p,pa,pb", [(2, (4, 2), (8,)), (3, (9,), (3, 3)), (5, (), (5,))])
def test_tensor_embeddings_built_on_first_access(p, pa, pb):
    A, B = make_algebra(p, pa), make_algebra(p, pb)
    T = tensor(A, B)
    # the tensor holds no embedding: the helpers build them from the pair index
    assert not hasattr(T, "emb_left") and not hasattr(T, "emb_right")
    # every monomial lands on its pair: a -> a (x) 1, b -> 1 (x) b
    for emb, src, col in ((emb_left(T), A, T.pair_index[:, 0]), (emb_right(T), B, T.pair_index[0])):
        assert emb.source is src and emb.target is T.algebra
        want = np.zeros((T.algebra.dim, src.dim), dtype=np.int64)
        want[col, np.arange(src.dim)] = 1
        assert np.array_equal(emb.matrix, want)


def test_tensor_mismatched_prime():
    with pytest.raises(ExactKernelError):
        tensor(make_algebra(2, (2,)), make_algebra(3, (3,)))


def test_socle_of_truncated_line():
    for (p, q) in [(2, 4), (3, 9), (5, 5)]:
        A = make_algebra(p, (q,))
        soc = socle_basis(A)
        assert len(soc) == 1
        assert soc[0] == A.monomial((q - 1,))


def brute_annihilator(A):
    """Oracle: all z with z*v = 0 for every v in the radical, by enumerating
    the whole algebra (usable for dim <= 4 over F_2... keep tiny)."""
    rad = A.radical_span_vecs()
    out = []
    for coeffs in product(range(A.p), repeat=A.dim):
        z = np.array(coeffs, dtype=np.int64)
        if all(not A.mul_vec(z, v).any() for v in rad):
            out.append(z)
    return out


def test_socle_f2xy_by_brute_force():
    A = make_algebra(2, (2, 2))
    soc = socle_basis(A)
    assert len(soc) == 1 and soc[0] == A.monomial((1, 1))
    # oracle over all 16 elements
    ann = brute_annihilator(A)
    assert len(ann) == 2  # {0, xy}
    assert any(np.array_equal(z, A.monomial((1, 1)).vec) for z in ann)


def test_socle_trivial_algebra():
    A = make_algebra(3, ())
    assert socle_basis(A) == [A.one()]


def test_tensor_socle_is_product_of_socles():
    A = make_algebra(2, (4,))
    B = make_algebra(2, (2, 2))
    T = tensor(A, B)
    za = emb_left(T).apply(socle_basis(A)[0])
    zb = emb_right(T).apply(socle_basis(B)[0])
    assert socle_basis(T.algebra)[0] == za * zb


def test_is_unit_and_inverse():
    A = make_algebra(3, (3,))
    x = A.gen()
    u = A.one() + x
    assert is_unit(A, u)
    inv = u.inv()
    assert inv == A.one() + 2 * x + x ** 2
    assert u * inv == A.one()
    assert not is_unit(A, x)
    two = A.scalar(2)
    assert is_unit(A, two) and two.inv() == A.scalar(2)


def test_unit_xor_nilpotent_exhaustive_small():
    for A in (make_algebra(2, (2, 2)), make_algebra(3, (3,))):
        for coeffs in product(range(A.p), repeat=A.dim):
            z = El(A, np.array(coeffs, dtype=np.int64))
            if z.is_zero():
                continue
            powers_vanish = any((z ** k).is_zero() for k in range(1, A.dim + 1))
            assert z.is_unit() != powers_vanish


def test_unit_xor_nilpotent_sampled_larger():
    rng = random.Random(5)
    A = make_algebra(2, (4, 2, 2))  # dim 16
    for _ in range(40):
        z = El(A, np.array([rng.randrange(2) for _ in range(A.dim)]))
        if z.is_zero():
            continue
        nilpotent = (z ** A.dim).is_zero()
        assert z.is_unit() != nilpotent


def test_radical_nilpotency_exponent():
    A = make_algebra(2, (4,))
    assert A.nilpotency_exponent() == 4
    B = make_algebra(2, (2, 2))
    assert B.nilpotency_exponent() == 3
    assert make_algebra(5, ()).nilpotency_exponent() == 1


def test_algebra_map_examples():
    A = make_algebra(2, (2,))
    B = make_algebra(2, (4,), ("y",))
    # x -> 0: augmentation followed by unit
    f0 = algebra_map(A, B, [B.zero()])
    assert f0.apply(A.gen()).is_zero()
    assert f0.apply(A.one()) == B.one()
    # x -> y^2 is a valid algebra map (y^4 = 0)
    f = algebra_map(A, B, [B.gen() ** 2])
    assert f.apply(A.gen()) == B.gen() ** 2
    assert f.is_algebra_map and f.check_multiplicative()
    # x -> y violates x^2 = 0
    with pytest.raises(ExactKernelError, match="not an algebra map"):
        algebra_map(A, B, [B.gen()])


def test_algebra_map_compose_rank():
    A = make_algebra(2, (4,))
    B = make_algebra(2, (2,), ("y",))
    f = algebra_map(A, B, [B.gen()])
    assert f.is_surjective() and not f.is_injective()
    idA = AlgebraMap.identity(A)
    assert f.compose(idA) == f
    g = algebra_map(B, A, [A.gen() ** 2])
    assert g.is_injective()
    fg = f.compose(g)  # B -> B: y -> f(x^2) = y^2 = 0
    assert fg.apply(B.gen()).is_zero()


def test_check_multiplicative_negative():
    A = make_algebra(2, (4,))
    # a linear map that is not multiplicative: swap 1 and x
    M = np.eye(A.dim, dtype=np.int64)
    M[:, [0, 1]] = M[:, [1, 0]]
    f = AlgebraMap(A, A, M)
    assert not f.check_multiplicative()


def test_subalgebra_close_examples():
    A = make_algebra(3, (3,))
    S1 = subalgebra_close(A, [A.one()])
    assert S1.dim == 1
    S2 = subalgebra_close(A, [A.gen() ** 2])
    assert S2.dim == 2
    S3 = subalgebra_close(A, A.basis_elements())
    assert S3.dim == A.dim


def test_subalgebra_structure():
    A = make_algebra(3, (3,))
    S = subalgebra_close(A, [A.gen() ** 2])
    assert socle_basis(S)[0] == element_from_ambient(S, A.gen() ** 2)
    one = S.one()
    assert S.aug_vec(one.vec) == 1
    z = element_from_ambient(S, A.gen() ** 2)
    assert (z * z).is_zero()
    # inclusion map is an algebra map
    inc = S.include()
    assert inc.check_multiplicative()


def test_subalgebra_mult_matrix_matches_products():
    A = make_algebra(2, (4, 4))
    S = subalgebra_close(A, [A.monomial((2, 0)), A.monomial((1, 1))])
    rng = random.Random(3)
    eye = np.eye(S.dim, dtype=np.int64)
    for _ in range(5):
        v = np.array([rng.randrange(2) for _ in range(S.dim)], dtype=np.int64)
        cols = np.array([S.mul_vec(v, e) for e in eye]).T
        assert np.array_equal(S.mult_matrix(v), cols)


def test_subalgebra_rejects_non_closed():
    A = make_algebra(2, (4,))
    with pytest.raises(ExactKernelError):
        Subalgebra(A, [A.one_vec(), A.gen().vec])  # x^2 missing


def _count_ambient_products(monkeypatch, A) -> list:
    """The right-hand stacks A.outer_products is called with from now on
    (patched on the class: A may be a cached algebra that later tests patch
    there too)."""
    seen = []

    def counting(self, U, V, _orig=BorelAlgebra.outer_products):
        if self is A:
            seen.append(np.asarray(V).copy())
        return _orig(self, U, V)

    monkeypatch.setattr(BorelAlgebra, "outer_products", counting)
    return seen


def test_subalgebra_refuses_on_a_later_generator(monkeypatch):
    # span(1, y, x, xy) in F_2[x, y]/(x^4, y^2): the first generator y
    # passes (y S = span(y, xy)), and y m = span(xy) leaves x outside D;
    # x S holds x^2, so the second pass of the walk refuses
    A = make_algebra(2, (4, 2))
    y, x = A.monomial((0, 1)), A.monomial((1, 0))
    rows = [A.one_vec(), y.vec, x.vec, (x * y).vec]
    y_s = [(y * El(A, r)).vec for r in rows]
    assert len(row_space_basis(rows + y_s, A.dim, 2)) == len(rows)
    seen = _count_ambient_products(monkeypatch, A)
    with pytest.raises(ExactKernelError, match="not closed under multiplication"):
        Subalgebra(A, rows)
    assert [v.tolist() for v in seen] == [[y.vec.tolist()], [x.vec.tolist()]]


def _closure(p, profile, exps) -> Subalgebra:
    A = make_algebra(p, profile)
    return subalgebra_close(A, [A.monomial(e) for e in exps])


@pytest.mark.parametrize("build", [
    lambda: _closure(3, (9, 3), [(3, 0), (1, 1)]),
    lambda: _closure(2, (16, 16), [(2, 0), (1, 1), (0, 4)]),
    lambda: value_general(named_group("A4"), 2, 3).algebra,
], ids=["p3-9x3", "p2-16x16", "a4-value"])
def test_subalgebra_builds_one_ambient_matrix_per_generator(monkeypatch, build):
    # every pair product would take dim - 1 ambient products, one per row;
    # the proof takes one outer_products of the whole basis per generator
    S0 = build()
    A = S0.ambient
    seen = _count_ambient_products(monkeypatch, A)
    S = Subalgebra(A, S0.basis_matrix)
    gens = S.ideal_generators
    assert len(seen) == len(gens) < S.dim - 1
    assert [v.tolist() for v in seen] == [[S.from_sub(g).tolist()] for g, _ in gens]
    assert all(np.array_equal(M, S.mult_matrix(g)) for g, M in gens)


def test_subalgebra_must_contain_one():
    # 1 + x^2 has a pivot at index 0 but spans no 1
    A = make_algebra(3, (9,))
    with pytest.raises(ExactKernelError, match="must contain 1"):
        Subalgebra(A, [(A.one() + A.gen() ** 2).vec, (A.gen() ** 3).vec])
    with pytest.raises(ExactKernelError, match="must contain 1"):
        Subalgebra(A, [(A.gen() ** 3).vec])


def test_dimension_one_subalgebra_has_empty_radical():
    A = make_algebra(3, (9, 3))
    S = Subalgebra(A, [A.one_vec()])
    assert S.dim == 1 and S.radical_span_vecs() == [] and S.ideal_generators == ()
    assert [v.tolist() for v in S.socle_vecs()] == [[1]]
    assert S.nilpotency_exponent() == 1
    assert _pair_products(A, []).shape == (0, A.dim)
    assert subalgebra_close(A, [A.one()]) == S


def test_subalgebra_to_sub_rejects_outside_vectors():
    A = make_algebra(3, (3,))
    S = subalgebra_close(A, [A.gen() ** 2])
    with pytest.raises(ExactKernelError):
        S.to_sub(A.gen().vec)


def test_subalgebra_to_sub_on_a_stack_matches_rows():
    A = make_algebra(2, (4, 4))
    S = subalgebra_close(A, [A.monomial((2, 0)), A.monomial((1, 1))])
    rng = random.Random(7)
    coords = [[rng.randrange(2) for _ in range(S.dim)] for _ in range(6)]
    rows = np.array([S.from_sub(c) for c in coords]) + 2  # unreduced, same residues
    assert np.array_equal(S.to_sub(rows), np.array([S.to_sub(r) for r in rows]))
    assert np.array_equal(S.to_sub(rows), np.array(coords))
    with pytest.raises(ExactKernelError, match="lies outside"):
        S.to_sub(np.vstack([rows, A.gen(0).vec]))


def _truncpoly_product(A, u, v) -> np.ndarray:
    """u v in A computed with TruncPoly (in the ambient, for a Subalgebra)."""
    amb = getattr(A, "ambient", A)
    if amb is not A:
        u, v = A.from_sub(u), A.from_sub(v)
    pu, pv = (TruncPoly(amb.var_names, amb.profile,
                        {amb.basis[i]: int(c) for i, c in enumerate(w) if c}, amb.p)
              for w in (u, v))
    want = np.zeros(amb.dim, dtype=np.int64)
    for e, c in (pu * pv).coeffs.items():
        want[amb.index[e]] = c
    return want if amb is A else A.to_sub(want)


def _subalgebra_case():
    A = make_algebra(3, (9, 3))
    return subalgebra_close(A, [A.monomial((3, 0)), A.monomial((1, 1))])


KERNEL_CASES = {
    "p3-3": lambda: make_algebra(3, (3,)),
    "p2-4x4": lambda: make_algebra(2, (4, 4)),
    "p2-16x16": lambda: make_algebra(2, (16, 16)),
    "p2-4x4x4x4": lambda: make_algebra(2, (4, 4, 4, 4)),
    "p3-27x27": lambda: make_algebra(3, (27, 27)),
    "p2-32x32-tensor": lambda: tensor(make_algebra(2, (32,)), make_algebra(2, (32,))).algebra,
    "p5-trivial": lambda: make_algebra(5, ()),
    "sub-p3-9x3": _subalgebra_case,
}


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_product_kernel_matches_oracles(case):
    """mul_vec against TruncPoly; mult_matrix column by column and
    pairing_matrix pair by pair against mul_vec (every index up to dim 64,
    a random sample with both ends above); both are int64 arrays in [0, p)."""
    A = KERNEL_CASES[case]()
    rng = np.random.default_rng(1)
    eye = np.eye(A.dim, dtype=np.int64)
    idx = np.arange(A.dim) if A.dim <= 64 else np.unique(
        np.r_[0, A.dim - 1, rng.choice(A.dim, 10, replace=False)])
    for _ in range(2):
        u, v, lam = (rng.integers(0, A.p, A.dim) for _ in range(3))
        assert np.array_equal(A.mul_vec(u, v), _truncpoly_product(A, u, v))
        M = A.mult_matrix(u)
        assert is_fp_array(M, A.p) and M.shape == (A.dim, A.dim)
        for j in idx:
            assert np.array_equal(M[:, j], A.mul_vec(u, eye[j]))
        G = A.pairing_matrix(lam)
        assert is_fp_array(G, A.p) and G.shape == (A.dim, A.dim)
        for i in idx:
            for j in idx:
                assert G[i, j] == int(lam @ A.mul_vec(eye[i], eye[j])) % A.p


@pytest.mark.parametrize("case", [c for c in KERNEL_CASES if not c.startswith("sub")])
def test_sum_of_products_matches_mul_vec(case):
    """sum_of_products(C) against sum_i e_i * C[i, :] by mul_vec, with C
    supported on a sample of rows."""
    A = KERNEL_CASES[case]()
    rng = np.random.default_rng(2)
    eye = np.eye(A.dim, dtype=np.int64)
    rows = np.unique(np.r_[0, A.dim - 1, rng.choice(A.dim, min(A.dim, 12), replace=False)])
    C = np.zeros((A.dim, A.dim), dtype=np.int64)
    C[rows] = rng.integers(0, A.p, (len(rows), A.dim))
    want = np.zeros(A.dim, dtype=np.int64)
    for i in rows:
        want = (want + A.mul_vec(eye[i], C[i])) % A.p
    assert np.array_equal(A.sum_of_products(C), want)


def test_int64_envelope_enforced():
    # dim * (p-1)^2 must stay below 2^63; above it products wrapped silently
    with pytest.raises(ScopeError):
        BorelAlgebra(4294967311, ())
    p = 3037000493  # the largest prime with (p-1)^2 < 2^63
    A = BorelAlgebra(p, ())
    assert A.mul_vec([p - 1], [p - 1]).tolist() == [1]
    assert A.mult_matrix([p - 1]).tolist() == [[p - 1]]


def test_element_json_round_trip():
    A = make_algebra(2, (4, 2))
    assert A.to_json() == {"p": 2, "profile": [4, 2], "vars": ["x1", "x2"]}


def test_element_text():
    # literal strings recorded from the polynomial printer that format_terms
    # replaced: nonzero terms in graded-lex basis order, coefficient first
    A = make_algebra(3, (9,))
    assert str(A.zero()) == "0"
    assert str(A.scalar(2)) == "2" and str(A.one()) == "1"
    assert str(A.element([0, 2, 0, 2, 0, 0, 0, 0, 1])) == "2*x + 2*x^3 + x^8"
    assert str(from_exp_dict(A, {(1,): 1, (2,): 2})) == "x + 2*x^2"
    B = BorelAlgebra(3, (3, 3), ("x", "y"))
    f = from_exp_dict(B, {(1, 1): 1, (1, 0): 1, (0, 1): 1, (2, 0): 1})
    assert str(f) == "y + x + x*y + x^2"
    assert str(from_exp_dict(B, {(0, 0): 2, (2, 2): 2, (0, 2): 1})) == "2 + y^2 + 2*x^2*y^2"
    assert str(make_algebra(2, (4, 2)).element([1, 0, 0, 1, 1, 0, 0, 0])) == "1 + x1*x2 + x1^2"
    for p in (2, 5):
        T = make_algebra(p, ())
        assert [str(T.zero()), str(T.one())] == ["0", "1"]
    assert str(make_algebra(5, ()).scalar(3)) == "3"
    H = make_algebra(2, (4,))
    C = tensor(H, H).algebra
    assert C.var_names == ("xL", "xR")
    assert str(from_exp_dict(C, {(1, 2): 1, (3, 0): 1})) == "xL*xR^2 + xL^3"
    S = _subalgebra_case()
    assert str(S.element([0, 2, 0, 0, 0, 0, 0, 1, 0])) == "2*x1*x2 + x1^7*x2"
    assert str(S.one()) == "1" and str(S.zero()) == "0"


def test_element_int_coercion():
    A = make_algebra(3, (3,))
    x = A.gen()
    assert 1 + x == A.one() + x
    assert x - 1 == x + A.scalar(2)
    assert 2 * x == x * 2
    assert (1 + x) ** 3 == A.one()  # (1+x)^3 = 1 + x^3 = 1 over F_3
    assert x == 0 + x and not (x == 0)


def test_subalgebra_rejects_subspace_without_one():
    A = make_algebra(3, (3,))
    # span{x^2} is closed under products (x^4 = 0) but misses 1
    with pytest.raises(ExactKernelError, match="contain 1"):
        Subalgebra(A, [(A.gen() ** 2).vec])


# -- generator checks against the exhaustive oracles ---------------------------


def _exhaustive_multiplicative(f):
    """Oracle: unital and f(e_i e_j) = f(e_i) f(e_j) on all basis pairs."""
    src = f.source
    if not f.check_unital():
        return False
    imgs = [f.apply(b) for b in src.basis_elements()]
    eye = np.eye(src.dim, dtype=np.int64)
    for i in range(src.dim):
        for j in range(i, src.dim):
            if f.apply(src.mul_vec(eye[i], eye[j])) != imgs[i] * imgs[j]:
                return False
    return True


def _exhaustive_module_map(alpha, f):
    """Oracle: alpha(f(a) b) = a alpha(b) on all basis pairs of A x B."""
    A, B = alpha.target, alpha.source
    for a in A.basis_elements():
        fa = f.apply(a)
        for b in B.basis_elements():
            if alpha.apply(El(B, B.mul_vec(fa.vec, b.vec))) != a * alpha.apply(b):
                return False
    return True


def _perturbed(m, k):
    """m with entry k (row-major, wrapped) raised by one."""
    out = m.copy()
    i, j = divmod(k % m.size, m.shape[1])
    out[i, j] += 1
    return out


@pytest.mark.parametrize("group,p,n", [("S3", 3, 1), ("S3", 3, 2), ("A4", 2, 1), ("A4", 2, 2)])
def test_generator_checks_match_exhaustive(group, p, n):
    G = named_group(group)
    fx = SubgroupGreenFunctor(G, p, n)
    fam = default_subgroup_family(G)
    rejected = 0
    for H in fam:
        for K in fam:
            if not K.is_subgroup_of(H):
                continue
            res, ind = fx.res(H, K), fx.ind(H, K)
            assert res.check_multiplicative() and _exhaustive_multiplicative(res)
            assert ind.check_module_map(res) and _exhaustive_module_map(ind, res)
            for k in (0, 1, res.matrix.size // 2, res.matrix.size - 1):
                bad = AlgebraMap(res.source, res.target, _perturbed(res.matrix, k))
                verdict = bad.check_multiplicative()
                assert verdict == _exhaustive_multiplicative(bad)
                rejected += not verdict
            for k in (0, 1, ind.matrix.size // 2, ind.matrix.size - 1):
                bad = AlgebraMap(ind.source, ind.target, _perturbed(ind.matrix, k))
                verdict = bad.check_module_map(res)
                assert verdict == _exhaustive_module_map(bad, res)
                rejected += not verdict
    assert rejected > 0


@pytest.mark.parametrize("p,profile", [
    (2, (8,)), (2, (4, 4)), (2, (2, 2, 2)), (3, (9, 3)), (3, (27, 27)),
    (5, (25,)), (5, (5, 5)), (5, (25, 5)),
])
def test_frobenius_scatter_matches_mul_vec_power(p, profile):
    A = make_algebra(p, profile)
    rng = np.random.default_rng(sum(profile) + p)
    for _ in range(3):
        u = rng.integers(0, p, A.dim)
        want = A.one_vec()
        for _ in range(p):
            want = A.mul_vec(want, u)
        assert np.array_equal(A.frobenius(u), want)
    S = subalgebra_close(A, [A.gen(0) ** p])
    u = S.from_sub(rng.integers(0, p, S.dim))
    assert np.array_equal(S.from_sub(S.frobenius(S.to_sub(u))), A.frobenius(u))


def generator_images_oracle(A, B, images) -> np.ndarray:
    """Oracle: the relations by repeated squaring and every column as one
    product with a generator image (no Frobenius scatter)."""
    images = [img if isinstance(img, El) else El(B, img) for img in images]
    for img, q in zip(images, A.profile):
        if not (img ** q).is_zero():
            raise ExactKernelError("not an algebra map: image fails its relation")
    cols = np.zeros((B.dim, A.dim), dtype=np.int64)
    memo = {}
    for idx, e in enumerate(A.basis):
        if sum(e) == 0:
            val = B.one()
        else:
            i = next(k for k, a in enumerate(e) if a)
            prev = tuple(a - 1 if k == i else a for k, a in enumerate(e))
            val = memo[prev] * images[i]
        memo[e] = val
        cols[:, idx] = val.vec
    return cols


@pytest.mark.parametrize("p,profile,target", [
    (2, (4, 2), (8, 4)), (3, (9, 3), (27,)), (2, (2, 2, 2), (4, 4)), (5, (5, 5), (25, 5)),
    # long single-variable chains: several p-adic rounds of power tables
    (2, (16,), (16,)), (3, (81,), (81,)), (5, (25,), (25, 5)),
    # two variables, whose power tables are combined; no variable at all
    (2, (8, 8), (8, 8)), (3, (), (9, 3)),
    # a Subalgebra target: the closure of y1^2 and y1 y2 in F_2[y1, y2]/(y1^8, y2^4)
    (2, (4, 2), ("sub", (8, 4), [(2, 0), (1, 1)])),
])
def test_from_generator_images_matches_product_oracle(p, profile, target):
    A = make_algebra(p, profile)
    if target[0] == "sub":
        B = _closure(p, target[1], target[2])
    else:
        B = make_algebra(p, target, tuple("y%d" % i for i in range(len(target))))
    rng = np.random.default_rng(p * 7 + len(profile))
    # a relation x^q = 0 can fail in B exactly when a radical basis vector
    # has a nonzero q-th power (the q-th power map is additive)
    can_fail = any(not (El(B, e) ** q).is_zero() for q in profile for e in B.radical_span_vecs())
    checked = refused = 0
    for _ in range(40):
        # random radical elements to a random power: some satisfy the
        # relations, some do not
        rad = [El(B, rng.integers(0, p, B.dim) * (np.arange(B.dim) > 0)) for _ in profile]
        images = [r ** int(rng.integers(1, p + 2)) for r in rad]
        try:
            want = generator_images_oracle(A, B, images)
        except ExactKernelError:
            with pytest.raises(ExactKernelError, match="not an algebra map"):
                AlgebraMap.from_generator_images(A, B, images)
            refused += 1
            continue
        assert np.array_equal(AlgebraMap.from_generator_images(A, B, images).matrix, want)
        checked += 1
    assert checked and bool(refused) == can_fail


@pytest.mark.parametrize("p,profile,target", [(3, (81,), (81,)), (2, (8, 8), (8, 8)),
                                               (5, (25,), (25, 5))])
def test_generator_images_in_one_row_batches_match(monkeypatch, p, profile, target):
    # a big algebra multiplies its rows one outer_products call at a time;
    # the map is the same as with every row in one call
    import greenkernel.borel as borel_mod

    A, B = make_algebra(p, profile), make_algebra(p, target)
    rng = np.random.default_rng(p)
    images = [rng.integers(0, p, B.dim) * (np.arange(B.dim) > 0) for _ in profile]
    want = AlgebraMap.from_generator_images(A, B, images).matrix
    monkeypatch.setattr(borel_mod, "_BATCH", 1)
    assert np.array_equal(AlgebraMap.from_generator_images(A, B, images).matrix, want)
    assert np.array_equal(want, generator_images_oracle(A, B, images))


@pytest.mark.parametrize("p,n,top", [(2, 1, 5), (3, 1, 3), (2, 2, 2)])
def test_generator_images_match_product_oracle_on_tower(p, n, top):
    # coproducts, antipodes and tower maps through the Frobenius columns
    # equal the all-products column loop
    P, q = HondaParams(p, n, max(p ** n, 4)), p ** n
    levels = {r: honda_level(P, r) for r in range(1, top + 1)}
    for L in levels.values():
        H = L.hopf
        assert np.array_equal(H.coproduct.matrix, generator_images_oracle(
            H.algebra, H.square.algebra, H.coproduct_gens))
        assert np.array_equal(H.antipode.matrix, generator_images_oracle(
            H.algebra, H.algebra, H.antipode_gens))
    for r in range(1, top):
        for s in range(1, top - r + 1):
            big, low, mid = levels[r + s], levels[r], levels[s]
            tm = tower_maps(P, r, s)
            assert np.array_equal(tm.surj.matrix, generator_images_oracle(
                big.algebra, low.algebra, [low.x()]))
            assert np.array_equal(tm.inj.matrix, generator_images_oracle(
                mid.algebra, big.algebra, [big.x() ** (q ** r)]))
    # x -> x of H_1 into H_top breaks x^q = 0 when top > 1
    with pytest.raises(ExactKernelError, match="not an algebra map"):
        AlgebraMap.from_generator_images(levels[1].algebra, levels[top].algebra, [levels[top].x()])


# -- per-algebra invariants are computed once and are read-only ---------------


def test_socle_and_radical_are_computed_once(monkeypatch):
    # a Subalgebra's socle is one kernel; a Borel algebra's is its top
    # monomial in closed form, with no kernel; both are built once
    calls, kernel = [], FpMatrix.kernel

    def counting_kernel(M):
        calls.append(M.a.shape)
        return kernel(M)

    monkeypatch.setattr(FpMatrix, "kernel", counting_kernel)
    A = make_algebra(3, (9, 3))
    first = A.socle_vecs()
    assert first[0] is A.socle_vecs()[0]
    assert not calls
    assert [v.tolist() for v in first] == [v.tolist() for v in socle_by_kernel(A)]
    S = subalgebra_close(A, [A.monomial((3, 0)), A.monomial((1, 1))])
    before = len(calls)
    first = S.socle_vecs()
    assert len(calls) == before + 1
    second = S.socle_vecs()
    assert len(calls) == before + 1
    assert all(np.array_equal(u, v) for u, v in zip(first, second))
    assert S.radical_span_vecs()[0] is S.radical_span_vecs()[0]


@pytest.mark.parametrize("p,profile", [
    (2, ()), (3, ()), (5, ()), (2, (8,)), (3, (27,)), (5, (25,)),
    (2, (4, 2, 2)), (3, (9, 3)), (5, (5, 5)),
])
def test_borel_socle_is_the_top_monomial_of_the_kernel_oracle(p, profile):
    A = make_algebra(p, profile)
    want = socle_by_kernel(A)
    assert [v.tolist() for v in A.socle_vecs()] == [v.tolist() for v in want]
    assert A.top_monomial().vec.tolist() == want[0].tolist()


def test_cached_socle_and_radical_refuse_writes():
    A = make_algebra(2, (4, 2))
    S = subalgebra_close(A, [A.monomial((2, 0)), A.monomial((1, 1))])
    for alg in (A, S):
        v = alg.socle_vecs()[0]
        with pytest.raises(ValueError):
            v[0] = 1
        # the returned list is the caller's own: emptying it leaves the memo
        alg.socle_vecs().clear()
        assert len(alg.socle_vecs()) == 1
    with pytest.raises(ValueError):
        S.radical_span_vecs()[0][0] = 1


def test_cached_unit_and_ideal_generators_refuse_writes():
    A = make_algebra(3, (9, 3))
    S = subalgebra_close(A, [A.monomial((3, 0)), A.monomial((1, 1))])
    for alg in (A, S):
        one = alg.one_vec()
        assert one is alg.one_vec() and alg.aug_vec(one) == 1
        with pytest.raises(ValueError):
            one[0] = 2
        assert alg.ideal_generators is alg.ideal_generators
        for g, M in alg.ideal_generators:
            with pytest.raises(ValueError):
                g[0] = 1
            with pytest.raises(ValueError):
                M[0, 0] = 1
    # x^3 and xy generate S; x^6 = (x^3)^2 lies in m^2
    assert len(S.ideal_generators) == 2 < len(S.radical_span_vecs())


def test_second_module_map_check_builds_only_source_matrices(monkeypatch):
    # the stable value of `green value --group A4 --p 2 --n 3` inside A(V4)
    S = value_general(named_group("A4"), 2, 3).algebra
    A_P = S.ambient
    f = S.include()
    alpha = gysin(f, canonical_form(S), canonical_form(A_P))  # the first check
    rad = S.radical_span_vecs()
    k = len(rad) - len(row_space_basis([S.mul_vec(u, v) for u in rad for v in rad], S.dim, S.p))
    assert k < len(rad)  # dim m/m^2 < dim m
    built = []
    for cls in (BorelAlgebra, Subalgebra):
        def counting(self, vec, _orig=cls.mult_matrix):
            built.append(self)
            return _orig(self, vec)
        monkeypatch.setattr(cls, "mult_matrix", counting)
    assert alpha.check_module_map(f)
    assert not any(a is S for a in built)
    assert 0 < len(built) <= k + 1  # one for a = 1
    built.clear()
    assert f.check_multiplicative()
    assert not any(a is S for a in built) and len(built) <= k


@pytest.mark.parametrize("p,profile,gens,k", [
    (3, (9, 3), lambda A: [A.monomial((3, 0)), A.monomial((1, 1))], 2),
    (2, (4, 2), lambda A: [A.gen(0), A.gen(1)], 2),
    (2, (8, 2), lambda A: [A.gen(0) ** 2 + A.gen(1), A.gen(0) ** 3], 2),
    (5, (5, 5), lambda A: [A.gen(0) + A.gen(1) ** 2, A.gen(1) ** 3], 2),
    (3, (3, 3, 3), lambda A: [A.gen(0) * A.gen(1), A.gen(2), A.gen(0) ** 2], 3),
])
def test_generator_routes_match_radical_oracles(p, profile, gens, k):
    # subalgebras needing several generators of unequal nilpotency, some
    # not Gorenstein (extend_socle_map raises on both routes there)
    A = make_algebra(p, profile)
    S = subalgebra_close(A, gens(A))
    assert len(S.ideal_generators) == k
    assert S.nilpotency_exponent() == nilpotency_exponent_by_radical(S)
    B = make_algebra(p, (p,), ("y",))
    to_B = algebra_map(A, B, [B.gen()] + [B.zero()] * (A.nvars - 1))
    z = S.socle_vecs()[0]
    for f in (to_B.compose(S.include()), S.include()):
        assert (extension_or_error(extend_socle_map, f, z)
                == extension_or_error(extend_socle_map_by_radical, f, z))
