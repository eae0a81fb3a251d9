"""Property tests: the array kernels against the test-side oracles.

Borel products (mul_vec, mult_matrix, pairing_matrix, sum_of_products) are
compared with the truncated-polynomial product of polyoracle, outer_products
with mul_vec at every Kronecker slot width, the closed-form inverse of a
monomial matrix with the augmented row reduction, and FpMatrix
row reduction with Gaussian elimination over Python ints, at small primes,
at primes near 2^31 and at p = 3037000493, the largest prime with
(p-1)^2 < 2^63, on small, tall and wide matrices, full-rank,
rank-deficient and zero; kernels are also checked against M v = 0.  The
int64 envelopes are probed on both sides of 2^63.  The one-reduction
subspace membership test is compared with the two-rank one.  Subalgebras
drawn as closures of random elements check their memoized socle and
radical, their product path and their canonical form, and that their ideal
generators lift a basis of m/m^2, equal those of the two-pass oracle,
generate the subalgebra and give the nilpotency exponent and socle
extensions of the whole radical basis, and that the pivots of m^2 read off
the closure proof equal those of every radical pair product.  Subalgebra
accepts exactly the spans that contain 1 and hold the products of all their
rows.
Gysin adjointness and restrict functoriality are checked on homomorphisms
between small abelian p-groups.  Every run draws the same examples and
writes nothing into the working tree.
"""

import tempfile
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from greenkernel.borel import AlgebraMap, BorelAlgebra, Subalgebra, subalgebra_close
from greenkernel.exactkernel import (
    ExactKernelError,
    FpMatrix,
    ScopeError,
    fp_matmul,
    mat_kernel,
    row_space_basis,
    subspace_contains,
)
from greenkernel.frobform import FrobeniusForm, canonical_form, extend_socle_map, gysin
from greenkernel.green import restrict
from greenkernel.grp import abelian_decompose, hom_between, named_group
from polyoracle import (
    TruncPoly,
    _pair_products,
    extend_socle_map_by_radical,
    extension_or_error,
    ideal_generators_two_pass,
    inverse_by_rref,
    nilpotency_exponent_by_radical,
)

# with no example database, hypothesis's pytest plugin still caches the
# constants it reads from source files, under .hypothesis/ in the working
# directory and at collection time; this moves that cache out of the tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "greenkernel-hypothesis")

PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=25)
# enough draws that small, tall and wide shapes each come full-rank and
# rank-deficient, at small and large primes
MATRIX_PROPS = settings(PROPS, max_examples=100)

SMALL_PRIMES = (2, 3, 5, 7)
# two primes just below 2^31, and the largest prime with (p-1)^2 < 2^63
LARGE_PRIMES = (2147483629, 2147483647, 3037000493)


def _mod_dot(u, v, p: int) -> int:
    """sum u_i v_i mod p over Python ints (no int64 overflow)."""
    return sum(int(a) * int(b) for a, b in zip(u, v)) % p


# -- Borel products against the polynomial oracle ------------------------------


@st.composite
def algebras(draw):
    """A Borel algebra of dim <= 64 at a small prime, or the trivial algebra
    F_p at a large one (any nontrivial profile leaves the envelope there)."""
    p = draw(st.sampled_from(SMALL_PRIMES + LARGE_PRIMES))
    profile, dim = [], 1
    if p in SMALL_PRIMES:
        for _ in range(draw(st.integers(0, 3))):
            caps = [p ** k for k in range(1, 7) if dim * p ** k <= 64]
            if not caps:
                break
            profile.append(draw(st.sampled_from(caps)))
            dim *= profile[-1]
    return BorelAlgebra(p, profile)


def vectors(A):
    return st.lists(st.integers(0, A.p - 1), min_size=A.dim, max_size=A.dim).map(
        lambda v: np.array(v, dtype=np.int64))


def _poly(A, w) -> TruncPoly:
    return TruncPoly(A.var_names, A.profile, {A.basis[i]: int(c) for i, c in enumerate(w) if c}, A.p)


def _oracle_product(A, u, v) -> np.ndarray:
    out = np.zeros(A.dim, dtype=np.int64)
    for e, c in (_poly(A, u) * _poly(A, v)).coeffs.items():
        out[A.index[e]] = c
    return out


@PROPS
@given(st.data())
def test_borel_products_match_polynomial_oracle(data):
    A = data.draw(algebras())
    p = A.p
    u, v, lam = (data.draw(vectors(A)) for _ in range(3))
    uv, vlam = _oracle_product(A, u, v), _oracle_product(A, v, lam)
    assert np.array_equal(A.mul_vec(u, v), uv)
    assert np.array_equal(A.mult_matrix(u) @ v, uv)
    # u^T G(lam) v = lam(u v)
    assert _mod_dot(u, A.pairing_matrix(lam) @ v, p) == _mod_dot(lam, uv, p)
    # sum_{i,j} C[i,j] e_i e_j for C = u v^T + v lam^T is u v + v lam
    C = (np.outer(u, v) % p + np.outer(v, lam) % p) % p
    assert np.array_equal(A.sum_of_products(C), (uv + vlam) % p)


# one algebra per Kronecker slot width: 1 and 2 bytes at small primes, 4 at
# p = 257, and 8 at p = 1627 (dim (p-1)^2 just above 2^32), near 2^31 and at
# 3037000493, where only F_p fits the envelope
SLOT_ALGEBRAS = [BorelAlgebra(p, profile) for p, profile in (
    (2, (4, 2)), (3, (9, 3)), (5, (25,)), (7, (7, 7)), (257, (257,)), (1627, (1627,)),
    (2147483647, ()), (3037000493, ()))]
# empty, single-row and taller stacks on either side
STACK_SHAPES = ((0, 0), (0, 2), (2, 0), (1, 1), (1, 3), (3, 1), (3, 2))


def test_slot_algebras_cover_every_slot_width():
    assert sorted({A._slot.itemsize for A in SLOT_ALGEBRAS}) == [1, 2, 4, 8]


@pytest.mark.parametrize("A", SLOT_ALGEBRAS, ids=lambda A: "p%d-dim%d" % (A.p, A.dim))
@settings(PROPS, max_examples=5)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_outer_products_equal_mul_vec_at_every_slot_width(A, seed):
    rng = np.random.default_rng(seed)
    for m, n in STACK_SHAPES:
        # entries outside [0, p) too: both reduce their input
        U, V = (rng.integers(-A.p, 2 * A.p, (k, A.dim)) for k in (m, n))
        got = A.outer_products(U, V)
        assert got.shape == (m, n, A.dim) and got.dtype == np.int64
        for i, j in np.ndindex(m, n):
            assert np.array_equal(got[i, j], A.mul_vec(U[i], V[j]))
        # the Frobenius of a stack is that of each row
        assert A.frobenius(U).tolist() == [A.frobenius(u).tolist() for u in U]


# -- FpMatrix against Gaussian elimination over Python ints ---------------------


def _py_rref(rows, p: int):
    """RREF with the same pivot rule as FpMatrix (leftmost column, smallest
    row index), over Python ints."""
    m = [[int(x) % p for x in r] for r in rows]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        sel = next((i for i in range(r, len(m)) if m[i][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


@st.composite
def matrices(draw, p: int):
    """Small (up to 6x6), tall (up to 40x12) or wide (up to 12x40) matrices
    as lists of rows.  Zeros are drawn often, so empty pivot columns occur;
    some matrices are all zero, and some are a product of an (r x k) and a
    (k x c) matrix with k below min(r, c), so rank-deficient."""
    max_rows, max_cols = draw(st.sampled_from([(6, 6), (40, 12), (12, 40)]))
    nr, nc = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    kind = draw(st.sampled_from(["dense", "zero", "low rank"]))
    if kind == "zero":
        return [[0] * nc for _ in range(nr)]
    if kind == "dense" or min(nr, nc) == 1:
        return draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    k = draw(st.integers(1, min(nr, nc) - 1))
    left = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=nr, max_size=nr))
    right = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=k, max_size=k))
    return [[_mod_dot(row, col, p) for col in zip(*right)] for row in left]


@MATRIX_PROPS
@given(st.data())
def test_fpmatrix_matches_python_elimination(data):
    p = data.draw(st.sampled_from(SMALL_PRIMES + LARGE_PRIMES))
    rows = data.draw(matrices(p))
    nr, nc = len(rows), len(rows[0])
    M = FpMatrix(rows, p)
    R, pivots = M.rref()
    want, want_pivots = _py_rref(rows, p)
    assert pivots == want_pivots and R.a.tolist() == want
    # kernel: one vector per free column, -R[i, f] at pivot column c_i
    kernel = []
    for f in (c for c in range(nc) if c not in want_pivots):
        v = [0] * nc
        v[f] = 1
        for i, c in enumerate(want_pivots):
            v[c] = -want[i][f] % p
        kernel.append(v)
    assert [k.tolist() for k in M.kernel()] == kernel
    # and directly: M v = 0 for each, nc - rank of them
    assert len(kernel) == nc - len(want_pivots)
    assert all(_mod_dot(r, v, p) == 0 for v in kernel for r in rows)
    # solve: free variables 0, None when b is outside the column space
    b = data.draw(st.lists(st.integers(0, p - 1), min_size=nr, max_size=nr))
    aug, aug_pivots = _py_rref([r + [x] for r, x in zip(rows, b)], p)
    x = M.solve(b)
    if nc in aug_pivots:
        assert x is None
    else:
        want_x = [0] * nc
        for i, c in enumerate(aug_pivots):
            want_x[c] = aug[i][-1]
        assert x.tolist() == want_x
        assert all(_mod_dot(r, want_x, p) == bi for r, bi in zip(rows, b))


def _inverse_or_error(inverse, M: FpMatrix):
    try:
        return inverse(M).a.tolist()
    except ExactKernelError as ex:
        return str(ex)


@MATRIX_PROPS
@given(st.data())
def test_monomial_inverse_equals_the_rref_inverse(data):
    # one nonzero entry per row and column: inverted in closed form
    p = data.draw(st.sampled_from(SMALL_PRIMES + LARGE_PRIMES))
    n = data.draw(st.integers(1, 12))
    perm = data.draw(st.permutations(range(n)))
    a = np.zeros((n, n), dtype=np.int64)
    a[np.arange(n), perm] = data.draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n))
    M = FpMatrix(a, p)
    inv = M.inv()
    assert inv == inverse_by_rref(M)
    # M M^{-1} = I over Python ints (at the largest primes an n x n product
    # leaves the int64 envelope)
    assert [[_mod_dot(r, c, p) for c in inv.a.T] for r in a] == np.eye(n, dtype=int).tolist()
    # a zero row is singular; one more nonzero entry takes the row reduction
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    zero_row = a.copy()
    zero_row[i] = 0
    with pytest.raises(ExactKernelError, match="matrix is singular"):
        FpMatrix(zero_row, p).inv()
    extra = a.copy()
    extra[i, j] = data.draw(st.integers(1, p - 1))
    X = FpMatrix(extra, p)
    assert _inverse_or_error(FpMatrix.inv, X) == _inverse_or_error(inverse_by_rref, X)


def _rank_contains(basis, v, p: int) -> bool:
    """Oracle: v lies in the span iff stacking it onto the basis keeps the
    rank (two row reductions)."""
    v = np.asarray(v, dtype=np.int64) % p
    if not len(basis):
        return not v.any()
    M = FpMatrix(np.array(list(basis)), p)
    return FpMatrix(np.vstack([M.a, v]), p).rank() == M.rank()


@MATRIX_PROPS
@given(st.data())
def test_subspace_contains_matches_rank_oracle(data):
    p = data.draw(st.sampled_from(SMALL_PRIMES + LARGE_PRIMES))
    rows = data.draw(matrices(p))
    nc = len(rows[0])
    # half the time v is a combination of the rows, so both answers occur
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows)))
        v = [sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(nc)]
    else:
        v = data.draw(st.lists(st.integers(0, p - 1), min_size=nc, max_size=nc))
    want = _rank_contains(rows, v, p)
    assert subspace_contains(rows, v, p) == want
    assert subspace_contains(rows, np.array(v, dtype=np.int64), p) == want


# -- Subalgebra: memoized invariants, product path, canonical form --------------


def sparse_radical_vectors(A):
    """Elements of the maximal ideal with one or two monomial terms."""
    terms = st.tuples(st.integers(1, A.dim - 1), st.integers(1, A.p - 1))

    def build(pairs):
        v = np.zeros(A.dim, dtype=np.int64)
        for i, c in pairs:
            v[i] = c
        return v

    return st.lists(terms, min_size=1, max_size=2).map(build)


@st.composite
def subalgebras(draw, sparse=False):
    """The closure of one or two random elements of a Borel algebra of dim
    <= 32 at a small prime; one element gives a monogenic, hence Gorenstein,
    subalgebra.  With sparse, one to three elements of sparse_radical_vectors,
    whose closures often need several generators."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    profile, dim = [], 1
    for _ in range(draw(st.integers(1, 2))):
        caps = [p ** k for k in range(1, 6) if dim * p ** k <= 32]
        if not caps:
            break
        profile.append(draw(st.sampled_from(caps)))
        dim *= profile[-1]
    A = BorelAlgebra(p, profile)
    if sparse:
        gens = [draw(sparse_radical_vectors(A)) for _ in range(draw(st.integers(1, 3)))]
    else:
        gens = [draw(vectors(A)) for _ in range(draw(st.integers(1, 2)))]
    return subalgebra_close(A, gens)


@PROPS
@given(st.data())
def test_subalgebra_invariants_products_and_form(data):
    S = data.draw(subalgebras())
    p, d = S.p, S.dim
    # the memo against a fresh computation by the kernel oracle
    # the unit and augmentation read in the ambient algebra, not off coordinate 0
    one = S.to_sub(S.ambient.one_vec())
    fresh_rad = row_space_basis([(e - S.ambient.aug_vec(S.from_sub(e)) * one) % p
                                 for e in np.eye(d, dtype=np.int64)], d, p)
    assert [r.tolist() for r in S.radical_span_vecs()] == [r.tolist() for r in fresh_rad]
    fresh_soc = ([one] if not fresh_rad else
                 mat_kernel(FpMatrix(np.vstack([S.mult_matrix(r).a for r in fresh_rad]), p)))
    assert [v.tolist() for v in S.socle_vecs()] == [v.tolist() for v in fresh_soc]
    assert S.socle_vecs()[0] is S.socle_vecs()[0]
    # mult_matrix against mul_vec
    u, v = data.draw(vectors(S)), data.draw(vectors(S))
    assert np.array_equal(S.mult_matrix(u) @ v, S.mul_vec(u, v))
    # the dual basis inverts the pairing
    if len(fresh_soc) == 1:
        lam = canonical_form(S)
        assert np.array_equal((lam.dual @ lam.pairing.a) % p, np.eye(d, dtype=np.int64))


@settings(PROPS, max_examples=100)
@given(st.data())
def test_ideal_generators_match_the_two_pass_oracle(data):
    S = data.draw(subalgebras(sparse=data.draw(st.booleans())))
    want = ideal_generators_two_pass(S)
    assert len(S.ideal_generators) == len(want)
    for (g, M), (h, N) in zip(S.ideal_generators, want):
        assert np.array_equal(g, h) and np.array_equal(M, N)
    # the pivots of m^2 from every product of two radical rows are the
    # indices of the radical that no ideal generator takes
    square = _pair_products(S.ambient, S.basis_matrix[1:])[:, S.pivots]
    gen_indices = {int(np.flatnonzero(g)[0]) for g, _ in S.ideal_generators}
    assert frozenset(range(1, S.dim)) - gen_indices == frozenset(FpMatrix(square, S.p).rref()[1])


@settings(PROPS, max_examples=100)
@given(st.data())
def test_subalgebra_accepts_exactly_the_closed_spans_with_one(data):
    # a closed span, perturbed half the time by an extra vector or a lost row
    S = data.draw(subalgebras(sparse=data.draw(st.booleans())))
    A, p = S.ambient, S.p
    rows = list(S.basis_matrix)
    change = data.draw(st.sampled_from(("none", "add", "drop")))
    if change == "add":
        rows.append(data.draw(vectors(A)))
    elif change == "drop":
        del rows[data.draw(st.integers(0, len(rows) - 1))]
    span = row_space_basis(rows, A.dim, p)
    # the oracle: 1 in the span, and the products of all rows, row 0 included
    has_one = subspace_contains(span, A.one_vec(), p)
    closed = bool(span) and len(row_space_basis(
        np.vstack([span, _pair_products(A, span)]), A.dim, p)) == len(span)
    if has_one and closed:
        assert Subalgebra(A, rows).basis_matrix.tolist() == [r.tolist() for r in span]
    else:
        with pytest.raises(ExactKernelError, match="empty subalgebra" if not span else
                           "must contain 1" if not has_one else "not closed"):
            Subalgebra(A, rows)


@settings(PROPS, max_examples=100)
@given(st.data())
def test_ideal_generators_lift_a_basis_of_m_mod_m2(data):
    S = data.draw(subalgebras(sparse=data.draw(st.booleans())))
    p, d, A = S.p, S.dim, S.ambient
    gens = [g for g, _ in S.ideal_generators]
    # in m, as many as dim m - dim m^2, with m^2 spanned by all radical products
    rad = S.radical_span_vecs()
    assert all(S.aug_vec(g) == 0 for g in gens)
    square = row_space_basis([S.mul_vec(u, v) for u in rad for v in rad], d, p)
    assert len(gens) == len(rad) - len(square)
    assert all(np.array_equal(M, S.mult_matrix(g).a) for g, M in S.ideal_generators)
    # they generate S as an algebra, and decide what the whole radical decides
    assert subalgebra_close(A, [S.from_sub(g) for g in gens]) == S
    assert S.nilpotency_exponent() == nilpotency_exponent_by_radical(S)
    # a module map to k[y]/(y^p) along S -> A -> k[y]/(y^p), x_1 -> y: few
    # columns, and dim B - 1 free directions for the deterministic solve
    B = BorelAlgebra(p, (p,), ("y",))
    images = [B.gen()] + [B.zero()] * (A.nvars - 1)
    f = AlgebraMap.from_generator_images(A, B, images).compose(S.include())
    z = S.socle_vecs()[0]
    assert (extension_or_error(extend_socle_map, f, z)
            == extension_or_error(extend_socle_map_by_radical, f, z))


# (k, p, q): p is the largest prime with k (p-1)^2 < 2^63, so a product with
# k columns is exact and k + 1 leaves the envelope; q is the next prime,
# where k columns already leave it
ENVELOPE_PRIMES = [
    (1, 3037000493, 3037000507),
    (2, 2147483647, 2147483659),
    (3, 1753413037, 1753413059),
    (5, 1358187913, 1358187923),
    (17, 736580807, 736580827),
]


@pytest.mark.parametrize("k,p,q", ENVELOPE_PRIMES)
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(st.data())
def test_fpmatrix_product_at_the_envelope(k, p, q, data):
    a = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=k, max_size=k),
                           min_size=2, max_size=2))
    b = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=2, max_size=2),
                           min_size=k, max_size=k))
    got = (FpMatrix(a, p) @ FpMatrix(b, p)).a.tolist()
    assert got == [[_mod_dot(r, col, p) for col in zip(*b)] for r in a]
    assert (FpMatrix(a, p) @ [row[0] for row in b]).tolist() == [r[0] for r in got]
    wide = FpMatrix([r + [1] for r in a], p)
    with pytest.raises(ScopeError):
        wide @ FpMatrix(b + [[1, 1]], p)
    with pytest.raises(ScopeError):
        FpMatrix(a, q) @ FpMatrix(b, q)
    # fp_matmul on each shape pair (2-d or 1-d on either side): inner
    # dimension k is exact, k + 1 leaves the envelope, and so does q
    A, B, want = (np.array(x, dtype=np.int64) for x in (a, b, got))
    A1 = np.hstack([A, np.ones((2, 1), dtype=np.int64)])
    B1 = np.vstack([B, np.ones((1, 2), dtype=np.int64)])
    every = slice(None)
    for rows, cols in ((every, every), (every, 0), (0, every), (0, 0)):
        x, y, x1, y1 = A[rows], B[:, cols], A1[rows], B1[:, cols]
        assert np.array_equal(fp_matmul(x, y, p), want[rows][..., cols])
        with pytest.raises(ScopeError):
            fp_matmul(x1, y1, p)
        with pytest.raises(ScopeError):
            fp_matmul(x, y, q)


def test_envelopes_refuse_exactly_two_to_the_63():
    # cols * (p-1)^2 = 2^63 at p = 65537 ((p-1)^2 = 2^32); the zero-row
    # matrices hold no entries, so the check is all that runs
    p = 65537
    for cols, ok in ((2 ** 31 - 1, True), (2 ** 31, False)):
        a = FpMatrix(np.zeros((0, cols), dtype=np.int64), p)
        b = FpMatrix(np.zeros((cols, 0), dtype=np.int64), p)
        if ok:
            assert (a @ b).a.shape == (0, 0)
        else:
            with pytest.raises(ScopeError):
                a @ b
    # dim * (p-1)^2 = 2^63 at p = 2; the check runs before any basis is built
    for profile in ((2 ** 63,), (2 ** 32, 2 ** 31)):
        with pytest.raises(ScopeError):
            BorelAlgebra(2, profile)
    # (p-1)^2 against 2^63: row reduction and the trivial algebra
    assert FpMatrix([[3037000492, 1]], 3037000493).rank() == 1
    assert BorelAlgebra(3037000493, ()).dim == 1
    # a chained pairing u G v reduces between its products: (p-1)^3 would wrap
    p = 3037000493
    assert FrobeniusForm(BorelAlgebra(p, ()), [p - 1]).pair([p - 1], [p - 1]) == p - 1
    with pytest.raises(ScopeError):
        FpMatrix([[3037000506, 1]], 3037000507).rref()
    with pytest.raises(ScopeError):
        BorelAlgebra(3037000507, ())


def test_subspace_contains_at_the_row_reduction_envelope():
    # at the largest prime with (p-1)^2 < 2^63, each term v[c] R[i] fits in
    # int64 but a sum of two does not: the terms are reduced before the sum
    p = 3037000493
    basis = [[1, 0, p - 1], [0, 1, p - 1]]
    assert subspace_contains(basis, [p - 1, p - 1, 2], p)
    assert not subspace_contains(basis, [p - 1, p - 1, 1], p)


# -- Gysin adjointness and restrict functoriality on abelian p-groups -----------


GROUPS = {2: ("C2", "C4", "C8", "V4", "C2xC4"), 3: ("C3", "C9", "C3xC3")}


@st.composite
def homs(draw, source, target):
    """A random homomorphism source -> target: generator i goes to an
    element whose order divides the order o_i of generator i, i.e. exponent
    j a multiple of t_j / gcd(t_j, o_i)."""
    images = [target.element([t // gcd(t, o) * draw(st.integers(0, t - 1)) for t in target.orders])
              for o in source.orders]
    return hom_between(source, target, images)


def _decomp(name, p):
    return abelian_decompose(named_group(name), p)


@PROPS
@given(st.data())
def test_gysin_is_adjoint_to_restrict(data):
    # f = restrict(alpha): A -> B for alpha: P_B -> P_A; the Gysin map
    # g: B -> A satisfies <g(b)|a>_A = <b|f(a)>_B
    p = data.draw(st.sampled_from(sorted(GROUPS)))
    src, tgt = (_decomp(data.draw(st.sampled_from(GROUPS[p])), p) for _ in range(2))
    f = restrict(data.draw(homs(src, tgt)), p, 1)
    A, B = f.source, f.target
    lam_A, lam_B = canonical_form(A), canonical_form(B)
    g = gysin(f, lam_A, lam_B)
    a, b = data.draw(vectors(A)), data.draw(vectors(B))
    lhs = _mod_dot(lam_A.vec, A.mul_vec(g.apply(b).vec, a), p)
    rhs = _mod_dot(lam_B.vec, B.mul_vec(b, f.apply(a).vec), p)
    assert lhs == rhs


@PROPS
@given(st.data())
def test_restrict_is_contravariantly_functorial(data):
    # restrict(beta o alpha) = restrict(alpha) o restrict(beta)
    p = data.draw(st.sampled_from(sorted(GROUPS)))
    P1, P2, P3 = (_decomp(data.draw(st.sampled_from(GROUPS[p])), p) for _ in range(3))
    alpha, beta = data.draw(homs(P1, P2)), data.draw(homs(P2, P3))
    lhs = restrict(beta.compose(alpha), p, 1)
    rhs = restrict(alpha, p, 1).compose(restrict(beta, p, 1))
    assert np.array_equal(lhs.matrix, rhs.matrix)
