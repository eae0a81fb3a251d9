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
rows.  On Borel algebras and monogenic subalgebras a covector is a Frobenius
form (nonzero on the socle) exactly when its pairing has full rank, and the
accepted form's dual basis inverts the pairing and begins with s/lam(s).
Gysin adjointness and restrict functoriality are checked on homomorphisms
between small abelian p-groups.  The CLI's JSON writer is compared byte for
byte with json.dumps on nested dicts and lists of scalars.  Every run draws the same examples and
writes nothing into the working tree.
"""

import json
import tempfile
from math import factorial, gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from greenkernel.audit import EXACT, audit_mackey, default_subgroup_family
from greenkernel.borel import AlgebraMap, BorelAlgebra, Subalgebra, subalgebra_close
from greenkernel.cli import _json_dumps
from greenkernel.exactkernel import (
    BudgetError,
    ExactKernelError,
    FpMatrix,
    ScopeError,
    fp_matmul,
    row_space_basis,
    subspace_contains,
)
from greenkernel.frobform import (
    FrobeniusForm,
    canonical_form,
    extend_socle_map,
    gysin,
    is_frobenius_form,
    socle_generator,
)
from greenkernel.green import (
    SubgroupGreenFunctor,
    hom_by_generator_images,
    induced_map,
    restrict,
    stable_elements,
    value_general,
)
from greenkernel.grp import (
    PermGroup,
    abelian_decompose,
    hom_between,
    named_group,
    perm_inv,
    perm_mul,
    sylow,
)
from polyoracle import (
    TruncPoly,
    _pair_products,
    extend_socle_map_by_radical,
    extension_or_error,
    ideal_generators_two_pass,
    inverse_by_rref,
    is_fp_array,
    nilpotency_exponent_by_radical,
    rank_by_orbit_count,
    stable_basis_by_intersection,
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
    M, G = A.mult_matrix(u), A.pairing_matrix(lam)
    assert is_fp_array(M, p) and is_fp_array(G, p)  # int64 arrays in [0, p)
    assert np.array_equal(fp_matmul(M, v, p), uv)
    # u^T G(lam) v = lam(u v)
    assert _mod_dot(u, fp_matmul(G, v, p), p) == _mod_dot(lam, uv, p)
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
    assert pivots == want_pivots and is_fp_array(R, p) and R.tolist() == want
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
        return inverse(M).tolist()
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
    assert is_fp_array(inv, p) and np.array_equal(inv, inverse_by_rref(M))
    # M M^{-1} = I over Python ints (at the largest primes an n x n product
    # leaves the int64 envelope)
    assert [[_mod_dot(r, c, p) for c in inv.T] for r in a] == np.eye(n, dtype=int).tolist()
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
    B = np.array(list(basis))
    return FpMatrix(np.vstack([B, v]), p).rank() == FpMatrix(B, p).rank()


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
def subalgebras(draw, sparse=False, monogenic=False):
    """The closure of one or two random elements of a Borel algebra of dim
    <= 32 at a small prime; one element (always, with monogenic) gives a
    monogenic, hence Gorenstein, subalgebra.  With sparse, one to three
    elements of sparse_radical_vectors, whose closures often need several
    generators."""
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
        gens = [draw(vectors(A)) for _ in range(1 if monogenic else draw(st.integers(1, 2)))]
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
                 FpMatrix(np.vstack([S.mult_matrix(r) for r in fresh_rad]), p).kernel())
    assert [v.tolist() for v in S.socle_vecs()] == [v.tolist() for v in fresh_soc]
    assert S.socle_vecs()[0] is S.socle_vecs()[0]
    # mult_matrix against mul_vec; it and pairing_matrix are int64 arrays in [0, p)
    u, v = data.draw(vectors(S)), data.draw(vectors(S))
    assert is_fp_array(S.mult_matrix(u), p) and is_fp_array(S.pairing_matrix(v), p)
    assert np.array_equal(fp_matmul(S.mult_matrix(u), v, p), S.mul_vec(u, v))
    # the dual basis inverts the pairing
    if len(fresh_soc) == 1:
        lam = canonical_form(S)
        assert is_fp_array(lam.pairing, p) and is_fp_array(lam.dual, p)
        assert np.array_equal((lam.dual @ lam.pairing) % p, np.eye(d, dtype=np.int64))


# -- Frobenius forms: the socle criterion against the pairing rank -------------


@settings(PROPS, max_examples=100)
@given(st.data())
def test_socle_criterion_equals_the_pairing_rank(data):
    # on Borel algebras and monogenic subalgebras, a covector is accepted
    # exactly when its pairing has full rank; its value t on the socle
    # generator s is drawn first, 0 as often as not, so degenerate covectors
    # come as often as forms.  An accepted form's dual inverts its pairing,
    # and its column 0 is s/lam(s)
    A = data.draw(st.one_of(algebras(), subalgebras(monogenic=True)))
    p, d = A.p, A.dim
    s = socle_generator(A).vec
    t = data.draw(st.one_of(st.just(0), st.integers(1, p - 1)))
    lam = data.draw(vectors(A))
    i = int(np.flatnonzero(s)[0])
    lam[i] = (int(lam[i]) + (t - int(fp_matmul(lam, s, p))) * pow(int(s[i]), -1, p)) % p
    rank = FpMatrix(A.pairing_matrix(lam), p).rank()
    form, G, got = is_frobenius_form(A, lam)
    assert (form is not None) == (rank == d) and got == rank
    assert np.array_equal(G, A.pairing_matrix(lam))
    if form is None:
        with pytest.raises(ExactKernelError, match="not a Frobenius form"):
            FrobeniusForm(A, lam)
        return
    assert np.array_equal(fp_matmul(form.dual, form.pairing, p), np.eye(d, dtype=np.int64))
    c = pow(form.value(s), -1, p)
    assert [int(x) * c % p for x in s] == form.dual[:, 0].tolist()


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
    assert all(np.array_equal(M, S.mult_matrix(g)) for g, M in S.ideal_generators)
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
    got = [[_mod_dot(r, col, p) for col in zip(*b)] for r in a]  # over Python ints
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
        a = np.zeros((0, cols), dtype=np.int64)
        b = np.zeros((cols, 0), dtype=np.int64)
        if ok:
            assert fp_matmul(a, b, p).shape == (0, 0)
        else:
            with pytest.raises(ScopeError):
                fp_matmul(a, b, p)
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


# -- stable elements on random permutation groups ------------------------------


@st.composite
def perm_groups(draw, max_degree: int = 7):
    """The permutation group of degree 2..max_degree generated by one to
    three random permutations: often S_d or A_d, sometimes smaller."""
    d = draw(st.integers(2, max_degree))
    gens = draw(st.lists(st.permutations(range(d)).map(tuple), min_size=1, max_size=3))
    return PermGroup(d, gens, budget=factorial(max_degree))


@settings(PROPS, max_examples=20)
@given(perm_groups())
def test_stable_elements_on_random_perm_groups(G):
    # the invariants of N_G(P)/P equal the double-coset intersection row
    # for row, and their dimension the orbit count, at every prime dividing
    # |G| with an abelian Sylow P and every n with |P|^n <= 256
    for p in SMALL_PRIMES:
        P = sylow(G, p)
        if P.order == 1 or not P.is_abelian():
            continue
        for n in range(1, 9):
            if P.order ** n > 256:
                break
            got = stable_elements(G, p, n).lim_basis
            want = stable_basis_by_intersection(G, p, n)
            assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))
            assert len(got) == rank_by_orbit_count(G, p, n)


@settings(PROPS, max_examples=80)
@given(perm_groups(max_degree=4))
def test_functor_rows_on_random_perm_groups(G):
    # every MF1, MF2, MF3, GF1 and GF2 row of the subgroup audit is an exact
    # pass at n = 1 and every small prime with an abelian Sylow, 5 and 7
    # included, which divide no order here, so every value is F_p = A(1)
    # and every map goes through the trivial Sylow (MF4 and MF5 rows await
    # coherent forms)
    for p in SMALL_PRIMES:
        if not sylow(G, p).is_abelian():
            continue
        rows = [r for r in audit_mackey(G, p, 1).checks
                if r.name.split("-")[0] in ("MF1", "MF2", "MF3", "GF1", "GF2")]
        assert rows and all(r.status == EXACT for r in rows), (
            p, [(r.name, r.instance, r.witness) for r in rows if r.status != EXACT][:3])
        # the colimit over P\\G/P, read off the functor's ind and c_g, has
        # the dimension of the stable elements
        st = stable_elements(G, p, 1)
        assert st.colim_dim == st.lim_dim, p


def _coset_action(G: PermGroup, L: PermGroup):
    """gamma: G -> Sym(G/L), g(xL) = gxL, as its image group and its element
    map (hom_by_generator_images checks that it is a homomorphism)."""
    cosets = sorted({tuple(sorted(perm_mul(g, x) for x in L.elements)) for g in G.elements})
    where = {x: i for i, c in enumerate(cosets) for x in c}
    images = [tuple(where[perm_mul(g, c[0])] for c in cosets) for g in G.generators]
    H = PermGroup(len(cosets), images)
    return H, hom_by_generator_images(G, H, images)


@settings(PROPS, max_examples=40)
@given(perm_groups(max_degree=5))
def test_induced_maps_compose_along_coset_actions(G):
    # beta: K -> G the inclusion and gamma: G -> Sym(G/L) the coset action,
    # which is neither injective nor onto a Sylow in general: (gamma beta)^*
    # = beta^* gamma^*, the identity goes to the identity, every map is an
    # algebra map, and beta^* along an inclusion or a conjugation is what
    # SubgroupGreenFunctor's res and c_g give
    family = default_subgroup_family(G)[:6]
    for p in SMALL_PRIMES:
        try:
            v_G = value_general(G, p, 1)
        except (ScopeError, BudgetError):
            continue
        fx = SubgroupGreenFunctor(G, p, 1)
        one = induced_map(G, lambda x: x, v_G, v_G, p, 1)
        assert np.array_equal(one.matrix, np.eye(v_G.dim, dtype=np.int64))
        for L in family:
            H, gamma = _coset_action(G, L)
            try:
                v_H = value_general(H, p, 1)
            except (ScopeError, BudgetError):
                continue
            gamma_star = induced_map(H, gamma.__getitem__, v_G, v_H, p, 1)
            for K in family:
                v_K = value_general(K, p, 1)
                beta_star = induced_map(G, lambda x: x, v_K, v_G, p, 1)
                both = induced_map(H, gamma.__getitem__, v_K, v_H, p, 1)
                assert np.array_equal(both.matrix, beta_star.compose(gamma_star).matrix)
                assert all(m.is_algebra_map and m.check_multiplicative()
                           for m in (gamma_star, beta_star, both))
                assert np.array_equal(beta_star.matrix, fx.res(G, K).matrix)
                for g in G.generators:
                    gi = perm_inv(g)
                    c = induced_map(K, lambda x: perm_mul(perm_mul(gi, x), g),
                                    value_general(G.conjugate_subgroup(K, g), p, 1), v_K, p, 1)
                    assert np.array_equal(c.matrix, fx.conj(g, K).matrix)


JSON_SCALARS = (st.text() | st.integers() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
                | st.booleans() | st.none())
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=30,
)


@settings(PROPS, max_examples=300)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    # strings draw non-ASCII and control characters, floats draw NaN, the
    # infinities and -0.0, and lists and dicts come empty as well as nested
    assert _json_dumps(value) == json.dumps(value, indent=2, sort_keys=True)
