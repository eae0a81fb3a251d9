"""Hopf-algebra structure on Borel algebras and the Honda tower.

A level of the tower is H_r = GF(p)[x]/(x^{q^r}) with coproduct
psi(x) = F(x (x) 1, 1 (x) x) reduced into H_r (x) H_r, counit the
augmentation, and antipode the formal inverse series.  The tower maps are
x_{r+s} -> x_r (a Hopf surjection) and x_s -> x_{r+s}^{q^r} (a Hopf
injection); multiplication by p^r is the q^r-power map, and its kernel
ideal is exactly the kernel of the surjection -- the p-divisibility
diagnostics check all of this as matrix identities.

Coproducts/antipodes are stored on generators only; every axiom checked
here compares algebra maps, so generator-level equality is equality.  A
level's Hopf data (its tensor square, psi(x) and the antipode) is built on
first read, so callers that only read its algebra and group law never pay
for it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exactkernel import (
    BudgetError,
    ExactKernelError,
    FpMatrix,
    fp_matmul,
    mat_kernel,
    row_space_basis,
    subspace_eq,
)
from .borel import AlgebraMap, BorelAlgebra, El, mono_str, tensor
from .fgl import Fgl, HondaParams, formal_inverse, honda_fgl, m_series

DEFAULT_BUDGET = 256


class HopfStructure:
    """Coproduct / counit / antipode data on a Borel algebra, stored on
    generators (all three extend as algebra maps): psi(x_i) as its
    (dim x dim) coefficient matrix M[a, b], the coefficient of e_a (x) e_b,
    and chi(x_i) as an element."""

    def __init__(self, algebra: BorelAlgebra, coproduct_coeffs, antipode_gens):
        self.algebra = algebra
        self.square = tensor(algebra, algebra)
        self.coproduct_coeffs = [np.asarray(M, dtype=np.int64) % algebra.p
                                 for M in coproduct_coeffs]
        self.antipode_gens = [g if isinstance(g, El) else El(algebra, g) for g in antipode_gens]
        if (len(self.coproduct_coeffs) != algebra.nvars or len(self.antipode_gens) != algebra.nvars
                or any(M.shape != (algebra.dim,) * 2 for M in self.coproduct_coeffs)):
            raise ExactKernelError("need one (dim x dim) coproduct and antipode image per generator")

    @cached_property
    def coproduct_gens(self) -> list[El]:
        """psi(x_i) as elements of A (x) A (pair_index is a bijection)."""
        order = np.argsort(self.square.pair_index, axis=None)
        return [El(self.square.algebra, M.ravel()[order]) for M in self.coproduct_coeffs]

    @cached_property
    def coproduct(self) -> AlgebraMap:
        """psi as an algebra map A -> A (x) A (matrix over the monomial basis)."""
        return AlgebraMap.from_generator_images(self.algebra, self.square.algebra, self.coproduct_gens)

    @cached_property
    def antipode(self) -> AlgebraMap:
        return AlgebraMap.from_generator_images(self.algebra, self.algebra, self.antipode_gens)


@dataclass
class HopfReport:
    coassociative: bool
    counital: bool
    antipode_law: bool
    cocommutative: bool

    @property
    def all_pass(self) -> bool:
        return self.coassociative and self.counital and self.antipode_law and self.cocommutative

    def as_dict(self) -> dict:
        return {
            "coassociative": self.coassociative,
            "counital": self.counital,
            "antipode": self.antipode_law,
            "cocommutative": self.cocommutative,
            "all_pass": self.all_pass,
        }


def hopf_check(H: HopfStructure) -> HopfReport:
    """Verify the Hopf axioms on every generator.

    All four sides of the axioms are algebra maps (cocommutativity and
    commutativity make the antipode convolution multiplicative), so checking
    generators decides the axioms on the whole algebra.
    """
    A = H.algebra
    p, d = A.p, A.dim
    psi_full = H.coproduct.matrix  # (dim^2-as-T2, dim)
    pair = H.square.pair_index
    # row b of ps is psi(e_b) as a flat (dim x dim) coefficient array [u, v]
    ps = psi_full.T[:, pair].reshape(d, d * d)
    chi = H.antipode.matrix

    coassoc = counital = antipode_ok = cocomm = True
    for i in range(A.nvars):
        M = H.coproduct_coeffs[i]
        xvec = A.gen(i).vec
        # in [u, v, w] order: (psi (x) id) psi(x) = sum_a ps[a, (u, v)] M[a, w]
        # and (id (x) psi) psi(x) = sum_b M[u, b] ps[b, (v, w)]
        if not np.array_equal(fp_matmul(ps.T, M, p).ravel(), fp_matmul(M, ps, p).ravel()):
            coassoc = False
        if not np.array_equal(M[0, :], xvec) or not np.array_equal(M[:, 0], xvec):
            counital = False
        if not np.array_equal(M, M.T):
            cocomm = False
        # mu (chi (x) id) psi(x) = aug(x) 1 = 0 for a generator: the sum of
        # (chi M)[a, b] e_a e_b
        if A.sum_of_products(fp_matmul(chi, M, p)).any():
            antipode_ok = False
    return HopfReport(coassoc, counital, antipode_ok, cocomm)


def integrals(H: HopfStructure) -> list[El]:
    """The space of z with x z = aug(x) z for every x, from the literal
    definition over the whole basis; must coincide with the socle."""
    A = H.algebra
    rows = []
    for i, e in enumerate(np.eye(A.dim, dtype=np.int64)):
        M = A.mult_matrix(e).a.copy()
        if i == 0:  # aug(e_0) = 1
            M = (M - np.eye(A.dim, dtype=np.int64)) % A.p
        rows.append(M)
    kern = mat_kernel(FpMatrix(np.vstack(rows), A.p))
    soc = A.socle_vecs()
    if not subspace_eq(kern, soc, A.dim, A.p):
        raise ExactKernelError("internal consistency: integrals differ from the socle")
    return [El(A, v) for v in kern]


# ---------------------------------------------------------------------------
# the Honda tower
# ---------------------------------------------------------------------------


@dataclass
class HondaLevel:
    """Level r of the height-n tower: F_p[x]/(x^{q^r}) with its Hopf data,
    built on first read of hopf."""

    params: HondaParams
    r: int
    fgl: Fgl
    algebra: BorelAlgebra

    @cached_property
    def hopf(self) -> HopfStructure:
        """psi(x) = F(x (x) 1, 1 (x) x), whose coefficient matrix is the law
        itself, and the antipode chi(x) = the formal inverse series."""
        return HopfStructure(self.algebra, [self.fgl.F], [formal_inverse(self.fgl, self.dim)])

    @property
    def q(self) -> int:
        return self.params.q

    @property
    def dim(self) -> int:
        return self.q ** self.r

    def x(self) -> El:
        return self.algebra.gen()

    def socle_exponent(self) -> int:
        return self.q ** self.r - 1


_level_cache: dict[tuple[int, int, int], HondaLevel] = {}
_level_lock = threading.Lock()


def honda_level(params: HondaParams, r: int, budget: int = DEFAULT_BUDGET) -> HondaLevel:
    """Construct (and cache) level r of the tower for (p, n): its algebra
    and group law.  The Hopf data is built when level.hopf is first read;
    hopf_check passes for every level (asserted in the test-suite, not
    here, to keep construction cheap).
    """
    if r < 1:
        raise ExactKernelError("tower level must be >= 1")
    p, n, q = params.p, params.n, params.q
    Q = q ** r
    if Q > budget:
        raise BudgetError("level dimension %d exceeds budget %d" % (Q, budget), required=Q)
    key = (p, n, r)
    with _level_lock:
        hit = _level_cache.get(key)
        if hit is not None:
            return hit
        fgl = honda_fgl(HondaParams(p, n, Q))
        level = HondaLevel(params, r, fgl, BorelAlgebra(p, (Q,), ("x",)))
        _level_cache[key] = level
        return level


def is_hopf_map(f: AlgebraMap, src: HopfStructure, tgt: HopfStructure) -> bool:
    """Does the algebra map f commute with coproduct, counit and antipode?
    Checked on generators (all composites are algebra maps).  The coproduct
    square compares coefficient matrices: (f (x) f) psi_src(g) has matrix
    f . psi_src(g) . f^T, so f (x) f is never built."""
    F = f.matrix
    p = tgt.algebra.p
    for i, g in enumerate(src.algebra.gens()):
        fg = f.apply(g)
        lhs = tgt.coproduct.apply(fg).vec[tgt.square.pair_index]
        rhs = fp_matmul(fp_matmul(F, src.coproduct_coeffs[i], p), F.T, p)
        if not np.array_equal(lhs, rhs):
            return False
        if f.apply(src.antipode.apply(g)) != tgt.antipode.apply(fg):
            return False
        if src.algebra.aug_vec(g.vec) != tgt.algebra.aug_vec(fg.vec):
            return False
    return True


@dataclass
class TowerMaps:
    surj: AlgebraMap  # H_{r+s} -> H_r,  x -> x
    inj: AlgebraMap  # H_s -> H_{r+s},  x -> x^{q^r}
    surj_is_hopf: bool
    inj_is_hopf: bool
    surj_surjective: bool
    inj_injective: bool


def tower_maps(params: HondaParams, r: int, s: int, budget: int = DEFAULT_BUDGET) -> TowerMaps:
    """The two structure maps between levels r, s and r+s, with their
    Hopf-map and rank diagnostics."""
    if r < 1 or s < 1:
        raise ExactKernelError("levels must be >= 1")
    big = honda_level(params, r + s, budget)
    low = honda_level(params, r, budget)
    mid = honda_level(params, s, budget)
    surj = AlgebraMap.from_generator_images(big.algebra, low.algebra, [low.x()])
    inj = AlgebraMap.from_generator_images(
        mid.algebra, big.algebra, [big.x() ** (params.q ** r)]
    )
    return TowerMaps(
        surj=surj,
        inj=inj,
        surj_is_hopf=is_hopf_map(surj, big.hopf, low.hopf),
        inj_is_hopf=is_hopf_map(inj, mid.hopf, big.hopf),
        surj_surjective=surj.is_surjective(),
        inj_injective=inj.is_injective(),
    )


def multiplication_map(level: HondaLevel, m: int) -> AlgebraMap:
    """The algebra endomorphism x -> [m](x) of H_r."""
    series = m_series(level.fgl, m, level.dim)
    return AlgebraMap.from_generator_images(
        level.algebra, level.algebra, [El(level.algebra, series)]
    )


@dataclass
class PdivReport:
    kernel_is_mult_ideal: bool
    p_r_kills_level_r: bool
    square_surjections_compose: bool
    square_inj_quotient_commutes: bool
    square_mult_commutes_with_truncation: bool
    square_mult_factors_through_tower: bool

    @property
    def all_pass(self) -> bool:
        return all(
            (
                self.kernel_is_mult_ideal,
                self.p_r_kills_level_r,
                self.square_surjections_compose,
                self.square_inj_quotient_commutes,
                self.square_mult_commutes_with_truncation,
                self.square_mult_factors_through_tower,
            )
        )

    def as_dict(self) -> dict:
        return {
            "kernel_is_mult_ideal": self.kernel_is_mult_ideal,
            "p_r_kills_level_r": self.p_r_kills_level_r,
            "square_surjections_compose": self.square_surjections_compose,
            "square_inj_quotient_commutes": self.square_inj_quotient_commutes,
            "square_mult_commutes_with_truncation": self.square_mult_commutes_with_truncation,
            "square_mult_factors_through_tower": self.square_mult_factors_through_tower,
            "all_pass": self.all_pass,
        }


def pdiv_check(params: HondaParams, r: int, s: int, budget: int = DEFAULT_BUDGET) -> PdivReport:
    """p-divisibility diagnostics at levels (r, s).

    (i) the kernel of the surjection H_{r+s} -> H_r is the ideal generated
    by the [p^r]-image; (ii) [p^r](x_r) = 0 in H_r; (iii) the compatibility
    squares relating levels r, s, r+s and r+s+1 commute as matrices,
    including the factorization of multiplication by p^r through the tower.
    """
    p, q = params.p, params.q
    Q = q ** (r + s)
    if Q > budget:
        raise BudgetError("pdiv_check needs dimension %d > budget %d" % (Q, budget), required=Q)
    big = honda_level(params, r + s, budget)
    low = honda_level(params, r, budget)
    mid = honda_level(params, s, budget)
    maps = tower_maps(params, r, s, budget)

    # (i) kernel of surj = ideal([p^r](x_{r+s}))
    g = m_series(big.fgl, p ** r, Q)
    ideal_basis = row_space_basis(big.algebra.mult_matrix(g).a.T, big.dim, p)
    kernel_basis = mat_kernel(maps.surj.as_fpmatrix())
    kernel_ok = subspace_eq(ideal_basis, kernel_basis, big.dim, p)

    # (ii) [p^r](x_r) = 0 in H_r
    kills = not m_series(low.fgl, p ** r, low.dim).any()

    # (iii) compatibility squares, algebra side (levels r+s+1 appear)
    bigger = honda_level(params, r + s + 1, max(budget, q ** (r + s + 1)))
    next_mid = honda_level(params, s + 1, budget)

    def down(src: HondaLevel, tgt: HondaLevel) -> AlgebraMap:
        return AlgebraMap.from_generator_images(src.algebra, tgt.algebra, [tgt.x()])

    def up(src: HondaLevel, tgt: HondaLevel, t: int) -> AlgebraMap:
        return AlgebraMap.from_generator_images(src.algebra, tgt.algebra, [tgt.x() ** (q ** t)])

    trunc = down(bigger, big)
    sq1a = down(bigger, low) == maps.surj.compose(trunc)
    # H_{s+1} -> H_{r+s}: restrict then include vs include then restrict
    lhs = maps.inj.compose(down(next_mid, mid))
    rhs = trunc.compose(up(next_mid, bigger, r))
    sq1b = lhs == rhs
    # multiplication by p^{r+1} commutes with truncation H_{r+s+1} -> H_{r+s}
    mlhs = trunc.compose(multiplication_map(bigger, p ** (r + 1)))
    mrhs = multiplication_map(big, p ** (r + 1)).compose(trunc)
    sq2a = mlhs == mrhs
    # multiplication by p^r on H_{r+s} factors as inj o surj through H_s
    factor = maps.inj.compose(down(big, mid))
    sq2b = factor == multiplication_map(big, p ** r)

    return PdivReport(
        kernel_is_mult_ideal=kernel_ok,
        p_r_kills_level_r=kills,
        square_surjections_compose=sq1a,
        square_inj_quotient_commutes=sq1b,
        square_mult_commutes_with_truncation=sq2a,
        square_mult_factors_through_tower=sq2b,
    )


def format_tensor_element(H: HopfStructure, el: El) -> str:
    """Pretty tensor notation for an element of H (x) H, e.g. 'x(x)1 + x(x)x'.

    Terms are ordered by total degree with the left factor leading, so the
    level-1 coproduct reads x(x)1 + 1(x)x + ... ."""
    A = H.algebra
    pair = H.square.pair_index
    M = el.vec[pair]
    terms = []
    for a in range(A.dim):
        for b in range(A.dim):
            c = int(M[a, b])
            if c:
                ea, eb = A.basis[a], A.basis[b]
                terms.append(((sum(ea) + sum(eb), sum(eb), eb, ea), c))
    terms.sort(key=lambda t: t[0])
    bits = []
    for (_, _, eb, ea), c in terms:
        term = "%s⊗%s" % (mono_str(A.var_names, ea) or "1", mono_str(A.var_names, eb) or "1")
        bits.append(term if c == 1 else "%d·%s" % (c, term))
    return " + ".join(bits) if bits else "0"

