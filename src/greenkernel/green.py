"""The Green functor engine.

Values on abelian p-groups are tensor products of Honda tower levels
(Kuenneth); restriction along an arbitrary homomorphism of abelian p-groups
is dual to the group multiplication, so it sends each generator to the
formal-group sum of its component images, computed through algebra-map
columns and mul_vec; transfers are Gysin maps for the values' Frobenius
forms, which value_form alone decides (today the canonical form of the
algebra), and a value's form and ind^G_1(1) are derived when read;
values on a general finite group G with abelian Sylow p-subgroup P
are the subalgebra of A(P) fixed by N_G(P)/P, which is the stable elements
(Swan), so the value path visits no double coset.  The colimit over the
double cosets P\\G/P is computed only when read (by `green stable` and the
tests), from SubgroupGreenFunctor's ind and c_g, and the double-coset limit
is the tests' oracle.
Every value carries its Sylow decomposition, the trivial one (A(1) = F_p)
for a p'-group, so induced_map, beta^* along any homomorphism beta, is the
one map between values: res, c_g and the N_G(P)/P action are beta^* along
an inclusion and conjugations, and F_p's maps are the augmentation, the
unit and the identity.
Restriction depends only on the abstract hom and a transfer only on its
map and forms, so each is built once per distinct input and shared, with
a read-only matrix (between abelian values induced_map hands on restrict's
own); every cache here is read through exactkernel.memo.

Orientation conventions: a group homomorphism alpha: G -> H induces
restrict(alpha): A(H) -> A(G); conjugation c_g: A(H) -> A(gHg^{-1}) is
restriction along gHg^{-1} -> H, x -> g^{-1} x g; for a general group the
value A(G) is a subalgebra of A(P) and res^G_P is the inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .exactkernel import (
    BudgetError,
    ExactKernelError,
    FpMatrix,
    ScopeError,
    fp_matmul,
    memo,
    row_space_basis,
)
from .borel import AlgebraMap, BorelAlgebra, El, Subalgebra
from .fgl import HondaParams, m_series
from .frobform import FrobeniusForm, canonical_form, check_gysin_input, gysin, socle_generator
from .grp import (
    AbelianHom,
    AbelianPGroup,
    PermGroup,
    abelian_decompose,
    double_cosets,
    hom_between,
    perm_inv,
    perm_mul,
    sylow,
)
from .hopftower import HondaLevel, honda_level

DEFAULT_SIZE_BUDGET = 256


@dataclass
class StableResult:
    """A(G) inside A(P), P an abelian Sylow p-subgroup of G: the subalgebra
    fixed by N_G(P)/P, lim_basis its RREF basis in A(P)."""

    group: PermGroup
    sylow: AbelianPGroup
    n: int
    budget: int
    subalgebra: Subalgebra

    @property
    def lim_basis(self) -> list:
        return list(self.subalgebra.basis_matrix.copy())  # the caller's to change

    @property
    def lim_dim(self) -> int:
        return self.subalgebra.dim

    @cached_property
    def colim_dim(self) -> int:
        """dim A(P) minus the span of the images of ind^P_H - ind^P_K c_{g^{-1}}
        over the double cosets PgP, H = P cap gPg^{-1} and K = P cap g^{-1}Pg:
        the cross-check, computed on first read from one SubgroupGreenFunctor,
        so it reads the ind and c_g that the audit checks."""
        G, P, A_P = self.group, self.sylow.group, self.subalgebra.ambient
        fx = SubgroupGreenFunctor(G, self.sylow.p, self.n, self.budget)
        images = []
        for g in double_cosets(G, P, P):
            gi = perm_inv(g)
            H, K = (P.intersection(G.conjugate_subgroup(P, x)) for x in (g, gi))
            images.extend((fx.ind(P, H) - fx.ind(P, K).compose(fx.conj(gi, H))).matrix.T)
        return A_P.dim - len(row_space_basis(images, A_P.dim, A_P.p))


@dataclass
class GreenValue:
    """A(G).  Its kind, Frobenius form and ind^G_1(1) are not fields: they
    are derived when read, the form by value_form and ind_one from the form,
    so a value holds only what is read."""

    p: int
    n: int
    algebra: object  # BorelAlgebra | Subalgebra
    abelian_type: tuple | None = None
    sylow_decomp: AbelianPGroup | None = None
    levels: tuple = ()

    @property
    def kind(self) -> str:
        if isinstance(self.algebra, Subalgebra):
            return "general"
        return "trivial" if self.dim == 1 else "abelian"

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def form(self) -> FrobeniusForm:
        return value_form(self)

    @cached_property
    def ind_one(self) -> El:
        """ind^G_1(1), the transfer of 1 along the augmentation: the z with
        form(z a) = aug(a) for every a.  That is s / form(s) for the socle
        generator s, as s a = aug(a) s; form(s) != 0 is what decided the
        form, so no dual basis is read."""
        s = socle_generator(self.algebra)
        return El(self.algebra, s.vec * pow(self.form.value(s), -1, self.p))


def value_form(v: GreenValue) -> FrobeniusForm:
    """The Frobenius form of the value v, the one place it is decided: the
    canonical form of v's algebra, kept on the algebra, so it is built once
    and survives dataclasses.replace."""
    return canonical_form(v.algebra)


@cache
def _trivial_algebra(p: int) -> BorelAlgebra:
    """F_p as a BorelAlgebra, one shared instance per p: its cached socle,
    ideal generators and canonical form are built once."""
    return BorelAlgebra(p, ())


def augmentation_map(A) -> AlgebraMap:
    """The counit A -> F_p as an AlgebraMap (it is an algebra map): the
    row e_0, as coordinate 0 is the augmentation."""
    return AlgebraMap(A, _trivial_algebra(A.p), np.eye(1, A.dim, dtype=np.int64),
                      is_algebra_map=True)


def unit_map(A) -> AlgebraMap:
    F = _trivial_algebra(A.p)
    col = A.one_vec().reshape(-1, 1)
    return AlgebraMap(F, A, col, is_algebra_map=True)


def _check_budget(exponents, p: int, n: int, budget: int) -> None:
    """The one budget check: refuse A(P), P abelian of the given type, when
    dim A(P) = (p^n)^(sum of the exponents) exceeds the budget."""
    dim = (p ** n) ** sum(exponents)
    if dim > budget:
        raise BudgetError("value dimension %d exceeds budget %d" % (dim, budget), required=dim)


_value_cache: dict = {}


def value_abelian(exponents, p: int, n: int, budget: int = DEFAULT_SIZE_BUDGET) -> GreenValue:
    """A(G) for the abelian p-group of type (r_1 >= ... >= r_k): the tensor
    of the tower levels H_{r_i}."""
    exponents = tuple(int(r) for r in exponents)
    if any(r < 1 for r in exponents):
        raise ExactKernelError("abelian type entries must be >= 1")
    _check_budget(exponents, p, n, budget)
    return memo(_value_cache, (exponents, p, n), _value_abelian, exponents, p, n)


def _value_abelian(exponents: tuple, p: int, n: int) -> GreenValue:
    q = p ** n
    levels = tuple(honda_level(HondaParams(p, n, q ** r), r, budget=q ** r) for r in exponents)
    profile = tuple(q ** r for r in exponents)
    A = BorelAlgebra(p, profile)  # variables x, or x1, x2, ...
    return GreenValue(p=p, n=n, algebra=A, abelian_type=exponents, levels=levels)


def value_for_decomposition(dec: AbelianPGroup, p: int, n: int,
                            budget: int = DEFAULT_SIZE_BUDGET) -> GreenValue:
    return replace(value_abelian(dec.exponents, p, n, budget), sylow_decomp=dec)


# ---------------------------------------------------------------------------
# restriction along homomorphisms of abelian p-groups
# ---------------------------------------------------------------------------


def _component_image(A_src: BorelAlgebra, i: int, level: HondaLevel, s_j: int, m: int) -> np.ndarray:
    """The image in A(source), slot i (tower level H_{r_i}), of the generator
    of H_{s_j} under the cyclic-component hom C_{p^{r_i}} -> C_{p^{s_j}},
    g -> h^m: the series [m'](x_i^{q^u}) with m' = m / p^{max(s_j - r_i, 0)},
    u = max(r_i - s_j, 0)."""
    p, q, r_i = A_src.p, level.q, level.r
    pt = p ** max(s_j - r_i, 0)
    if m % pt:
        raise ExactKernelError("internal consistency: hom fails its congruence")
    cap = q ** r_i
    vec = np.zeros(cap, dtype=np.int64)
    spread = vec[:: q ** max(r_i - s_j, 0)]  # x^e -> x^{e q^u}
    spread[:] = m_series(level.fgl, m // pt, cap)[: len(spread)]
    pad = (0,) * A_src.nvars
    out = np.zeros(A_src.dim, dtype=np.int64)
    out[[A_src.index[pad[:i] + (e,) + pad[i + 1:]] for e in range(cap)]] = vec
    return out


def _formal_add(A: BorelAlgebra, level: HondaLevel, a, b) -> np.ndarray:
    """a +_F b = sum_s a^s (sum_t F[s, t] b^t) in A, F the group law of the
    tower level.  When both are nonzero, the power columns come from the
    algebra maps x -> a and x -> b, which check a^Q = b^Q = 0 (Q = level.dim);
    restrict checks each finished image the same way."""
    if not (a.any() and b.any()):
        return (a + b) % A.p  # 0 is the unit of +_F
    P_a, P_b = (AlgebraMap.from_generator_images(level.algebra, A, [v]).matrix for v in (a, b))
    W = fp_matmul(P_b, level.fgl.F.T, A.p)
    out = np.zeros(A.dim, dtype=np.int64)
    for s in np.flatnonzero(P_a.any(axis=0) & W.any(axis=0)):
        out += A.mul_vec(P_a[:, s], W[:, s])
    return out % A.p


_restrict_cache: dict = {}


def restrict(alpha: AbelianHom, p: int, n: int, budget: int = DEFAULT_SIZE_BUDGET) -> AlgebraMap:
    """The algebra map A(alpha.target) -> A(alpha.source).

    Restriction is dual to the group multiplication: generator j of the
    target value goes to the formal sum c_1 +_F (c_2 +_F ...) of its
    component images, one per cyclic factor of the source, folded from 0,
    the unit of +_F (so a trivial source sends every generator to 0).

    alpha need not be injective.  The map depends only on the abstract hom,
    so it is built once per (source type, target type, matrix, p, n) and
    shared, with a read-only matrix.  Both budgets are checked on the types
    first: a hit raises as a cold call does, and reads no value.
    """
    src, tgt = alpha.source.exponents, alpha.target.exponents
    _check_budget(src, p, n, budget)
    _check_budget(tgt, p, n, budget)
    matrix = tuple(tuple(int(m) for m in row) for row in alpha.matrix)
    key = (src, tgt, matrix, p, n)
    return memo(_restrict_cache, key, _restrict, matrix, src, tgt, p, n, budget)


def _restrict(matrix, src: tuple, tgt: tuple, p: int, n: int, budget: int) -> AlgebraMap:
    """restrict computed cold, along the hom of the given types and matrix."""
    v_src, v_tgt = value_abelian(src, p, n, budget), value_abelian(tgt, p, n, budget)
    A_src: BorelAlgebra = v_src.algebra
    images = []
    for j, (s_j, level_j) in enumerate(zip(v_tgt.abelian_type, v_tgt.levels)):
        acc = np.zeros(A_src.dim, dtype=np.int64)
        for i in reversed(range(len(v_src.levels))):
            c = _component_image(A_src, i, v_src.levels[i], s_j, matrix[j][i])
            acc = _formal_add(A_src, level_j, c, acc)
        images.append(acc)
    out = AlgebraMap.from_generator_images(v_tgt.algebra, A_src, images)
    out.matrix.flags.writeable = False
    return out


_transfer_cache: dict = {}


def transfer(f: AlgebraMap, form_source: FrobeniusForm | None = None,
             form_target: FrobeniusForm | None = None) -> AlgebraMap:
    """The Gysin transfer along the (restriction) algebra map f: A -> B,
    i.e. the module map B -> A adjoint for the given forms (by default
    the canonical forms of the endpoints).

    Built once per (A, B, matrix of f, both form covectors) and shared, with
    a read-only matrix.  What gysin refuses is refused before the lookup,
    and only maps that passed gysin's checks are kept."""
    lam_A = form_source or canonical_form(f.source)
    lam_B = form_target or canonical_form(f.target)
    check_gysin_input(f, lam_A, lam_B)
    key = (f.source, f.target, f.matrix.tobytes(), lam_A.vec.tobytes(), lam_B.vec.tobytes())
    return memo(_transfer_cache, key, gysin, f, lam_A, lam_B)


# ---------------------------------------------------------------------------
# stable elements
# ---------------------------------------------------------------------------


def stable_elements(G: PermGroup, p: int, n: int,
                    budget: int = DEFAULT_SIZE_BUDGET) -> StableResult:
    """A(G) inside A(P) for P an abelian Sylow p-subgroup: the invariants of
    W = N_G(P)/P, one induced_map of A(P) to itself along x -> g^{-1} x g
    per generator g of W.

    These are the stable elements: by Burnside's fusion theorem N_G(P)
    controls G-fusion in P, so on each P cap g^{-1}Pg conjugation by g
    agrees with conjugation by an element of N_G(P) (Swan, The p-period of a
    finite group, 1960).  The colimit dimension is computed when read."""
    P = sylow(G, p)
    if not P.is_abelian():
        raise ScopeError("Sylow %d-subgroup is non-abelian: out of modeled scope" % p)
    dec_P = abelian_decompose(P, p)
    v_P = value_for_decomposition(dec_P, p, n, budget)
    # N_G(P) over P, greedily: g normalizes P iff it conjugates P's basis into P
    gens, actions, N = [], [], P
    for g in G.elements:
        gi = perm_inv(g)
        if g not in N and all(perm_mul(perm_mul(gi, b), g) in P for b in dec_P.basis):
            gens.append(g)
            N = PermGroup(G.degree, list(dec_P.basis) + gens)
            actions.append(induced_map(P, lambda x, g=g, gi=gi: perm_mul(perm_mul(gi, x), g),
                                       v_P, v_P, p, n, budget))
    sub = invariants(v_P, actions)
    return StableResult(group=G, sylow=dec_P, n=n, budget=budget, subalgebra=sub)


def invariants(P_value: GreenValue, actions) -> Subalgebra:
    """Common fixed subalgebra of a family of algebra automorphisms of A(P):
    the kernel of the stacked sigma - 1.  With generators of N_G(P)/P acting
    by conjugation, this is A(G) (see stable_elements)."""
    A = P_value.algebra
    eye = np.eye(A.dim, dtype=np.int64)
    diffs = [eye[:0]]  # with no actions, everything is fixed
    for sigma in actions:
        if sigma.source != A or sigma.target != A:
            raise ExactKernelError("action endpoints must be A(P)")
        if not sigma.is_algebra_map or not sigma.is_injective():
            raise ExactKernelError("actions must be algebra automorphisms")
        diffs.append(sigma.matrix - eye)
    fixed = row_space_basis(FpMatrix(np.vstack(diffs), A.p).kernel(), A.dim, A.p)
    # 1 = e_0 lies in an RREF span iff row 0 is e_0: only row 0 may be nonzero at index 0
    if not (fixed and np.array_equal(fixed[0], A.one_vec())):
        raise ExactKernelError("internal consistency: 1 is not stable")
    return Subalgebra(A, fixed)  # the constructor checks closure


_general_cache: dict = {}


def value_general(G: PermGroup, p: int, n: int,
                  budget: int = DEFAULT_SIZE_BUDGET) -> GreenValue:
    """A(G) for any modeled finite group: the stable subalgebra of A(P), P a
    Sylow p-subgroup, which is A(P) itself when G = P is abelian and F_p =
    A(1) when p does not divide |G|.

    Memoized per (degree, element set, p, n); a hit re-checks the budget
    against dim A(P) = (p^n)^(sum of P's exponents), as a cold call would."""
    v = memo(_general_cache, (G.degree, G._eset, p, n), _value_general, G, p, n, budget)
    _check_budget(v.sylow_decomp.exponents, p, n, budget)
    return v


def _value_general(G: PermGroup, p: int, n: int, budget: int) -> GreenValue:
    """A(G) computed cold."""
    P = sylow(G, p)
    if P.order == 1 or (P.order == G.order and G.is_abelian()):
        return value_for_decomposition(abelian_decompose(P, p), p, n, budget)
    st = stable_elements(G, p, n, budget)
    return GreenValue(p=p, n=n, algebra=st.subalgebra, sylow_decomp=st.sylow)


# ---------------------------------------------------------------------------
# inflation inverses (pushforward along p'-kernel epimorphisms)
# ---------------------------------------------------------------------------


def hom_by_generator_images(G: PermGroup, H: PermGroup, images) -> dict:
    """The homomorphism G -> H with the given generator images, as an
    element map.

    The walk visits every Cayley-graph edge x -> g x once and checks
    table[g x] == img_g table[x] on it (|G| * #generators products).  Every
    element is a word in the generators, so induction on word length gives
    table[a x] == table[a] table[x] for all a, x.  The exhaustive check over
    element pairs is kept in the tests as an oracle."""
    if len(images) != len(G.generators):
        raise ExactKernelError("need one image per generator")
    table = {G.identity(): H.identity()}
    frontier = [G.identity()]
    gen_img = [(g, tuple(img)) for g, img in zip(G.generators, images)]
    while frontier:
        nxt = []
        for x in frontier:
            for g, img in gen_img:
                y = perm_mul(g, x)
                z = perm_mul(img, table[x])
                if y not in table:
                    table[y] = z
                    nxt.append(y)
                elif table[y] != z:
                    raise ExactKernelError("images do not define a homomorphism")
        frontier = nxt
    if len(table) != G.order:
        raise ExactKernelError("generator walk did not cover the group")
    return table


def inflation_inverse(G: PermGroup, H: PermGroup, beta: dict, p: int, n: int,
                      budget: int = DEFAULT_SIZE_BUDGET):
    """For an epimorphism beta: G ->> H with p' kernel, the pushforward
    beta_* = (beta^*)^{-1}: A(G) -> A(H).

    Returns (beta_star: A(H) -> A(G), beta_lower_star: A(G) -> A(H)).
    """
    image = {tuple(v) for v in beta.values()}
    if image != set(H.elements):
        raise ExactKernelError("beta is not an epimorphism onto H")
    ker = [g for g in G.elements if beta[g] == H.identity()]
    if len(ker) % p == 0:
        raise ExactKernelError("kernel order is divisible by p")
    v_G = value_general(G, p, n, budget)
    v_H = value_general(H, p, n, budget)
    bstar = induced_map(H, beta.__getitem__, v_G, v_H, p, n, budget)
    try:
        inv = FpMatrix(bstar.matrix, p).inv()
    except ExactKernelError:
        raise ExactKernelError(
            "internal consistency: the induced map of a p'-kernel epimorphism "
            "must be a linear isomorphism"
        )
    blower = AlgebraMap(v_G.algebra, v_H.algebra, inv, is_algebra_map=True)
    return bstar, blower


def induced_map(H: PermGroup, beta, v_G: GreenValue, v_H: GreenValue,
                p: int, n: int, budget: int = DEFAULT_SIZE_BUDGET) -> AlgebraMap:
    """beta^*: A(H) -> A(G) for any homomorphism beta: G -> H, given as a
    function on G's elements and read only on the basis of P_G =
    v_G.sylow_decomp.  beta(P_G) is a p-subgroup of H, so (Sylow) the first
    h in H with h beta(P_G) h^{-1} <= P_H (tested on the images) twists it
    into v_H's Sylow P_H; an inner twist acts trivially on stable elements.
    The map is restrict along the twisted hom, injective or not, cut down to
    the stable values.  A p'-group's value has the trivial Sylow, so F_p's
    maps come out of the same transport."""
    dec_G, dec_H = v_G.sylow_decomp, v_H.sylow_decomp
    images = [beta(b) for b in dec_G.basis]
    for h in H.elements:
        hi = perm_inv(h)
        twisted = [perm_mul(perm_mul(h, b), hi) for b in images]
        if all(t in dec_H.group for t in twisted):
            full = restrict(hom_between(dec_G, dec_H, twisted), p, n, budget)
            return _restrict_to_stable(full, v_H, v_G)
    raise ExactKernelError("beta(P_G) is not conjugate into P_H: beta is not a hom into H")


class SubgroupGreenFunctor:
    """Mackey/Green data on the subgroups of a fixed finite group G.

    Values are cached per subgroup; res and c_g are induced_map along the
    inclusion and the conjugation (the inner twist used to align Sylows
    acts trivially on stable elements, so the choice drops out).  ind is
    always the Gysin transfer for the values' forms.
    """

    def __init__(self, G: PermGroup, p: int, n: int, budget: int = DEFAULT_SIZE_BUDGET):
        self.G, self.p, self.n, self.budget = G, p, n, budget
        self._res_cache, self._ind_cache, self._conj_cache = {}, {}, {}

    def value(self, H: PermGroup) -> GreenValue:
        return value_general(H, self.p, self.n, self.budget)

    def res(self, H: PermGroup, K: PermGroup) -> AlgebraMap:
        """res^H_K: A(H) -> A(K) for K <= H (checked on a miss: a key enters
        the cache only after passing)."""
        return memo(self._res_cache, (H._eset, K._eset), self._res, H, K)

    def _res(self, H: PermGroup, K: PermGroup) -> AlgebraMap:
        if not K.is_subgroup_of(H):
            raise ExactKernelError("res needs K <= H")
        return induced_map(H, lambda x: x, self.value(K), self.value(H), self.p, self.n, self.budget)

    def ind(self, H: PermGroup, K: PermGroup) -> AlgebraMap:
        """ind^H_K: A(K) -> A(H), the Gysin transfer of res^H_K.  This
        per-(H, K) cache stays in front of transfer's memo, whose key hashes
        res's matrix bytes on every call: without it the seven perfbench
        `audit` jobs took about 15% more CPU time (slower in 11 of 12 paired
        in-process runs, 2-vCPU Xeon)."""
        return memo(self._ind_cache, (H._eset, K._eset), self._ind, H, K)

    def _ind(self, H: PermGroup, K: PermGroup) -> AlgebraMap:
        return transfer(self.res(H, K), self.value(H).form, self.value(K).form)

    def conj(self, g, H: PermGroup) -> AlgebraMap:
        """c_g: A(H) -> A(gHg^{-1})."""
        g = tuple(g)
        return memo(self._conj_cache, (g, H._eset), self._conj, g, H)

    def _conj(self, g: tuple, H: PermGroup) -> AlgebraMap:
        if g not in self.G:
            raise ExactKernelError("conjugating element must lie in G")
        gi = perm_inv(g)
        return induced_map(H, lambda x: perm_mul(perm_mul(gi, x), g),  # gHg^{-1} -> H
                           self.value(self.G.conjugate_subgroup(H, g)), self.value(H),
                           self.p, self.n, self.budget)


def _restrict_to_stable(full: AlgebraMap, v_src: GreenValue, v_tgt: GreenValue) -> AlgebraMap:
    """Restrict a map A(P_src) -> A(P_tgt) to the stable values
    A(src) -> A(tgt), asserting that stable vectors map to stable vectors.
    Between two abelian values it is full itself, the shared read-only map
    that restrict memoizes."""
    src_alg, tgt_alg = v_src.algebra, v_tgt.algebra
    if not (isinstance(src_alg, Subalgebra) or isinstance(tgt_alg, Subalgebra)):
        return full
    X = full.matrix
    if isinstance(src_alg, Subalgebra):
        X = fp_matmul(X, src_alg.basis_matrix.T, src_alg.p)
    if isinstance(tgt_alg, Subalgebra):
        X = tgt_alg.to_sub(X.T).T  # raises if an image is not stable
    return AlgebraMap(src_alg, tgt_alg, X, is_algebra_map=full.is_algebra_map)
