"""The Green functor engine.

Values on abelian p-groups are tensor products of Honda tower levels
(Kuenneth); restriction along an arbitrary homomorphism of abelian p-groups
is dual to the group multiplication, so it sends each generator to the
formal-group sum of its component images, computed through algebra-map
columns and mul_vec; transfers are Gysin maps for the canonical Frobenius
forms; values on a general finite group G with abelian Sylow
p-subgroup P are computed inside A(P) by the stable elements formula, with
the colimit formula and the invariant-subalgebra computation as
independent cross-checks.  The colimit side is computed only when read
(by `green stable` and the tests), so a value never pays for it.
Restriction depends only on the abstract hom and a transfer only on its
map and forms, so each is built once per distinct input and shared, with
a read-only matrix.

Orientation conventions: a group homomorphism alpha: G -> H induces
restrict(alpha): A(H) -> A(G); conjugation c_g: A(H) -> A(gHg^{-1}) is
restriction along gHg^{-1} -> H, x -> g^{-1} x g; for a general group the
value A(G) is a subalgebra of A(P) and res^G_P is the inclusion.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial

import numpy as np

from .exactkernel import (
    BudgetError,
    ExactKernelError,
    FpMatrix,
    ScopeError,
    fp_matmul,
    mat_kernel,
    row_space_basis,
    subspace_contains,
)
from .borel import AlgebraMap, BorelAlgebra, El, Subalgebra
from .fgl import HondaParams, m_series
from .frobform import FrobeniusForm, canonical_form, check_gysin_input, gysin
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
    """Output of the stable-elements computation inside A(P).

    cosets holds, per double coset PgP, what colim_dim reads: res_H, res_K
    and a call that builds c_{g^{-1}}: A(Hg) -> A(Kg)."""

    sylow: AbelianPGroup
    value_algebra: BorelAlgebra
    lim_basis: list
    subalgebra: Subalgebra
    cosets: list = field(repr=False)

    @property
    def lim_dim(self) -> int:
        return len(self.lim_basis)

    @cached_property
    def colim_dim(self) -> int:
        """dim A(P) minus the span of the images of ind^P_H - ind^P_K c_{g^{-1}}
        over the double cosets; the cross-check, computed on first read."""
        A_P, p = self.value_algebra, self.value_algebra.p
        images = []
        for res_H, res_K, cginv in self.cosets:
            images.extend((transfer(res_H) - transfer(res_K).compose(cginv())).matrix.T)
        return A_P.dim - len(row_space_basis(images, A_P.dim, p))


@dataclass
class GreenValue:
    """A(G) together with its canonical Frobenius form and ind^G_1(1)."""

    kind: str  # "abelian" | "general" | "trivial"
    p: int
    n: int
    algebra: object  # BorelAlgebra | Subalgebra
    form: FrobeniusForm
    ind_one: El
    abelian_type: tuple | None = None
    group: PermGroup | None = None
    sylow_decomp: AbelianPGroup | None = None
    stable: StableResult | None = None
    levels: tuple = ()

    @property
    def dim(self) -> int:
        return self.algebra.dim


def _params(p: int, n: int, trunc: int) -> HondaParams:
    return HondaParams(p, n, max(trunc, p ** n))


@lru_cache(maxsize=None)
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


_value_cache: dict = {}
_value_lock = threading.Lock()


def value_abelian(exponents, p: int, n: int, budget: int = DEFAULT_SIZE_BUDGET) -> GreenValue:
    """A(G) for the abelian p-group of type (r_1 >= ... >= r_k): the tensor
    of the tower levels H_{r_i}, its canonical form, and ind^G_1(1)."""
    exponents = tuple(int(r) for r in exponents)
    if any(r < 1 for r in exponents):
        raise ExactKernelError("abelian type entries must be >= 1")
    q = p ** n
    dim = q ** sum(exponents)
    if dim > budget:
        raise BudgetError("value dimension %d exceeds budget %d" % (dim, budget), required=dim)
    with _value_lock:
        cached = _value_cache.get((exponents, p, n))
        if cached is not None:
            return cached
        levels = tuple(honda_level(_params(p, n, q ** r), r, budget=max(budget, q ** r))
                       for r in exponents)
        profile = tuple(q ** r for r in exponents)
        names = ("x",) if len(profile) == 1 else tuple("x%d" % (i + 1) for i in range(len(profile)))
        A = BorelAlgebra(p, profile, names)
        form = canonical_form(A)
        if exponents:
            ind_one = gysin(augmentation_map(A), form, canonical_form(_trivial_algebra(p))).apply(
                _trivial_algebra(p).one()
            )
        else:
            ind_one = A.one()
        if ind_one.is_zero() or not subspace_contains(A.socle_vecs(), ind_one.vec, p):
            raise ExactKernelError("internal consistency: ind_one misses the socle")
        out = GreenValue(
            kind="abelian",
            p=p,
            n=n,
            algebra=A,
            form=form,
            ind_one=ind_one,
            abelian_type=exponents,
            levels=levels,
        )
        _value_cache[(exponents, p, n)] = out
        return out


def value_for_decomposition(dec: AbelianPGroup, p: int, n: int,
                            budget: int = DEFAULT_SIZE_BUDGET) -> GreenValue:
    return replace(value_abelian(dec.exponents, p, n, budget), group=dec.group, sylow_decomp=dec)


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
_restrict_lock = threading.Lock()


def restrict(alpha: AbelianHom, p: int, n: int, budget: int = DEFAULT_SIZE_BUDGET) -> AlgebraMap:
    """The algebra map A(alpha.target) -> A(alpha.source).

    Restriction is dual to the group multiplication: generator j of the
    target value goes to the formal sum c_1 +_F (c_2 +_F ...) of its
    component images, one per cyclic factor of the source, folded from 0,
    the unit of +_F (so a trivial source sends every generator to 0).

    The map depends only on the abstract hom, so it is built once per
    (source type, target type, matrix, p, n) and shared, with a read-only
    matrix.  Both values are read first: a hit checks the budget as a cold
    call does.
    """
    v_src = value_abelian(alpha.source.exponents, p, n, budget)
    v_tgt = value_abelian(alpha.target.exponents, p, n, budget)
    matrix = tuple(tuple(int(m) for m in row) for row in alpha.matrix)
    key = (v_src.abelian_type, v_tgt.abelian_type, matrix, p, n)
    with _restrict_lock:
        out = _restrict_cache.get(key)
        if out is None:
            out = _restrict_cache[key] = _restrict(matrix, v_src, v_tgt)
    return out


def _restrict(matrix, v_src: GreenValue, v_tgt: GreenValue) -> AlgebraMap:
    """restrict computed cold, along the hom with the given matrix."""
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
_transfer_lock = threading.Lock()


def transfer(f: AlgebraMap, form_source: FrobeniusForm | None = None,
             form_target: FrobeniusForm | None = None) -> AlgebraMap:
    """The Gysin transfer along the (restriction) algebra map f: A -> B,
    i.e. the module map B -> A adjoint for the canonical forms.

    Built once per (A, B, matrix of f, both form covectors) and shared, with
    a read-only matrix.  What gysin refuses is refused before the lookup,
    and only maps that passed gysin's checks are kept."""
    lam_A = form_source or canonical_form(f.source)
    lam_B = form_target or canonical_form(f.target)
    check_gysin_input(f, lam_A, lam_B)
    key = (f.source, f.target, f.matrix.tobytes(), lam_A.vec.tobytes(), lam_B.vec.tobytes())
    with _transfer_lock:
        out = _transfer_cache.get(key)
        if out is None:
            out = gysin(f, lam_A, lam_B)
            out.matrix.flags.writeable = False
            _transfer_cache[key] = out
    return out


# ---------------------------------------------------------------------------
# stable elements
# ---------------------------------------------------------------------------


def _inclusion_hom(sub: AbelianPGroup, amb: AbelianPGroup) -> AbelianHom:
    return hom_between(sub, amb, list(sub.basis))


def _conjugation_hom(src: AbelianPGroup, tgt: AbelianPGroup, g) -> AbelianHom:
    """The hom src -> tgt, x -> g^{-1} x g (requires g^{-1} src g = tgt)."""
    gi = perm_inv(g)
    images = [perm_mul(perm_mul(gi, b), g) for b in src.basis]
    return hom_between(src, tgt, images)


def stable_elements(G: PermGroup, p: int, n: int,
                    budget: int = DEFAULT_SIZE_BUDGET) -> StableResult:
    """A(G) inside A(P) for P a Sylow p-subgroup: the simultaneous kernel of
    res_H - c_g res_K over double cosets P\\G/P, taken as the kernel of the
    stacked differences.  The colimit dimension is computed when read."""
    P = sylow(G, p)
    if not P.is_abelian():
        raise ScopeError("Sylow %d-subgroup is non-abelian: out of modeled scope" % p)
    dec_P = abelian_decompose(P, p)
    A_P: BorelAlgebra = value_for_decomposition(dec_P, p, n, budget).algebra
    diffs = []
    cosets = []
    for g in double_cosets(G, P, P):
        gi = perm_inv(g)
        Hg = P.intersection(G.conjugate_subgroup(P, g))   # gPg^{-1} cap P
        Kg = P.intersection(G.conjugate_subgroup(P, gi))  # P cap g^{-1}Pg
        dec_H = abelian_decompose(Hg, p)
        dec_K = abelian_decompose(Kg, p)
        res_H = restrict(_inclusion_hom(dec_H, dec_P), p, n, budget)
        res_K = restrict(_inclusion_hom(dec_K, dec_P), p, n, budget)
        cg = restrict(_conjugation_hom(dec_H, dec_K, g), p, n, budget)  # A(Kg) -> A(Hg)
        diffs.append((res_H - cg.compose(res_K)).matrix)
        cosets.append((res_H, res_K, partial(restrict, _conjugation_hom(dec_K, dec_H, gi),
                                             p, n, budget)))
    lim_basis = row_space_basis(mat_kernel(FpMatrix(np.vstack(diffs), p)), A_P.dim, p)
    # 1 = e_0 lies in an RREF span iff row 0 is e_0: only row 0 may be nonzero at index 0
    if not (lim_basis and np.array_equal(lim_basis[0], A_P.one_vec())):
        raise ExactKernelError("internal consistency: 1 is not stable")
    return StableResult(
        sylow=dec_P,
        value_algebra=A_P,
        lim_basis=lim_basis,
        subalgebra=Subalgebra(A_P, lim_basis),  # the constructor checks closure
        cosets=cosets,
    )


def invariants(P_value: GreenValue, actions) -> Subalgebra:
    """Common fixed subalgebra of a family of algebra automorphisms of A(P),
    the kernel of the stacked sigma - 1; the independent cross-check for
    stable elements over a normal Sylow."""
    A = P_value.algebra
    eye = np.eye(A.dim, dtype=np.int64)
    diffs = [eye[:0]]  # with no actions, everything is fixed
    for sigma in actions:
        if sigma.source != A or sigma.target != A:
            raise ExactKernelError("action endpoints must be A(P)")
        if not sigma.is_algebra_map or not sigma.is_injective():
            raise ExactKernelError("actions must be algebra automorphisms")
        diffs.append(sigma.matrix - eye)
    return Subalgebra(A, mat_kernel(FpMatrix(np.vstack(diffs) % A.p, A.p)))


_general_cache: dict = {}
_general_lock = threading.Lock()  # its own: value_general calls value_abelian


def value_general(G: PermGroup, p: int, n: int,
                  budget: int = DEFAULT_SIZE_BUDGET) -> GreenValue:
    """A(G) for any modeled finite group: F_p when p does not divide |G|,
    else the stable subalgebra of A(P) with its own canonical form.

    Memoized per (degree, element set, p, n); a hit re-checks the budget
    against the dimension of A(P), as a cold call would."""
    key = (G.degree, G._eset, p, n)
    with _general_lock:
        hit = _general_cache.get(key)
        if hit is None:
            hit = _general_cache[key] = _value_general(G, p, n, budget)
    v, need = hit
    if need > budget:
        raise BudgetError("value dimension %d exceeds budget %d" % (need, budget), required=need)
    return v


def _value_general(G: PermGroup, p: int, n: int, budget: int) -> tuple:
    """A(G) computed cold, with the dimension its budget must cover (0 for
    the trivial value, which needs none)."""
    if G.order % p != 0:
        F = _trivial_algebra(p)
        form = canonical_form(F)
        return GreenValue(
            kind="trivial", p=p, n=n, algebra=F, form=form, ind_one=F.one(), group=G,
        ), 0
    if G.order == sylow(G, p).order and G.is_abelian():
        v = value_for_decomposition(abelian_decompose(G, p), p, n, budget)
        return v, v.dim
    st = stable_elements(G, p, n, budget)
    sub = st.subalgebra
    form = canonical_form(sub)
    ind_one = gysin(
        augmentation_map(sub), form, canonical_form(_trivial_algebra(p))
    ).apply(_trivial_algebra(p).one())
    if ind_one.is_zero():
        raise ExactKernelError("internal consistency: ind_one vanished")
    return GreenValue(
        kind="general", p=p, n=n, algebra=sub, form=form, ind_one=ind_one,
        group=G, sylow_decomp=st.sylow, stable=st,
    ), st.value_algebra.dim


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
    bstar = induced_map(G, H, beta, v_G, v_H, p, n, budget)
    M = bstar.as_fpmatrix()
    if M.rows != M.cols or M.rank() != M.rows:
        raise ExactKernelError(
            "internal consistency: the induced map of a p'-kernel epimorphism "
            "must be a linear isomorphism"
        )
    inv = M.inv()
    blower = AlgebraMap(v_G.algebra, v_H.algebra, inv.a, is_algebra_map=True)
    return bstar, blower


def induced_map(G: PermGroup, H: PermGroup, beta: dict, v_G: GreenValue, v_H: GreenValue,
                p: int, n: int, budget: int = DEFAULT_SIZE_BUDGET) -> AlgebraMap:
    """beta^*: A(H) -> A(G) for beta: G -> H via stable-elements
    functoriality: push the Sylow of G into the chosen Sylow of H (up to an
    inner twist, which acts trivially on stable elements)."""
    if v_G.kind == "trivial":
        if v_H.kind != "trivial":
            # A(H) -> F_p is the augmentation
            return augmentation_map(v_H.algebra)
        return AlgebraMap.identity(v_G.algebra)
    dec_G = v_G.sylow_decomp if v_G.sylow_decomp is not None else abelian_decompose(G, p)
    images = [beta[b] for b in dec_G.basis]
    if v_H.kind == "trivial":
        raise ExactKernelError("no map: target value trivial but source Sylow nontrivial")
    dec_H = v_H.sylow_decomp if v_H.sylow_decomp is not None else abelian_decompose(H, p)
    if H.subgroup(images).order != dec_H.group.order:
        raise ExactKernelError("beta does not carry the Sylow isomorphically")
    return _transport(H, images, dec_G, dec_H, v_H, v_G, p, n, budget)


def _transport(H: PermGroup, images, dec_src: AbelianPGroup, dec_H: AbelianPGroup,
               v_H: GreenValue, v_to: GreenValue, p: int, n: int, budget: int) -> AlgebraMap:
    """A(H) -> A(K), v_to the value of K, along a homomorphism from the
    Sylow dec_src of K to H that sends dec_src.basis to images.

    The first h in H with h S h^{-1} <= P_H (S the subgroup the images
    generate; tested on the images) twists them into the Sylow dec_H of H;
    an inner twist acts trivially on stable elements.  The map is restrict
    along the twisted hom, cut down to the stable values."""
    P_H = dec_H.group
    for h in H.elements:
        hi = perm_inv(h)
        twisted = [perm_mul(perm_mul(h, b), hi) for b in images]
        if all(t in P_H for t in twisted):
            full = restrict(hom_between(dec_src, dec_H, twisted), p, n, budget)
            return _restrict_to_stable(full, v_H, v_to)
    raise ExactKernelError("internal consistency: Sylow transport failed")


class SubgroupGreenFunctor:
    """Mackey/Green data on the subgroups of a fixed finite group G.

    Values are cached per subgroup; res/ind/c_g between subgroups are built
    by transporting through chosen Sylow subgroups (the inner twist used to
    align Sylows acts trivially on stable elements, so the choice drops
    out).  ind is always the Gysin transfer for the canonical forms.
    """

    def __init__(self, G: PermGroup, p: int, n: int, budget: int = DEFAULT_SIZE_BUDGET):
        self.G = G
        self.p = p
        self.n = n
        self.budget = budget
        self._res_cache: dict = {}
        self._ind_cache: dict = {}
        self._conj_cache: dict = {}

    def value(self, H: PermGroup) -> GreenValue:
        return value_general(H, self.p, self.n, self.budget)

    def res(self, H: PermGroup, K: PermGroup) -> AlgebraMap:
        """res^H_K: A(H) -> A(K) for K <= H."""
        if not K.is_subgroup_of(H):
            raise ExactKernelError("res needs K <= H")
        ck = (H._eset, K._eset)
        if ck in self._res_cache:
            return self._res_cache[ck]
        vH, vK = self.value(H), self.value(K)
        if vK.kind == "trivial":
            out = augmentation_map(vH.algebra)
        else:
            decK = vK.sylow_decomp
            out = _transport(H, decK.basis, decK, vH.sylow_decomp, vH, vK,
                             self.p, self.n, self.budget)
        self._res_cache[ck] = out
        return out

    def ind(self, H: PermGroup, K: PermGroup) -> AlgebraMap:
        """ind^H_K: A(K) -> A(H), the Gysin transfer of res^H_K."""
        ck = (H._eset, K._eset)
        if ck in self._ind_cache:
            return self._ind_cache[ck]
        vH, vK = self.value(H), self.value(K)
        out = transfer(self.res(H, K), vH.form, vK.form)
        self._ind_cache[ck] = out
        return out

    def conj(self, g, H: PermGroup) -> AlgebraMap:
        """c_g: A(H) -> A(gHg^{-1})."""
        g = tuple(g)
        if g not in self.G:
            raise ExactKernelError("conjugating element must lie in G")
        ck = (g, H._eset)
        if ck in self._conj_cache:
            return self._conj_cache[ck]
        H2 = self.G.conjugate_subgroup(H, g)
        vH, vH2 = self.value(H), self.value(H2)
        if vH.kind == "trivial":
            out = AlgebraMap.identity(vH.algebra)
            self._conj_cache[ck] = out
            return out
        decH2 = vH2.sylow_decomp
        gi = perm_inv(g)
        # hom P_{H2} -> H, x -> g^{-1} x g, then twisted into P_H
        images = [perm_mul(perm_mul(gi, b), g) for b in decH2.basis]
        out = _transport(H, images, decH2, vH.sylow_decomp, vH, vH2,
                         self.p, self.n, self.budget)
        self._conj_cache[ck] = out
        return out


def _restrict_to_stable(full: AlgebraMap, v_src: GreenValue, v_tgt: GreenValue) -> AlgebraMap:
    """Restrict a map A(P_src) -> A(P_tgt) to the stable values
    A(src) -> A(tgt), asserting that stable vectors map to stable vectors."""
    src_alg, tgt_alg = v_src.algebra, v_tgt.algebra
    X = full.matrix
    if isinstance(src_alg, Subalgebra):
        X = fp_matmul(X, src_alg.basis_matrix.T, src_alg.p)
    if isinstance(tgt_alg, Subalgebra):
        X = tgt_alg.to_sub(X.T).T  # raises if an image is not stable
    return AlgebraMap(src_alg, tgt_alg, X, is_algebra_map=full.is_algebra_map)
