"""Mechanical verification harness.

Every checkable axiom and proposition is evaluated on concrete desk-scale
instances against the constructed functor, and reported with one of three
statuses: ``exact-pass``, ``pass-up-to-unit`` (the two sides agree after
scaling by a single nonzero scalar, which is recorded), or ``fail`` (a
witness is recorded).  Transfers in this model are a constructed choice of
Gysin maps, so identities that depend on coherent form choices may hold
only up to a unit; honest reporting of that mode is the point of the
three-valued status.

Report rows are sorted by (name, instance) so runs are reproducible.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .exactkernel import (BudgetError, ExactKernelError, ScopeError, _is_prime, fp_matmul,
                          subspace_contains)
from .borel import AlgebraMap
from .fgl import HondaParams
from .green import (
    DEFAULT_SIZE_BUDGET,
    SubgroupGreenFunctor,
    augmentation_map,
    induced_map,
    hom_by_generator_images,
    restrict,
    transfer,
    unit_map,
    value_abelian,
    value_general,
)
from .grp import (
    PermGroup,
    abelian_decompose,
    double_cosets,
    hom_between,
    named_group,
    perm_inv,
    perm_mul,
    perm_to_cycles,
    sylow,
    _perm_pow,
)
from .hopftower import pdiv_check

DEFAULT_BATTERY = ("C2", "C3", "C4", "V4", "C6", "S3", "A4")

EXACT = "exact-pass"
UP_TO_UNIT = "pass-up-to-unit"
FAIL = "fail"


@dataclass
class CheckRow:
    name: str
    anchor: str
    instance: str
    status: str
    scalar: int | None = None
    witness: str | None = None
    ms: float = 0.0

    def as_dict(self) -> dict:
        d = {
            "name": self.name,
            "anchor": self.anchor,
            "instance": self.instance,
            "status": self.status,
            "ms": round(self.ms, 3),
        }
        if self.scalar is not None:
            d["scalar"] = self.scalar
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class AuditReport:
    meta: dict
    checks: list = field(default_factory=list)

    def add(self, row: CheckRow) -> None:
        self.checks.append(row)

    def finalize(self) -> "AuditReport":
        self.checks.sort(key=lambda r: (r.name, r.instance))
        return self

    @property
    def fail_rows(self) -> list:
        return [r for r in self.checks if r.status == FAIL]

    @property
    def has_failures(self) -> bool:
        return bool(self.fail_rows)

    def as_dict(self) -> dict:
        return {"meta": self.meta, "checks": [r.as_dict() for r in self.checks]}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def summary_lines(self) -> list[str]:
        out = []
        for r in self.checks:
            extra = ""
            if r.scalar is not None:
                extra = " (scalar %d)" % r.scalar
            if r.witness is not None:
                extra += " [witness: %s]" % r.witness
            out.append("%-14s %-34s %-16s%s" % (r.status, r.name, r.instance, extra))
        return out


def compare_maps(lhs: AlgebraMap, rhs: AlgebraMap) -> tuple[str, int | None, str | None]:
    """Exact / scalar-multiple / fail comparison of two maps."""
    p = lhs.target.p
    if lhs.matrix.shape != rhs.matrix.shape:
        return FAIL, None, "shape %r vs %r" % (lhs.matrix.shape, rhs.matrix.shape)
    if np.array_equal(lhs.matrix, rhs.matrix):
        return EXACT, None, None
    for c in range(2, p):
        if np.array_equal(lhs.matrix, (c * rhs.matrix) % p):
            return UP_TO_UNIT, c, None
    i, j = np.argwhere(lhs.matrix != rhs.matrix)[0]
    wit = "entry (%d,%d): %d vs %d" % (i, j, lhs.matrix[i, j], rhs.matrix[i, j])
    return FAIL, None, wit


def frobenius_axiom(res: AlgebraMap, ind: AlgebraMap):
    """GF2, ind(x res(y)) = ind(x) y, for res: A(H) -> A(K) and
    ind: A(K) -> A(H).

    The identity is bilinear and res is an algebra map, so y = 1 and the
    radical generators of A(H) decide it (``check_module_map``).  The loop
    over basis pairs runs only on a fail, to find the first witness; a fail
    that no pair witnesses is a contradiction between the two checks."""
    if ind.check_module_map(res):
        return EXACT, None, None
    for x in res.target.basis_elements():
        for y in res.source.basis_elements():
            if ind.apply(x * res.apply(y)) != ind.apply(x) * y:
                return FAIL, None, "x=%r y=%r" % (x, y)
    raise ExactKernelError(
        "internal consistency: module-map check fails but no basis pair does"
    )


def _mackey_sum(terms) -> AlgebraMap:
    """The sum of the chains ind o c_g o res, one per double coset, as one
    matrix.  Every chain must compose and share the first chain's source and
    target; a mismatch raises.  Each product is an fp_matmul, reduced mod p
    before the next, so the int64 envelope stays cols * (p-1)^2."""
    source, target = terms[0][2].source, terms[0][0].target
    p = target.p
    acc = np.zeros((target.dim, source.dim), dtype=np.int64)
    for k, (ind, c, res) in enumerate(terms):
        if c.source != res.target or ind.source != c.target:
            raise ExactKernelError("MF5 term %d: maps do not compose" % k)
        if res.source != source or ind.target != target:
            raise ExactKernelError("MF5 term %d: endpoints differ from term 0" % k)
        acc += fp_matmul(ind.matrix, fp_matmul(c.matrix, res.matrix, p), p)
    return AlgebraMap(source, target, acc)


def _timed(report: AuditReport, name: str, anchor: str, instance: str, fn) -> None:
    """One row: fn's status, or fail with the error as witness.  A budget or
    scope error is no failed axiom but a request the model cannot answer, so
    it ends the audit."""
    t0 = time.perf_counter()
    try:
        status, scalar, witness = fn()
    except (BudgetError, ScopeError):
        raise
    except ExactKernelError as ex:
        status, scalar, witness = FAIL, None, str(ex)
    ms = (time.perf_counter() - t0) * 1000.0
    report.add(CheckRow(name, anchor, instance, status, scalar, witness, ms))


def _bool_row(ok: bool, witness: str | None = None):
    return (EXACT, None, None) if ok else (FAIL, None, witness or "predicate false")


def _subgroup_label(H: PermGroup) -> str:
    o = H.order
    if o == 1:
        return "1"
    if H.is_abelian():
        try:
            dec = abelian_decompose(H)
            return "x".join("C%d" % (dec.p ** r) for r in dec.exponents)
        except ExactKernelError:
            pass
        # abelian but not a p-group: describe by order
        return "Ab%d" % o
    return "O%d" % o


def default_subgroup_family(G: PermGroup) -> list[PermGroup]:
    """Deterministic family: 1, every cyclic subgroup, a Sylow for each
    prime divisor, and G itself (deduplicated, sorted by order then
    elements)."""
    seen = {}
    def put(H):
        seen.setdefault(H._eset, H)
    put(G.trivial_subgroup())
    for g in G.elements:
        put(G.subgroup([g]))
    o = G.order
    for q in range(2, o + 1):
        if o % q == 0 and _is_prime(q):
            put(sylow(G, q))
    put(G)
    fam = list(seen.values())
    fam.sort(key=lambda H: (H.order, H.elements))
    return fam


# ---------------------------------------------------------------------------
# Mackey / Green axioms on the subgroups of one group
# ---------------------------------------------------------------------------


def audit_mackey(G: PermGroup, p: int, n: int, subgroup_family=None,
                 budget: int = DEFAULT_SIZE_BUDGET, group_name: str | None = None) -> AuditReport:
    fx = SubgroupGreenFunctor(G, p, n, budget)
    fam = subgroup_family if subgroup_family is not None else default_subgroup_family(G)
    gname = group_name or ("G%d" % G.order)
    labels: dict = {}
    counts: dict = {}
    for H in fam:
        base = gname if H == G else _subgroup_label(H)
        k = counts.get(base, 0)
        counts[base] = k + 1
        labels[H._eset] = base if k == 0 else "%s#%d" % (base, k + 1)

    def _lbl(H):
        if H._eset not in labels:
            labels[H._eset] = _subgroup_label(H)
        return labels[H._eset]

    report = AuditReport(meta={
        "p": p, "n": n, "battery": [gname], "version": _version(),
        "mode": "mackey", "family": [_lbl(H) for H in fam],
    })
    ident = AlgebraMap.identity

    for H in fam:
        lbl = _lbl(H)
        _timed(report, "MF1-res", "MF1", "%s<=%s" % (lbl, gname),
               lambda H=H: compare_maps(fx.res(H, H), ident(fx.value(H).algebra)))
        _timed(report, "MF1-ind", "MF1", "%s<=%s" % (lbl, gname),
               lambda H=H: compare_maps(fx.ind(H, H), ident(fx.value(H).algebra)))
        for h in H.elements[:4]:
            _timed(report, "MF1-conj", "MF1 / GD2",
                   "%s, h=%s" % (lbl, perm_to_cycles(h)),
                   lambda H=H, h=h: compare_maps(fx.conj(h, H), ident(fx.value(H).algebra)))

    chains = [
        (H, K, L)
        for H in fam for K in fam for L in fam
        if L.is_subgroup_of(K) and K.is_subgroup_of(H) and L.order < K.order < H.order
    ]
    for (H, K, L) in chains:
        inst = "%s<=%s<=%s" % (_lbl(L), _lbl(K), _lbl(H))
        _timed(report, "MF2-res", "MF2", inst,
               lambda H=H, K=K, L=L: compare_maps(
                   fx.res(K, L).compose(fx.res(H, K)), fx.res(H, L)))
        _timed(report, "MF2-ind", "MF2", inst,
               lambda H=H, K=K, L=L: compare_maps(
                   fx.ind(H, K).compose(fx.ind(K, L)), fx.ind(H, L)))

    conj_pairs = [(g1, g2) for g1 in G.generators for g2 in G.generators][:4]
    for H in fam:
        lbl = _subgroup_label(H)
        for (g1, g2) in conj_pairs:
            def mf3(H=H, g1=g1, g2=g2):
                H2 = G.conjugate_subgroup(H, g2)
                lhs = fx.conj(g1, H2).compose(fx.conj(g2, H))
                rhs = fx.conj(perm_mul(g1, g2), H)
                return compare_maps(lhs, rhs)
            _timed(report, "MF3", "MF3",
                   "%s, (%s,%s)" % (lbl, perm_to_cycles(g1), perm_to_cycles(g2)), mf3)

    pairs = [(H, K) for H in fam for K in fam if K.is_subgroup_of(H) and K.order < H.order]
    for (H, K) in pairs:
        inst = "%s<=%s" % (_lbl(K), _lbl(H))
        for g in G.generators:
            def mf4res(H=H, K=K, g=g):
                Hg = G.conjugate_subgroup(H, g)
                Kg = G.conjugate_subgroup(K, g)
                lhs = fx.res(Hg, Kg).compose(fx.conj(g, H))
                rhs = fx.conj(g, K).compose(fx.res(H, K))
                return compare_maps(lhs, rhs)

            def mf4ind(H=H, K=K, g=g):
                Hg = G.conjugate_subgroup(H, g)
                Kg = G.conjugate_subgroup(K, g)
                lhs = fx.ind(Hg, Kg).compose(fx.conj(g, K))
                rhs = fx.conj(g, H).compose(fx.ind(H, K))
                return compare_maps(lhs, rhs)

            _timed(report, "MF4-res", "MF4", inst + ", g=%s" % perm_to_cycles(g), mf4res)
            _timed(report, "MF4-ind", "MF4", inst + ", g=%s" % perm_to_cycles(g), mf4ind)

    triples = [(H, K, L) for H in fam for K in fam for L in fam
               if K.is_subgroup_of(H) and L.is_subgroup_of(H)
               and H.order > 1 and (K.order < H.order or L.order < H.order)]
    for (H, K, L) in triples:
        inst = "res^%s_%s ind^%s_%s" % (
            _lbl(H), _lbl(L), _lbl(H), _lbl(K))
        def mf5(H=H, K=K, L=L):
            lhs = fx.res(H, L).compose(fx.ind(H, K))
            terms = []
            for g in double_cosets(H, L, K):
                X = K.intersection(H.conjugate_subgroup(L, perm_inv(g)))  # g^{-1}Lg cap K
                Y = L.intersection(H.conjugate_subgroup(K, g))            # L cap gKg^{-1}
                terms.append((fx.ind(L, Y), fx.conj(g, X), fx.res(K, X)))
            return compare_maps(lhs, _mackey_sum(terms))
        _timed(report, "MF5", "MF5 (Mackey formula) / GD5", inst, mf5)

    for (H, K) in pairs:
        inst = "%s<=%s" % (_lbl(K), _lbl(H))
        _timed(report, "GF1-res-algebra-map", "GF1", inst,
               lambda H=H, K=K: _bool_row(fx.res(H, K).check_multiplicative()))

        _timed(report, "GF2-frobenius-axiom", "GF2 (Frobenius axiom)", inst,
               lambda H=H, K=K: frobenius_axiom(fx.res(H, K), fx.ind(H, K)))
    for H in fam:
        for g in G.generators:
            _timed(report, "GF1-conj-algebra-map", "GF1",
                   "%s, g=%s" % (_lbl(H), perm_to_cycles(g)),
                   lambda H=H, g=g: _bool_row(fx.conj(g, H).check_multiplicative()))

    return report.finalize()


# ---------------------------------------------------------------------------
# assumptions and propositions over a battery of groups
# ---------------------------------------------------------------------------


def audit_assumptions(battery=None, p: int = 2, n: int = 1,
                      budget: int = DEFAULT_SIZE_BUDGET) -> AuditReport:
    names = list(battery) if battery is not None else list(DEFAULT_BATTERY)
    groups = [(nm, named_group(nm)) for nm in names]
    report = AuditReport(meta={
        "p": p, "n": n, "battery": names, "version": _version(), "mode": "assumptions",
    })

    _timed(report, "AssumptionA-trivial-value", "Assumption (A)", "1",
           lambda: _bool_row(value_general(PermGroup(1, []), p, n, budget).dim == 1))

    for nm, G in groups:
        v = value_general(G, p, n, budget)

        def residue(v=v):
            # the composite F_p -> A(G) -> F_p of unit and augmentation is
            # the identity, so ker(aug) is the maximal ideal
            comp = augmentation_map(v.algebra).compose(unit_map(v.algebra))
            return _bool_row(bool(np.array_equal(comp.matrix, [[1]])))
        _timed(report, "residue-field", "Assumption (A) residue field", nm, residue)
        _timed(report, "AssumptionB-ind-one-nonzero", "Assumption (B)", nm,
               lambda v=v: _ind_one_row(v, lambda z: not z.is_zero()))
        _timed(report, "ind^G_1-in-socle", "Prop ind^G_1(a)", nm,
               lambda v=v: _ind_one_row(
                   v, lambda z: subspace_contains(v.algebra.socle_vecs(), z.vec, p)))
        if G.order % p != 0:
            _timed(report, "ind^G_1-unit-for-p'-group", "Prop ind^G_1(b)", nm,
                   lambda v=v: _bool_row(v.ind_one.is_unit()))
            _timed(report, "p'-group-value-trivial", "Prop p'-groups", nm,
                   lambda v=v: _bool_row(v.dim == 1))
        _timed(report, "non-triviality", "Thm non-triviality", nm,
               lambda v=v, G=G: _bool_row((v.dim > 1) == (G.order % p == 0)))
        _timed(report, "socle-one-dimensional", "Prop soc", nm,
               lambda v=v: _bool_row(len(v.algebra.socle_vecs()) == 1))

        if G.order % p == 0:
            fx = SubgroupGreenFunctor(G, p, n, budget)
            P = sylow(G, p)
            def ind_gp(G=G, fx=fx, P=P):
                vG = fx.value(G)
                vP = fx.value(P)
                lhs = fx.res(G, P).apply(vG.ind_one)
                idx = (G.order // P.order) % p
                rhs = vP.ind_one * idx
                if lhs == rhs:
                    return EXACT, None, None
                for c in range(2, p):
                    if lhs == rhs * c:
                        return UP_TO_UNIT, c, None
                return FAIL, None, "res ind_one = %r vs %r" % (lhs, rhs)
            _timed(report, "res-of-ind-one", "Prop ind^G_P", nm, ind_gp)

            def surj(G=G, fx=fx, P=P):
                return _bool_row(fx.ind(G, P).is_surjective())
            _timed(report, "ind^G_P-surjective", "Prop A-projective", nm, surj)

    _timed(report, "pdiv-tower", "Assumption (D)", "r=s=1",
           lambda: _bool_row(pdiv_check(HondaParams(p, n, max(p ** (2 * n), 4)), 1, 1,
                                        budget=max(budget, p ** (3 * n))).all_pass))

    # Lemma res-p': pairs with p' index inside battery members
    for nm, G in groups:
        if G.order % p != 0:
            continue
        P = sylow(G, p)
        if P.order == G.order:
            continue
        fx = SubgroupGreenFunctor(G, p, n, budget)
        inst = "%s<=%s" % (_subgroup_label(P), nm)
        def resp(G=G, fx=fx, P=P):
            ind1 = fx.ind(G, P).apply(fx.value(P).algebra.one())
            if not ind1.is_unit():
                return FAIL, None, "ind(1) = %r not a unit" % ind1
            comp = fx.ind(G, P).compose(fx.res(G, P))
            mult = fx.value(G).algebra.mult_matrix(ind1.vec)
            ok = np.array_equal(comp.matrix, mult)
            return _bool_row(ok, "ind res != mult by ind(1)")
        _timed(report, "res-p'-split", "Lemma res-p'", inst, resp)

    # Prop ind-pindex: 1 <= C_p (and Sylow-index instances that are p-divisible)
    def pindex():
        Cp = named_group("C%d" % p)
        fx = SubgroupGreenFunctor(Cp, p, n, budget)
        one = Cp.trivial_subgroup()
        ind = fx.ind(Cp, one)
        for z in fx.value(one).algebra.basis_elements():
            if ind.apply(z).aug() != 0:
                return FAIL, None, "aug(ind(%r)) != 0" % z
        return EXACT, None, None
    _timed(report, "ind-image-in-radical", "Prop ind-pindex", "1<=C%d" % p, pindex)

    # GD1 instance: contravariant functoriality of restriction on two fixed
    # composable pairs of abelian homs
    def gd1():
        dq = abelian_decompose(named_group("C%d" % p ** 2))
        d1 = abelian_decompose(named_group("C%d" % p))
        incl = hom_between(d1, dq, [_perm_pow(dq.basis[0], p)])
        quot = hom_between(dq, d1, [d1.basis[0]])
        comp = quot.compose(incl)  # C_p -> C_p (the zero map)
        lhs = restrict(comp, p, n, budget)
        rhs = restrict(incl, p, n, budget).compose(restrict(quot, p, n, budget))
        if not np.array_equal(lhs.matrix, rhs.matrix):
            return FAIL, None, "functoriality broke on quot o incl"
        comp2 = incl.compose(quot)  # C_{p^2} -> C_{p^2}
        lhs2 = restrict(comp2, p, n, budget)
        rhs2 = restrict(quot, p, n, budget).compose(restrict(incl, p, n, budget))
        return _bool_row(np.array_equal(lhs2.matrix, rhs2.matrix), "incl o quot")
    _timed(report, "restriction-functoriality", "GD1", "C%d chain" % p ** 2, gd1)

    # Prop auto-soc: all automorphisms of the cyclic p-subgroups in scope
    q = p ** n
    for r in (1, 2):
        order = p ** r
        if q ** r > budget:
            continue
        dec = abelian_decompose(named_group("C%d" % order))
        v = value_abelian((r,), p, n, budget)
        topv = v.algebra.top_monomial()
        for u in range(2, order):
            if u % p == 0:
                continue
            aut = hom_between(dec, dec, [_perm_pow(dec.basis[0], u)])
            def autosoc(aut=aut, v=v, topv=topv):
                m = restrict(aut, p, n, budget)
                return _bool_row(m.apply(topv) == topv, "socle moved")
            _timed(report, "automorphism-fixes-socle", "Prop auto-soc (GD3 instance)",
                   "C%d, u=%d" % (order, u), autosoc)

    # Prop G->Cp: epimorphisms onto C_{p^s} from battery members
    for nm, G in groups:
        if G.order % p != 0:
            continue
        targets = []
        for s in (1, 2):
            m = p ** s
            if G.order % m == 0:
                targets.append(named_group("C%d" % m))
        for H in targets:
            beta = _epi_onto_cyclic(G, H)
            if beta is None:
                continue
            def gcp(G=G, H=H, beta=beta):
                vG = value_general(G, p, n, budget)
                vH = value_general(H, p, n, budget)
                m = induced_map(H, beta.__getitem__, vG, vH, p, n, budget)
                return _bool_row(m.is_injective(), "pi^* has a kernel")
            _timed(report, "epi-to-cyclic-monomorphism", "Prop G->Cp",
                   "%s->>C%d" % (nm, H.order), gcp)

    return report.finalize()


def _ind_one_row(v, holds):
    """A row on ind^G_1(1): v.ind_one, which is s / form(s) for the socle
    generator s, must equal the Gysin transfer of 1 along the augmentation,
    a route that reads no socle generator, and holds must accept it."""
    aug = augmentation_map(v.algebra)
    z = transfer(aug, v.form).apply(aug.target.one())
    if z != v.ind_one:
        return FAIL, None, "ind_one %s vs Gysin transfer of 1 %s" % (v.ind_one, z)
    return _bool_row(holds(z))


def _epi_onto_cyclic(G: PermGroup, H: PermGroup):
    """An epimorphism G ->> H (cyclic) by generator-image search, or None."""
    for target_imgs in _image_tuples(G, H):
        try:
            beta = hom_by_generator_images(G, H, target_imgs)
        except ExactKernelError:
            continue
        if {tuple(v) for v in beta.values()} == set(H.elements):
            return beta
    return None


def _image_tuples(G: PermGroup, H: PermGroup):
    """Every tuple of generator images in H, the first generator varying
    fastest; none when G has no generators."""
    opts = sorted(H.elements, reverse=True)  # nontrivial images first
    k = len(G.generators)
    if k == 0:
        return
    for t in itertools.product(opts, repeat=k):
        yield list(reversed(t))


def _version() -> str:
    from . import __version__
    return __version__
