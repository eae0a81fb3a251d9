"""Permutation groups: closure, Sylow, double cosets, abelian structure."""

import random

import pytest

from greenkernel import grp
from greenkernel.audit import default_subgroup_family
from greenkernel.exactkernel import BudgetError, ExactKernelError
from greenkernel.grp import (
    AbelianHom,
    PermGroup,
    abelian_decompose,
    double_cosets,
    group_from_generators,
    hom_between,
    named_group,
    parse_cycles,
    parse_group_file,
    perm_inv,
    perm_mul,
    perm_order,
    perm_to_cycles,
    sylow,
    _perm_pow,
)
from polyoracle import double_cosets_by_products, perm_mul_by_images


def test_group_from_generators_examples():
    C3 = group_from_generators(3, [parse_cycles("(1 2 3)")])
    assert C3.order == 3
    S3 = group_from_generators(3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)")])
    assert S3.order == 6
    V4 = group_from_generators(4, [parse_cycles("(1 2)(3 4)"), parse_cycles("(1 3)(2 4)")])
    assert V4.order == 4


def test_closure_budget():
    with pytest.raises(BudgetError):
        PermGroup(5, [parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)")], budget=30)


def test_named_groups():
    assert named_group("C6").order == 6
    assert named_group("S4").order == 24
    assert named_group("A4").order == 12
    assert named_group("V4").order == 4
    assert named_group("D4").order == 8
    assert named_group("C2xC4").order == 8
    with pytest.raises(ExactKernelError):
        named_group("Q8")


def test_cycle_parsing_round_trip():
    g = parse_cycles("(1 2 3)(4 5)")
    assert perm_to_cycles(g) == "(1 2 3)(4 5)"
    assert parse_cycles("()") == ()
    with pytest.raises(ExactKernelError):
        parse_cycles("(1 1)")
    with pytest.raises(ExactKernelError):
        parse_cycles("(0 2)")


def test_group_file_parsing():
    G = parse_group_file("# klein four\n(1 2)(3 4)\n\n(1 3)(2 4)  # second\n")
    assert G.order == 4
    with pytest.raises(ExactKernelError, match="line 2"):
        parse_group_file("(1 2)\n(3 4\n")


def test_sylow_examples():
    S3 = named_group("S3")
    assert sylow(S3, 3).order == 3
    assert sylow(S3, 2).order == 2
    A4 = named_group("A4")
    P = sylow(A4, 2)
    assert P.order == 4
    assert P == named_group("V4").subgroup(P.generators) or P.is_abelian()
    assert sylow(A4, 3).order == 3
    assert sylow(S3, 5).order == 1


def test_sylow_deterministic():
    S3 = named_group("S3")
    assert sylow(S3, 2).elements == sylow(S3, 2).elements


def all_p_subgroups_of_order(G, size):
    """Oracle helper: all subgroups of the given order generated by <= 2
    elements (enough at desk scale)."""
    seen = set()
    out = []
    elems = G.elements
    for a in elems:
        for b in elems:
            try:
                H = PermGroup(G.degree, [a, b], budget=size + 1)
            except BudgetError:
                continue
            if H.order == size:
                key = frozenset(H.elements)
                if key not in seen:
                    seen.add(key)
                    out.append(H)
    return out


@pytest.mark.parametrize("name,p", [("S3", 2), ("S3", 3), ("A4", 2), ("A4", 3), ("D4", 2)])
def test_sylow_conjugacy(name, p):
    G = named_group(name)
    P = sylow(G, p)
    for Q in all_p_subgroups_of_order(G, P.order):
        if all(perm_order(x) % p == 0 or x == G.identity() for x in Q.elements):
            assert any(G.conjugate_subgroup(Q, g) == P for g in G.elements)


def test_double_cosets_trivial_cases():
    G = named_group("S3")
    assert double_cosets(G, G, G) == [G.identity()]
    one = G.trivial_subgroup()
    assert double_cosets(G, one, one) == G.elements


def test_double_cosets_s3():
    G = named_group("S3")
    C3 = G.subgroup([parse_cycles("(1 2 3)")])
    reps = double_cosets(G, C3, C3)
    assert len(reps) == 2
    assert reps[0] == G.identity()


def test_double_cosets_partition():
    rng = random.Random(2)
    for name in ("S3", "A4", "D4"):
        G = named_group(name)
        subs = [G.trivial_subgroup(), sylow(G, 2), sylow(G, 3), G]
        for L in subs:
            for K in subs:
                reps = double_cosets(G, L, K)
                total = 0
                for g in reps:
                    coset = {
                        perm_mul(perm_mul(l, g), k)
                        for l in L.elements
                        for k in K.elements
                    }
                    total += len(coset)
                assert total == G.order


# C1 and S1 have degree 1, where perm_mul keeps its generator path
ORACLE_GROUPS = ("C1", "S1", "S2", "C1xC2", "C3", "C4", "C6", "V4", "C2xC4",
                 "D4", "D5", "D6", "S3", "A4", "S4", "A5")


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_perm_mul_and_double_cosets_match_oracle(name):
    G = named_group(name)
    assert all(perm_mul(a, b) == perm_mul_by_images(a, b) for a in G.elements for b in G.elements)
    family = default_subgroup_family(G)
    for L in family:
        for K in family:
            assert double_cosets(G, L, K) == double_cosets_by_products(G, L, K)


def test_double_cosets_requires_subgroups():
    G = named_group("S3")
    H = named_group("C4")
    with pytest.raises(ExactKernelError):
        double_cosets(G, H, H)


def test_abelian_decompose_examples():
    assert abelian_decompose(named_group("C4")).exponents == (2,)
    assert abelian_decompose(named_group("V4")).exponents == (1, 1)
    d = abelian_decompose(named_group("C2xC4"))
    assert d.exponents == (2, 1)
    assert abelian_decompose(named_group("C8")).exponents == (3,)
    assert abelian_decompose(named_group("C9")).exponents == (2,)
    t = abelian_decompose(PermGroup(1, []))
    assert t.exponents == ()


def test_abelian_decompose_trivial_group_takes_callers_prime():
    d = abelian_decompose(PermGroup(1, []), 3)
    assert (d.p, d.exponents) == (3, ())
    assert abelian_decompose(named_group("S3").trivial_subgroup(), 5).p == 5
    assert abelian_decompose(named_group("C9"), 3).exponents == (2,)
    with pytest.raises(ExactKernelError):
        abelian_decompose(named_group("C9"), 2)


def test_abelian_decompose_order_product():
    for name in ("C4", "V4", "C8", "C2xC4", "C9", "C2xC2xC2"):
        d = abelian_decompose(named_group(name))
        prod = 1
        for r in d.exponents:
            prod *= d.p ** r
        assert prod == d.group.order


def test_abelian_decompose_bijection():
    d = abelian_decompose(named_group("C2xC4"))
    seen = {d.element(e) for e in d.all_exponents()}
    assert len(seen) == 8


def test_abelian_basis_computes_each_order_once(monkeypatch):
    # one perm_order per element of A and of the quotient A/<g1>, one per
    # lifted quotient generator and one per basis exponent; never |A|^2
    calls = []
    monkeypatch.setattr(grp, "perm_order", lambda a: calls.append(a) or perm_order(a))

    def shift(k, off=0):
        return tuple(off + (i + 1) % k for i in range(k))

    cases = [("C64", [shift(64)], 64 + 1),
             ("C2xC32", [(0, 1) + shift(32, 2), (1, 0) + tuple(range(2, 34))], 64 + 2 + 1 + 2)]
    for name, basis, bound in cases:
        calls.clear()
        assert list(abelian_decompose(named_group(name)).basis) == basis
        assert len(calls) <= bound


def test_abelian_decompose_rejects():
    with pytest.raises(ExactKernelError, match="abelian"):
        abelian_decompose(named_group("S3"))
    with pytest.raises(ExactKernelError, match="prime power"):
        abelian_decompose(named_group("C6"))


def test_hom_between_examples():
    d4 = abelian_decompose(named_group("C4"))
    ident = hom_between(d4, d4, [d4.basis[0]])
    assert ident.matrix == ((1,),)
    d2 = abelian_decompose(named_group("C2"))
    incl = hom_between(d2, d4, [_perm_pow(d4.basis[0], 2)])
    assert incl.matrix == ((2,),)
    assert incl.is_mono() and not incl.is_epi()


def test_hom_conjugation_on_v4():
    dV = abelian_decompose(named_group("V4"))
    rho = parse_cycles("(1 2 3)", 4)
    images = [perm_mul(perm_mul(perm_inv(rho), b), rho) for b in dV.basis]
    c = hom_between(dV, dV, images)
    c3 = c.compose(c).compose(c)
    assert c3.matrix == AbelianHom.identity(dV).matrix
    assert c.matrix != AbelianHom.identity(dV).matrix
    assert c.is_mono() and c.is_epi()


def test_hom_well_definedness_rejected():
    d2 = abelian_decompose(named_group("C2"))
    d4 = abelian_decompose(named_group("C4"))
    with pytest.raises(ExactKernelError, match="order"):
        hom_between(d2, d4, [d4.basis[0]])  # order-2 source gen to order-4 image


def test_hom_composition_matches_matrix_product():
    rng = random.Random(9)
    d4 = abelian_decompose(named_group("C4"))
    d2 = abelian_decompose(named_group("C2"))
    dP = abelian_decompose(named_group("C2xC4"))
    # C2 -> C4 -> C2xC4 along embeddings, compared pointwise
    f = hom_between(d2, d4, [_perm_pow(d4.basis[0], 2)])
    g = hom_between(d4, dP, [dP.element((1, 0))])
    gf = g.compose(f)
    for a in d2.all_exponents():
        assert gf.apply_exponents(a) == g.apply_exponents(f.apply_exponents(a))


def test_apply_perm_matches_exponents():
    d = abelian_decompose(named_group("C2xC4"))
    auto = hom_between(d, d, [d.element((1, 1)), d.element((0, 1))])
    for e in d.all_exponents():
        g = d.element(e)
        assert auto.apply(g) == d.element(auto.apply_exponents(e))


def test_dihedral_groups():
    D6 = named_group("D6")
    assert D6.order == 12
    assert not D6.is_abelian()
    assert sylow(D6, 3).order == 3
    P = sylow(D6, 2)
    assert P.order == 4 and P.is_abelian()


# -- subgroups built from known element sets ------------------------------------


@pytest.mark.parametrize("name", ["S3", "A4", "S4", "D6", "C2xC4"])
def test_closure_free_subgroups_match_closure(name):
    from greenkernel.audit import default_subgroup_family

    def same(built, closed):
        assert built.elements == closed.elements
        assert built.generators == closed.generators
        assert built == closed and hash(built) == hash(closed)

    G = named_group(name)
    fam = default_subgroup_family(G)
    for H in fam:
        for K in fam:
            same(H.intersection(K), PermGroup(G.degree, sorted(set(H.elements) & set(K.elements))))
        for g in G.elements:
            gi = perm_inv(g)
            closed = PermGroup(G.degree, [perm_mul(perm_mul(g, h), gi) for h in H.generators])
            same(G.conjugate_subgroup(H, g), closed)


def test_conjugate_subgroup_outside_group_raises():
    # S3 on the points 1..3 of a degree-4 action; (1 4) does not normalize it
    G = PermGroup(4, [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3)", 4)])
    H = G.subgroup([parse_cycles("(1 2)", 4)])
    g = parse_cycles("(1 4)", 4)
    for K in (H, G):
        with pytest.raises(ExactKernelError, match="do not lie in the group"):
            G.conjugate_subgroup(K, g)
    # subgroups of another degree are refused, not silently mixed
    with pytest.raises(ExactKernelError, match="one degree"):
        G.conjugate_subgroup(named_group("S3"), g)
    with pytest.raises(ExactKernelError, match="one degree"):
        G.intersection(named_group("S3"))


def test_conjugate_subgroup_is_memoized():
    G = named_group("S4")
    H = sylow(G, 3)
    g = G.elements[7]
    first = G.conjugate_subgroup(H, g)
    assert G.conjugate_subgroup(H, list(g)) is first
    assert G.conjugate_subgroup(PermGroup(G.degree, H.generators), g) is first
