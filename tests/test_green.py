"""Green functor engine: values, restriction, transfers, stable elements."""

import dataclasses
import itertools
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from greenkernel import cli, green, hopftower
from greenkernel.audit import DEFAULT_BATTERY, _epi_onto_cyclic, default_subgroup_family
from greenkernel.exactkernel import BudgetError, ExactKernelError, FpMatrix, ScopeError
from greenkernel.borel import AlgebraMap, BorelAlgebra, El, Subalgebra
from greenkernel.fgl import HondaParams, honda_fgl, m_series
from greenkernel.frobform import FrobeniusForm
from greenkernel.green import (
    SubgroupGreenFunctor,
    augmentation_map,
    hom_by_generator_images,
    induced_map,
    inflation_inverse,
    invariants,
    restrict,
    stable_elements,
    transfer,
    unit_map,
    value_abelian,
    value_for_decomposition,
    value_general,
)
from greenkernel.grp import (
    AbelianPGroup,
    PermGroup,
    abelian_decompose,
    hom_between,
    named_group,
    parse_cycles,
    perm_inv,
    perm_mul,
    sylow,
    _perm_pow,
)
from polyoracle import (
    ind_one_by_gysin,
    rref_counter,
    rank_by_orbit_count,
    restrict_by_coproduct,
    stable_basis_by_intersection,
)


# -- values --------------------------------------------------------------------


def test_value_abelian_examples():
    v = value_abelian((1,), 3, 1)
    assert v.dim == 3
    assert v.ind_one == v.algebra.monomial((2,))
    v2 = value_abelian((1, 1), 2, 1)
    assert v2.dim == 4
    v0 = value_abelian((), 3, 1)
    assert v0.dim == 1 and v0.ind_one == v0.algebra.one()


ORACLE_TYPES = [(), (1,), (2,), (1, 1), (2, 1), (1, 1, 1)]
ORACLE_GENERAL = [("S3", 3), ("S3", 2), ("A4", 2), ("A4", 3), ("S4", 3), ("D6", 3), ("D6", 2)]
ORACLE_TRIVIAL = [("S3", 5), ("C3", 2), ("A4", 5)]


def _oracle_values():
    for (p, n) in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        for t in ORACLE_TYPES:
            if (p ** n) ** sum(t) <= 256:
                yield value_abelian(t, p, n)
    for (name, p) in ORACLE_GENERAL + ORACLE_TRIVIAL:
        for n in (1, 2):
            G = named_group(name)
            v = value_general(G, p, n)
            yield v
            if v.kind == "general":
                yield value_for_decomposition(v.sylow_decomp, p, n)  # A(P), a replaced instance


def test_ind_one_is_the_gysin_transfer_of_one():
    # s / lam(s) equals two independent routes, gysin along the augmentation
    # and the dual-basis vector of 1, on every kind: abelian (type ()
    # included), trivial, general
    kinds = Counter()
    for v in _oracle_values():
        assert v.ind_one == ind_one_by_gysin(v), (v.kind, v.abelian_type, v.sylow_decomp, v.p, v.n)
        assert np.array_equal(v.ind_one.vec, v.form.dual[:, 0])
        kinds[v.kind] += 1
    assert set(kinds) == {"abelian", "trivial", "general"}


@pytest.mark.parametrize("planted", ["one", "zero"])
def test_ind_one_read_refuses_a_form_off_the_socle(monkeypatch, planted):
    # a planted value_form covector that vanishes on the socle, the
    # augmentation or 0, is refused when the form is built, so ind_one never
    # divides by lam(s) = 0
    v = dataclasses.replace(value_abelian((1,), 3, 1))  # a fresh instance: ind_one not yet read
    cov = v.algebra.one_vec() if planted == "one" else np.zeros(v.dim, np.int64)
    monkeypatch.setattr(green, "value_form", lambda w: FrobeniusForm(w.algebra, cov))
    with pytest.raises(ExactKernelError, match="not a Frobenius form"):
        v.ind_one


def test_value_holds_only_what_is_read(monkeypatch, capsys):
    # A(G) for A4 at p=2 builds no form; reading ind_one builds one, on A(G),
    # and none on the ambient A(P) (cold values, so no form is cached)
    monkeypatch.setattr(green, "_general_cache", {})
    monkeypatch.setattr(green, "_value_cache", {})
    built = []
    real = FrobeniusForm.__init__

    def counted(self, algebra, covector):
        built.append(algebra)
        real(self, algebra, covector)

    monkeypatch.setattr(FrobeniusForm, "__init__", counted)
    v = value_general(named_group("A4"), 2, 1)
    assert v.kind == "general" and built == []
    assert not v.ind_one.is_zero()
    assert len(built) == 1 and built[0] is v.algebra
    v.ind_one, v.form
    assert len(built) == 1  # read once, kept on the algebra
    dec = v.sylow_decomp
    assert value_for_decomposition(dec, 2, 1).form is value_abelian(dec.exponents, 2, 1).form
    # the `green value` job at n = 3, cold, forms no pairing and inverts
    # none: no pairing_matrix call and no (k, 2k) row reduction of [G | I]
    monkeypatch.setattr(green, "_general_cache", {})
    monkeypatch.setattr(green, "_value_cache", {})
    pairings = []
    for cls in (BorelAlgebra, Subalgebra):
        monkeypatch.setattr(cls, "pairing_matrix", lambda self, lam, _real=cls.pairing_matrix:
                            pairings.append(self) or _real(self, lam))
    with rref_counter() as shapes:
        code = cli.dispatch(["green", "value", "--group", "A4", "--p", "2", "--n", "3",
                             "--format", "json", "--no-timing"])
    assert code == cli.EXIT_OK and '"ind_one"' in capsys.readouterr().out
    assert pairings == [] and shapes and not any(c == 2 * r for r, c in shapes)


def test_value_abelian_kuenneth_dims():
    for (t1, t2, p, n) in [((1,), (1,), 2, 1), ((2,), (1,), 2, 1), ((1,), (1,), 3, 1)]:
        d1 = value_abelian(t1, p, n).dim
        d2 = value_abelian(t2, p, n).dim
        d12 = value_abelian(tuple(sorted(t1 + t2, reverse=True)), p, n).dim
        assert d12 == d1 * d2


def test_value_abelian_budget():
    with pytest.raises(BudgetError):
        value_abelian((3,), 3, 1, budget=16)


def test_value_cache_thread_safe_single_construction(monkeypatch):
    import greenkernel.green as green

    monkeypatch.setattr(green, "_value_cache", {})
    results = []
    barrier = threading.Barrier(2)

    def build():
        barrier.wait()
        results.append(value_abelian((2, 1), 2, 1))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 2 and results[0] is results[1]


def test_value_general_memo_shares_one_entry_per_element_set():
    S3 = named_group("S3")
    v = value_general(S3, 3, 1)
    assert value_general(S3, 3, 1) is v
    # the same element set from other generators hits the same entry
    assert value_general(PermGroup(3, S3.elements[::-1]), 3, 1) is v
    assert value_general(S3, 3, 2) is not v


def test_value_general_memo_rechecks_budget(monkeypatch):
    import greenkernel.green as green

    monkeypatch.setattr(green, "_general_cache", {})
    S3 = named_group("S3")
    with pytest.raises(BudgetError) as cold:
        value_general(S3, 3, 2, budget=8)
    value_general(S3, 3, 2)
    with pytest.raises(BudgetError) as warm:
        value_general(S3, 3, 2, budget=8)
    assert str(warm.value) == str(cold.value)
    assert warm.value.required == cold.value.required


def test_value_general_cache_thread_safe_single_construction(monkeypatch):
    import greenkernel.green as green

    monkeypatch.setattr(green, "_general_cache", {})
    results = []
    barrier = threading.Barrier(4)

    def build():
        barrier.wait()
        results.append(value_general(named_group("A4"), 2, 1))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4 and all(r is results[0] for r in results)


def test_value_socle_one_dimensional():
    for v in (value_abelian((2,), 2, 1), value_abelian((1, 1), 2, 1),
              value_abelian((1,), 3, 1)):
        assert len(v.algebra.socle_vecs()) == 1


# -- restriction ----------------------------------------------------------------


def dec(name):
    return abelian_decompose(named_group(name))


def dec_p(name, p):
    return abelian_decompose(named_group(name), p)


def test_restrict_canonical_quotient():
    # C_{p^2} ->> C_p pulls the generator back to x^q
    d9, d3 = dec("C9"), dec("C3")
    quot = hom_between(d9, d3, [d3.basis[0]])
    r = restrict(quot, 3, 1)
    A1 = value_abelian((1,), 3, 1).algebra
    A2 = value_abelian((2,), 3, 1).algebra
    assert r.apply(A1.gen()) == A2.gen() ** 3
    assert r.is_injective()  # epi -> monic


def test_restrict_inclusion():
    d9, d3 = dec("C9"), dec("C3")
    incl = hom_between(d3, d9, [_perm_pow(d9.basis[0], 3)])
    r = restrict(incl, 3, 1)
    A1 = value_abelian((1,), 3, 1).algebra
    A2 = value_abelian((2,), 3, 1).algebra
    assert r.apply(A2.gen()) == A1.gen()
    assert r.is_surjective()  # mono -> epic


def test_restrict_multiplication_automorphism():
    d3 = dec("C3")
    aut = hom_between(d3, d3, [_perm_pow(d3.basis[0], 2)])
    r = restrict(aut, 3, 1)
    f = honda_fgl(HondaParams(3, 1, 3))
    two = m_series(f, 2, 3)
    A = value_abelian((1,), 3, 1).algebra
    assert r.apply(A.gen()) == El(A, two)
    # functoriality oracle: composing with itself is restriction along [4] = [1]
    assert np.array_equal(r.compose(r).matrix, np.eye(3, dtype=np.int64))


def test_restrict_functoriality_battery():
    # (beta o alpha)^* = alpha^* o beta^* on a battery of composable pairs
    pairs = []
    d2, d4, d8 = dec("C2"), dec("C4"), dec("C8")
    dV, dP = dec("V4"), dec("C2xC4")
    pairs.append((hom_between(d2, d4, [_perm_pow(d4.basis[0], 2)]),
                  hom_between(d4, d8, [_perm_pow(d8.basis[0], 2)])))
    pairs.append((hom_between(d4, d2, [d2.basis[0]]),
                  hom_between(d2, dV, [dV.basis[0]])))
    pairs.append((hom_between(dV, d2, [d2.basis[0], d2.basis[0]]),
                  hom_between(d2, d4, [_perm_pow(d4.basis[0], 2)])))
    pairs.append((hom_between(d8, d4, [d4.basis[0]]),
                  hom_between(d4, dP, [dP.element((1, 0))])))
    pairs.append((hom_between(dP, d4, [d4.basis[0], _perm_pow(d4.basis[0], 2)]),
                  hom_between(d4, d4, [_perm_pow(d4.basis[0], 3)])))
    for alpha, beta in pairs:
        composite = beta.compose(alpha)
        lhs = restrict(composite, 2, 1)
        rhs = restrict(alpha, 2, 1).compose(restrict(beta, 2, 1))
        assert np.array_equal(lhs.matrix, rhs.matrix)


_SWEEP = {2: ("C2", "C4", "V4", "C2xC4", "C8", "C4xC4", "C2xC2xC2"), 3: ("C3", "C9", "C3xC3"),
          5: ("C5",)}


def _sample_homs(src, tgt, limit=6):
    """Up to ``limit`` homomorphisms src -> tgt, evenly spaced through all of
    them (listed by the exponent vectors of the generator images)."""
    elems = list(itertools.product(*(range(o) for o in tgt.orders)))
    cands = [[e for e in elems if all(o_i * a % o == 0 for a, o in zip(e, tgt.orders))]
             for o_i in src.orders]
    every = list(itertools.product(*cands))
    picks = sorted({round(i * (len(every) - 1) / (limit - 1)) for i in range(limit)})
    chosen = every if len(every) <= limit else [every[i] for i in picks]
    return [hom_between(src, tgt, [tgt.element(e) for e in exps]) for exps in chosen]


@pytest.mark.parametrize("p,sname,tname,n", [
    (p, a, b, n) for p, names in _SWEEP.items() for a in names for b in names for n in (1, 2)
])
def test_restrict_matches_coproduct_oracle(p, sname, tname, n):
    src, tgt = abelian_decompose(named_group(sname), p), abelian_decompose(named_group(tname), p)
    for alpha in _sample_homs(src, tgt):
        assert np.array_equal(restrict(alpha, p, n).matrix,
                              restrict_by_coproduct(alpha, p, n).matrix), alpha.matrix


def test_restrict_builds_no_tower_coproduct(monkeypatch):
    # cold caches, so no other test's coproduct is seen
    monkeypatch.setattr(hopftower, "_level_cache", {})
    monkeypatch.setattr(green, "_value_cache", {})
    monkeypatch.setattr(green, "_restrict_cache", {})
    src, tgt = dec("C2xC64"), dec("C128")
    r = restrict(hom_between(src, tgt, [_perm_pow(tgt.basis[0], 6), _perm_pow(tgt.basis[0], 64)]),
                 2, 1)
    assert r.check_multiplicative()
    levels = value_abelian((7,), 2, 1).levels + value_abelian((6, 1), 2, 1).levels
    assert [lv.r for lv in levels] == [7, 6, 1]
    assert all("hopf" not in vars(lv) for lv in levels)


# -- memos: restrict once per abstract hom, transfer once per input ------------


def _two_c4_in_s4():
    """The automorphism x -> x^3 of two different cyclic subgroups of order
    4 in S4: the same abstract hom on different concrete groups."""
    S4 = named_group("S4")
    homs = []
    for cyc in ("(1 2 3 4)", "(1 2 4 3)"):
        d = abelian_decompose(S4.subgroup([parse_cycles(cyc, 4)]), 2)
        homs.append(hom_between(d, d, [_perm_pow(d.basis[0], 3)]))
    return homs


def test_restrict_shared_per_abstract_hom(monkeypatch):
    monkeypatch.setattr(green, "_restrict_cache", {})
    a, b = _two_c4_in_s4()
    assert a.source.group != b.source.group and a.matrix == b.matrix
    r = restrict(a, 2, 1)
    assert restrict(b, 2, 1) is r
    assert restrict(a, 2, 2) is not r and restrict(a, 2, 2).matrix.shape == (16, 16)


def test_shared_maps_refuse_writes(monkeypatch):
    monkeypatch.setattr(green, "_restrict_cache", {})
    monkeypatch.setattr(green, "_transfer_cache", {})
    r = restrict(_two_c4_in_s4()[0], 2, 1)
    t = transfer(r)
    for shared in (r, t):
        with pytest.raises(ValueError):
            shared.matrix[0, 0] = 1
    # a composite is a fresh map, which the caller may change
    c = t.compose(r)
    c.matrix[0, 0] = 1


def test_restrict_memo_rechecks_budget(monkeypatch):
    monkeypatch.setattr(green, "_restrict_cache", {})
    alpha = hom_between(dec("C9"), dec("C9"), [_perm_pow(dec("C9").basis[0], 2)])
    with pytest.raises(BudgetError) as cold:
        restrict(alpha, 3, 1, budget=8)
    restrict(alpha, 3, 1)
    with pytest.raises(BudgetError) as warm:
        restrict(alpha, 3, 1, budget=8)
    assert str(warm.value) == str(cold.value)
    assert warm.value.required == cold.value.required


def test_memos_build_once_across_threads(monkeypatch):
    monkeypatch.setattr(green, "_restrict_cache", {})
    monkeypatch.setattr(green, "_transfer_cache", {})
    builds = []
    for name in ("_restrict", "gysin"):
        real = getattr(green, name)
        monkeypatch.setattr(green, name,
                            lambda *a, real=real, name=name: builds.append(name) or real(*a))
    alpha = _two_c4_in_s4()[0]
    results = []
    barrier = threading.Barrier(4)  # more threads than cores

    def build():
        barrier.wait()
        r = restrict(alpha, 2, 2)
        results.append((r, transfer(r)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4
    assert all(x is y for r in results for x, y in zip(r, results[0]))
    assert sorted(builds) == ["_restrict", "gysin"]


def test_transfer_memo_refuses_what_gysin_refuses(monkeypatch):
    monkeypatch.setattr(green, "_transfer_cache", {})
    r = restrict(_two_c4_in_s4()[0], 2, 1)
    transfer(r)
    linear = AlgebraMap(r.source, r.target, r.matrix)  # equal matrix, no algebra-map flag
    with pytest.raises(ExactKernelError, match="algebra map"):
        transfer(linear)
    other = value_abelian((1,), 2, 1).form
    with pytest.raises(ExactKernelError, match="endpoints"):
        transfer(r, form_source=other)
    with pytest.raises(ExactKernelError, match="endpoints"):
        transfer(r, form_target=other)
    assert len(green._transfer_cache) == 1


def test_restrict_oracle_sweep_cold_and_warm(monkeypatch):
    monkeypatch.setattr(green, "_restrict_cache", {})
    cases = [(alpha, p, n) for p, names in _SWEEP.items() for a in names for b in names
             for n in (1, 2) for alpha in _sample_homs(dec_p(a, p), dec_p(b, p))]
    want = [restrict_by_coproduct(alpha, p, n).matrix for alpha, p, n in cases]
    cold = [restrict(alpha, p, n) for alpha, p, n in cases]
    warm = [restrict(alpha, p, n) for alpha, p, n in cases]
    assert all(np.array_equal(c.matrix, w) for c, w in zip(cold, want))
    assert all(w is c for w, c in zip(warm, cold))


def test_restrict_mono_epi_theorem():
    # epimorphisms -> monic restriction (full column rank)
    epis = [
        hom_between(dec("C4"), dec("C2"), [dec("C2").basis[0]]),
        hom_between(dec("C8"), dec("C4"), [dec("C4").basis[0]]),
        hom_between(dec("C2xC4"), dec("C4"), [dec("C4").basis[0], dec("C4").group.identity()]),
        hom_between(dec("V4"), dec("C2"), [dec("C2").basis[0], dec("C2").basis[0]]),
    ]
    for e in epis:
        assert e.is_epi()
        assert restrict(e, 2, 1).is_injective()
    monos = [
        hom_between(dec("C2"), dec("C4"), [_perm_pow(dec("C4").basis[0], 2)]),
        hom_between(dec("C2"), dec("V4"), [dec("V4").basis[0]]),
        hom_between(dec("C4"), dec("C2xC4"), [dec("C2xC4").element((1, 0))]),
    ]
    for m in monos:
        assert m.is_mono()
        assert restrict(m, 2, 1).is_surjective()
    # contrapositive instances for the converse directions
    zero = hom_between(dec("C2"), dec("C2"), [dec("C2").group.identity()])
    assert not zero.is_epi() and not restrict(zero, 2, 1).is_injective()
    assert not zero.is_mono() and not restrict(zero, 2, 1).is_surjective()


# -- transfers ------------------------------------------------------------------


def test_transfer_examples():
    for (p, n) in [(2, 1), (3, 1), (2, 2)]:
        v = value_abelian((1,), p, n)
        assert v.ind_one == v.algebra.monomial((p ** n - 1,))
    d2, d4 = dec("C2"), dec("C4")
    incl = hom_between(d2, d4, [_perm_pow(d4.basis[0], 2)])
    res = restrict(incl, 2, 1)
    ind = transfer(res)
    A1 = value_abelian((1,), 2, 1).algebra
    A2 = value_abelian((2,), 2, 1).algebra
    assert ind.apply(A1.one()) == A2.gen() ** 2
    assert ind.apply(A1.gen()) == A2.gen() ** 3


def test_transfer_transitivity():
    for p in (2, 3):
        dP, dPP = dec("C%d" % p), dec("C%d" % p ** 2)
        incl = hom_between(dP, dPP, [_perm_pow(dPP.basis[0], p)])
        res = restrict(incl, p, 1)
        ind_mid = transfer(res)
        v1 = value_abelian((1,), p, 1)
        v2 = value_abelian((2,), p, 1)
        assert ind_mid.apply(v1.ind_one) == v2.ind_one


def test_transfer_frobenius_axiom():
    d2, d4 = dec("C2"), dec("C4")
    incl = hom_between(d2, d4, [_perm_pow(d4.basis[0], 2)])
    res = restrict(incl, 2, 1)
    ind = transfer(res)
    A1 = value_abelian((1,), 2, 1).algebra
    A2 = value_abelian((2,), 2, 1).algebra
    for x in A1.basis_elements():
        for y in A2.basis_elements():
            assert ind.apply(x * res.apply(y)) == ind.apply(x) * y


def test_ind_one_augmentation_congruence():
    # aug(ind^K_H(1)) = |K:H| mod p along 1 <= C_p <= C_{p^2}
    for p in (2, 3):
        v1 = value_abelian((1,), p, 1)
        v2 = value_abelian((2,), p, 1)
        assert v1.ind_one.aug() == 0 == p % p
        assert v2.ind_one.aug() == 0 == (p ** 2) % p
        d1, d2_ = dec("C%d" % p), dec("C%d" % p ** 2)
        incl = hom_between(d1, d2_, [_perm_pow(d2_.basis[0], p)])
        ind = transfer(restrict(incl, p, 1))
        assert ind.apply(v1.algebra.one()).aug() == 0 == p % p


# -- stable elements -------------------------------------------------------------


def test_stable_elements_p_group_is_everything():
    st = stable_elements(named_group("C4"), 2, 1)
    assert st.lim_dim == 4 == st.colim_dim
    assert st.subalgebra.dim == 4


def test_stable_elements_s3():
    st = stable_elements(named_group("S3"), 3, 1)
    assert st.lim_dim == 2 and st.colim_dim == 2
    # independent oracle: fixed points of x -> [-1](x) on A(C_3)
    f = honda_fgl(HondaParams(3, 1, 3))
    neg = m_series(f, -1, 3)
    A = value_abelian((1,), 3, 1).algebra
    gen_img = El(A, neg)
    from greenkernel.borel import AlgebraMap
    sigma = AlgebraMap.from_generator_images(A, A, [gen_img])
    fixed = FpMatrix((sigma.matrix - np.eye(3, dtype=np.int64)) % 3, 3).kernel()
    assert len(fixed) == st.lim_dim
    sub = st.subalgebra
    assert len(sub.socle_vecs()) == 1


def test_stable_elements_a4():
    st = stable_elements(named_group("A4"), 2, 1)
    assert st.lim_dim == 2 and st.colim_dim == 2
    # brute-force oracle: fixed subspace of the order-3 automorphism of A(V4)
    dV = dec("V4")
    rho = parse_cycles("(1 2 3)", 4)
    c = hom_between(dV, dV, [perm_mul(perm_mul(perm_inv(rho), b), rho) for b in dV.basis])
    sigma = restrict(c, 2, 1)
    fixed = FpMatrix((sigma.matrix - np.eye(4, dtype=np.int64)) % 2, 2).kernel()
    assert len(fixed) == st.lim_dim


@pytest.mark.parametrize("kept", [[], [1], [1, 2]])
def test_stable_elements_refuses_a_limit_without_one(monkeypatch, kept):
    # a limit that has lost 1 (here: spanned by chosen radical monomials,
    # or empty) is an internal fault, reported before any Subalgebra
    monkeypatch.setattr(FpMatrix, "kernel",
                        lambda M: [np.eye(M.a.shape[1], dtype=np.int64)[i] for i in kept])
    with pytest.raises(ExactKernelError, match="internal consistency: 1 is not stable"):
        stable_elements(named_group("S3"), 3, 2)


def test_stable_elements_scope_error():
    with pytest.raises(ScopeError):
        stable_elements(named_group("D4"), 2, 1)  # D4 is its own nonabelian Sylow


def test_invariants_cross_checks():
    # trivial action
    vV = value_abelian((1, 1), 2, 1)
    from greenkernel.borel import AlgebraMap
    triv = invariants(vV, [AlgebraMap.identity(vV.algebra)])
    assert triv.dim == 4
    # A4 instance equals the stable computation
    dV = dec("V4")
    rho = parse_cycles("(1 2 3)", 4)
    c = hom_between(dV, dV, [perm_mul(perm_mul(perm_inv(rho), b), rho) for b in dV.basis])
    sub = invariants(vV, [restrict(c, 2, 1)])
    st = stable_elements(named_group("A4"), 2, 1)
    assert sub.dim == st.lim_dim
    assert np.array_equal(sub.basis_matrix, st.subalgebra.basis_matrix)
    # S3 instance
    d3 = dec("C3")
    aut = hom_between(d3, d3, [_perm_pow(d3.basis[0], 2)])
    v3 = value_abelian((1,), 3, 1)
    sub3 = invariants(v3, [restrict(aut, 3, 1)])
    st3 = stable_elements(named_group("S3"), 3, 1)
    assert np.array_equal(sub3.basis_matrix, st3.subalgebra.basis_matrix)


def test_invariants_rejects_non_automorphism():
    v = value_abelian((1,), 3, 1)
    from greenkernel.borel import AlgebraMap
    bad = AlgebraMap(v.algebra, v.algebra, np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ExactKernelError):
        invariants(v, [bad])


# -- general values ---------------------------------------------------------------


def test_value_general_examples():
    v = value_general(named_group("C2"), 3, 1)
    assert v.dim == 1 and v.kind == "trivial" and v.ind_one.is_unit()
    v = value_general(named_group("S3"), 3, 1)
    assert v.dim == 2 and len(v.algebra.socle_vecs()) == 1
    v = value_general(named_group("C9"), 3, 1)
    assert v.dim == 9 and v.algebra.profile == (9,)


def test_value_general_non_triviality_battery():
    for name in ("C2", "C3", "C4", "V4", "C6", "S3", "A4"):
        G = named_group(name)
        for p in (2, 3):
            v = value_general(G, p, 1)
            assert (v.dim > 1) == (G.order % p == 0), (name, p)


def test_stable_lim_equals_colim_battery():
    for (name, p) in [("S3", 3), ("S3", 2), ("A4", 2), ("A4", 3), ("C6", 2), ("C6", 3)]:
        st = stable_elements(named_group(name), p, 1)
        assert st.lim_dim == st.colim_dim, (name, p)


# groups with an abelian Sylow at some p.  Beside the battery, W = N_G(P)/P
# is C2 x C2 for D6 and S5 at p = 3 (one generator centralizes P), C4 for S5
# at p = 5, and C3 and C2 for A5 at p = 2 and 5.  Both generators of W act
# on P for S3xS3 at p = 3 (W = C2 x C2) and S6 at p = 3 (W = D8, on C3 x C3).
STABLE_GROUPS = DEFAULT_BATTERY + ("S4", "D5", "D6", "S5", "A5", "S3xS3", "S6")


def _group(name):
    if name == "S6":  # not among the named groups
        return PermGroup(6, [parse_cycles("(1 2)", 6), parse_cycles("(1 2 3 4 5 6)", 6)])
    return named_group(name)


def _abelian_sylow_cases(ps):
    return [(name, p) for name in STABLE_GROUPS for p in ps
            if sylow(_group(name), p).is_abelian()]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_stacked_kernel_matches_per_coset_intersection(p):
    # the invariants of N_G(P)/P against one kernel of res_H - c_g res_K per
    # double coset, intersected pairwise: the same canonical basis
    for name, _ in _abelian_sylow_cases([p]):
        for n in (1, 2):
            G = _group(name)
            got = stable_elements(G, p, n).lim_basis
            want = stable_basis_by_intersection(G, p, n)
            assert len(got) == len(want) and all(
                np.array_equal(a, b) for a, b in zip(got, want)), (name, p, n)


@pytest.mark.parametrize("name,p", _abelian_sylow_cases([2, 3, 5]))
def test_stable_rank_equals_orbit_count(name, p):
    # dim A(G) against the number of N_G(P)-orbits on P^n, counted with no
    # algebra, for n = 1, 2, 3 while A(P) fits the default budget
    G = _group(name)
    for n in (1, 2, 3):
        if sylow(G, p).order ** n <= green.DEFAULT_SIZE_BUDGET:
            assert stable_elements(G, p, n).lim_dim == rank_by_orbit_count(G, p, n), n


@pytest.mark.parametrize("name,p,order_W", [
    ("S5", 3, 4), ("D6", 3, 4), ("S5", 5, 4), ("S3xS3", 3, 4), ("S6", 3, 8)])
def test_invariants_do_not_depend_on_the_generators_picked(name, p, order_W):
    # the greedy generators of W against every element of N_G(P)
    G = _group(name)
    for n in (1, 2):
        st = stable_elements(G, p, n)
        dec_P, P = st.sylow, st.sylow.group
        normalizer = [g for g in G.elements
                      if all(perm_mul(perm_mul(perm_inv(g), x), g) in P for x in P.elements)]
        assert len(normalizer) == order_W * P.order
        actions = [restrict(green._conjugation_hom(dec_P, dec_P, g), p, n) for g in normalizer]
        assert invariants(value_abelian(dec_P.exponents, p, n), actions) == st.subalgebra


@pytest.mark.parametrize("name,p", [("S3", 3), ("A4", 2)])
def test_value_general_computes_no_colimit(monkeypatch, name, p):
    # the value takes no transfer, double coset or composite; colim_dim does
    monkeypatch.setattr(green, "_general_cache", {})
    calls = {"transfer": 0, "double_cosets": 0, "compose": 0}

    def counted(key, real):
        def call(*a, **k):
            calls[key] += 1
            return real(*a, **k)
        return call

    monkeypatch.setattr(green, "transfer", counted("transfer", green.transfer))
    monkeypatch.setattr(green, "double_cosets", counted("double_cosets", green.double_cosets))
    monkeypatch.setattr(AlgebraMap, "compose", counted("compose", AlgebraMap.compose))
    G = named_group(name)
    v = value_general(G, p, 1)
    st = stable_elements(G, p, 1)
    assert v.kind == "general" and not any(calls.values())
    assert st.colim_dim == st.lim_dim == v.dim and all(calls.values())
    seen = dict(calls)
    assert st.colim_dim == st.lim_dim and calls == seen  # read once, kept


def test_ind_to_sylow_surjective():
    # transfer up from the Sylow hits everything (projectivity instance)
    for (name, p) in [("S3", 3), ("A4", 2), ("C6", 3)]:
        G = named_group(name)
        fx = SubgroupGreenFunctor(G, p, 1)
        P = sylow(G, p)
        assert fx.ind(G, P).is_surjective()


def test_res_p_prime_index_split():
    # p' index: ind(1) is a unit and ind o res = multiplication by ind(1)
    for (name, p) in [("S3", 3), ("C6", 3), ("C6", 2), ("A4", 2)]:
        G = named_group(name)
        fx = SubgroupGreenFunctor(G, p, 1)
        P = sylow(G, p)
        ind1 = fx.ind(G, P).apply(fx.value(P).algebra.one())
        assert ind1.is_unit()
        comp = fx.ind(G, P).compose(fx.res(G, P))
        mult = fx.value(G).algebra.mult_matrix(ind1.vec)
        assert np.array_equal(comp.matrix, mult)


def test_ind_p_index_lands_in_radical():
    # p | |G:H| forces the whole transfer image into the maximal ideal
    for p in (2, 3):
        Cp = named_group("C%d" % p)
        fx = SubgroupGreenFunctor(Cp, p, 1)
        one = Cp.trivial_subgroup()
        ind = fx.ind(Cp, one)
        for z in fx.value(one).algebra.basis_elements():
            assert ind.apply(z).aug() == 0
    # a composite-index instance: C_2 <= C_4
    C4 = named_group("C4")
    fx = SubgroupGreenFunctor(C4, 2, 1)
    C2 = C4.subgroup([_perm_pow(C4.generators[0], 2)])
    ind = fx.ind(C4, C2)
    for z in fx.value(C2).algebra.basis_elements():
        assert ind.apply(z).aug() == 0


def _in_four_threads(fn) -> list:
    """fn() in four threads released together by a barrier (more threads
    than cores), switching as often as the interpreter allows."""
    results = []
    barrier = threading.Barrier(4)

    def run():
        barrier.wait()
        results.append(fn())

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4
    return results


def test_functor_maps_build_once_across_threads(monkeypatch):
    # res, ind and conj of a functor and conjugate_subgroup of a group go
    # through the one memo: four threads that miss together share one build
    builds = Counter()
    for cls, name in ((SubgroupGreenFunctor, "_res"), (SubgroupGreenFunctor, "_ind"),
                      (SubgroupGreenFunctor, "_conj"), (PermGroup, "_conjugate")):
        real = getattr(cls, name)
        monkeypatch.setattr(cls, name,
                            lambda *a, real=real, name=name: builds.update([name]) or real(*a))
    A4 = PermGroup(4, named_group("A4").generators)  # a new instance: no conjugates kept yet
    fx = SubgroupGreenFunctor(A4, 2, 1)
    P = sylow(A4, 2)
    H = A4.subgroup([P.generators[0]])  # a C2 that a 3-cycle moves
    g = next(x for x in A4.elements if x not in P)
    calls = {"_conjugate": lambda: A4.conjugate_subgroup(H, g), "_res": lambda: fx.res(A4, H),
             "_ind": lambda: fx.ind(A4, H), "_conj": lambda: fx.conj(g, H)}
    for name, call in calls.items():
        results = _in_four_threads(call)
        assert all(r is results[0] for r in results), name
    assert A4.conjugate_subgroup(H, g) != H
    assert builds == {name: 1 for name in calls}


def test_functor_checks_its_arguments_on_every_miss():
    # res and conj check K <= H and g in G only on a miss: a key enters the
    # cache after passing, so a hit is the same map and a refusal repeats
    S3 = named_group("S3")
    fx = SubgroupGreenFunctor(S3, 3, 1)
    P = sylow(S3, 3)
    g = S3.elements[1]
    assert fx.res(S3, P) is fx.res(S3, P)
    assert fx.conj(g, P) is fx.conj(list(g), P)
    for _ in range(2):
        with pytest.raises(ExactKernelError, match="res needs K <= H"):
            fx.res(P, S3)
        with pytest.raises(ExactKernelError, match="res needs K <= H"):
            fx.ind(P, S3)
        with pytest.raises(ExactKernelError, match="must lie in G"):
            fx.conj((0, 1, 2, 3), P)
    assert (P._eset, S3._eset) not in fx._res_cache
    assert (P._eset, S3._eset) not in fx._ind_cache
    assert ((0, 1, 2, 3), P._eset) not in fx._conj_cache


def test_automorphisms_fix_socle():
    # every unit u gives an automorphism of C_{p^r} fixing the socle exactly
    for (p, r) in [(3, 1), (2, 2), (3, 2), (2, 3)]:
        order = p ** r
        d = abelian_decompose(named_group("C%d" % order))
        v = value_abelian((r,), p, 1)
        top = v.algebra.top_monomial()
        for u in range(2, order):
            if u % p == 0:
                continue
            aut = hom_between(d, d, [_perm_pow(d.basis[0], u)])
            assert restrict(aut, p, 1).apply(top) == top, (p, r, u)


def test_epi_to_cyclic_is_monomorphism():
    # G ->> C_{p^s} induces injections on values
    cases = [("C4", "C2", 2), ("C6", "C3", 3), ("C6", "C2", 2), ("S3", "C2", 2),
             ("A4", "C3", 3), ("V4", "C2", 2)]
    for (gname, hname, p) in cases:
        G, H = named_group(gname), named_group(hname)
        from greenkernel.audit import _epi_onto_cyclic
        beta = _epi_onto_cyclic(G, H)
        assert beta is not None, (gname, hname)
        vG = value_general(G, p, 1)
        vH = value_general(H, p, 1)
        m = induced_map(G, H, beta, vG, vH, p, 1)
        assert m.is_injective(), (gname, hname, p)


# -- inflation inverse -------------------------------------------------------------


def test_inflation_inverse_c6():
    C6, C3, C2 = named_group("C6"), named_group("C3"), named_group("C2")
    beta = hom_by_generator_images(C6, C3, [C3.generators[0]])
    bstar, blower = inflation_inverse(C6, C3, beta, 3, 1)
    assert np.array_equal((blower.matrix @ bstar.matrix) % 3, np.eye(3, dtype=np.int64))
    assert np.array_equal((bstar.matrix @ blower.matrix) % 3, np.eye(3, dtype=np.int64))
    beta2 = hom_by_generator_images(C6, C2, [C2.generators[0]])
    bs2, bl2 = inflation_inverse(C6, C2, beta2, 2, 1)
    assert np.array_equal((bl2.matrix @ bs2.matrix) % 2, np.eye(2, dtype=np.int64))


def test_inflation_inverse_identity():
    C3 = named_group("C3")
    beta = hom_by_generator_images(C3, C3, [C3.generators[0]])
    bstar, blower = inflation_inverse(C3, C3, beta, 3, 1)
    assert np.array_equal(bstar.matrix, np.eye(3, dtype=np.int64))


def test_inflation_inverse_rejects_p_kernel():
    C4, C2 = named_group("C4"), named_group("C2")
    beta = hom_by_generator_images(C4, C2, [C2.generators[0]])
    with pytest.raises(ExactKernelError, match="divisible"):
        inflation_inverse(C4, C2, beta, 2, 1)


def test_inflation_inverse_rejects_non_epi():
    C6, C3 = named_group("C6"), named_group("C3")
    beta = hom_by_generator_images(C6, C3, [C3.identity()])
    with pytest.raises(ExactKernelError, match="epimorphism"):
        inflation_inverse(C6, C3, beta, 3, 1)


# -- p'-groups: the value of the trivial Sylow subgroup ---------------------------


@pytest.mark.parametrize("name,p", [("S3", 3), ("A4", 3), ("S4", 3), ("D5", 5)])
def test_p_prime_subgroups_take_the_augmentation_and_the_identity(name, p):
    # a p'-subgroup K carries the trivial Sylow, so the one Sylow transport
    # gives res^H_K = the augmentation of A(H) and c_g = the identity of F_p
    G = named_group(name)
    fx = SubgroupGreenFunctor(G, p, 1)
    fam = default_subgroup_family(G)
    p_prime = [K for K in fam if K.order % p]
    pairs = [(H, K) for K in p_prime for H in fam if K.is_subgroup_of(H)]
    assert any(H.order % p == 0 for H, _ in pairs)
    for H, K in pairs:
        got, want = fx.res(H, K), augmentation_map(fx.value(H).algebra)
        assert np.array_equal(got.matrix, want.matrix) and got.is_algebra_map, (H, K)
    for K in p_prime:
        for g in G.elements:
            got, want = fx.conj(g, K), AlgebraMap.identity(fx.value(K).algebra)
            assert np.array_equal(got.matrix, want.matrix) and got.is_algebra_map, (K, g)


def test_induced_map_between_p_prime_groups_is_the_identity():
    S3, C2 = named_group("S3"), named_group("C2")
    beta = _epi_onto_cyclic(S3, C2)  # the sign
    vG, vH = value_general(S3, 5, 1), value_general(C2, 5, 1)
    m = induced_map(S3, C2, beta, vG, vH, 5, 1)
    assert np.array_equal(m.matrix, [[1]]) and m.is_algebra_map
    bstar, blower = inflation_inverse(S3, C2, beta, 5, 1)
    assert np.array_equal(bstar.matrix, [[1]]) and np.array_equal(blower.matrix, [[1]])


def test_induced_map_into_a_p_prime_group_is_the_unit():
    # A(C2) = F_3 -> A(S3) along the sign is the unit map: the Sylow C3 goes
    # onto C2's trivial Sylow
    S3, C2 = named_group("S3"), named_group("C2")
    vG, vH = value_general(S3, 3, 1), value_general(C2, 3, 1)
    m = induced_map(S3, C2, _epi_onto_cyclic(S3, C2), vG, vH, 3, 1)
    assert np.array_equal(m.matrix, unit_map(vG.algebra).matrix) and m.is_algebra_map


def test_induced_map_refuses_a_p_prime_group_into_a_p_group():
    # C2 -> S3 at p = 3 does not reach the Sylow C3 of S3
    C2, S3 = named_group("C2"), named_group("S3")
    beta = hom_by_generator_images(C2, S3, [parse_cycles("(1 2)", 3)])
    vG, vH = value_general(C2, 3, 1), value_general(S3, 3, 1)
    with pytest.raises(ExactKernelError, match="beta does not carry the Sylow isomorphically"):
        induced_map(C2, S3, beta, vG, vH, 3, 1)


def test_p_prime_value_is_the_value_of_the_trivial_sylow(monkeypatch):
    C3 = named_group("C3")
    for n in (1, 2):
        v = value_general(C3, 2, n)
        assert v.sylow_decomp.exponents == () and v.kind == "trivial" and v.dim == 1
    # dim A(1) = 1 is what the budget must cover, on a hit as on a cold call
    with pytest.raises(BudgetError):
        value_general(C3, 2, 1, budget=0)
    monkeypatch.setattr(green, "_general_cache", {})
    with pytest.raises(BudgetError):
        value_general(C3, 2, 1, budget=0)


def test_hom_by_generator_images_validates():
    S3, C2 = named_group("S3"), named_group("C2")
    with pytest.raises(ExactKernelError):
        # sending both generators to the nontrivial element is not a hom
        # (the 3-cycle has order 3, its image would need order dividing 3)
        hom_by_generator_images(S3, C2, [C2.generators[0], C2.generators[0]])


def _hom_by_pairs(G, H, images):
    """Oracle: the generator walk, then multiplicativity on all |G|^2 pairs;
    None when the images do not define a homomorphism."""
    table = {G.identity(): H.identity()}
    frontier = [G.identity()]
    while frontier:
        nxt = []
        for x in frontier:
            for g, img in zip(G.generators, images):
                y = perm_mul(g, x)
                if y not in table:
                    table[y] = perm_mul(img, table[x])
                    nxt.append(y)
        frontier = nxt
    for a in G.elements:
        for b in G.elements:
            if table[perm_mul(a, b)] != perm_mul(table[a], table[b]):
                return None
    return table


@pytest.mark.parametrize("gname,hname", [("S3", "C2"), ("S3", "C3"), ("S3", "S3"),
                                         ("A4", "C3"), ("C2xC4", "C4"), ("D4", "C4")])
def test_hom_edge_check_matches_pair_loop(gname, hname):
    import itertools

    G, H = named_group(gname), named_group(hname)
    verdicts = set()
    for images in itertools.product(H.elements, repeat=len(G.generators)):
        want = _hom_by_pairs(G, H, images)
        try:
            got = hom_by_generator_images(G, H, list(images))
        except ExactKernelError as ex:
            assert str(ex) == "images do not define a homomorphism"
            got = None
        assert got == want, images
        verdicts.add(got is None)
    assert verdicts == {True, False}


# -- subgroup functor machinery -----------------------------------------------------


def test_subgroup_functor_mf1():
    G = named_group("A4")
    fx = SubgroupGreenFunctor(G, 2, 1)
    V = sylow(G, 2)
    assert np.array_equal(fx.res(V, V).matrix, np.eye(4, dtype=np.int64))
    assert np.array_equal(fx.ind(V, V).matrix, np.eye(4, dtype=np.int64))
    for h in V.elements:
        assert np.array_equal(fx.conj(h, V).matrix, np.eye(4, dtype=np.int64))


def test_subgroup_functor_res_transitivity():
    G = named_group("C4")
    fx = SubgroupGreenFunctor(G, 2, 1)
    C2 = G.subgroup([_perm_pow(G.generators[0], 2)])
    one = G.trivial_subgroup()
    lhs = fx.res(C2, one).compose(fx.res(G, C2))
    rhs = fx.res(G, one)
    assert np.array_equal(lhs.matrix, rhs.matrix)
    # ind transitivity is exact on this chain
    lhs_i = fx.ind(G, C2).compose(fx.ind(C2, one))
    rhs_i = fx.ind(G, one)
    assert np.array_equal(lhs_i.matrix, rhs_i.matrix)


def test_augmentation_map_shape():
    A = value_abelian((1, 1), 2, 1).algebra
    aug = augmentation_map(A)
    assert aug.matrix.shape == (1, 4)
    assert aug.check_multiplicative()


def test_restrict_mono_epi_at_p3():
    d3 = dec("C3")
    d9 = dec("C9")
    quot = hom_between(d9, d3, [d3.basis[0]])
    incl = hom_between(d3, d9, [_perm_pow(d9.basis[0], 3)])
    assert quot.is_epi() and restrict(quot, 3, 1).is_injective()
    assert incl.is_mono() and restrict(incl, 3, 1).is_surjective()
    aut = hom_between(d9, d9, [_perm_pow(d9.basis[0], 2)])
    r = restrict(aut, 3, 1)
    assert r.is_injective() and r.is_surjective()
