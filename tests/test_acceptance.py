"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Every comparison here is exact (coefficientwise
over GF(p) or integer equality); there are no tolerances to tune.
"""

import json
import random
from math import comb

import numpy as np
import pytest

from greenkernel.borel import AlgebraMap, make_algebra
from greenkernel.cli import EXIT_OK, dispatch
from greenkernel.exactkernel import FpMatrix, mat_kernel
from greenkernel.fgl import HondaParams, honda_fgl, m_series
from greenkernel.frobform import (
    canonical_form,
    form_unit,
    is_frobenius_form,
    modify_form,
    socle_generator,
)
from greenkernel.green import (
    SubgroupGreenFunctor,
    inflation_inverse,
    hom_by_generator_images,
    invariants,
    restrict,
    stable_elements,
    transfer,
    value_abelian,
    value_general,
)
from greenkernel.grp import (
    abelian_decompose,
    hom_between,
    named_group,
    parse_cycles,
    perm_inv,
    perm_mul,
    sylow,
    _perm_pow,
)
from greenkernel.hopftower import honda_level, hopf_check, integrals, pdiv_check, tower_maps

PN_BATTERY = ((2, 1), (3, 1), (2, 2))
GROUP_BATTERY = ("C2", "C3", "C4", "V4", "C6", "S3", "A4")


def params(p, n):
    return HondaParams(p, n, max(p ** n, 4))


def levels_within(limit=81):
    out = []
    for (p, n) in PN_BATTERY:
        q = p ** n
        r = 1
        while q ** r <= limit:
            out.append((p, n, r))
            r += 1
    return out


def value_battery():
    """Every GreenValue the acceptance suite constructs."""
    vals = []
    for (p, n) in PN_BATTERY:
        vals.append(("type(1) p=%d n=%d" % (p, n), value_abelian((1,), p, n)))
        vals.append(("type(2) p=%d n=%d" % (p, n), value_abelian((2,), p, n)))
        vals.append(("type(1,1) p=%d n=%d" % (p, n), value_abelian((1, 1), p, n)))
    for (name, p) in [("S3", 3), ("A4", 2), ("C6", 3), ("C6", 2)]:
        vals.append(("%s p=%d" % (name, p), value_general(named_group(name), p, 1)))
    return vals


def announce(num, label):
    print("ACCEPTANCE %02d %s: PASS" % (num, label))


def level1_formula(p, n):
    """The binomial coproduct of the first level, reduced mod p."""
    out = {(1, 0): 1, (0, 1): 1}
    e = p ** (n - 1)
    for i in range(1, p):
        key = (i * e, (p - i) * e)
        out[key] = (out.get(key, 0) - comb(p, i) // p) % p
    return {k: v for k, v in out.items() if v}


def test_criterion_01_coproduct_ground_truth():
    for (p, n) in PN_BATTERY:
        L = honda_level(params(p, n), 1)
        got = {
            L.hopf.square.algebra.basis[i]: int(c)
            for i, c in enumerate(L.hopf.coproduct_gens[0].vec)
            if c
        }
        assert got == level1_formula(p, n), (p, n)
    announce(1, "level-1 coproduct matches the binomial formula coefficientwise")


def test_criterion_02_hopf_axioms_up_to_81():
    battery = levels_within(81)
    assert (2, 1, 6) in battery and (3, 1, 4) in battery and (2, 2, 3) in battery
    for (p, n, r) in battery:
        rep = hopf_check(honda_level(params(p, n), r).hopf)
        assert rep.all_pass, (p, n, r, rep.as_dict())
    announce(2, "Hopf axioms exact for all %d levels with q^r <= 81" % len(battery))


def test_criterion_03_p_divisible_structure():
    # structure maps: x_{r+s} -> x_r and x_s -> x_{r+s}^{q^r}, exactly
    pairs = 0
    for (p, n) in PN_BATTERY:
        q = p ** n
        r = 1
        while q ** (r + 1) <= 81:
            s = 1
            while q ** (r + s) <= 81:
                tm = tower_maps(params(p, n), r, s)
                big = honda_level(params(p, n), r + s)
                low = honda_level(params(p, n), r)
                mid = honda_level(params(p, n), s)
                assert tm.surj.apply(big.x()) == low.x()
                assert tm.inj.apply(mid.x()) == big.x() ** (q ** r)
                assert tm.surj_is_hopf and tm.inj_is_hopf
                assert tm.surj_surjective and tm.inj_injective
                pairs += 1
                s += 1
            r += 1
    # [p^r](x_r) = 0 in H_r for every built level
    for (p, n, r) in levels_within(81):
        L = honda_level(params(p, n), r)
        assert not m_series(L.fgl, p ** r, L.dim).any(), (p, n, r)
    # kernel identity at the three stated instances
    for (p, n) in PN_BATTERY:
        rep = pdiv_check(params(p, n), 1, 1)
        assert rep.all_pass, (p, n, rep.as_dict())
    announce(3, "tower maps, [p^r]-kernels and pdiv checks exact (%d map pairs)" % pairs)


def test_criterion_04_socle_and_integrals():
    for (p, n, r) in levels_within(81):
        L = honda_level(params(p, n), r)
        soc = L.algebra.socle_basis()
        assert len(soc) == 1
        assert soc[0] == L.algebra.monomial((L.socle_exponent(),)), (p, n, r)
        assert integrals(L.hopf) == soc, (p, n, r)
    for label, v in value_battery():
        assert len(v.algebra.socle_vecs()) == 1, label
    announce(4, "socles are the top powers, equal the integrals, and are 1-dim")


def test_criterion_05_frobenius_toolkit():
    rng = random.Random(20260808)
    for label, v in value_battery():
        A = v.algebra
        lam = canonical_form(A)
        ok, _, _ = is_frobenius_form(A, lam.vec)
        assert ok, label
        if A.dim > 1:
            aug_cov = np.array(
                [A.aug_vec(e) for e in np.eye(A.dim, dtype=np.int64)], dtype=np.int64
            )
            ok_aug, _, _ = is_frobenius_form(A, aug_cov)
            assert not ok_aug, label
        # 20 randomized modifications with t_0 != 0, then an exact
        # form_unit round trip
        z = socle_generator(A)
        others = [b for b in A.basis_elements() if not np.array_equal(b.vec, z.vec)]
        for _ in range(20):
            ts = [rng.randrange(1, A.p)] + [rng.randrange(A.p) for _ in others]
            lam2 = modify_form(A, lam, [z] + others, ts)
            assert [lam2.value(u) for u in [z] + others] == ts, label
            u = form_unit(A, lam, lam2)
            ui = u.inv()
            assert all(lam2.value(b) == lam.value(b * ui) for b in A.basis_elements()), label
    announce(5, "canonical forms pass, aug fails, modify/form_unit round-trip exactly")


def test_criterion_06_transfers():
    computed = []
    for (p, n) in PN_BATTERY:
        v1 = value_abelian((1,), p, n)
        assert v1.ind_one == v1.algebra.monomial((p ** n - 1,)), (p, n)
    for p in (2, 3):
        d1 = abelian_decompose(named_group("C%d" % p))
        d2 = abelian_decompose(named_group("C%d" % p ** 2))
        incl = hom_between(d1, d2, [_perm_pow(d2.basis[0], p)])
        res = restrict(incl, p, 1)
        ind_mid = transfer(res)
        computed.append((res, ind_mid))
        v1 = value_abelian((1,), p, 1)
        v2 = value_abelian((2,), p, 1)
        # transitivity: ind^{C_{p^2}}_{C_p} o ind^{C_p}_1 = ind^{C_{p^2}}_1
        assert ind_mid.apply(v1.ind_one) == v2.ind_one, p
        # augmentation congruence on the chain
        assert v1.ind_one.aug() == p % p
        assert v2.ind_one.aug() == (p ** 2) % p
        assert ind_mid.apply(v1.algebra.one()).aug() == p % p
    for (name, p) in [("S3", 3), ("A4", 2)]:
        G = named_group(name)
        fx = SubgroupGreenFunctor(G, p, 1)
        P = sylow(G, p)
        computed.append((fx.res(G, P), fx.ind(G, P)))
    # GF2 exact on all basis pairs for every transfer computed above
    for res, ind in computed:
        AH = res.source
        AK = res.target
        for x in AK.basis_elements():
            for y in AH.basis_elements():
                assert ind.apply(x * res.apply(y)) == ind.apply(x) * y
    announce(6, "transfer values, transitivity, GF2 and aug congruence exact")


def test_criterion_07_stable_elements_three_ways():
    # S3 at p=3
    st = stable_elements(named_group("S3"), 3, 1)
    d3 = abelian_decompose(named_group("C3"))
    aut = hom_between(d3, d3, [_perm_pow(d3.basis[0], 2)])
    inv_sub = invariants(value_abelian((1,), 3, 1), [restrict(aut, 3, 1)])
    assert st.lim_dim == st.colim_dim == inv_sub.dim == 2
    v = value_general(named_group("S3"), 3, 1)
    assert len(v.algebra.socle_vecs()) == 1
    # A4 at p=2
    st4 = stable_elements(named_group("A4"), 2, 1)
    dV = abelian_decompose(named_group("V4"))
    rho = parse_cycles("(1 2 3)", 4)
    c = hom_between(dV, dV, [perm_mul(perm_mul(perm_inv(rho), b), rho) for b in dV.basis])
    inv4 = invariants(value_abelian((1, 1), 2, 1), [restrict(c, 2, 1)])
    assert st4.lim_dim == st4.colim_dim == inv4.dim == 2
    announce(7, "lim = colim = invariant dimension for S3 (p=3) and A4 (p=2)")


def test_criterion_08_non_triviality_battery():
    for name in GROUP_BATTERY:
        G = named_group(name)
        for p in (2, 3):
            v = value_general(G, p, 1)
            assert (v.dim == 1) == (G.order % p != 0), (name, p)
    announce(8, "dim A(G) = 1 iff p does not divide |G|, on all 14 instances")


def _abelian_battery_maps():
    d2 = abelian_decompose(named_group("C2"))
    d4 = abelian_decompose(named_group("C4"))
    d8 = abelian_decompose(named_group("C8"))
    dV = abelian_decompose(named_group("V4"))
    dP = abelian_decompose(named_group("C2xC4"))
    e = lambda d: d.group.identity()
    epis = [
        hom_between(d4, d2, [d2.basis[0]]),
        hom_between(d8, d4, [d4.basis[0]]),
        hom_between(d8, d2, [d2.basis[0]]),
        hom_between(dP, d4, [d4.basis[0], e(d4)]),
        hom_between(dP, d2, [e(d2), d2.basis[0]]),
        hom_between(dV, d2, [d2.basis[0], e(d2)]),
        hom_between(dV, d2, [d2.basis[0], d2.basis[0]]),
        hom_between(dP, dV, [dV.basis[0], dV.basis[1]]),
        hom_between(d4, d4, [_perm_pow(d4.basis[0], 3)]),
        hom_between(dV, dV, [dV.basis[1], dV.basis[0]]),
    ]
    monos = [
        hom_between(d2, d4, [_perm_pow(d4.basis[0], 2)]),
        hom_between(d4, d8, [_perm_pow(d8.basis[0], 2)]),
        hom_between(d2, d8, [_perm_pow(d8.basis[0], 4)]),
        hom_between(d2, dV, [dV.basis[0]]),
        hom_between(d2, dV, [perm_mul(dV.basis[0], dV.basis[1])]),
        hom_between(d4, dP, [dP.element((1, 0))]),
        hom_between(d2, dP, [dP.element((0, 1))]),
        hom_between(dV, dP, [dP.element((2, 0)), dP.element((0, 1))]),
        hom_between(d8, d8, [_perm_pow(d8.basis[0], 5)]),
        hom_between(d2, d2, [d2.basis[0]]),
    ]
    return epis, monos


def test_criterion_09_mono_epi_and_functoriality():
    epis, monos = _abelian_battery_maps()
    assert len(epis) == 10 and len(monos) == 10
    for h in epis:
        assert h.is_epi()
        assert restrict(h, 2, 1).is_injective(), h.matrix
    for h in monos:
        assert h.is_mono()
        assert restrict(h, 2, 1).is_surjective(), h.matrix
    pairs = []
    for a in monos:
        for b in epis:
            if b.source == a.target:
                pairs.append((a, b))
    for a in epis:
        for b in monos:
            if b.source == a.target:
                pairs.append((a, b))
    pairs = pairs[:20]
    assert len(pairs) == 20
    for (alpha, beta) in pairs:
        lhs = restrict(beta.compose(alpha), 2, 1)
        rhs = restrict(alpha, 2, 1).compose(restrict(beta, 2, 1))
        assert np.array_equal(lhs.matrix, rhs.matrix)
    announce(9, "10 epis monic, 10 monos epic, functoriality exact on 20 pairs")


def test_criterion_10_automorphisms_fix_socle():
    cases = {3: (3, 1, 1), 4: (2, 1, 2), 9: (3, 1, 2), 8: (2, 1, 3)}
    for order, (p, n, r) in cases.items():
        d = abelian_decompose(named_group("C%d" % order))
        v = value_abelian((r,), p, n)
        top = v.algebra.top_monomial()
        units = [u for u in range(2, order) if u % p]
        assert units
        for u in units:
            aut = hom_between(d, d, [_perm_pow(d.basis[0], u)])
            assert restrict(aut, p, n).apply(top) == top, (order, u)
    announce(10, "every automorphism of C_{p^r} fixes the socle generator exactly")


def test_criterion_11_inflation_inverse():
    C6 = named_group("C6")
    for (target, p) in [("C3", 3), ("C2", 2)]:
        H = named_group(target)
        beta = hom_by_generator_images(C6, H, [H.generators[0]])
        bstar, blower = inflation_inverse(C6, H, beta, p, 1)
        d = bstar.matrix.shape[0]
        assert np.array_equal((blower.matrix @ bstar.matrix) % p, np.eye(d, dtype=np.int64))
        assert np.array_equal((bstar.matrix @ blower.matrix) % p, np.eye(d, dtype=np.int64))
    announce(11, "C6 inflation inverses compose to the identity exactly")


def test_criterion_12_audit_integrity(capsys, tmp_path):
    # `audit assumptions` on the default battery exits 0 at both primes
    for p in (2, 3):
        code = dispatch(["audit", "assumptions", "--p", str(p), "--format", "json",
                         "--no-timing"])
        captured = capsys.readouterr()
        assert code == EXIT_OK, captured.out
        data = json.loads(captured.out)
        _validate_schema(data)
        assert all(r["status"] != "fail" for r in data["checks"])
    # `audit mackey` reports the (S3, C3, p=3) MF5 status with no silent failures
    code = dispatch(["audit", "mackey", "--group", "S3", "--p", "3",
                     "--format", "json", "--no-timing"])
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    _validate_schema(data)
    mf5 = [r for r in data["checks"]
           if r["name"] == "MF5" and r["instance"] == "res^S3_C3 ind^S3_C3"]
    assert mf5 and mf5[0]["status"] in ("exact-pass", "pass-up-to-unit")
    for r in data["checks"]:
        if r["status"] == "fail":
            assert r.get("witness"), r
        if r["status"] == "pass-up-to-unit":
            assert isinstance(r.get("scalar"), int), r
    announce(12, "audit assumptions exit 0; MF5 status reported; schema valid")


def _validate_schema(d):
    assert set(d.keys()) == {"meta", "checks"}
    for key in ("p", "n", "battery", "version"):
        assert key in d["meta"]
    for row in d["checks"]:
        assert {"name", "anchor", "instance", "status", "ms"} <= set(row.keys())
        assert row["status"] in ("exact-pass", "pass-up-to-unit", "fail")
