"""Hopf structure, the Honda tower, p-divisibility diagnostics, integrals."""

import threading
from collections import Counter

import numpy as np
import pytest

from greenkernel import hopftower
from greenkernel.cli import EXIT_OK, dispatch
from greenkernel.exactkernel import BudgetError, ExactKernelError, FpMatrix
from greenkernel.borel import AlgebraMap, make_algebra
from greenkernel.fgl import HondaParams
from greenkernel.frobform import canonical_form, is_frobenius_form
from greenkernel.hopftower import (
    HopfStructure,
    format_tensor_element,
    honda_level,
    hopf_check,
    integrals,
    is_hopf_map,
    multiplication_map,
    pdiv_check,
    tower_maps,
)
from polyoracle import from_exp_dict


def params(p, n):
    return HondaParams(p, n, max(p ** n, 4))


def test_level_one_coproducts():
    L = honda_level(params(2, 1), 1)
    T2 = L.hopf.square.algebra
    assert L.hopf.coproduct_gens[0] == from_exp_dict(T2, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert format_tensor_element(L.hopf, L.hopf.coproduct_gens[0]) == "x⊗1 + 1⊗x + x⊗x"
    L3 = honda_level(params(3, 1), 1)
    T23 = L3.hopf.square.algebra
    assert L3.hopf.coproduct_gens[0] == from_exp_dict(
        T23, {(1, 0): 1, (0, 1): 1, (1, 2): 2, (2, 1): 2}
    )


def test_honda_level_builds_hopf_data_on_first_read(monkeypatch):
    monkeypatch.setattr(hopftower, "_level_cache", {})
    calls = []
    real = hopftower.tensor
    monkeypatch.setattr(hopftower, "tensor", lambda *a: calls.append(a) or real(*a))
    L = honda_level(params(2, 1), 3)
    assert L.algebra.dim == 8 and calls == []
    H = L.hopf
    assert H.coproduct.matrix.shape == (64, 8) and hopf_check(H).all_pass
    assert L.hopf is H and len(calls) == 1  # one tensor square per level


def test_level_two_dim_and_socle():
    L = honda_level(params(2, 1), 2)
    assert L.dim == 4
    assert L.algebra.socle_basis()[0] == L.algebra.monomial((3,))
    assert L.socle_exponent() == 3


def test_level_dimension_formula():
    # dim H_r = p^{rn}
    for (p, n, r) in [(2, 1, 3), (3, 1, 2), (2, 2, 2)]:
        L = honda_level(params(p, n), r)
        assert L.dim == p ** (r * n) == L.algebra.dim


def test_hopf_check_passes_small_levels():
    for (p, n, rmax) in [(2, 1, 4), (3, 1, 2), (2, 2, 2)]:
        for r in range(1, rmax + 1):
            rep = hopf_check(honda_level(params(p, n), r).hopf)
            assert rep.all_pass, (p, n, r, rep.as_dict())


def test_hopf_check_detects_fake_coproduct():
    A = make_algebra(2, (2,))
    fake = HopfStructure(A, [np.array([[0, 0], [0, 1]])], [A.gen().vec])  # psi(x) = x(x)x
    rep = hopf_check(fake)
    assert not rep.counital
    assert not rep.all_pass
    with pytest.raises(ExactKernelError):  # psi(x) must be a (dim x dim) matrix
        HopfStructure(A, [np.zeros((2, 3))], [A.gen().vec])


def antipode_law_oracle(H: HopfStructure) -> bool:
    """mu (chi (x) id) psi(x_i) = 0 by one mul_vec per basis vector."""
    A, p = H.algebra, H.algebra.p
    chi = H.antipode.matrix
    eye = np.eye(A.dim, dtype=np.int64)
    for i in range(A.nvars):
        M = H.coproduct_coeffs[i]
        acc = np.zeros(A.dim, dtype=np.int64)
        for b in range(A.dim):
            acc = (acc + A.mul_vec((chi @ M[:, b]) % p, eye[b])) % p
        if acc.any():
            return False
    return True


@pytest.mark.parametrize("p,n,r", [(2, 1, 5), (3, 1, 3), (2, 2, 2)])
def test_hopf_check_detects_fake_antipode(p, n, r):
    H = honda_level(params(p, n), r).hopf
    A = H.algebra
    assert hopf_check(H).antipode_law and antipode_law_oracle(H)
    chi = H.antipode_gens[0]
    fakes = [A.gen(), chi + A.gen() ** 2, chi + A.top_monomial(), chi * 2]
    for fake in fakes:
        if fake == chi:
            continue
        F = HopfStructure(A, H.coproduct_coeffs, [fake])
        rep = hopf_check(F)
        assert not rep.antipode_law, (p, n, r, fake)
        assert rep.antipode_law == antipode_law_oracle(F)
        assert rep.coassociative and rep.counital and rep.cocommutative


def test_hopf_check_trivial_algebra():
    A = make_algebra(5, ())
    triv = HopfStructure(A, [], [])
    assert hopf_check(triv).all_pass


def test_integrals_examples():
    L = honda_level(params(3, 1), 1)
    assert integrals(L.hopf) == [L.algebra.monomial((2,))]
    L2 = honda_level(params(2, 1), 2)
    assert integrals(L2.hopf) == [L2.algebra.monomial((3,))]
    A = make_algebra(3, ())
    triv = HopfStructure(A, [], [])
    assert integrals(triv) == [A.one()]


def test_integrals_equal_socle_for_levels():
    for (p, n, r) in [(2, 1, 3), (3, 1, 2), (2, 2, 1)]:
        L = honda_level(params(p, n), r)
        got = integrals(L.hopf)
        assert got == L.algebra.socle_basis()


def test_tower_maps_formulas():
    tm = tower_maps(params(2, 1), 1, 1)
    H1 = honda_level(params(2, 1), 1)
    H2 = honda_level(params(2, 1), 2)
    assert tm.inj.apply(H1.x()) == H2.x() ** 2
    assert tm.surj.apply(H2.x()) == H1.x()
    assert tm.surj_is_hopf and tm.inj_is_hopf
    assert tm.surj_surjective and tm.inj_injective
    # the composite surj o inj factors through the augmentation on x
    assert tm.surj.apply(tm.inj.apply(H1.x())).is_zero()


@pytest.mark.parametrize("image,verdict", [
    ("x", True), ("x^2", True), ("0", True), ("x+x^2", False), ("x+x^3", False),
])
def test_is_hopf_map_verdicts(image, verdict):
    # endomorphisms x -> image of H_2 = F_2[x]/(x^4) at height 1
    L = honda_level(params(2, 1), 2)
    x = L.x()
    img = {"x": x, "x^2": x ** 2, "0": L.algebra.zero(),
           "x+x^2": x + x ** 2, "x+x^3": x + x ** 3}[image]
    f = AlgebraMap.from_generator_images(L.algebra, L.algebra, [img])
    assert is_hopf_map(f, L.hopf, L.hopf) is verdict


def test_tower_dims_multiply():
    for (p, n) in [(2, 1), (3, 1)]:
        H1 = honda_level(params(p, n), 1)
        H2 = honda_level(params(p, n), 2)
        H3 = honda_level(params(p, n), 3)
        assert H3.dim == H1.dim * H2.dim


def test_multiplication_map_is_q_power():
    L = honda_level(params(3, 1), 2)
    m = multiplication_map(L, 3)
    assert m.apply(L.x()) == L.x() ** 3


def test_pdiv_check_basic():
    rep = pdiv_check(params(2, 1), 1, 1)
    assert rep.all_pass, rep.as_dict()
    rep3 = pdiv_check(params(3, 1), 1, 1)
    assert rep3.all_pass
    # [p](x_2) generates exactly the kernel ideal of the surjection
    assert rep.kernel_is_mult_ideal and rep.p_r_kills_level_r


def test_pdiv_check_deeper_levels():
    rep = pdiv_check(params(2, 1), 2, 1)
    assert rep.all_pass
    rep = pdiv_check(params(2, 1), 1, 2)
    assert rep.all_pass


def _count_checks(monkeypatch) -> Counter:
    """Calls of is_hopf_map, FpMatrix.rank and HopfStructure.__init__ from
    now on, with every level built cold."""
    monkeypatch.setattr(hopftower, "_level_cache", {})
    calls = Counter()
    for owner, name in ((hopftower, "is_hopf_map"), (FpMatrix, "rank"), (HopfStructure, "__init__")):
        def counting(*args, _real=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(owner, name, counting)
    return calls


def test_pdiv_check_builds_no_hopf_data(monkeypatch):
    # its two tower maps come without tower_maps' Hopf-map and rank checks
    calls = _count_checks(monkeypatch)
    assert pdiv_check(params(2, 1), 1, 2).all_pass
    assert calls == {}


def test_tower_check_runs_each_map_check_once(monkeypatch, capsys):
    # is_hopf_map and the rank of each tower map run in tower_maps only;
    # Hopf data is built once for each of the levels r, s and r+s
    calls = _count_checks(monkeypatch)
    argv = ["tower", "check", "--p", "2", "--r", "1", "--s", "2", "--format", "json"]
    assert dispatch(argv) == EXIT_OK
    capsys.readouterr()
    assert calls == {"is_hopf_map": 2, "rank": 2, "__init__": 3}


def test_audit_assumptions_builds_no_hopf_data(monkeypatch, capsys):
    # the pdiv-tower row reads the tower through algebra maps only
    calls = _count_checks(monkeypatch)
    assert dispatch(["audit", "assumptions", "--p", "2", "--n", "1", "--no-timing"]) == EXIT_OK
    capsys.readouterr()
    assert calls["__init__"] == calls["is_hopf_map"] == 0


def test_budget_errors():
    with pytest.raises(BudgetError) as exc:
        honda_level(params(2, 1), 5, budget=16)
    assert exc.value.required == 32
    with pytest.raises(BudgetError):
        pdiv_check(params(2, 1), 4, 4, budget=64)


def test_levels_are_frobenius():
    # Larson-Sweedler instance: every level is a Frobenius algebra
    for (p, n, r) in [(2, 1, 2), (3, 1, 1), (2, 2, 1)]:
        L = honda_level(params(p, n), r)
        lam = canonical_form(L.algebra)
        ok, _, _ = is_frobenius_form(L.algebra, lam.vec)
        assert ok


def test_level_cache_thread_safe_single_construction():
    import greenkernel.hopftower as ht

    key = (7, 1, 1)
    ht._level_cache.pop(key, None)
    results = []
    barrier = threading.Barrier(4)

    def build():
        barrier.wait()
        results.append(honda_level(HondaParams(7, 1, 7), 1))

    threads = [threading.Thread(target=build) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r is results[0] for r in results)
