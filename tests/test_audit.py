"""Audit harness: statuses, report integrity, JSON schema."""

import json

import pytest

from greenkernel.audit import (
    DEFAULT_BATTERY,
    EXACT,
    FAIL,
    UP_TO_UNIT,
    audit_assumptions,
    audit_mackey,
    compare_maps,
    default_subgroup_family,
    frobenius_axiom,
    _mackey_sum,
)
from greenkernel import green
from greenkernel.borel import AlgebraMap, El, make_algebra
from greenkernel.exactkernel import ExactKernelError
from greenkernel.frobform import socle_generator
from greenkernel.green import SubgroupGreenFunctor
from greenkernel.grp import named_group

import numpy as np


UNCONDITIONAL = (
    "MF1-res", "MF1-ind", "MF1-conj", "MF3", "MF4-res", "MF4-ind",
    "GF1-res-algebra-map", "GF1-conj-algebra-map", "GF2-frobenius-axiom",
)


def validate_schema(d: dict) -> None:
    assert set(d.keys()) == {"meta", "checks"}
    meta = d["meta"]
    for key in ("p", "n", "battery", "version"):
        assert key in meta
    assert isinstance(meta["battery"], list)
    for row in d["checks"]:
        assert set(row.keys()) <= {"name", "anchor", "instance", "status", "scalar",
                                   "witness", "ms"}
        for key in ("name", "anchor", "instance", "status", "ms"):
            assert key in row
        assert row["status"] in (EXACT, UP_TO_UNIT, FAIL)
        if row["status"] == UP_TO_UNIT:
            assert isinstance(row["scalar"], int)
        if row["status"] == FAIL:
            assert isinstance(row["witness"], str) and row["witness"]


def test_compare_maps_statuses():
    A = make_algebra(3, (3,))
    ident = AlgebraMap.identity(A)
    assert compare_maps(ident, ident) == (EXACT, None, None)
    status, scalar, _ = compare_maps(ident.scale(2), ident)
    assert status == UP_TO_UNIT and scalar == 2
    other = AlgebraMap(A, A, np.zeros((3, 3), dtype=np.int64))
    status, _, witness = compare_maps(ident, other)
    assert status == FAIL and witness


def test_mackey_c4_chain():
    rep = audit_mackey(named_group("C4"), 2, 1, group_name="C4")
    assert not any(r.status == FAIL for r in rep.checks)
    mf2_ind = [r for r in rep.checks if r.name == "MF2-ind"]
    assert mf2_ind and all(r.status == EXACT for r in mf2_ind)
    mf1 = [r for r in rep.checks if r.name.startswith("MF1")]
    assert mf1 and all(r.status == EXACT for r in mf1)


def test_mf5_term_that_does_not_compose_is_a_fail_row(monkeypatch):
    # every conjugation returned with the wrong endpoints: each MF5 chain
    # ind o c_g o res breaks, and each MF5 row must fail with a witness
    C4 = named_group("C4")
    wrong = AlgebraMap.identity(make_algebra(2, (8,)))
    monkeypatch.setattr(SubgroupGreenFunctor, "conj", lambda self, g, H: wrong)
    mf5 = [r for r in audit_mackey(C4, 2, 1, group_name="C4").checks if r.name == "MF5"]
    assert mf5 and all(r.status == FAIL and "do not compose" in r.witness for r in mf5)


def test_mf5_sum_refuses_terms_with_other_endpoints():
    # two chains that compose, over different algebras of the same dimension:
    # their matrices would add, but the sum is refused
    A, B = make_algebra(2, (4,)), make_algebra(2, (2, 2))
    ida, idb = AlgebraMap.identity(A), AlgebraMap.identity(B)
    assert np.array_equal(_mackey_sum([(ida, ida, ida)]).matrix, np.eye(4))
    with pytest.raises(ExactKernelError, match="term 1: endpoints differ"):
        _mackey_sum([(ida, ida, ida), (idb, idb, idb)])
    with pytest.raises(ExactKernelError, match="term 0: maps do not compose"):
        _mackey_sum([(ida, idb, ida)])


def test_mackey_c3():
    rep = audit_mackey(named_group("C3"), 3, 1, group_name="C3")
    assert all(r.status == EXACT for r in rep.checks), [
        (r.name, r.instance, r.status) for r in rep.checks if r.status != EXACT
    ]


def test_mackey_s3_mf5_reported():
    rep = audit_mackey(named_group("S3"), 3, 1, group_name="S3")
    rows = [r for r in rep.checks
            if r.name == "MF5" and r.instance == "res^S3_C3 ind^S3_C3"]
    assert rows, "the (S3, C3) MF5 instance must be present"
    for r in rows:
        assert r.status in (EXACT, UP_TO_UNIT)
        if r.status == UP_TO_UNIT:
            assert r.scalar == 2


def test_mackey_no_silent_failures():
    rep = audit_mackey(named_group("S3"), 3, 1, group_name="S3")
    for r in rep.checks:
        if r.status == FAIL:
            assert r.witness, "fail rows must carry a witness: %s %s" % (r.name, r.instance)
        if r.status == UP_TO_UNIT:
            assert r.scalar is not None


def test_mackey_unconditional_checks_never_fail():
    for (name, p) in [("S3", 3), ("C4", 2), ("S3", 2), ("C3", 3), ("C6", 2), ("C6", 3)]:
        rep = audit_mackey(named_group(name), p, 1, group_name=name)
        for r in rep.checks:
            if r.name in UNCONDITIONAL:
                assert r.status != FAIL, (name, p, r.name, r.instance, r.witness)


def test_mackey_a4_conjugation_twist_is_reported():
    # The fixed canonical forms are not equivariant under the order-3
    # automorphism of A(V4), so some MF4-ind instances fail on A4; the
    # harness must report them with witnesses rather than mask them.
    rep = audit_mackey(named_group("A4"), 2, 1, group_name="A4")
    mf4_fail = [r for r in rep.checks if r.name == "MF4-ind" and r.status == FAIL]
    assert mf4_fail
    assert all(r.witness for r in mf4_fail)
    # conjugation itself is coherent: MF3 never fails
    assert all(r.status != FAIL for r in rep.checks if r.name == "MF3")


def test_assumptions_default_battery_clean():
    for p in (2, 3):
        rep = audit_assumptions(p=p, n=1)
        assert not rep.has_failures, [
            (r.name, r.instance, r.witness) for r in rep.fail_rows
        ]
        names = {r.name for r in rep.checks}
        assert "AssumptionB-ind-one-nonzero" in names
        assert "non-triviality" in names
        assert "pdiv-tower" in names
        assert "automorphism-fixes-socle" in names
        assert "res-of-ind-one" in names


def test_assumptions_specific_rows():
    rep = audit_assumptions(("S3", "C3"), p=3, n=1)
    d = {(r.name, r.instance): r for r in rep.checks}
    assert d[("AssumptionA-trivial-value", "1")].status == EXACT
    assert d[("AssumptionB-ind-one-nonzero", "S3")].status == EXACT
    assert d[("ind-image-in-radical", "1<=C3")].status == EXACT
    row = d[("res-of-ind-one", "S3")]
    assert row.status in (EXACT, UP_TO_UNIT)
    assert ("ind^G_P-surjective", "S3") in d and d[("ind^G_P-surjective", "S3")].status == EXACT


def test_ind_one_rows_compare_it_with_the_gysin_transfer(monkeypatch):
    # a planted ind_one of twice s / form(s) is still nonzero and in the
    # socle; the two rows catch it because the Gysin transfer of 1 along the
    # augmentation, which reads no socle generator, disagrees
    def planted(v):
        s = socle_generator(v.algebra)
        return El(v.algebra, 2 * s.vec * pow(v.form.value(s), -1, v.p))

    monkeypatch.setattr(green.GreenValue, "ind_one", property(planted))
    rows = [r for r in audit_assumptions(p=3, n=1).checks
            if r.name in ("AssumptionB-ind-one-nonzero", "ind^G_1-in-socle")]
    assert len(rows) == 2 * len(DEFAULT_BATTERY)
    assert all(r.status == FAIL and "Gysin transfer of 1" in r.witness for r in rows)


def test_report_schema_and_determinism():
    rep1 = audit_assumptions(("C2", "C3"), p=2, n=1)
    rep2 = audit_assumptions(("C2", "C3"), p=2, n=1)
    d1, d2 = rep1.as_dict(), rep2.as_dict()
    validate_schema(d1)
    strip = lambda d: [
        {k: v for k, v in row.items() if k != "ms"} for row in d["checks"]
    ]
    assert strip(d1) == strip(d2)
    # rows are sorted by (name, instance)
    keys = [(r["name"], r["instance"]) for r in d1["checks"]]
    assert keys == sorted(keys)


def test_report_json_round_trip():
    rep = audit_assumptions(("C2",), p=2, n=1)
    text = rep.to_json()
    back = json.loads(text)
    validate_schema(back)


def test_anchor_strings_present():
    rep = audit_assumptions(("S3",), p=3, n=1)
    assert all(r.anchor for r in rep.checks)
    rep2 = audit_mackey(named_group("C4"), 2, 1)
    assert all(r.anchor for r in rep2.checks)


# -- GF2 on generators against the exhaustive basis-pair oracle --------------------


def _frobenius_axiom_exhaustive(res, ind):
    """Oracle: ind(x res(y)) = ind(x) y over every pair of basis elements."""
    for x in res.target.basis_elements():
        for y in res.source.basis_elements():
            if ind.apply(x * res.apply(y)) != ind.apply(x) * y:
                return FAIL, None, "x=%r y=%r" % (x, y)
    return EXACT, None, None


@pytest.mark.parametrize("group,p,n", [("S3", 3, 1), ("S3", 3, 2), ("A4", 2, 1), ("A4", 2, 2)])
def test_frobenius_axiom_matches_exhaustive(group, p, n):
    G = named_group(group)
    fx = SubgroupGreenFunctor(G, p, n)
    fam = default_subgroup_family(G)
    pairs = [(H, K) for H in fam for K in fam if K.is_subgroup_of(H) and K.order < H.order]
    failed = 0
    for H, K in pairs:
        res, ind = fx.res(H, K), fx.ind(H, K)
        assert frobenius_axiom(res, ind) == _frobenius_axiom_exhaustive(res, ind)
        # a perturbed transfer fails with the witness the pair loop finds
        bump = np.zeros_like(ind.matrix)
        bump[0, -1] = 1  # send the top of A(K) to 1
        bad = AlgebraMap(ind.source, ind.target, ind.matrix + bump)
        want = _frobenius_axiom_exhaustive(res, bad)
        assert frobenius_axiom(res, bad) == want
        failed += want[0] == FAIL
    assert failed > 0


def test_frobenius_axiom_contradiction_is_a_fail_row(monkeypatch):
    # a module-map check that refuses a correct pair, while no basis pair
    # fails, is a contradiction between the two checks: each GF2 row must
    # fail with it, not pass.  The first audit fills the transfer cache, so
    # the second builds no Gysin map (whose own check would refuse first).
    C4 = named_group("C4")
    gf2 = [r for r in audit_mackey(C4, 2, 1).checks if r.name == "GF2-frobenius-axiom"]
    assert gf2 and all(r.status == EXACT for r in gf2)
    monkeypatch.setattr(AlgebraMap, "check_module_map", lambda self, f: False)
    gf2 = [r for r in audit_mackey(C4, 2, 1).checks if r.name == "GF2-frobenius-axiom"]
    assert gf2 and all(r.status == FAIL and r.witness.startswith("internal consistency")
                       for r in gf2)
    res = AlgebraMap.identity(make_algebra(2, (2,)))
    with pytest.raises(ExactKernelError, match="no basis pair"):
        frobenius_axiom(res, res)
