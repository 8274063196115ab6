"""Finite SU(2) subgroups and the invariant presentations."""

import json
from dataclasses import replace

import pytest

from mckaydeform.exact import QQ, Cyclo, mat_mul
from mckaydeform.klein import (binary_dihedral, binary_octahedral,
                               binary_tetrahedral, cyclic_group, klein_data,
                               verify_invariance, verify_omega_action)
from mckaydeform.poly import MPoly
from mckaydeform.rootdata import ClosureBudgetExceeded, DynkinType, orbit


def test_group_orders():
    assert binary_dihedral(2).order() == 8
    assert binary_tetrahedral().order() == 24
    assert binary_octahedral().order() == 48
    assert cyclic_group(1).order() == 1
    assert cyclic_group(6).order() == 6
    assert binary_dihedral(4).order() == 16
    # the closure keeps no element twice, by exact comparison
    for group in (binary_dihedral(3), binary_tetrahedral(),
                  binary_octahedral(), cyclic_group(6)):
        elements = group.enumerate()
        for k, e in enumerate(elements):
            assert not any(e == f for f in elements[:k]), group.label


@pytest.mark.parametrize("tname", ["A3", "A5", "D4", "D5", "E6"])
def test_group_elements_keyed_on_int_coordinates_match_rational_keys(tname):
    # the orbit is keyed on each entry's (nums, den) in one conductor; its
    # rational coordinates key the same elements in the same order
    kd = klein_data(DynkinType(tname[0], int(tname[1:])))
    for group in (kd.gamma, kd.gamma_prime):
        if group is None:
            continue
        elements = group.enumerate()
        n = elements[0][0][0].n

        def lifted(x):
            return x.lift(n) if isinstance(x, Cyclo) else Cyclo.from_rat(x, n)
        gens = [[[lifted(x) for x in row] for row in g]
                for g in group.generators]

        def key(A):
            return tuple(lifted(x).coeffs for row in A for x in row)
        want = orbit([elements[0]], lambda e: (mat_mul(g, e) for g in gens),
                     key=key)
        assert len(elements) == group.order_expected == len(want)
        assert elements == want


def test_closure_budget(monkeypatch):
    import mckaydeform.klein as klein
    monkeypatch.setattr(klein, "CLOSURE_CAP", 20)
    with pytest.raises(ClosureBudgetExceeded):
        binary_octahedral().enumerate()


@pytest.mark.parametrize("tname", ["A3", "A5", "D4", "D5", "E6"])
def test_invariance_and_relation(tname):
    t = DynkinType(tname[0], int(tname[1:]))
    kd = klein_data(t)
    report = verify_invariance(kd)
    assert report["ok"], report


@pytest.mark.parametrize("tname", ["A3", "A5", "D4", "D5", "E6"])
def test_omega_action_tables(tname):
    t = DynkinType(tname[0], int(tname[1:]))
    kd = klein_data(t)
    report = verify_omega_action(kd)
    assert report["ok"], report


def _with_gens(kd, **gens):
    """kd with the named omega generators' matrices replaced, tables kept."""
    omega = {k: (gens.get(k, g), M) for k, (g, M) in kd.omega_action.items()}
    return replace(kd, omega_action=omega)


@pytest.mark.parametrize("tname, index", (
    ("D4", 1), ("E6", 0), ("E6", 1), ("E6", 2)))
def test_a_wrong_octahedral_generator_fails_the_action(tname, index):
    # D4's g is the octahedral generator c and E6's the last one, h: any
    # other position of binary_octahedral().generators breaks the table
    kd = klein_data(DynkinType(tname[0], int(tname[1:])))
    wrong = _with_gens(kd, g=binary_octahedral().generators[index])
    assert verify_omega_action(kd)["ok"]
    assert not verify_omega_action(wrong)["ok"]


@pytest.mark.parametrize("tname", ["A3", "A5", "D5"])
def test_swapped_gamma_prime_generators_fail_the_action(tname):
    kd = klein_data(DynkinType(tname[0], int(tname[1:])))
    (a, (g, _)), (b, (h, _)) = kd.omega_action.items()
    assert not verify_omega_action(_with_gens(kd, **{a: h, b: g}))["ok"]


def test_a_scale_off_by_one_power_fails_the_relation(monkeypatch, tmp_path):
    # X = a^3 X~ on D5 (a^4 = 2) in place of a^2 X~: the relation check
    # fails and every other check still passes
    import mckaydeform.klein as klein
    from mckaydeform.cli import run
    build = klein.klein_data

    def off_by_one(t):
        kd = build(t)
        kd.X = kd.X * klein.MPoly.variable(klein.Z_VARS, "a")
        return kd

    monkeypatch.setattr(klein, "klein_data", off_by_one)
    out = tmp_path / "report.json"
    code, _ = run(["klein", "verify", "--type", "D5", "--out", str(out)])
    status = {c["name"]: c["status"]
              for c in json.loads(out.read_text())["checks"]}
    assert code == 1
    assert status.pop("klein_D5_relation_vanishes") == "fail"
    assert set(status.values()) == {"pass"}


@pytest.mark.parametrize("tname", ["D4", "D5", "E6"])
def test_folding_by_the_wrong_root_relation_fails(tname):
    # a^(k+1) = c in place of a^k = c
    kd = klein_data(DynkinType(tname[0], int(tname[1:])))
    k, c = kd.root
    kd.root = (k + 1, c)
    assert not verify_invariance(kd)["ok"]


def test_a3_action_values():
    kd = klein_data(DynkinType("A", 3))
    # h sends (X, Y, Z) to (-X, (-1)^r Z, (-1)^r Y) with r = 2
    _, M = kd.omega_action["h"]
    assert M == ((-1, 0, 0), (0, 0, 1), (0, 1, 0))


def test_d4_action_values():
    kd = klein_data(DynkinType("D", 4))
    _, Mg = kd.omega_action["g"]
    h = QQ(1, 2)
    assert Mg == ((-h, h, 0), (-3 * h, -h, 0), (0, 0, 1))
    _, Mh = kd.omega_action["h"]
    assert Mh == ((1, 0, 0), (0, -1, 0), (0, 0, -1))


def test_even_a_is_flagged():
    kd = klein_data(DynkinType("A", 4))
    assert kd.no_valid_gamma_prime
    report = verify_omega_action(kd)
    assert report["ok"] and report.get("no_valid_gamma_prime")
    _, M = kd.omega_action["g"]
    assert M == ((1, 0, 0), (0, -1, 0), (0, 0, -1))


def _order(x, mul, is_one):
    """Least k <= 48 with is_one(x^k)."""
    power = x
    for k in range(1, 49):
        if is_one(power):
            return k
        power = mul(power, x)
    raise AssertionError("order exceeds 48")


def _mul3(A, B):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(3))
                       for j in range(3)) for i in range(3))


def test_coset_orders_match_action_orders():
    # the order of gen * Gamma in Gamma'/Gamma is the order of its action
    # on the invariants
    ident3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for tname, gens in (("D4", ("g", "h")), ("D5", ("g",)),
                        ("E6", ("g",)), ("A3", ("h",))):
        t = DynkinType(tname[0], int(tname[1:]))
        kd = klein_data(t)
        gamma = kd.gamma.enumerate()
        for gname in gens:
            gen, M = kd.omega_action[gname]
            coset = _order([list(row) for row in gen], mat_mul,
                           lambda P: P in gamma)
            assert coset == _order(M, _mul3, lambda P: P == ident3)


def _flip_z2_terms(p):
    """p with the sign of every term of higher degree in z2 than in z1
    flipped: z1^w + s z2^w becomes z1^w - s z2^w."""
    i1, i2 = p.vars.index["z1"], p.vars.index["z2"]
    return MPoly(p.vars, {e: -c if e[i2] > e[i1] else c
                          for e, c in p.terms.items()})


def test_d_swapped_sign_variant_is_flagged():
    # the opposite sign convention in Y and Z breaks the relation: reported,
    # not fatal
    kd = klein_data(DynkinType("D", 5))
    swapped = replace(kd, Y=_flip_z2_terms(kd.Y), Z=_flip_z2_terms(kd.Z))
    assert swapped.Y != kd.Y and swapped.Z != kd.Z
    assert verify_invariance(kd)["ok"]
    report = verify_invariance(swapped)
    relation = [c for c in report["checks"]
                if c["check"] == "relation_vanishes"]
    assert relation and not relation[0]["ok"]


def test_gamma_orders_match_expected():
    for tname, order in (("A3", 4), ("A5", 6), ("D4", 8), ("D5", 12),
                         ("E6", 24)):
        t = DynkinType(tname[0], int(tname[1:]))
        kd = klein_data(t)
        assert kd.gamma.order() == order
        if kd.gamma_prime is not None and not kd.no_valid_gamma_prime:
            assert kd.gamma_prime.order() == kd.gamma_prime.order_expected
