"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.
"""

import sys
import time
from math import prod

from mckaydeform.exact import QQ
from mckaydeform.poly import MPoly, VarTable, equal_mod_vars
from mckaydeform.rootdata import (build_root_system, fold, omega_average,
                                  parse_type, standard_omega,
                                  vanishing_roots)


def _report(num, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    line = (f"[{status}] criterion {num:2d}: {name} "
            f"({elapsed:.2f}s / budget {budget:.0f}s)")
    print(line, file=sys.stderr)
    assert ok, f"criterion {num} failed: {name}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def test_criterion_01_folding_table():
    start = time.monotonic()
    rows = [("A3", "z2", "B2"), ("A5", "z2", "B3"), ("A7", "z2", "B4"),
            ("A6", "z2", "C3"), ("A8", "z2", "C4"),
            ("D4", "z2", "C3"), ("D5", "z2", "C4"), ("D6", "z2", "C5"),
            ("E6", "z2", "F4"),
            ("D4", "s3", "G2"), ("D4", "z3", "G2")]
    ok = True
    for tname, om, want in rows:
        t = parse_type(tname)
        ok = ok and str(fold(t, standard_omega(t, om))) == want
    _report(1, "folding table rows", ok, time.monotonic() - start, 1)


def test_criterion_02_klein_verification():
    from mckaydeform.klein import (klein_data, verify_invariance,
                                   verify_omega_action)
    start = time.monotonic()
    ok = True
    for tname in ("A3", "A5", "D4", "D5", "E6"):
        kd = klein_data(parse_type(tname))
        ok = ok and verify_invariance(kd)["ok"]
        ok = ok and verify_omega_action(kd)["ok"]
    _report(2, "Klein invariants, relations, Omega actions", ok,
            time.monotonic() - start, 10)


def test_criterion_03_flat_coordinate_identities():
    from mckaydeform.flat import (FRAME_GENERATOR_KEYS, PQ_WEIGHTS,
                                  epsilon_from_psi, flat_coords_A,
                                  flat_coords_D, flat_coords_E6,
                                  frame_reflection_subs, psi_E6_in_xy,
                                  verify_w_invariance, weighted_degrees)
    start = time.monotonic()
    fsA = flat_coords_A(2)
    coordA = {name: p for _, name, p in fsA.coords}
    V = fsA.natural_vars
    e2, e4 = (MPoly.variable(V, n) for n in ("eps2", "eps4"))
    ok = coordA["psi4"] == e4 - e2 * e2 * QQ(1, 8)
    for r in (2, 3):
        fs = flat_coords_A(r)
        psi_sub = {name: p for _, name, p in fs.coords}
        for i, name, f in epsilon_from_psi(r):
            ok = ok and f.substitute(psi_sub) == MPoly.variable(
                fs.natural_vars, f"eps{i}")
    fsD = flat_coords_D(3)
    coordD = {name: p for _, name, p in fsD.coords}
    VD = fsD.natural_vars
    x2, x4, x6 = (MPoly.variable(VD, f"x{i}") for i in (2, 4, 6))
    ok = ok and coordD["psi2"] == x2
    ok = ok and coordD["psi4"] == x4 - x2 ** 2 * QQ(1, 4)
    ok = ok and coordD["psi6"] == x6 - x2 * x4 * QQ(1, 6) \
        + x2 ** 3 * QQ(7, 216)
    ok = ok and coordD["psi4"] is not None
    fsE = flat_coords_E6()
    ok = ok and [d for d, _, _ in fsE.coords] == [2, 5, 6, 8, 9, 12]
    for d, _, p in fsE.coords:
        ok = ok and weighted_degrees(p, PQ_WEIGHTS) == {d}
    gens = [(str(k), frame_reflection_subs(k))
            for k in FRAME_GENERATOR_KEYS]
    ok = ok and verify_w_invariance(fsE, gens, expand=psi_E6_in_xy())["ok"]
    _report(3, "flat coordinate identities (A, D4, E6 + Frame)", ok,
            time.monotonic() - start, 600)


def test_criterion_04_a_type_family_identity():
    from mckaydeform.deform import family
    from mckaydeform.flat import psi_A_in_lambda
    start = time.monotonic()
    ok = True
    for r in (2, 3):
        n = 2 * r
        names = tuple(f"lam{i}" for i in range(n)) + ("x", "y", "z")
        V = VarTable(names)
        lam = [MPoly.variable(V, f"lam{i}") for i in range(n)]
        x, y, z = (MPoly.variable(V, v) for v in ("x", "y", "z"))
        # the identity lives on the Cartan hyperplane sum(lambda) = 0
        trace_zero = {f"lam{n - 1}": sum(
            (-l for l in lam[: n - 1]), MPoly(V))}
        lhs = MPoly.constant(V, QQ(1))
        for l in lam:
            lhs = lhs * (z - l)
        lhs = (lhs - x * y).substitute(trace_zero)
        psis = psi_A_in_lambda(r)
        subs = {f"t{i}": psis[f"psi{i}"].extend(V).substitute(trace_zero)
                for i in range(2, n + 1)}
        rhs = family(f"A{n - 1}").equation.substitute(subs)
        ok = ok and equal_mod_vars(lhs, rhs)
    _report(4, "prod(z - lambda_i) - xy equals the flat family", ok,
            time.monotonic() - start, 60)


def test_criterion_05_d4_coefficients():
    from mckaydeform.deform import verify_d4_coefficients
    start = time.monotonic()
    ok = verify_d4_coefficients()["ok"]
    _report(5, "D4 coefficients: W-invariance and flat match", ok,
            time.monotonic() - start, 60)


def test_criterion_06_e6_coefficients():
    from mckaydeform.deform import verify_e6_coefficients
    start = time.monotonic()
    ok = verify_e6_coefficients()["ok"]
    _report(6, "E6 coefficients invariant under all Weyl generators", ok,
            time.monotonic() - start, 1200)


def test_criterion_07_equivariance_and_normal_forms():
    from mckaydeform.deform import (family, special_fibre_normal_form,
                                    verify_equivariance)
    start = time.monotonic()
    ok = True
    for label in ("B2", "B3", "C3", "G2", "F4"):
        ok = ok and verify_equivariance(family(label))["ok"]
        nf = special_fibre_normal_form(family(label))
        ok = ok and nf["relation_match"] and nf["action_match"]
    _report(7, "restricted-family equivariance + Klein normal forms", ok,
            time.monotonic() - start, 60)


def test_criterion_08_moment_map_monte_carlo():
    from mckaydeform.cli import _d4_family_residual
    from mckaydeform.quiver import (fibre_residual, invariants_at_point,
                                    lambda_from_central, reference_action,
                                    sample_moment_fibre,
                                    verify_moment_equivariance_numeric)
    start = time.monotonic()
    ok = True
    cases = {"A3": [1.5, -0.5, 0.25, -1.25],
             "A5": [0.5, -0.25, 0.75, -1.0, 0.25, -0.25],
             # no correction term of invariants_at_point vanishes here
             "D4": ["1/3", "2/5", "-1", "1/2", "23/30"]}
    for tname, central in cases.items():
        t = parse_type(tname)
        worst = 0
        for k in range(100):
            s = sample_moment_fibre(t, central, seed=1000 + k)
            ok = ok and fibre_residual(s) == 0
            x, y, z = invariants_at_point(t, s)
            if t.family == "A":
                lam = lambda_from_central(central)
                worst = max(worst, abs(prod(z - v for v in lam) - x * y))
            else:
                worst = max(worst, _d4_family_residual(central, x, y, z))
        ok = ok and worst == 0
    for tname, gen in (("A3", "sigma"), ("A5", "sigma"), ("D4", "sigma"),
                       ("D4", "rho")):
        rep = verify_moment_equivariance_numeric(
            reference_action(parse_type(tname), gen), seed=0, trials=100)
        ok = ok and rep["max_residual"] == 0
    _report(8, "moment-map Monte Carlo (fibres + equivariance)", ok,
            time.monotonic() - start, 60)


def test_criterion_09_symplecticity():
    from mckaydeform.quiver import reference_action, verify_symplectic_action
    start = time.monotonic()
    ok = True
    for tname, gen in (("A3", "sigma"), ("D4", "sigma"), ("D4", "rho"),
                       ("E6", "sigma")):
        ok = ok and verify_symplectic_action(
            reference_action(parse_type(tname), gen))
    ok = ok and not verify_symplectic_action(
        reference_action(parse_type("A3"), "sigma", flip="a0"))
    _report(9, "symplecticity of reference actions, sign perturbation "
            "fails", ok, time.monotonic() - start, 60)


def test_criterion_10_example_fibres():
    from mckaydeform.deform import analyze_hypersurface
    start = time.monotonic()
    V = VarTable(("x", "y", "z"))
    x, y, z = (MPoly.variable(V, n) for n in "xyz")
    base = z * z - x ** 3 + 3 * x * y * y + x * x + y * y
    rep0 = analyze_hypersurface(base, V.names)
    ok = rep0.global_tjurina == 1 \
        and [p.ade for p in rep0.singular_points] == ["A1"] \
        and rep0.singular_points[0].coords_exact == (0, 0, 0)
    rep1 = analyze_hypersurface(base - QQ(4, 27), V.names)
    ok = ok and rep1.global_tjurina == 3
    ok = ok and [p.ade for p in rep1.singular_points] == ["A1"] * 3
    ok = ok and all(p.tjurina == 1 for p in rep1.singular_points)
    targets = [(2 / 3, 0.0), (-1 / 3, 3 ** -0.5), (-1 / 3, -(3 ** -0.5))]
    for tx, ty in targets:
        ok = ok and any(
            abs(p.coords_numeric[0] - tx) < 1e-8
            and abs(p.coords_numeric[1] - ty) < 1e-8
            and abs(p.coords_numeric[2]) < 1e-8
            for p in rep1.singular_points)
    special = analyze_hypersurface(z * z - x ** 3 + 3 * x * y * y, V.names)
    ok = ok and special.global_tjurina == 4 \
        and [p.ade for p in special.singular_points] == ["D4"]
    _report(10, "example fibres: A1, A1+A1+A1, special D4", ok,
            time.monotonic() - start, 60)


def test_criterion_11_quotient_pullbacks():
    from mckaydeform.quotient import (verify_g2_intermediate,
                                      verify_quotient_pullback)
    start = time.monotonic()
    ok = True
    for label in ("B2", "B3", "C3", "F4"):
        rep = verify_quotient_pullback(label)
        ok = ok and rep["ok"] and rep["residual_terms"] == 0
    ok = ok and verify_g2_intermediate()["ok"]
    g2 = verify_quotient_pullback("G2")
    ok = ok and g2["ok"] and g2["tier"] in ("exact-fit", "numeric")
    _report(11, "quotient pullbacks exact (G2 via fitted map)", ok,
            time.monotonic() - start, 300)


def test_criterion_12_singular_section_certificates():
    from mckaydeform.quotient import verify_singular_locus
    start = time.monotonic()
    ok = all(verify_singular_locus(label)["ok"]
             for label in ("B2", "B3", "C3", "G2", "F4"))
    _report(12, "everywhere-singular certificates (B2, B3, C3, G2, F4)", ok,
            time.monotonic() - start, 60)


def test_criterion_13_quotient_special_fibre_types():
    from mckaydeform.deform import analyze_hypersurface
    from mckaydeform.quotient import quotient_family
    start = time.monotonic()
    expect = {"B2": ("D4", 4), "C3": ("D6", 6), "G2": ("E7", 7),
              "F4": ("E7", 7)}
    ok = True
    for label, (ade, tau) in expect.items():
        qf = quotient_family(label)
        rep = analyze_hypersurface(qf.special_fibre(), qf.quotient_vars)
        ok = ok and rep.global_tjurina == tau
        ok = ok and [p.ade for p in rep.singular_points] == [ade]
    _report(13, "quotient special fibres: D4, D6, E7, E7", ok,
            time.monotonic() - start, 300)


def test_criterion_14_cartan_vector_example():
    start = time.monotonic()
    t = parse_type("A5")
    rs = build_root_system(t)
    h = tuple(QQ(v) for v in (1, 2, -3, -3, 2, 1))
    got = {tuple(int(c) for c in v) for v in vanishing_roots(rs, h)}
    ok = got == {(0, 0, 1, 0, 0), (0, 1, 1, 1, 0), (1, 1, 1, 1, 1)}
    avg = omega_average(rs, standard_omega(t, "z2"), h)
    ok = ok and avg == (0,) * 6
    _report(14, "vanishing roots and averaged Cartan vector", ok,
            time.monotonic() - start, 1)
