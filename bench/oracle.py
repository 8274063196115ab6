"""Reference checks that do not use the code under test.

``references`` computes what the program's outputs should be (sympy's
reduced grevlex bases, the committed E6 golden table); ``score`` compares one
pass's unit results with them and with the expected verdicts in
``workloads``.  Both run in the orchestrating process, after the passes and
outside every timed region and every measured process.
"""

from __future__ import annotations

import cmath
import itertools
import json
from fractions import Fraction
from pathlib import Path

import workloads

GOLDEN = Path("tests") / "golden_e6_coefficients.json"
POINT_TOL = 1e-6


def references(workload, inputs, root):
    if workload == "e6_dense":
        return {"golden": json.loads((root / GOLDEN).read_text())}
    if workload == "ideal_scan":
        return {"ideals": {u["id"]: sympy_basis(u["gens"])
                           for u in inputs["units"] if "gens" in u}}
    return {}


# -- ideals ------------------------------------------------------------------

def sympy_basis(gens):
    """Monic reduced grevlex basis and quotient dimension, from sympy."""
    import sympy as sp
    x, y, z = sp.symbols("x y z")
    polys = [sp.Poly(sum(sp.Rational(c) * x ** e[0] * y ** e[1] * z ** e[2]
                         for e, c in g), x, y, z) for g in gens]
    G = sp.groebner(polys, x, y, z, order="grevlex")
    basis, leads = [], []
    for g in G.polys:
        terms = g.terms(order="grevlex")
        lc = terms[0][1]
        leads.append(terms[0][0])
        basis.append(sorted([list(e), str(Fraction(int((c / lc).p),
                                                   int((c / lc).q)))]
                            for e, c in terms))
    return {"basis": sorted(basis), "dim": staircase_size(leads)}


def staircase_size(leads):
    """Standard monomials outside the monomial ideal of ``leads``."""
    if any(not any(e) for e in leads):
        return 0
    bounds = [None] * 3
    for e in leads:
        support = [i for i in range(3) if e[i]]
        if len(support) == 1:
            i = support[0]
            bounds[i] = e[i] if bounds[i] is None else min(bounds[i], e[i])
    if None in bounds:
        return "infinite"
    return sum(1 for m in itertools.product(*(range(b) for b in bounds))
               if not any(all(a <= b for a, b in zip(e, m)) for e in leads))


# -- fibres -------------------------------------------------------------------

def expected_points(unit):
    """Singular points the paper's formulas place on this fibre."""
    p = {v: Fraction(q) for v, q in unit["params"].items()}
    if unit["kind"] == "B2q":
        # the B2 quotient is singular along (2s, 0, 0) with s^2 = f4
        s = cmath.sqrt(complex(p["t4"] + p["t2"] ** 2 / 8))
        return [(2 * s, 0, 0), (-2 * s, 0, 0)]
    if unit["branch"] == "f4=0":
        return [(0, 0, 0)]
    if unit["branch"] == "f2^2=4f4":
        s = cmath.sqrt(complex(-p["t2"] / 2))
        return [(0, 0, s), (0, 0, -s)]
    return []


def check_fibre(unit, report):
    """Problems with one fibre report, as a list of strings."""
    points = report["points"]
    problems = []
    if report["smooth"]:
        if points or report["global_tjurina"] != 0:
            problems.append("smooth fibre with singular points")
    elif sum(pt["tjurina"] for pt in points) != report["global_tjurina"]:
        problems.append("local Tjurina numbers do not add up to the global")
    want = expected_points(unit)
    if want and report["smooth"]:
        problems.append("fibre on a singular locus reported smooth")
    for w in want:
        if not any(all(abs(complex(*c) - complex(v)) < POINT_TOL
                       for c, v in zip(pt["coords_numeric"], w))
                   for pt in points):
            problems.append(f"expected singular point {w} missing")
    return problems


# -- scoring -----------------------------------------------------------------

def score(workload, inputs, units, refs, extras=None):
    """(failed unit ids with reasons, failed reference checks)."""
    failed = {}
    by_id = {u["id"]: u for u in inputs.get("units", [])}
    for u in units:
        if u["error"] is not None:
            failed[u["id"]] = u["error"].strip().splitlines()[-1]
            continue
        problem = _unit_problem(workload, u, by_id, refs)
        if problem:
            failed[u["id"]] = problem
    expected = expected_ids(workload, inputs)
    seen = [u["id"] for u in units]
    global_problems = []
    if seen != expected:
        global_problems.append("units run differ from the units planned")
    if workload == "e6_dense":
        got = (extras or {}).get("flat_coefficients")
        if json.loads(json.dumps(got)) != refs["golden"]:
            global_problems.append(
                "e6_flat_coefficients() differs from the golden table")
    return failed, global_problems


def _unit_problem(workload, u, by_id, refs):
    uid = u["id"]
    if workload == "e6_dense":
        if uid in ("flat_coords_E6", "psi_E6_in_xy") or \
                uid.startswith("frame_subs"):
            return None
        if uid == "frame_perturbed":
            return ("perturbed generator reported invariant"
                    if u["verdict"] is not False else None)
        if u["verdict"] is not True:
            return "invariance not verified"
        if uid == "e6_coefficients" and \
                u["output"] != workloads.E6_COEFFICIENT_CHECKS:
            return f"{u['output']} coefficient checks, not 36"
        return None
    if workload == "smoke_mix":
        want = workloads.SMOKE_EXPECTED[uid]
        return None if u["verdict"] is want else \
            f"verdict {u['verdict']}, expected {want}"
    if uid.startswith("build"):
        return None
    if uid in refs["ideals"]:
        ref = refs["ideals"][uid]
        if u["output"]["basis"] != ref["basis"]:
            return "Groebner basis differs from sympy"
        if u["output"]["dim"] != ref["dim"]:
            return f"quotient dimension {u['output']['dim']} != {ref['dim']}"
        return None
    problems = check_fibre(by_id[uid], u["output"])
    return "; ".join(problems) or None


def expected_ids(workload, inputs):
    if workload == "e6_dense":
        ids = ["flat_coords_E6", "psi_E6_in_xy"]
        for g in inputs["frame_order"]:
            ids += [f"frame_subs[{g}]"]
            ids += [f"frame[{g},{c}]" for c in inputs["coord_order"]]
        return ids + ["frame_perturbed", "e6_coefficients"]
    if workload == "smoke_mix":
        return list(inputs["order"])
    return [u["id"] for u in inputs["units"]]


def exact_points(units):
    """(exact singular points, singular points) over the fibre units."""
    exact = total = 0
    for u in units:
        if u["error"] is None and isinstance(u["output"], dict) \
                and "points" in u["output"]:
            total += len(u["output"]["points"])
            exact += sum(pt["exact"] for pt in u["output"]["points"])
    return exact, total
