"""Command-line front end: every construction and verification as a check.

Reports are deterministic for fixed (command, flags, seed): checks are
sorted by name and the JSON payload is byte-stable (serialized with sorted
keys; the per-check runtime field is zeroed in JSON output and only shown
in the human-readable text rendering).

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error, 3 budget
exhausted (a reduction budget, or a group closure past its cap), 4 internal
mismatch (variable tables, dimensions or matrix shapes that the program
itself failed to match), 5 answer refused (a ``fiber analyze`` point of a
type outside ADE, typed "unclassified").

No verdict rests on a float: the quiver rows decide moment-map
equivariance as one identity on symbols and check exact rational fibre
points, whose residuals are reported as exact rationals.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache
from math import prod

from . import __version__
from .exact import ShapeMismatch, rat, scalar_to_json
from .poly import DEFAULT_BUDGET, BudgetExceeded, VariableMismatch
from .quiver import (exact_central, fibre_residual, invariants_at_point,
                     lambda_from_central, sample_moment_fibre)
from .rootdata import (ClosureBudgetExceeded, DimensionMismatch, DynkinType,
                       UnsupportedType, fold, parse_type, standard_omega,
                       vanishing_roots, omega_average, build_root_system)


class Check:
    def __init__(self, name, status, witness, runtime_ms):
        self.name = name
        self.status = status            # 'pass' | 'fail'
        self.witness = witness
        self.runtime_ms = runtime_ms

    @staticmethod
    def of(name, ok, witness=None, runtime_ms=0):
        return Check(name, "pass" if ok else "fail", witness, runtime_ms)


class RunReport:
    def __init__(self, command, checks, seed=None):
        self.command = command
        self.checks = sorted(checks, key=lambda c: c.name)
        self.seed = seed
        self.version = __version__
        self.error_code = None      # set when a check raised a mapped error

    @property
    def ok(self):
        return all(c.status != "fail" for c in self.checks)

    def to_json(self):
        return {
            "command": self.command,
            "checks": [{"name": c.name, "status": c.status,
                        "witness": c.witness, "runtime_ms": 0}
                       for c in self.checks],
            "seed": self.seed,
            "version": self.version,
        }

    def render_text(self):
        lines = [f"# {self.command} (v{self.version}"
                 + (f", seed {self.seed})" if self.seed is not None
                    else ")")]
        for c in self.checks:
            mark = {"pass": "ok  ", "fail": "FAIL"}
            line = f"[{mark[c.status]}] {c.name}"
            if c.runtime_ms:
                line += f"  ({c.runtime_ms} ms)"
            if c.status == "fail" and c.witness is not None:
                line += f"  witness: {json.dumps(c.witness, sort_keys=True)}"
            lines.append(line)
        passed = sum(1 for c in self.checks if c.status == "pass")
        lines.append(f"{passed}/{len(self.checks)} checks passed")
        return "\n".join(lines)


# -- command implementations --------------------------------------------------

def cmd_fold(args) -> RunReport:
    from .rootdata import cartan_matrix
    t = parse_type(args.type)
    omega = standard_omega(t, args.omega)
    folded = fold(t, omega)
    # one simple root of the folded system per Omega-orbit of vertices
    orbits = {frozenset(g(i) for g in omega) for i in range(1, t.rank + 1)}
    checks = [Check.of(
        f"fold_{t}_{args.omega}", folded.rank == len(orbits),
        {"folded": str(folded),
         "cartan": cartan_matrix(t),
         "omega_generators": sorted(
             list(g.vertex_perm) for g in omega
             if g.vertex_perm != tuple(range(1, t.rank + 1)))})]
    return RunReport(f"fold --type {t} --omega {args.omega}", checks)


def cmd_rootdata(args) -> RunReport:
    from .rootdata import (_positive_coeffs, cartan_matrix, coxeter_number,
                           extended_edges, mckay_dimension_vector)
    t = parse_type(args.type)
    checks = []
    # |Phi+| = rank * h / 2, both from the Cartan matrix alone
    count = len(_positive_coeffs(cartan_matrix(t)))
    checks.append(Check.of(
        f"positive_root_count_{t}", 2 * count == t.rank * coxeter_number(t),
        {"count": count}))
    if args.h:
        # the roots orthogonal to h need the ambient embedding
        rs = build_root_system(t)
        h = tuple(rat(v) for v in args.h.split(","))
        if len(h) != rs.ambient_dim:
            raise ValueError(f"--h needs {rs.ambient_dim} values for {t}, "
                             f"got {len(h)}")
        van = vanishing_roots(rs, h)
        avg = omega_average(rs, standard_omega(t, args.omega), h)
        # rebuilt from their simple-root coefficients, the returned roots
        # are exactly the positive roots orthogonal to h
        rebuilt = [tuple(sum(c * a[k] for c, a in zip(v, rs.simple_roots))
                         for k in range(rs.ambient_dim)) for v in van]
        zero = [a for a in rs.positive_roots
                if not sum(x * y for x, y in zip(a, h))]
        checks.append(Check.of(
            f"vanishing_roots_{t}",
            len(rebuilt) == len(zero) and all(a in rebuilt for a in zero),
            {"roots": [[str(c) for c in v] for v in van],
             "average": [scalar_to_json(c) for c in avg]}))
    if t.homogeneous:
        # the minimal imaginary root: 2 d_v is the sum of the neighbours' d
        d = mckay_dimension_vector(t)
        around = [0] * len(d)
        for i, j in extended_edges(t):
            around[i] += d[j]
            around[j] += d[i]
        checks.append(Check.of(
            f"dimension_vector_{t}",
            all(2 * dv == s for dv, s in zip(d, around)),
            {"d": list(d)}))
    return RunReport(f"rootdata --type {t}", checks)


def cmd_klein(args) -> RunReport:
    from .klein import klein_data, verify_invariance, verify_omega_action
    t = parse_type(args.type)
    kd = klein_data(t)
    checks = []
    inv = verify_invariance(kd)
    for c in inv["checks"]:
        checks.append(Check.of(f"klein_{kd.label}_{c['check']}", c["ok"]))
    act = verify_omega_action(kd)
    for c in act["checks"]:
        checks.append(Check.of(
            f"klein_{kd.label}_action_{c['generator']}_{c['polynomial']}",
            c["ok"]))
    checks.append(Check.of(
        f"klein_{kd.label}_gamma_order", kd.gamma.order() ==
        kd.gamma.order_expected, {"order": kd.gamma.order()}))
    return RunReport(f"klein verify --type {t}", checks)


def cmd_flat(args) -> RunReport:
    from .flat import (PQ_WEIGHTS, flat_coords_A, flat_coords_D,
                       flat_coords_E6, weighted_degrees)
    t = parse_type(args.type)
    if t.family == "A" and t.rank % 2 == 0:
        raise UnsupportedType(f"flat coordinates are built for A_(2r-1), "
                              f"not {t}")
    # each coordinate is weighted-homogeneous of its degree: eps_i has
    # degree i, x_2i degree 2i, the D_n coordinate psi degree n
    if t.family == "A":
        fs, check = flat_coords_A((t.rank + 1) // 2), f"flat_{t}_built"
        weights = tuple(range(2, t.rank + 2))
    elif t.family == "D":
        fs, check = flat_coords_D(t.rank - 1), f"flat_{t}_built"
        weights = tuple(range(2, 2 * t.rank - 1, 2)) + (t.rank,)
    elif t == DynkinType("E", 6):
        fs, check = flat_coords_E6(), "flat_E6_homogeneous"
        weights = PQ_WEIGHTS
    else:
        raise UnsupportedType(str(t))
    checks = [Check.of(
        check, all(weighted_degrees(p, weights) == {d}
                  for d, _, p in fs.coords),
        {"degrees": [d for d, _, _ in fs.coords]})]
    if t.family == "E" and args.full:
        checks.append(Check.of("flat_E6_frame_invariance",
                               _e6_frame_invariance(fs)))
    report = RunReport(f"flat --type {t}", checks)
    report.payload = {name: p.to_json() for _, name, p in fs.coords}
    return report


def _e6_frame_invariance(fs) -> bool:
    """The E6 flat coordinates are invariant under the Frame generators."""
    from .flat import (FRAME_GENERATOR_KEYS, frame_reflection_subs,
                       psi_E6_in_xy, verify_w_invariance)
    gens = [(str(k), frame_reflection_subs(k)) for k in FRAME_GENERATOR_KEYS]
    return verify_w_invariance(fs, gens, expand=psi_E6_in_xy())["ok"]


def cmd_quiver_verify(args) -> RunReport:
    from .quiver import (check_action_admissible, reference_action,
                         verify_moment_equivariance_numeric,
                         verify_symplectic_action)
    t = parse_type(args.type)
    gens = ((args.generator,) if args.generator != "all" else
            ("sigma", "rho") if t == DynkinType("D", 4) else ("sigma",))
    checks = []
    for gen in gens:
        act = reference_action(t, gen)
        adm = check_action_admissible(act)
        for row in adm["rows"]:
            checks.append(Check.of(
                f"{t}_{gen}_admissible[{row['condition']}]", row["ok"]))
        checks.append(Check.of(f"{t}_{gen}_symplectic",
                               verify_symplectic_action(act)))
        eq = verify_moment_equivariance_numeric(act)
        checks.append(Check.of(
            f"{t}_{gen}_moment_equivariance", eq["ok"],
            {"max_residual": scalar_to_json(eq["max_residual"])}))
    return RunReport(f"quiver verify-action --type {t}", checks)


def cmd_quiver_sample(args) -> RunReport:
    t = parse_type(args.type)
    central = [rat(v) for v in args.mu.split(",")]
    worst_fibre, worst_family = _mc_residuals(t, central, args.seed,
                                              args.trials)
    checks = [Check.of(f"{t}_moment_residual", worst_fibre == 0,
                       {"max": scalar_to_json(worst_fibre)}),
              Check.of(f"{t}_family_equation_residual", worst_family == 0,
                       {"max": scalar_to_json(worst_family)})]
    return RunReport(
        f"quiver sample --type {t} --mu {args.mu} --trials {args.trials}",
        checks, seed=args.seed)


def _mc_residuals(t, central, seed, trials) -> tuple:
    """(worst moment-map residual, worst family-equation residual) over
    ``trials`` exact fibre points drawn with seeds seed, seed + 1, ...;
    both are exact, and 0 when every point passes."""
    worst_fibre = worst_family = 0
    for k in range(trials):
        sample = sample_moment_fibre(t, central, seed=seed + k)
        worst_fibre = max(worst_fibre, fibre_residual(sample))
        worst_family = max(worst_family, _family_residual(
            t, central, *invariants_at_point(t, sample)))
    return worst_fibre, worst_family


def _family_residual(t, central, x, y, z):
    """|f(x, y, z)|, f the fibre of t's family over the central value; A1
    and the even-rank A_n, which have no flat system, take the fibre in
    the eps coordinates, prod(z - lambda_i) - xy."""
    if t.family == "A" and (t.rank == 1 or t.rank % 2 == 0):
        return abs(prod(z - v for v in lambda_from_central(central)) - x * y)
    f = _fibre(t, tuple(exact_central(central)))
    return abs(f.substitute({"x": x, "y": y, "z": z}).terms.get((), 0))


def _d4_family_residual(mu, x, y, z):
    """``_family_residual`` of D4 over the central value mu."""
    return _family_residual(DynkinType("D", 4), mu, x, y, z)


@lru_cache(maxsize=16)
def _fibre(t: DynkinType, central: tuple):
    """The fibre of t's family at t = psi(h): the flat coordinates at the
    point h the central value gives (eigenvalues lambda for A, the
    coweight coordinates xi of ``d4_xi_of_mu`` for D4)."""
    from .deform import d4_xi_of_mu, family
    from .flat import psi_A_in_lambda, psi_D_in_xi
    fam = family(str(t))
    if t.family == "A":
        h = {f"lam{i}": v for i, v in enumerate(lambda_from_central(central))}
        psis = psi_A_in_lambda((t.rank + 1) // 2)
    else:
        mu = {f"mu{i}": central[i] for i in range(1, 5)}
        h = {k: p.substitute(mu) for k, p in d4_xi_of_mu().items()}
        psis = psi_D_in_xi(3)
    # each t is a constant: an MPoly on no variables
    return fam.fibre_equation({"t" + name[3:]: p.substitute(h)
                               for name, p in psis.items()})


def cmd_family(args) -> RunReport:
    from .deform import (family, fixed_parameter_locus,
                         special_fibre_normal_form, verify_equivariance,
                         verify_parameter_actions)
    fam = family(args.label)
    checks = []
    eq = verify_equivariance(fam)
    for c in eq["checks"]:
        checks.append(Check.of(f"{fam.label}_{c['check']}", c["ok"]))
    pa = verify_parameter_actions(fam)
    for c in pa["checks"]:
        checks.append(Check.of(f"{fam.label}_base[{c['check']}]", c["ok"]))
    if fam.restricted or fam.label.startswith("A"):
        nf = special_fibre_normal_form(fam)
        checks.append(Check.of(f"{fam.label}_normal_form_relation",
                               nf["relation_match"]))
        checks.append(Check.of(f"{fam.label}_normal_form_action",
                               nf["action_match"]))
    report = RunReport(f"family --label {fam.label}", checks)
    if args.show:
        report.payload = {"equation": fam.equation.to_json(),
                          "fixed_locus": fixed_parameter_locus(fam)}
    return report


def cmd_fiber(args) -> RunReport:
    from .deform import analyze_fibre, family
    fam = family(args.label)
    values = {}
    if args.params:
        for item in args.params.split(","):
            k, v = (part.strip() for part in item.split("="))
            if k in values:
                raise ValueError(f"parameter {k} is given twice")
            values[k] = rat(v)
    rep = analyze_fibre(fam, values, budget=args.budget)
    unclassified = any(pt.ade == "unclassified" for pt in rep.singular_points)
    checks = [Check.of(
        f"fiber_{fam.label}_analyzed", not unclassified, rep.to_json())]
    report = RunReport(
        f"fiber analyze --label {fam.label} --params {args.params or ''}",
        checks)
    if unclassified:
        report.error_code = 5       # a type outside ADE refused
    return report


def cmd_quotient(args) -> RunReport:
    from .deform import analyze_hypersurface
    from .quotient import (discriminant_B2, non_semiuniversality_check,
                           quotient_family, verify_invariant_generators,
                           verify_quotient_pullback, verify_singular_locus)
    label = args.label.upper()
    checks = []
    if args.action == "verify":
        # the special fibre has one singular point, of the declared type
        qf = quotient_family(label)
        types = [p.ade for p in analyze_hypersurface(
            qf.special_fibre(), qf.quotient_vars).singular_points]
        checks.append(Check.of(
            f"{label}_special_fibre_type", types == [str(qf.target_ade)],
            {"target": str(qf.target_ade), "types": types}))
        gens = verify_invariant_generators(label)
        checks.append(Check.of(f"{label}_invariant_generators",
                               gens["ok"]))
        pull = verify_quotient_pullback(label)
        checks.append(Check.of(
            f"{label}_pullback", pull["ok"],
            {"map_status": pull["map_status"],
             "tier": pull["tier"]}))
        if label in ("B2", "C3", "G2"):
            loc = verify_singular_locus(label)
            checks.append(Check.of(f"{label}_singular_locus", loc["ok"]))
        nsu = non_semiuniversality_check(label)
        checks.append(Check.of(
            f"{label}_not_semiuniversal", nsu["ok"],
            {"base_dim": nsu["base_dim"], "target": nsu["target"]}))
    elif args.action == "discriminant":
        if label != "B2":
            raise UnsupportedType("discriminant is computed for B2")
        rep = discriminant_B2()
        checks.append(Check.of(
            "B2_discriminant", rep["ok"],
            {"conditions": [str(c) for c in rep["conditions"]]}))
    return RunReport(f"quotient {args.action} --label {label}", checks)


def cmd_suite(args) -> RunReport:
    """Run the suite's rows in order, each timed.

    A check that raises an error ``_exit_code`` maps fails with the error as
    its witness and the rest still run; the run then exits with the largest
    such code.  Any other error propagates.
    """
    checks, codes = [], []
    for name, fn, *fn_args in _suite_rows(args.name, args.seed):
        start = time.monotonic()
        try:
            ok, witness = fn(*fn_args)
        except Exception as exc:
            code = _exit_code(exc)
            if code is None:
                raise
            codes.append(code)
            ok, witness = False, {"error": f"{type(exc).__name__}: {exc}"}
        ms = int((time.monotonic() - start) * 1000)
        checks.append(Check.of(name, ok, witness, ms))
    report = RunReport(f"suite {args.name}", checks, seed=args.seed)
    report.error_code = max(codes, default=None)
    return report


def _suite_rows(name, seed) -> list:
    """The checks of ``suite name`` as (check name, function, *args) rows.

    Every function returns (ok, witness).  Building the rows computes
    nothing; each construction happens inside its own check.
    """
    from . import deform, klein, quiver, quotient
    from .flat import flat_coords_E6

    def ok(verifier, *args):
        return verifier(*args)["ok"], None

    def ok_on(verifier, build, arg):
        return verifier(build(arg))["ok"], None

    def klein_of(tname):
        return klein.klein_data(parse_type(tname))

    def folds_to(tname, om, want):
        t = parse_type(tname)
        folded = str(fold(t, standard_omega(t, om)))
        return folded == want, {"folded": folded}

    def symplectic(tname, gen, flip=None):
        # an action with one arrow's sign flipped must fail the identity
        act = quiver.reference_action(parse_type(tname), gen, flip=flip)
        return quiver.verify_symplectic_action(act) == (flip is None), None

    def e6_frame():
        return _e6_frame_invariance(flat_coords_E6()), None

    def mc_family(tname, central):
        worst = max(_mc_residuals(parse_type(tname), central, seed, 100))
        return worst == 0, {"max_residual": scalar_to_json(worst)}

    def mc_equivariance(tname, gen):
        act = quiver.reference_action(parse_type(tname), gen)
        return ok(quiver.verify_moment_equivariance_numeric, act, seed, 100)

    def per(kind, fn, *head, over):
        return [(f"{kind}[{x}]", fn, *head, x) for x in over]

    rows = [(f"fold[{t},{om}]", folds_to, t, om, want) for t, om, want in (
        ("A3", "z2", "B2"), ("A5", "z2", "B3"), ("A4", "z2", "B2"),
        ("A6", "z2", "C3"), ("D4", "z2", "C3"), ("D5", "z2", "C4"),
        ("E6", "z2", "F4"), ("D4", "s3", "G2"), ("D4", "z3", "G2"))]
    for t in ("A3", "A5", "D4", "D5", "E6"):
        rows += [(f"klein_invariance[{t}]", ok_on, klein.verify_invariance,
                  klein_of, t),
                 (f"klein_action[{t}]", ok_on, klein.verify_omega_action,
                  klein_of, t)]
    rows += per("family_equivariance", ok_on, deform.verify_equivariance,
                deform.family,
                over=("A3", "B2", "B3", "D4", "C3", "G2", "E6", "F4"))
    rows += per("normal_form", ok_on, deform.special_fibre_normal_form,
                deform.family, over=("B2", "B3", "C3", "G2", "F4"))
    rows.append(("d4_coefficients", ok, deform.verify_d4_coefficients))
    rows += [(f"symplectic[{t},{gen}]", symplectic, t, gen)
             for t, gen in (("A3", "sigma"), ("D4", "sigma"), ("D4", "rho"),
                            ("E6", "sigma"))]
    rows.append(("symplectic_perturbed_fails", symplectic, "A3", "sigma",
                 "a0"))
    rows += per("quotient_pullback", ok, quotient.verify_quotient_pullback,
                over=("B2", "C3", "F4"))
    rows += per("singular_locus", ok, quotient.verify_singular_locus,
                over=("B2", "C3", "G2"))
    rows.append(("discriminant_B2", ok, quotient.discriminant_B2))
    rows += per("non_semiuniversal", ok, quotient.non_semiuniversality_check,
                over=("B2", "C3", "G2", "F4"))
    rows.append(("quotient_generators[G2]", ok,
                 quotient.verify_invariant_generators, "G2"))
    if name == "smoke":
        return rows

    rows += [("e6_frame_invariance", e6_frame),
             ("e6_coefficients_weyl_invariant", ok,
              deform.verify_e6_coefficients),
             ("quotient_pullback[B3]", ok, quotient.verify_quotient_pullback,
              "B3"),
             ("g2_intermediate", ok, quotient.verify_g2_intermediate),
             ("g2_pullback", ok, quotient.verify_quotient_pullback, "G2")]
    rows += [(f"mc_fibres[{t}]", mc_family, t, central)
             for t, central in (("A3", [1.5, -0.5, 0.25, -1.25]),
                                ("A5", [0.5, -0.25, 0.75, -1.0, 0.25, -0.25]),
                                ("D4", [1, 1, -2, 1, 1]))]
    rows += [(f"mc_equivariance[{t},{gen}]", mc_equivariance, t, gen)
             for t, gen in (("A3", "sigma"), ("A5", "sigma"), ("D4", "sigma"),
                            ("D4", "rho"))]
    return rows


# -- argument parsing -----------------------------------------------------------

def _int_at_least(least):
    """An argparse type: an int no smaller than ``least``."""
    def count(text) -> int:
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {n}")
        return n
    return count


def build_parser():
    p = argparse.ArgumentParser(
        prog="mckaydeform",
        description="exact verification workbench for simple-singularity "
                    "deformations built from McKay quivers")
    sub = p.add_subparsers(dest="cmd", required=True)

    f = sub.add_parser("fold", help="fold a simply laced type")
    f.add_argument("--type", required=True)
    f.add_argument("--omega", default="z2",
                   choices=("trivial", "z2", "z3", "s3"))
    f.set_defaults(fn=cmd_fold)

    rd = sub.add_parser("rootdata", help="root system reports")
    rd.add_argument("--type", required=True)
    rd.add_argument("--h", default=None,
                    help="comma-separated Cartan vector")
    rd.add_argument("--omega", default="z2",
                    choices=("trivial", "z2", "z3", "s3"))
    rd.set_defaults(fn=cmd_rootdata)

    k = sub.add_parser("klein", help="Klein invariant verification")
    k.add_argument("action", choices=("verify",))
    k.add_argument("--type", required=True)
    k.set_defaults(fn=cmd_klein)

    fl = sub.add_parser("flat", help="flat coordinate systems")
    fl.add_argument("--type", required=True)
    fl.add_argument("--full", action="store_true",
                    help="include the E6 Frame-invariance verification")
    fl.set_defaults(fn=cmd_flat)

    q = sub.add_parser("quiver", help="McKay quiver checks")
    qs = q.add_subparsers(dest="quiver_cmd", required=True)
    qv = qs.add_parser("verify-action")
    qv.add_argument("--type", required=True)
    qv.add_argument("--generator", default="all",
                    choices=("all", "sigma", "rho"))
    qv.set_defaults(fn=cmd_quiver_verify)
    qp = qs.add_parser("sample")
    qp.add_argument("--type", required=True)
    qp.add_argument("--mu", required=True)
    qp.add_argument("--seed", type=int, default=0)
    qp.add_argument("--trials", type=_int_at_least(1), default=100)
    qp.set_defaults(fn=cmd_quiver_sample)

    fa = sub.add_parser("family", help="deformation families")
    fa.add_argument("--label", required=True)
    fa.add_argument("--show", action="store_true")
    fa.set_defaults(fn=cmd_family)

    fb = sub.add_parser("fiber", help="fibre singularity analysis")
    fb.add_argument("action", choices=("analyze",))
    fb.add_argument("--label", required=True)
    fb.add_argument("--params", default="")
    fb.add_argument("--budget", type=_int_at_least(0),
                    default=DEFAULT_BUDGET, help="reduction budget (steps)")
    fb.set_defaults(fn=cmd_fiber)

    qt = sub.add_parser("quotient", help="quotient family verification")
    qt.add_argument("action", choices=("verify", "discriminant"))
    qt.add_argument("--label", required=True)
    qt.set_defaults(fn=cmd_quotient)

    su = sub.add_parser("suite", help="bundled check suites")
    su.add_argument("name", choices=("smoke", "full"))
    su.add_argument("--seed", type=int, default=0)
    su.set_defaults(fn=cmd_suite)

    for parser in (f, rd, k, fl, qv, qp, fa, fb, qt, su):
        parser.add_argument("--out", default=None,
                            help="write the JSON report to this path")
    return p


def _exit_code(exc):
    """Exit code for an error a subcommand raised, or None to re-raise it.

    The first row whose kinds match wins: the internal mismatches are
    subclasses of ValueError and KeyError, so they precede the user errors.
    """
    for kinds, code in (((VariableMismatch, DimensionMismatch,
                          ShapeMismatch), 4),
                        ((BudgetExceeded, ClosureBudgetExceeded), 3),
                        ((ValueError, KeyError), 2)):
        if isinstance(exc, kinds):
            return code
    return None


def run(argv) -> tuple:
    """Parse and execute; returns (exit_code, RunReport | None)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (2 if exc.code not in (0, None) else 0), None
    try:
        report = args.fn(args)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code, None
    payload = report.to_json()
    if getattr(report, "payload", None) is not None:
        payload["payload"] = report.payload
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
    print(report.render_text())
    return report.error_code or (0 if report.ok else 1), report


def main():
    code, _ = run(sys.argv[1:])
    sys.exit(code)


if __name__ == "__main__":
    main()
