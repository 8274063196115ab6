"""One benchmark pass in a fresh interpreter.

Reads a JSON request on stdin and writes one JSON line on stdout.  In
``import`` mode it only times the import of the workload's modules; in
``pass`` mode it also runs every unit of the workload once, timing each,
and reports verdicts, outputs and the process's peak RSS.  With ``trace``
set, span wrappers from ``spans.py`` are installed before the first unit.

While a pass runs, ``SpeedSampler`` times a fixed reference computation
every 50 ms from a signal handler.  The CPUs of a shared virtual machine
drift in speed by +-20 % over seconds to minutes; ``run.py`` scales pass and
unit times by the reference's speed over the same interval (see there).

Run by ``run.py``; by hand: ``echo '{...}' | python3 bench/worker.py``.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

import workloads


# Fraction products summed into a dict by tuple keys: the instruction mix of
# MPoly.__mul__, in code the program cannot change.  About 0.6 ms.
_REFERENCE = [((i, j, k), Fraction(i + 1, j + 2))
              for i in range(2) for j in range(3) for k in range(2)]


class SpeedSampler:
    """Times the reference computation every ``every`` seconds of a pass."""

    def __init__(self, every=0.05):
        self.every = every
        self.samples = []       # (perf_counter at start, seconds taken)

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()            # the program's garbage is not ours to time
        t0 = time.perf_counter()
        out = {}
        for e1, c1 in _REFERENCE:
            for e2, c2 in _REFERENCE:
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, 0) + c1 * c2
        self.samples.append((t0, time.perf_counter() - t0))
        if collecting:
            gc.enable()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)    # at least one sample, however short


def _import_modules(workload):
    start = time.perf_counter()
    for name in workloads.MODULES[workload]:
        importlib.import_module(name)
    return time.perf_counter() - start


# -- e6_dense -----------------------------------------------------------------

def _e6_units(inputs):
    from mckaydeform import deform, flat
    state = {}

    def build_coords():
        state["fs"] = flat.flat_coords_E6()
        return None, len(state["fs"].coords)

    def build_xy():
        state["xy"] = flat.psi_E6_in_xy()
        return None, sum(len(p.terms) for p in state["xy"].values())

    def build_subs(gen):
        key = flat.FRAME_GENERATOR_KEYS[gen]
        state[gen] = (str(key), flat.frame_reflection_subs(key))
        return None, len(state[gen][1])

    def frame_check(gen, coord):
        fs = state["fs"]
        one = [c for c in fs.coords if c[1] == coord]
        system = flat.FlatSystem(fs.dtype, fs.coxeter_number, one,
                                 fs.natural_vars)
        rep = flat.verify_w_invariance(system, [state[gen]],
                                       expand=state["xy"])
        return rep["ok"], len(rep["checks"])

    def perturbed_check():
        spec = inputs["perturbed"]
        key = flat.FRAME_GENERATOR_KEYS[spec["generator"]]
        subs = dict(flat.frame_reflection_subs(key))
        a, b = spec["shear"]
        subs[a] = subs[a] + flat.MPoly.variable(flat.XY_VARS, b)
        rep = flat.verify_w_invariance(state["fs"], [(str(key), subs)],
                                       expand=state["xy"])
        return rep["ok"], len(rep["checks"])

    def coefficient_check():
        rep = deform.verify_e6_coefficients()
        return rep["ok"], len(rep["checks"])

    units = [("flat_coords_E6", build_coords), ("psi_E6_in_xy", build_xy)]
    for gen in inputs["frame_order"]:
        units.append((f"frame_subs[{gen}]", lambda g=gen: build_subs(g)))
        for coord in inputs["coord_order"]:
            units.append((f"frame[{gen},{coord}]",
                          lambda g=gen, c=coord: frame_check(g, c)))
    units.append(("frame_perturbed", perturbed_check))
    units.append(("e6_coefficients", coefficient_check))
    return units


def _e6_extras():
    from mckaydeform import deform
    coeffs = deform.e6_flat_coefficients()
    return {"flat_coefficients": {k: v.to_json()
                                  for k, v in sorted(coeffs.items())}}


# -- ideal_scan ---------------------------------------------------------------

def _ideal_units(inputs):
    from mckaydeform import deform, poly, quotient
    from mckaydeform.exact import rat
    V = poly.VarTable(("x", "y", "z"))
    cache = {}

    def gb(gens):
        polys = [poly.MPoly(V, {tuple(e): rat(c) for e, c in g})
                 for g in gens]
        ideal = poly.Ideal(polys)
        basis = [sorted([list(e), str(c)] for e, c in g.terms.items())
                 for g in ideal.groebner_basis()]
        return None, {"basis": sorted(basis),
                      "dim": ideal.quotient_dimension()}

    def build(kind):
        if kind == "B2q":
            cache[kind] = quotient.quotient_family("B2")
        else:
            cache[kind] = deform.family(kind)
        return None, None

    def fibre(kind, params):
        values = {v: rat(q) for v, q in params.items()}
        if kind == "B2q":
            f = cache[kind].equation.substitute(values)
            rep = deform.analyze_hypersurface(f, ("X", "Z", "W"))
        else:
            rep = deform.analyze_fibre(cache[kind], values)
        return None, rep.to_json()

    units = []
    for u in inputs["units"]:
        if "gens" in u:
            units.append((u["id"], lambda u=u: gb(u["gens"])))
        elif "build" in u:
            units.append((u["id"], lambda u=u: build(u["build"])))
        else:
            units.append((u["id"],
                          lambda u=u: fibre(u["kind"], u["params"])))
    return units


# -- smoke_mix ----------------------------------------------------------------

def _smoke_units(inputs):
    import numpy as np
    from mckaydeform import cli, deform, klein, quiver, quotient, rootdata
    parse = rootdata.parse_type
    seed = inputs["mc_seed"]
    kd_cache = {}

    def kd(t):
        if t not in kd_cache:
            kd_cache[t] = klein.klein_data(parse(t))
        return kd_cache[t]

    def mc_family(tname, central):
        # suite full's mc_fibres check
        t = parse(tname)
        worst = 0.0
        for k in range(100):
            s = quiver.sample_moment_fibre(t, central, seed=seed + k)
            worst = max(worst, quiver.fibre_residual(s))
            x, y, z = quiver.invariants_at_point(t, s)
            if t.family == "A":
                lam = quiver.lambda_from_central(central)
                val = abs(np.prod([z - v for v in lam]) - x * y)
                worst = max(worst, val / max(abs(x * y), 1.0))
            else:
                worst = max(worst,
                            cli._d4_family_residual(central, x, y, z))
        return worst < 1e-8

    def args(name):
        return name[name.index("[") + 1:-1].split(",")

    def check(name):
        kind = name.split("[")[0]
        if kind == "fold":
            t, om = args(name)
            t = parse(t)
            got = str(rootdata.fold(t, rootdata.standard_omega(t, om)))
            return got == workloads.FOLD_EXPECTED[name]
        if kind == "klein_invariance":
            return klein.verify_invariance(kd(args(name)[0]))["ok"]
        if kind == "klein_action":
            return klein.verify_omega_action(kd(args(name)[0]))["ok"]
        if kind == "family_equivariance":
            fam = deform.family(args(name)[0])
            return deform.verify_equivariance(fam)["ok"]
        if kind == "normal_form":
            fam = deform.family(args(name)[0])
            return deform.special_fibre_normal_form(fam)["ok"]
        if kind == "d4_coefficients":
            return deform.verify_d4_coefficients()["ok"]
        if kind == "symplectic":
            t, gen, *flip = args(name)
            flip = flip[0].split("=")[1] if flip else None
            act = quiver.reference_action(parse(t), gen, flip=flip)
            return quiver.verify_symplectic_action(act)
        if kind == "quotient_pullback":
            return quotient.verify_quotient_pullback(args(name)[0])["ok"]
        if kind == "singular_locus":
            return quotient.verify_singular_locus(args(name)[0])["ok"]
        if kind == "discriminant_B2":
            return quotient.discriminant_B2()["ok"]
        if kind == "non_semiuniversal":
            return quotient.non_semiuniversality_check(args(name)[0])["ok"]
        if kind == "quotient_generators":
            return quotient.verify_invariant_generators(
                args(name)[0])["ok"]
        if kind == "mc_fibres":
            central = {"A3": [1.5, -0.5, 0.25, -1.25],
                       "A5": [0.5, -0.25, 0.75, -1.0, 0.25, -0.25],
                       "D4": [1, 1, -2, 1, 1]}[args(name)[0]]
            return mc_family(args(name)[0], central)
        if kind == "mc_equivariance":
            t, gen = args(name)
            act = quiver.reference_action(parse(t), gen)
            return quiver.verify_moment_equivariance_numeric(
                act, seed=seed, trials=100)["ok"]
        raise KeyError(name)

    return [(name, lambda name=name: (check(name), None))
            for name in inputs["order"]]


_UNITS = {"e6_dense": _e6_units, "ideal_scan": _ideal_units,
          "smoke_mix": _smoke_units}
_EXTRAS = {"e6_dense": _e6_extras}


def _run_unit(fn):
    """(verdict, output, error) of one unit; errors are returned."""
    from mckaydeform.poly import BudgetExceeded
    try:
        verdict, output = fn()
        # numpy comparisons give numpy booleans
        return (None if verdict is None else bool(verdict)), output, None
    except BudgetExceeded:
        return None, None, "budget exhausted"
    except Exception:  # a raising unit is a failed unit, the pass goes on
        return None, None, traceback.format_exc(limit=3)


def run_pass(request):
    workload = request["workload"]
    import_s = _import_modules(workload)
    recorder = None
    if request.get("trace"):
        import spans as tracing
        recorder = tracing.Recorder(request["pass_id"])
        tracing.install(recorder)
    plan = _UNITS[workload](request["inputs"])
    units = []
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        for uid, fn in plan:
            span = recorder.open(tracing.UNIT) if recorder else None
            t0 = time.perf_counter()
            verdict, output, error = _run_unit(fn)
            t1 = time.perf_counter()
            if recorder:
                recorder.close(span)
            units.append({"id": uid, "start_s": t0 - start,
                          "ms": (t1 - t0) * 1000, "verdict": verdict,
                          "output": output, "error": error})
        verdict_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"import_s": import_s, "verdict_s": verdict_s,
              "peak_rss_mb": rss_mb, "units": units,
              "speed_samples": [(t - start, d) for t, d in sampler.samples]}
    if recorder:
        result["layers"] = recorder.metrics(workload)
        tracing.uninstall(recorder)
    if workload in _EXTRAS:
        result["extras"] = _EXTRAS[workload]()
    return result


def main():
    request = json.load(sys.stdin)
    if request["mode"] == "import":
        with SpeedSampler(every=0.02) as sampler:
            import_s = _import_modules(request["workload"])
        from mckaydeform.exact import QQ
        import mckaydeform
        result = {"import_s": import_s,
                  "speed_samples": [(0.0, d) for _, d in sampler.samples],
                  "qq": f"{QQ.__module__}.{QQ.__qualname__}",
                  "package": mckaydeform.__file__}
    else:
        result = run_pass(request)
    sys.stdout.write("\n" + json.dumps(result, default=_jsonable) + "\n")


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"not JSON serializable: {x!r}")


if __name__ == "__main__":
    main()
