"""Checks on the package's source, not its mathematics.

``bench/spans.py`` names each traced layer by module and attribute path; a
renamed or deleted function would break a traced run (``bench/run.py
--trace 1``), so every name is checked against the package, as is every
package name the benchmark's worker and tracer read.  Two work counts
guard which substitutions run as Horner levels, one that ``Cyclo``
sums and products stay on integer coordinates, one that the
moment-fibre sampler, its residual and rational ``rref`` run no
``Fraction`` arithmetic, and one that the reflection checks of the E6
and D4 rows run no ``Fraction`` arithmetic and no substitution.  And no
function, class or method in ``src/`` may exist only for the tests, no
parameter default may be one that every call leaves alone, the exact
modules hold no float constant, ``deform`` reads family label text in
its table of restrictions alone, and no module reads another module's
private name outside the few listed with their reasons.
"""

import ast
import importlib
import importlib.util
import pathlib
import re
from collections import Counter

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _bench(monkeypatch, stem):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(stem, BENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_in_src(monkeypatch):
    layers = _bench(monkeypatch, "spans").LAYERS
    assert layers
    for layer in layers:
        module = importlib.import_module(layer.module)
        assert SRC in pathlib.Path(module.__file__).resolve().parents, \
            layer.module
        *owner_path, attr = layer.path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part)
        # the tracer reads a method from the class's own dict
        found = owner.__dict__.get(attr) if owner_path else getattr(
            owner, attr, None)
        assert callable(found), f"{layer.metric}: {layer.module}.{layer.path}"


@pytest.mark.parametrize("workload", ["e6_dense", "ideal_scan",
                                      "smoke_mix"])
def test_every_required_layer_fires_in_one_pass(monkeypatch, workload):
    # one pass of the workload's units in process, traced as bench/run.py
    # --trace 1 traces it: a layer that must fire on the workload and
    # records no call fails here before it fails the traced benchmark
    spans = _bench(monkeypatch, "spans")
    worker = _bench(monkeypatch, "worker")
    inputs = _bench(monkeypatch, "workloads").make_inputs(workload, 1)
    recorder = spans.Recorder(0)
    spans.install(recorder)
    try:
        errors = [worker._run_unit(fn)[2]
                  for _, fn in worker._UNITS[workload](inputs)]
    finally:
        spans.uninstall(recorder)
    assert errors == [None] * len(errors)
    assert recorder.metrics(workload)["silent"] == []
    if workload == "e6_dense":
        calls, _ = recorder.self_times()
        for metric in ("flat.psi_E6_of_mu", "deform.e6_mu_coefficients",
                       "deform.verify_e6_coefficients"):
            assert calls[spans._index(metric)] == 1, metric


def _coefficient_products(monkeypatch, fn):
    """The coefficient products ``poly._mul_packed`` forms while fn runs."""
    from mckaydeform import poly
    count = [0]
    mul_packed = poly._mul_packed

    def counted(a, b):
        count[0] += len(a) * len(b)
        return mul_packed(a, b)

    with monkeypatch.context() as m:
        m.setattr(poly, "_mul_packed", counted)
        fn()
    return count[0]


def test_dense_bindings_go_to_horner_and_frame_bindings_do_not(monkeypatch):
    # work counts, no timing.  The E6 rows reach mu through Horner levels:
    # 338,475 coefficient products, against 605,316 on the pattern products
    # with p2 and q2 bound in a second stage.  The 42 Frame checks, whose
    # bindings have at most 3 terms, stay on the pattern products: 9,910,
    # composing the six coordinates with (p, q)(x, y) once per process
    # (107,977 when every check was substituted, against 129,678 with the
    # 3-term bindings and 225,209 with every multi-term binding as Horner
    # levels).
    from mckaydeform import deform, flat
    fs, xy = flat.flat_coords_E6(), flat.psi_E6_in_xy()
    gens = [(str(k), flat.frame_reflection_subs(k))
            for k in flat.FRAME_GENERATOR_KEYS]
    sheared = dict(flat.frame_reflection_subs((1, 0, 0)))
    sheared["y1"] = sheared["y1"] + flat.MPoly.variable(flat.XY_VARS, "x1")
    gens.append(("sheared", sheared))
    assert _coefficient_products(
        monkeypatch, deform.e6_mu_coefficients) <= 345_000
    assert _coefficient_products(
        monkeypatch,
        lambda: flat.verify_w_invariance(fs, gens, expand=xy)) <= 9_910


def test_frame_checks_substitute_no_generator_into_a_coordinate(
        monkeypatch):
    # the 36 genuine checks substitute each generator into the natural
    # variables p_i, q_i alone: five fix all six and pass on p and q, and
    # (3, 3, 3), which moves p1 first, binds one variable of each
    # coordinate to its mirror chart
    from mckaydeform import flat
    from mckaydeform.poly import MPoly
    fs, xy = flat.flat_coords_E6(), flat.psi_E6_in_xy()
    gens = [(str(k), flat.frame_reflection_subs(k))
            for k in flat.FRAME_GENERATOR_KEYS]
    natural = flat._pq_route()[0]
    calls, substitute = [], MPoly.substitute

    def traced(self, bindings):
        calls.append((any(self is n for n in natural), len(bindings)))
        return substitute(self, bindings)

    monkeypatch.setattr(MPoly, "substitute", traced)
    assert flat.verify_w_invariance(fs, gens, expand=xy)["ok"]
    assert sorted(calls) == [(False, 1)] * 6 + [(True, 7)] * 31


def test_cyclo_sum_and_product_build_no_rational(monkeypatch):
    # work count, no timing: Cyclo holds int coordinates over one
    # denominator, so a product and a sum of two dense Q(zeta_24) elements
    # construct no QQ; on rational coordinates the product alone builds
    # one per coordinate product and per reduction step
    from mckaydeform import exact
    a = exact.Cyclo(24, [exact.QQ(2 * k - 7, k + 1) for k in range(8)])
    b = exact.Cyclo(24, [exact.QQ(5 - 2 * k, 3) for k in range(8)])
    built = [0]
    qq = exact.QQ

    def counted(*args):
        built[0] += 1
        return qq(*args)

    with monkeypatch.context() as m:
        m.setattr(exact, "QQ", counted)
        product, total = a * b, a + b
    assert built[0] == 0
    za, zb = exact.embed_complex(a), exact.embed_complex(b)
    assert abs(exact.embed_complex(product) - za * zb) < 1e-9
    assert abs(exact.embed_complex(total) - (za + zb)) < 1e-12


_FRACTION_OPS = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                 "__rsub__", "__truediv__", "__rtruediv__", "__neg__",
                 "__pow__", "__rpow__")


def _fraction_ops(monkeypatch, call):
    """How many ``Fraction`` arithmetic operations ``call()`` runs, counted
    by wrapping the operators on the class."""
    from fractions import Fraction
    ops = [0]

    def counted(op):
        def run(*args):
            ops[0] += 1
            return op(*args)
        return run
    with monkeypatch.context() as m:
        for name in _FRACTION_OPS:
            m.setattr(Fraction, name, counted(getattr(Fraction, name)))
        call()
    return ops[0]


def test_moment_fibre_points_and_rational_rref_run_on_ints(monkeypatch):
    # work count, no timing: the sampler, the exact residual, the
    # invariants and rref read rationals as int numerators over one
    # denominator; the field versions ran 137 (D4 sample), 50 (D4
    # residual), 30 (A5 residual), 46 (D4 invariants), 25 (A5 invariants)
    # and 78 (3 x 5 rref) Fraction operations.  A repeated central value
    # is read from the memo (test_quiver counts its conversions)
    from mckaydeform import exact, quiver
    from mckaydeform.rootdata import DynkinType
    QQ = exact.QQ
    d4, mu = DynkinType("D", 4), [1, 1, -2, 1, 1]
    a5, mu5 = DynkinType("A", 5), [0.5, -0.25, 0.75, -1.0, 0.25, -0.25]
    s4 = quiver.sample_moment_fibre(d4, mu, seed=0)
    s4g = quiver.sample_moment_fibre(d4, ["1/3", "2/5", -1, "1/2", "23/30"],
                                     seed=0)
    s5 = quiver.sample_moment_fibre(a5, mu5, seed=0)
    rows = [[QQ(1, 2), QQ(-2, 3), QQ(3), QQ(1, 5), QQ(7)],
            [QQ(2), QQ(1, 3), QQ(-1, 4), QQ(5), QQ(-1)],
            [QQ(-3, 7), QQ(4), QQ(1), QQ(2, 3), QQ(1, 2)]]
    calls = (lambda: quiver.sample_moment_fibre(d4, mu, seed=1),
             lambda: quiver.fibre_residual(s4),
             lambda: quiver.fibre_residual(s5),
             lambda: quiver.invariants_at_point(d4, s4),
             lambda: quiver.invariants_at_point(d4, s4g),
             lambda: quiver.invariants_at_point(a5, s5),
             lambda: quiver.exact_central(mu5),
             lambda: exact.rref(rows, 4))
    assert [_fraction_ops(monkeypatch, c) for c in calls] == [0] * 8
    assert quiver.fibre_residual(s4) == quiver.fibre_residual(s5) == 0
    assert exact.rref(rows, 4) == ([
        [1, 0, 0, QQ(39718, 16605), QQ(-35, 246)],
        [0, 1, 0, QQ(2653, 5535), QQ(-149, 328)],
        [0, 0, 1, QQ(-416, 1845), QQ(185, 82)]], [0, 1, 2])


def test_reflection_checks_run_on_ints_and_substitute_nothing(monkeypatch):
    # work count, no timing: the mirror test reads the E6 and D4 rows as
    # int numerators, and substitutes only past the packed field (degree
    # 256), which no row reaches
    from mckaydeform import deform
    from mckaydeform.poly import MPoly
    from mckaydeform.rootdata import DynkinType
    cases = ((DynkinType("E", 6), deform.MU_VARS.names,
              deform.e6_mu_coefficients()),
             (DynkinType("D", 4), deform.D4_MU.names,
              deform.d4_mu_coefficients()))

    def refuse(*args):
        raise AssertionError("substituted")

    monkeypatch.setattr(MPoly, "substitute", refuse)
    for t, names, rows in cases:
        checks = []
        assert _fraction_ops(monkeypatch, lambda: checks.extend(
            deform._reflection_checks(t, names, rows))) == 0
        assert len(checks) == t.rank * len(rows)
        assert all(c["ok"] for c in checks)

def _package_names(tree):
    """Dotted names a module reads from ``mckaydeform``: the names it
    imports from a submodule, and every attribute chain on a module it
    imports from the package."""
    modules, names = {}, set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.module or "").split(
                ".")[0] == "mckaydeform":
            for a in n.names:
                if n.module == "mckaydeform":
                    modules[a.asname or a.name] = f"mckaydeform.{a.name}"
                else:
                    names.add(f"{n.module}.{a.name}")
        elif isinstance(n, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in n.names
                           if a.name.split(".")[0] == "mckaydeform")
    for n in ast.walk(tree):
        parts = []
        while isinstance(n, ast.Attribute):
            parts.append(n.attr)
            n = n.value
        if parts and isinstance(n, ast.Name) and n.id in modules:
            names.add(".".join([modules[n.id]] + parts[::-1]))
    return names


def test_every_package_name_the_benchmark_reads_resolves_in_src():
    names = set()
    for stem in ("worker", "spans"):
        names |= _package_names(ast.parse((BENCH / f"{stem}.py").read_text()))
    assert {"mckaydeform.cli._d4_family_residual",
            "mckaydeform.quiver.lambda_from_central",
            "mckaydeform.flat.FRAME_GENERATOR_KEYS"} <= names
    missing = []
    for name in sorted(names):
        module, *path = name.split(".")
        owner = importlib.import_module(module)
        assert SRC in pathlib.Path(owner.__file__).resolve().parents
        for part in path:
            if getattr(owner, part, None) is None and hasattr(
                    owner, "__path__"):     # a submodule not yet imported
                importlib.import_module(f"{owner.__name__}.{part}")
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(name)
    assert not missing, missing


# Names kept although only tests reach them, each with its reason.
TEST_ONLY_ALLOWED = {}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _references(tree) -> Counter:
    """Identifiers a tree names: variables, attributes, imports, and
    dotted-path strings such as the tracer's ``"MPoly.substitute"``.
    Docstrings are prose and do not count."""
    docs = {id(n.body[0].value) for n in ast.walk(tree)
            if isinstance(n, _DEFS + (ast.Module,)) and n.body
            and isinstance(n.body[0], ast.Expr)
            and isinstance(n.body[0].value, ast.Constant)}
    out = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rsplit(".", 1)[-1]] += 1
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and id(n) not in docs and _DOTTED.fullmatch(n.value)):
            out.update(n.value.split("."))
    return out


def test_no_test_only_code_in_src():
    package = SRC / "mckaydeform"
    trees = {path: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py")) + sorted(
                 BENCH.glob("*.py"))}
    named = sum((_references(t) for t in trees.values()), Counter())
    unreached = []
    for path, tree in trees.items():
        if package not in path.parents:
            continue
        for node in ast.walk(tree):
            if (not isinstance(node, _DEFS) or node.name in TEST_ONLY_ALLOWED
                    or (node.name.startswith("__")
                        and node.name.endswith("__"))):
                continue
            # a recursive call inside its own body does not count
            if named[node.name] <= _references(node)[node.name]:
                unreached.append(f"{path.stem}.{node.name}:{node.lineno}")
    assert not unreached, unreached


def test_no_unused_imports_in_src():
    # every name a module of the package imports is used in that module
    unused = []
    for path in sorted((SRC / "mckaydeform").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.stem}.{name}:{line}"
                   for name, line in imported.items() if name not in used]
    assert not unused, unused


def test_exact_modules_have_no_float_literal():
    # these modules build and decide exact answers: a float or complex
    # constant there is a tolerance or a weight that decides by rounding
    found = []
    for stem in ("deform", "quotient", "flat", "klein", "rootdata", "quiver"):
        tree = ast.parse((SRC / "mckaydeform" / f"{stem}.py").read_text())
        found += [f"{stem}:{n.lineno} {n.value!r}" for n in ast.walk(tree)
                  if isinstance(n, ast.Constant)
                  and isinstance(n.value, (float, complex))]
    assert not found, found


def test_deform_reads_no_family_label_outside_family():
    # which family restricts which is stated once, as the (base,
    # generators) rows of deform._family; everything else reads fam.base,
    # and no code compares, indexes or slices label text
    tree = ast.parse((SRC / "mckaydeform" / "deform.py").read_text())
    table = next(n for n in tree.body
                 if isinstance(n, ast.FunctionDef) and n.name == "_family")
    inside = {id(n) for n in ast.walk(table)}

    def is_label(n):
        return (isinstance(n, ast.Name) and n.id == "label"
                or isinstance(n, ast.Attribute) and n.attr == "label")

    found = []
    for n in ast.walk(tree):
        if id(n) in inside:
            continue
        if isinstance(n, ast.Compare):
            operands = [n.left, *n.comparators]
        elif isinstance(n, ast.Subscript):
            operands = [n.value]
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            operands = [n.func.value]       # label.startswith(...), say
        else:
            continue
        found += [f"deform:{n.lineno}" for _ in filter(is_label, operands)]
    assert not found, found


# Private names one module of the package reads from another, each with
# its reason; the coweight chart, say, is read as rootdata.cartan_point.
PRIVATE_IMPORTS_ALLOWED = {
    ("cli", "rootdata._positive_coeffs"):
        "rootdata --type counts the positive roots of E7 and E8, which "
        "have no embedded model, from the Cartan matrix alone",
    ("flat", "poly._packed_of"):
        "_over_sqrt3 lifts a rational coordinate on its packed form",
    ("flat", "poly._packed_poly"):
        "_over_sqrt3 lifts a rational coordinate on its packed form",
    ("flat", "rootdata._frame_normal"):
        "the Frame reflections are built on the normals that give the E6 "
        "simple roots",
    ("quotient", "deform._fresh"):
        "quotient_family hands out copies of its source family as family "
        "does",
    ("quotient", "deform._full_subs"):
        "the invariant-generator check completes a generator's "
        "substitution as the equivariance check does",
}


def test_no_module_reads_another_modules_private_name():
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    found = set()
    for path in sorted((SRC / "mckaydeform").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.level == 1:
                if n.module is None:        # from . import quiver
                    modules |= {a.asname or a.name for a in n.names}
                else:
                    found |= {(path.stem, f"{n.module}.{a.name}")
                              for a in n.names if private(a.name)}
        found |= {(path.stem, f"{n.value.id}.{n.attr}")
                  for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                  and isinstance(n.value, ast.Name) and n.value.id in modules
                  and private(n.attr)}
    assert found == set(PRIVATE_IMPORTS_ALLOWED)


def test_only_deform_imports_numpy():
    # numpy only proposes root candidates in deform; every other module
    # computes exactly
    importers = set()
    for path in sorted((SRC / "mckaydeform").glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Import):
                modules = [a.name for a in n.names]
            elif isinstance(n, ast.ImportFrom):
                modules = [n.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "numpy" for m in modules):
                importers.add(path.stem)
    assert importers == {"deform"}


# Parameter defaults that no src/ or bench/ call overrides, each with its
# reason for staying a parameter.
ONE_VALUE_ALLOWED = {}


def _calls_and_references(trees):
    """Per callee name: the calls made to it, as (positional count, keyword
    names, star), and the names also referenced other than as a callee."""
    calls, referenced = {}, set()
    for tree in trees:
        callees = set()
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(
                    n.func, (ast.Name, ast.Attribute)):
                callees.add(id(n.func))
                name = getattr(n.func, "id", None) or n.func.attr
                star = any(isinstance(a, ast.Starred) for a in n.args) or any(
                    k.arg is None for k in n.keywords)
                calls.setdefault(name, []).append(
                    (len(n.args), {k.arg for k in n.keywords}, star))
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)) and id(
                    n) not in callees:
                referenced.add(getattr(n, "id", None) or n.attr)
    return calls, referenced


def _defaulted(tree):
    """(qualified name, callee name, parameter, positional index) for every
    parameter with a default; methods drop self, a class's __init__ is
    called by the class name."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                if owner is not None and not static:
                    positional = positional[1:]
                callee = (owner.name if owner is not None
                          and child.name == "__init__" else child.name)
                prefix = f"{owner.name}." if owner is not None else ""
                first = len(positional) - len(args.defaults)
                for index in range(first, len(positional)):
                    out.append((prefix + child.name, callee,
                                positional[index].arg, index))
                for a, d in zip(args.kwonlyargs, args.kw_defaults):
                    if d is not None:
                        out.append((prefix + child.name, callee, a.arg,
                                    None))
                visit(child, None)
            else:
                visit(child, owner)

    visit(tree, None)
    return out


def _parameter_defaults():
    """(name, parameter, positional index, calls) for every parameter
    default in src/, name as ``module.qualname(parameter)``, and calls the
    (positional count, keyword names, star) of each src/ and bench/ call to
    it; a function also passed as a value is left out, as its calls are not
    all seen."""
    package = SRC / "mckaydeform"
    paths = sorted(package.glob("*.py"))
    trees = {p: ast.parse(p.read_text())
             for p in paths + sorted(BENCH.glob("*.py"))}
    calls, referenced = _calls_and_references(trees.values())
    for path in paths:
        for qual, callee, param, index in _defaulted(trees[path]):
            # a class name in isinstance() or an annotation passes nothing
            if qual.endswith(".__init__") or callee not in referenced:
                yield (f"{path.stem}.{qual}({param})", param, index,
                       calls.get(callee, ()))


def test_every_parameter_default_is_overridden_somewhere():
    # a default that every call leaves alone is a constant in disguise
    knobs = [name for name, param, index, calls in _parameter_defaults()
             if name not in ONE_VALUE_ALLOWED and not any(
                 star or param in keys or (index is not None and npos > index)
                 for npos, keys, star in calls)]
    assert not knobs, knobs


def _unread_locals(tree):
    """(function, name, line) for every name a function binds with a plain
    single-target ``=`` and never reads; names it declares global or
    nonlocal belong to another scope."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(fn))
        read = {n.id for n in nodes
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read.update(name for n in nodes
                    if isinstance(n, (ast.Global, ast.Nonlocal))
                    for name in n.names)
        out += [(fn.name, n.targets[0].id, n.lineno) for n in nodes
                if isinstance(n, ast.Assign) and len(n.targets) == 1
                and isinstance(n.targets[0], ast.Name)
                and n.targets[0].id not in read]
    return out


def test_no_local_assigned_and_never_read():
    unread = []
    for path in sorted((SRC / "mckaydeform").glob("*.py")):
        unread += [f"{path.stem}.{fn}: {name}:{line}" for fn, name, line
                   in _unread_locals(ast.parse(path.read_text()))]
    assert not unread, unread


# Parameter defaults that every src/ and bench/ call overrides, each with
# its reason for keeping the default.
EVERY_CALL_OVERRIDES_ALLOWED = {}


def test_every_parameter_default_is_left_in_place_somewhere():
    # a default that every call overrides is a required parameter in
    # disguise: no caller relies on its value
    knobs = [name for name, param, index, calls in _parameter_defaults()
             if name not in EVERY_CALL_OVERRIDES_ALLOWED and not any(
                 star or param not in keys
                 and (index is None or npos <= index)
                 for npos, keys, star in calls)]
    assert not knobs, knobs
