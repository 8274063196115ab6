"""Command-line interface: reports, exit codes, determinism, coverage."""

import json

import pytest

from mckaydeform.cli import run
from mckaydeform.exact import QQ, ShapeMismatch
from mckaydeform.poly import MPoly, VariableMismatch, VarTable
from mckaydeform.rootdata import DimensionMismatch


def test_fold_command(tmp_path):
    out = tmp_path / "fold.json"
    code, report = run(["fold", "--type", "D4", "--omega", "s3",
                        "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["checks"][0]["witness"]["folded"] == "G2"
    assert payload["checks"][0]["witness"]["omega_generators"]
    assert payload["version"]


def test_usage_error_exit_code():
    code, _ = run(["fold", "--type", "X9"])
    assert code == 2
    code, _ = run(["no-such-command"])
    assert code == 2


def test_budget_exit_code(monkeypatch):
    # an exhausted reduction budget surfaces as exit code 3
    import mckaydeform.cli as cli
    from mckaydeform.poly import BudgetExceeded

    def exhausted(args):
        raise BudgetExceeded("reduction budget exhausted")

    monkeypatch.setattr(cli, "cmd_fiber", exhausted)
    code, _ = run(["fiber", "analyze", "--label", "C3"])
    assert code == 3


@pytest.mark.parametrize("kind", [VariableMismatch, DimensionMismatch,
                                  ShapeMismatch])
def test_internal_mismatch_exit_code(monkeypatch, kind):
    # the program's own mismatches subclass ValueError/KeyError but are not
    # usage errors: they get their own exit code
    import mckaydeform.cli as cli

    def mismatched(args):
        raise kind("tables differ")

    monkeypatch.setattr(cli, "cmd_fiber", mismatched)
    code, report = run(["fiber", "analyze", "--label", "C3"])
    assert code == 4 and report is None


def test_error_outside_the_exit_code_table_propagates(monkeypatch):
    import mckaydeform.cli as cli

    def broken(args):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(cli, "cmd_fiber", broken)
    with pytest.raises(ZeroDivisionError):
        run(["fiber", "analyze", "--label", "C3"])


def test_budget_is_a_fiber_option_only():
    # no other subcommand reads a reduction budget, so none accepts one
    code, report = run(["suite", "smoke", "--budget", "1"])
    assert code == 2 and report is None


def test_fiber_budget_zero_is_honoured():
    # 0 steps is a budget of 0, not a request for the default
    code, report = run(["fiber", "analyze", "--label", "C3",
                        "--budget", "0"])
    assert code == 3 and report is None


def test_fiber_negative_budget_is_usage_error(capsys):
    # no reduction runs on a malformed budget, so none is exhausted
    code, report = run(["fiber", "analyze", "--label", "C3",
                        "--budget", "-5"])
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert "--budget" in err and "exhausted" not in err


def test_klein_command():
    code, report = run(["klein", "verify", "--type", "D4"])
    assert code == 0 and report.ok


def test_group_closure_past_its_cap_is_budget_exhausted(monkeypatch,
                                                        capsys):
    # the binary dihedral group of D4 has 8 elements: a cap of 10 passes
    # and a cap of 7 refuses it with exit 3, not as a failed check
    import mckaydeform.klein as klein
    monkeypatch.setattr(klein, "CLOSURE_CAP", 10)
    assert run(["klein", "verify", "--type", "D4"])[0] == 0
    monkeypatch.setattr(klein, "CLOSURE_CAP", 7)
    code, report = run(["klein", "verify", "--type", "D4"])
    assert code == 3 and report is None
    assert "error:" in capsys.readouterr().err


def test_quiver_sample_command():
    code, report = run(["quiver", "sample", "--type", "D4",
                        "--mu", "1,1,-2,1,1", "--seed", "42",
                        "--trials", "10"])
    assert code == 0 and report.ok


def test_quiver_sample_wrong_arity_is_usage_error(capsys):
    # A3 has four vertices; two values must be refused for their number,
    # not for the sum condition they also fail
    code, report = run(["quiver", "sample", "--type", "A3", "--mu", "1,2"])
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert "arity" in err and "4" in err and "sum" not in err


def test_quiver_sample_zero_trials_is_usage_error(capsys):
    # no sample drawn would leave every residual at 0 and pass
    code, report = run(["quiver", "sample", "--type", "D4",
                        "--mu", "1,1,-2,1,1", "--trials", "0"])
    assert code == 2 and report is None
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("tname,mu", (("A1", "1,-1"), ("A2", "1,-1,0"),
                                      ("A4", "1,1,-2,1,-1")))
def test_quiver_sample_takes_a_ranks_without_a_flat_system(tname, mu):
    # only A_(2r-1), r >= 2, has a flat system; A1 and the even ranks are
    # checked against the fibre in the eps coordinates
    code, report = run(["quiver", "sample", "--type", tname, "--mu", mu,
                        "--seed", "3", "--trials", "3"])
    assert code == 0
    assert [c.status for c in report.checks] == ["pass", "pass"]


def test_mc_fibres_catch_a_wrong_a_flat_system(monkeypatch):
    # negative control: the Saito series with Pochhammer argument
    # (h-i+2)/h gives a wrong A flat system; the fibre at t = psi(lambda)
    # then misses the sampled invariants at suite full's central values
    from math import factorial

    from mckaydeform import cli, flat
    from mckaydeform.rootdata import parse_type

    def shifted(i, h, gens, vars):
        return flat._composition_series(
            i, gens, vars, lambda d: QQ(-1) ** (d - 1)
            * flat.pochhammer(QQ(h - i + 2, h), d - 1) / factorial(d))
    monkeypatch.setattr(flat, "_saito_series", shifted)
    cli._fibre.cache_clear()
    try:
        for tname, central, want in (
                ("A3", [1.5, -0.5, 0.25, -1.25], QQ(6889, 131072)),
                ("A5", [0.5, -0.25, 0.75, -1.0, 0.25, -0.25],
                 QQ(4306153, 35831808))):
            assert cli._mc_residuals(parse_type(tname), central, 42, 3) \
                == (0, want)
    finally:
        cli._fibre.cache_clear()


@pytest.mark.parametrize("old, new", (
    ("+ d4 * (mu3 - mu4) ** 2", "+ 2 * d4 * (mu3 - mu4) ** 2"),
    ("+ d4 * (mu3 - mu0) ** 2", "+ 2 * d4 * (mu3 - mu0) ** 2"),
    ("q034 - D * D * (", "q034 - 2 * D * D * (")), ids=("x", "y", "z"))
def test_mc_fibres_d4_sees_each_correction_term(old, new, monkeypatch):
    # negative control: each correction term of the D4 invariants, typed
    # in wrong (x's and y's 1/4 as 1/2, z's 1/2 as 1, each over its own
    # term so the traces keep theirs), fails suite full's mc_fibres[D4] at
    # its central value; at (1, 1, -2, 1, 1) mu3 - mu4, mu3 - mu0 and
    # mu1 + mu2 + mu3 are 0, so every term vanishes and each mutation
    # passes there
    import inspect

    from mckaydeform import cli, quiver
    source = inspect.getsource(quiver.invariants_at_point)
    assert source.count(old) == 1
    scope = dict(vars(quiver))
    exec(source.replace(old, new), scope)
    monkeypatch.setattr(cli, "invariants_at_point",
                        scope["invariants_at_point"])
    rows = {name: rest for name, *rest in cli._suite_rows("full", 42)}
    check, *args = rows["mc_fibres[D4]"]
    ok, witness = check(*args)
    assert not ok and witness["max_residual"] != "0"
    assert check("D4", [1, 1, -2, 1, 1]) == (True, {"max_residual": "0"})


@pytest.mark.parametrize("flag", ("--seed", "--trials"))
def test_quiver_verify_action_takes_no_sampling_flag(flag, capsys):
    # equivariance is one exact identity: there is nothing to sample
    code, report = run(["quiver", "verify-action", "--type", "A3", flag,
                        "2"])
    assert code == 2 and report is None
    assert flag in capsys.readouterr().err


def test_quiver_verify_action_writes_exact_witnesses(tmp_path):
    out = tmp_path / "report.json"
    assert run(["quiver", "verify-action", "--type", "E6",
                "--out", str(out)])[0] == 0
    data = json.loads(out.read_text())
    assert data["seed"] is None
    rows = {c["name"]: c["witness"] for c in data["checks"]}
    assert rows["E6_sigma_moment_equivariance"] == {"max_residual": "0"}


def test_quiver_verify_action_fails_on_a_broken_action(monkeypatch):
    import mckaydeform.quiver as quiver
    real = quiver.reference_action
    monkeypatch.setattr(quiver, "reference_action",
                        lambda t, gen: real(t, gen, flip="pb3"))
    code, report = run(["quiver", "verify-action", "--type", "D4",
                        "--generator", "sigma"])
    status = {c.name: c.status for c in report.checks}
    assert code == 1
    assert status["D4_sigma_moment_equivariance"] == "fail"


def test_quiver_sample_writes_exact_witnesses(tmp_path):
    out = tmp_path / "report.json"
    assert run(["quiver", "sample", "--type", "A3", "--mu",
                "3/2,-1/2,1/4,-5/4", "--trials", "5",
                "--out", str(out)])[0] == 0
    witnesses = [c["witness"] for c in json.loads(out.read_text())["checks"]]
    assert witnesses == [{"max": "0"}, {"max": "0"}]


def test_verify_action_explicit_generator_runs_only_that_one():
    code, report = run(["quiver", "verify-action", "--type", "D4",
                        "--generator", "sigma"])
    assert code == 0 and report.checks
    assert all(c.name.startswith("D4_sigma_") for c in report.checks)
    code, report = run(["quiver", "verify-action", "--type", "D4"])
    assert {c.name.split("_")[1] for c in report.checks} == {"sigma", "rho"}


def test_verify_action_unknown_generator_is_usage_error():
    code, report = run(["quiver", "verify-action", "--type", "D4",
                        "--generator", "bogus"])
    assert code == 2 and report is None


def test_rootdata_unknown_omega_is_usage_error():
    # refused at parsing even when no --h would have read it
    code, report = run(["rootdata", "--type", "A5", "--omega", "bogus"])
    assert code == 2 and report is None


@pytest.mark.parametrize("h", ("1,2,3", "1,2,-3,-3,2,1,0"))
def test_rootdata_h_of_the_wrong_length_is_usage_error(h, capsys):
    # a malformed --h is the user's error (2), not an internal mismatch (4)
    code, report = run(["rootdata", "--type", "A5", "--h", h])
    assert code == 2 and report is None
    assert "--h needs 6 values for A5" in capsys.readouterr().err


def test_rootdata_h_off_the_root_span_is_usage_error(capsys):
    # A5's Cartan space is the trace-zero hyperplane: an h off it is the
    # user's error (2), not an internal mismatch (4)
    code, report = run(["rootdata", "--type", "A5", "--h", "1,1,1,1,1,1"])
    assert code == 2 and report is None
    assert "outside the span of the simple roots of A5" in \
        capsys.readouterr().err


def test_rootdata_e6_h_prints_integer_roots(tmp_path):
    # the E6 roots orthogonal to e1, as integer coefficients in order
    out = tmp_path / "report.json"
    code, _ = run(["rootdata", "--type", "E6", "--h", "1,0,0,0,0,0",
                   "--out", str(out)])
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert code == 0
    assert checks["vanishing_roots_E6"]["status"] == "pass"
    roots = checks["vanishing_roots_E6"]["witness"]["roots"]
    assert roots == sorted(roots) and len(roots) == 7
    assert ["1", "1", "2", "2", "2", "3"] in roots
    assert all(c in ("0", "1", "2", "3") for v in roots for c in v)


def test_flat_even_rank_a_is_refused(tmp_path):
    # flat_coords_A(r) builds A_(2r-1); A4 used to pass with A3's system
    code, report = run(["flat", "--type", "A4"])
    assert code == 2 and report is None
    for tname, degrees in (("A3", [2, 3, 4]), ("A5", [2, 3, 4, 5, 6])):
        out = tmp_path / f"{tname}.json"
        code, _ = run(["flat", "--type", tname, "--out", str(out)])
        payload = json.loads(out.read_text())
        assert code == 0 and payload["command"] == f"flat --type {tname}"
        assert payload["checks"][0]["witness"]["degrees"] == degrees
        assert list(payload["payload"]) == [f"psi{d}" for d in degrees]


def _statuses(tmp_path, argv):
    """Exit code and the status of each check of a run, by name."""
    out = tmp_path / "report.json"
    code, _ = run(argv + ["--out", str(out)])
    checks = json.loads(out.read_text())["checks"]
    return code, {c["name"]: c["status"] for c in checks}


@pytest.mark.parametrize("label", ["B2", "B3", "C3", "G2", "F4"])
def test_quotient_verify_command(label, tmp_path):
    code, statuses = _statuses(
        tmp_path, ["quotient", "verify", "--label", label])
    names = [f"{label}_invariant_generators", f"{label}_not_semiuniversal",
             f"{label}_pullback", f"{label}_singular_locus",
             f"{label}_special_fibre_type"]
    assert code == 0 and statuses == {n: "pass" for n in names}


@pytest.mark.parametrize("argv", (
    ["family", "--label", "B-2"], ["fiber", "analyze", "--label", "B-2"],
    ["quotient", "verify", "--label", "B-2"], ["family", "--label", "E6x"],
    ["family", "--label", ""], ["rootdata", "--type", ""]))
def test_a_malformed_label_is_refused_by_name(argv, capsys):
    # every command reads labels through rootdata.parse_type
    code, report = run(argv)
    assert code == 2 and report is None
    assert f"error: invalid Dynkin type {argv[-1]}\n" in capsys.readouterr().err


@pytest.mark.parametrize("label", ("A1", "A2"))
def test_family_refuses_a_label_it_does_not_build_by_name(label, capsys):
    # A1 is a valid type, but no A_(2r-1) family with r >= 2
    code, report = run(["family", "--label", label])
    assert code == 2 and report is None
    assert capsys.readouterr().err == \
        f"error: no deformation family for {label}\n"


@pytest.mark.parametrize("argv, err", (
    (["quotient", "verify", "--label", "D4"], "no quotient family for D4"),
    (["flat", "--type", "A3", "--full"],
     "--full checks the E6 Frame invariance, not A3"),
    (["flat", "--type", "D5", "--full"],
     "--full checks the E6 Frame invariance, not D5"),
    (["rootdata", "--type", "A3", "--omega", "s3"],
     "--omega acts on --h, and no --h is given"),
    (["rootdata", "--type", "E6", "--omega", "z2"],
     "--omega acts on --h, and no --h is given")))
def test_a_flag_or_label_that_would_be_ignored_is_refused_by_name(
        argv, err, capsys):
    # aim 3: nothing is silently ignored; the refusal names what it refuses
    code, report = run(argv)
    assert code == 2 and report is None
    assert capsys.readouterr().err == f"error: {err}\n"


def test_rootdata_averages_over_z2_unless_omega_names_a_group():
    argv = ["rootdata", "--type", "A5", "--h", "1,2,3,-1,-2,-3"]
    witnesses = [run(argv + extra)[1].to_json()["checks"]
                 for extra in ([], ["--omega", "z2"], ["--omega", "trivial"])]
    assert witnesses[0] == witnesses[1] != witnesses[2]


@pytest.mark.parametrize("label", ("D4", "E6"))
def test_family_reports_the_normal_form_of_a_base_family(label, tmp_path):
    # D4 and E6 restrict no family; their special fibres are put in normal
    # form like every other label's
    code, statuses = _statuses(tmp_path, ["family", "--label", label])
    assert code == 0 and set(statuses.values()) == {"pass"}
    assert {f"{label}_normal_form_relation",
            f"{label}_normal_form_action"} <= set(statuses)


def test_quotient_discriminant_command(tmp_path):
    argv = ["quotient", "discriminant", "--label", "B2"]
    assert _statuses(tmp_path, argv) == (0, {"B2_discriminant": "pass"})
    code, report = run(["quotient", "discriminant", "--label", "G2"])
    assert code == 2 and report is None


@pytest.mark.parametrize("tname, check", [("D4", "flat_D4_built"),
                                          ("E6", "flat_E6_homogeneous")])
def test_flat_d_and_e6_commands(tname, check, tmp_path):
    assert _statuses(tmp_path, ["flat", "--type", tname]) == (
        0, {check: "pass"})


def test_quiver_verify_action_d5(tmp_path):
    code, statuses = _statuses(
        tmp_path, ["quiver", "verify-action", "--type", "D5"])
    assert code == 0 and len(statuses) == 6
    assert set(statuses.values()) == {"pass"}
    assert "D5_sigma_symplectic" in statuses


def _check_status(tmp_path, argv, name):
    """Exit code and the status of one named check of a run."""
    out = tmp_path / "report.json"
    code, _ = run(argv + ["--out", str(out)])
    checks = json.loads(out.read_text())["checks"]
    return code, {c["name"]: c["status"] for c in checks}[name]


def test_fold_check_counts_the_orbits(monkeypatch, tmp_path):
    # E6 has four Omega-orbits of vertices; a folding that left the type
    # alone (rank 6) fails
    import mckaydeform.cli as cli
    argv = ["fold", "--type", "E6"]
    assert _check_status(tmp_path, argv, "fold_E6_z2") == (0, "pass")
    monkeypatch.setattr(cli, "fold", lambda t, omega: t)
    assert _check_status(tmp_path, argv, "fold_E6_z2") == (1, "fail")


def test_positive_root_count_check_uses_the_coxeter_number(monkeypatch,
                                                          tmp_path):
    # 15 positive roots of A5 = 5 * 6 / 2; a closure missing one fails
    import mckaydeform.rootdata as rootdata
    closure = rootdata._positive_coeffs
    argv = ["rootdata", "--type", "A5"]
    name = "positive_root_count_A5"
    assert _check_status(tmp_path, argv, name) == (0, "pass")
    monkeypatch.setattr(rootdata, "_positive_coeffs",
                        lambda C: closure(C)[1:])
    assert _check_status(tmp_path, argv, name) == (1, "fail")


@pytest.mark.parametrize("tname, count", (("E7", 63), ("E8", 120)))
def test_rootdata_e7_e8_count_roots_without_an_embedding(tname, count,
                                                         tmp_path):
    out = tmp_path / "r.json"
    code, _ = run(["rootdata", "--type", tname, "--out", str(out)])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks[f"positive_root_count_{tname}"]["status"] == "pass"
    assert checks[f"positive_root_count_{tname}"]["witness"] == {
        "count": count}


@pytest.mark.parametrize("tname", ("E7", "E8"))
def test_rootdata_e7_e8_h_needs_an_embedding(tname, capsys):
    h = ",".join(["1"] + ["0"] * (int(tname[1]) - 1))
    code, report = run(["rootdata", "--type", tname, "--h", h])
    assert code == 2 and report is None
    assert f"root system not built for {tname}" in capsys.readouterr().err


def test_vanishing_roots_check_recounts_the_orthogonal_roots(monkeypatch,
                                                             tmp_path):
    # h = (1, 1, 2, -1, -1, -2) kills e1 - e2 and e4 - e5 only; a list
    # missing one of them fails
    import mckaydeform.cli as cli
    found = cli.vanishing_roots
    argv = ["rootdata", "--type", "A5", "--h", "1,1,2,-1,-1,-2"]
    name = "vanishing_roots_A5"
    assert _check_status(tmp_path, argv, name) == (0, "pass")
    monkeypatch.setattr(cli, "vanishing_roots", lambda rs, h: found(rs, h)[1:])
    assert _check_status(tmp_path, argv, name) == (1, "fail")


def test_dimension_vector_check_is_the_balance_condition(monkeypatch,
                                                        tmp_path):
    # 2 d_v = the sum of the neighbours' d on the extended diagram; the
    # all-ones vector is not balanced on D4 (the centre has four neighbours)
    import mckaydeform.rootdata as rootdata
    argv = ["rootdata", "--type", "D4"]
    assert _check_status(tmp_path, argv, "dimension_vector_D4") == (
        0, "pass")
    monkeypatch.setattr(rootdata, "mckay_dimension_vector",
                        lambda t: (1,) * (t.rank + 1))
    assert _check_status(tmp_path, argv, "dimension_vector_D4") == (
        1, "fail")


@pytest.mark.parametrize("tname, hook", (("E6", 4), ("E7", 3), ("E8", 7),
                                         ("D5", 3)))
def test_dimension_vector_check_catches_a_wrong_hook(monkeypatch, tmp_path,
                                                     tname, hook):
    # delta comes from the highest root, apart from the typed diagram: the
    # affine vertex hung on a wrong simple root fails the balance
    import mckaydeform.rootdata as rootdata
    argv = ["rootdata", "--type", tname]
    name = f"dimension_vector_{tname}"
    assert _check_status(tmp_path, argv, name) == (0, "pass")
    edges = rootdata.extended_edges
    monkeypatch.setattr(rootdata, "extended_edges",
                        lambda t: ((0, hook),) + edges(t)[1:])
    assert _check_status(tmp_path, argv, name) == (1, "fail")


def test_flat_built_check_is_weighted_homogeneity(monkeypatch, tmp_path):
    # psi4 of A3 plus eps2 (degree 2) is not homogeneous of degree 4
    import mckaydeform.flat as flat
    build = flat.flat_coords_A

    def broken(r):
        fs = build(r)
        d, name, p = fs.coords[-1]
        fs.coords[-1] = (d, name, p + MPoly.variable(p.vars, "eps2"))
        return fs

    argv = ["flat", "--type", "A3"]
    assert _check_status(tmp_path, argv, "flat_A3_built") == (0, "pass")
    monkeypatch.setattr(flat, "flat_coords_A", broken)
    assert _check_status(tmp_path, argv, "flat_A3_built") == (1, "fail")


@pytest.mark.parametrize("argv", (
    ["fiber", "analyze", "--label", "B2", "--params", "t2=1/0"],
    ["quiver", "sample", "--type", "D4", "--mu", "1,1,-2,1,1/0"],
    ["rootdata", "--type", "A5", "--h", "1/0,2,-3,-3,2,1"]))
def test_zero_denominator_is_usage_error(argv, capsys):
    code, report = run(argv)
    assert code == 2 and report is None
    assert "zero denominator" in capsys.readouterr().err


def test_fiber_analyze_repeated_parameter_is_usage_error(capsys):
    code, report = run(["fiber", "analyze", "--label", "B2",
                        "--params", "t2=1,t2=5"])
    assert code == 2 and report is None
    assert "t2" in capsys.readouterr().err


def test_fiber_analyze_command():
    code, report = run(["fiber", "analyze", "--label", "B2",
                        "--params", "t2=1,t4=0"])
    # a smooth fibre is an exact answer: it passes
    assert code == 0 and report.checks[0].status == "pass"
    assert report.checks[0].witness["smooth"] is True


def test_fiber_analyze_fibre_outside_q_zeta_24_is_exact(tmp_path):
    # at (t2, t4) = (5, 25/8) the two A1 points lie at z = +-sqrt(-5/2),
    # outside Q(zeta_24): the roots a of a^2 + 5/2, at z = a
    out = tmp_path / "fiber.json"
    code, _ = run(["fiber", "analyze", "--label", "B2",
                   "--params", "t2=5,t4=25/8", "--out", str(out)])
    assert code == 0
    check = json.loads(out.read_text())["checks"][0]
    assert check["status"] == "pass"
    points = check["witness"]["points"]
    assert [(p["ade"], p["exact"], p["minpoly"], p["coords"])
            for p in points] == [
        ("A1", True, ["5/2", "0", "1"], [["0", "0"], ["0", "0"], ["0", "1"]])
    ] * 2
    assert [[round(v, 4) for v in p["coords_numeric"][2]]
            for p in points] == [[0, -1.5811], [0, 1.5811]]


def test_fiber_analyze_point_outside_ade_is_refused(monkeypatch, tmp_path):
    # a point of a type outside ADE fails the check and exits 5, with the
    # report written
    from mckaydeform import deform
    V = VarTable(("x", "y", "z"))
    x, y, z = (MPoly.variable(V, n) for n in "xyz")

    def corank_three(fam, values, budget):
        return deform.analyze_hypersurface(x ** 3 + y ** 3 + z ** 3, V.names)

    monkeypatch.setattr(deform, "analyze_fibre", corank_three)
    out = tmp_path / "fiber.json"
    code, _ = run(["fiber", "analyze", "--label", "F4", "--out", str(out)])
    assert code == 5
    check = json.loads(out.read_text())["checks"][0]
    assert check["status"] == "fail"
    assert [p["ade"] for p in check["witness"]["points"]] == ["unclassified"]


def test_fiber_analyze_exact_singular_fibre_passes():
    code, report = run(["fiber", "analyze", "--label", "C3"])
    assert code == 0
    assert [p["ade"] for p in report.checks[0].witness["points"]] == ["D4"]


def test_fiber_analyze_unknown_parameter_is_usage_error(capsys):
    # a misspelt parameter must not silently analyse the special fibre
    code, report = run(["fiber", "analyze", "--label", "B2",
                        "--params", "zz=1"])
    assert code == 2 and report is None
    assert "zz" in capsys.readouterr().err


def test_family_show_payload(tmp_path):
    out = tmp_path / "family.json"
    code, _ = run(["family", "--label", "C3", "--show",
                   "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert "equation" in payload["payload"]


def test_suite_smoke_green():
    code, report = run(["suite", "smoke"])
    assert code == 0
    assert len(report.checks) >= 25
    assert all(c.status == "pass" for c in report.checks)


def test_suite_json_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["suite", "smoke", "--seed", "42", "--out", str(a)])[0] == 0
    assert run(["suite", "smoke", "--seed", "42", "--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_suite_full_json_byte_stable(tmp_path):
    a, b = tmp_path / "fa.json", tmp_path / "fb.json"
    assert run(["suite", "full", "--seed", "42", "--out", str(a)])[0] == 0
    assert run(["suite", "full", "--seed", "42", "--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_suite_fails_on_corrupted_table(monkeypatch):
    import mckaydeform.deform as deform
    original = deform.d4_mu_coefficients

    def corrupted():
        coeffs = original()
        coeffs["A"] = coeffs["A"] + 1  # poison one coefficient
        return coeffs

    monkeypatch.setattr(deform, "d4_mu_coefficients", corrupted)
    code, report = run(["suite", "smoke"])
    assert code == 1
    failed = [c.name for c in report.checks if c.status == "fail"]
    assert "d4_coefficients" in failed


def test_suite_reports_a_raising_check_and_runs_the_rest(monkeypatch,
                                                        tmp_path):
    import mckaydeform.deform as deform
    from mckaydeform.poly import BudgetExceeded

    def exhausted():
        raise BudgetExceeded("reduction budget exhausted")

    monkeypatch.setattr(deform, "verify_d4_coefficients", exhausted)
    out = tmp_path / "suite.json"
    code, report = run(["suite", "smoke", "--out", str(out)])
    assert code == 3
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    failed = checks.pop("d4_coefficients")
    assert failed["status"] == "fail"
    assert failed["witness"] == {
        "error": "BudgetExceeded: reduction budget exhausted"}
    assert len(checks) == 50
    assert all(c["status"] == "pass" for c in checks.values())


def test_suite_exit_code_is_the_largest_among_raised_errors(monkeypatch):
    import mckaydeform.deform as deform
    import mckaydeform.quotient as quotient
    from mckaydeform.poly import BudgetExceeded

    def exhausted():
        raise BudgetExceeded("reduction budget exhausted")

    def mismatched(label):
        raise VariableMismatch("tables differ")

    monkeypatch.setattr(deform, "verify_d4_coefficients", exhausted)
    monkeypatch.setattr(quotient, "verify_singular_locus", mismatched)
    code, report = run(["suite", "smoke"])
    assert code == 4
    failed = {c.name for c in report.checks if c.status == "fail"}
    assert failed == {"d4_coefficients", "singular_locus[B2]",
                      "singular_locus[C3]", "singular_locus[G2]"}


def test_suite_error_outside_the_exit_code_table_propagates(monkeypatch):
    import mckaydeform.deform as deform

    def broken():
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(deform, "verify_d4_coefficients", broken)
    with pytest.raises(ZeroDivisionError):
        run(["suite", "smoke"])



@pytest.mark.parametrize("label, target", (("B2", "D4"), ("B3", "D5"),
                                           ("B4", "D6"), ("C3", "D6"),
                                           ("G2", "E7"), ("F4", "E7")))
def test_quotient_special_fibre_has_the_target_type(label, target, tmp_path):
    out = tmp_path / "report.json"
    assert run(["quotient", "verify", "--label", label,
                "--out", str(out)])[0] == 0
    rows = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    row = rows[f"{label}_special_fibre_type"]
    assert row["status"] == "pass"
    assert row["witness"] == {"target": target, "types": [target]}


def test_wrong_target_ade_fails_the_special_fibre_row(monkeypatch):
    import dataclasses

    import mckaydeform.quotient as quotient
    from mckaydeform.rootdata import DynkinType
    real = quotient.quotient_family
    monkeypatch.setattr(quotient, "quotient_family", lambda label: (
        dataclasses.replace(real(label), target_ade=DynkinType("D", 5))))
    code, report = run(["quotient", "verify", "--label", "B2"])
    status = {c.name: c.status for c in report.checks}
    assert code == 1 and status["B2_special_fibre_type"] == "fail"


@pytest.mark.parametrize("argv, option", [
    (["quiver", "sample", "--type", "A1"], ["--mu", "-1,1"]),
    (["quiver", "sample", "--type", "A4"], ["--mu", "-1/2,-1.5,3,-1,0"]),
    (["rootdata", "--type", "A2"], ["--h", "-1,0,1"])])
def test_a_negative_first_entry_is_a_value(argv, option, tmp_path, capsys):
    # argparse exempts only a plain negative number from being an option;
    # "--mu -1,1" reads as "--mu=-1,1" did
    runs = []
    for form in (option, ["=".join(option)]):
        out = tmp_path / f"{len(form)}.json"
        code, _ = run(argv + form + ["--out", str(out)])
        runs.append((code, capsys.readouterr(), out.read_bytes()))
    assert runs[0][0] == 0 and runs[0] == runs[1]


@pytest.mark.parametrize("argv", [
    ["quiver", "sample", "--type", "A1", "--mu", "-1,x"],
    ["rootdata", "--type", "A2", "--h", "-1,0,y"]])
def test_a_malformed_negative_list_is_refused_by_name(argv, capsys):
    code, report = run(argv)
    assert code == 2 and report is None
    assert f"argument {argv[-2]}: expected one argument" in \
        capsys.readouterr().err
