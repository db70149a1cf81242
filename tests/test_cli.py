import json
import warnings

import pytest

import flockstab as fs
from flockstab import reports
from flockstab.cli import main
from flockstab.figures import figure1, figure2
from conftest import alpha_roundoff_spec


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.json"
    fs.save_spec(figure1(), path)
    return path


@pytest.fixture
def fig2_path(tmp_path):
    path = tmp_path / "fig2.json"
    fs.save_spec(figure2(), path)
    return path


def test_check_exit_codes(tmp_path, fig1_path, fig2_path, capsys):
    assert main(["check", "--spec", str(fig1_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall"] == "necessary-conditions-hold"
    assert isinstance(payload["clauses"][0]["triggered"], bool)

    assert main(["check", "--spec", str(fig2_path)]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--spec", str(bad)]) == 1

    missing = tmp_path / "nope.json"
    assert main(["check", "--spec", str(missing)]) == 1


def test_check_refuses_a_boolean_gain(tmp_path, fig1_path, capsys):
    doc = json.loads(fig1_path.read_text())
    doc["agents"][0]["g_x"] = True
    spec = tmp_path / "bool.json"
    spec.write_text(json.dumps(doc))
    assert main(["check", "--spec", str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_check_refuses_a_string_weight(tmp_path, fig1_path, capsys):
    doc = json.loads(fig1_path.read_text())
    doc["agents"][0]["rho_x"]["1"] = "-0.6"
    spec = tmp_path / "string.json"
    spec.write_text(json.dumps(doc))
    assert main(["check", "--spec", str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_parser_is_built_once():
    import flockstab.cli as cli

    assert cli.build_parser() is cli.build_parser()


def test_command_is_looked_up_at_call_time(fig1_path, monkeypatch, capsys):
    import flockstab.cli as cli

    assert main(["check", "--spec", str(fig1_path)]) == 0  # builds the parser
    calls = []

    def fake_check(args):
        calls.append(args.spec)
        return {}, "patched", 0

    monkeypatch.setattr(cli, "cmd_check", fake_check)
    capsys.readouterr()
    assert main(["check", "--spec", str(fig1_path)]) == 0
    assert capsys.readouterr().out == "patched\n"
    assert calls == [figure1()]


@pytest.mark.parametrize("command", [["spectrum", "--n", "4"], ["simulate", "--n", "3"]],
                         ids=["spectrum", "simulate"])
@pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "malformed"])
def test_unreadable_spec_creates_no_directory(tmp_path, capsys, command, content):
    spec = tmp_path / "spec.json"
    if content is not None:
        spec.write_text(content)
    out = tmp_path / "out"
    assert main([*command, "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--n", "4", "--tol=-1"], ["rootcurves", "--phi-min", "nan"],
     ["scan", "--N-list", "abc"]],
    ids=["spectrum-tol", "rootcurves-phi-min", "scan-N-list"],
)
def test_failed_command_creates_no_directory(tmp_path, fig2_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--spec", str(fig2_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_out_of_region_blowup_prints_no_warning(tmp_path, fig1_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "--spec", str(fig1_path), "--n", "20", "--dt", "5",
                     "--tmax", "1000", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "blow-up at t=35.0000\n"
    assert "RuntimeWarning" not in captured.err
    assert _listing(out) == ["transient.json"]


def test_non_finite_step_matrix_blowup_is_reported(tmp_path, fig1_path, capsys):
    # dt = 1e80 overflows the step matrix to inf and nan
    out = tmp_path / "out"
    assert main(["simulate", "--spec", str(fig1_path), "--n", "10", "--dt", "1e80",
                 "--tmax", "1e81", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("blow-up at t=1000000000000000")
    assert _listing(out) == ["transient.json"]
    rep = json.loads((out / "transient.json").read_text())
    assert rep == {"blew_up": True, "time": 1e80, "norm": None}


def test_check_zero_tolerance(fig1_path, fig2_path):
    # figure 1's moment is roundoff, not an instability certificate
    assert main(["check", "--spec", str(fig1_path), "--tol", "0"]) == 0
    assert main(["check", "--spec", str(fig2_path), "--tol", "0"]) == 2


def test_check_zero_tolerance_certifies_vanishing_alpha_sum(tmp_path):
    # the alpha_x sum is zero up to roundoff; every other clause holds
    path = tmp_path / "alpha.json"
    fs.save_spec(alpha_roundoff_spec(), path)
    assert main(["check", "--spec", str(path), "--tol", "0"]) == 2


@pytest.mark.parametrize(
    "agents_patch",
    [
        {"agents": 5},
        {"g_x": None},
        {"g_x": "abc"},
        {"rho_x": {"1": None}},
    ],
    ids=["agents-not-a-list", "gain-null", "gain-string", "weight-null"],
)
def test_malformed_spec_is_an_input_error(tmp_path, capsys, agents_patch):
    doc = fs.model.spec_to_dict(figure1())
    if "agents" in agents_patch:
        doc.update(agents_patch)
    else:
        doc["agents"][0].update(agents_patch)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--spec", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--tol=-1e-3"],
        ["check", "--tol=nan"],
        ["check", "--tol=inf"],
        ["spectrum", "--n", "12", "--tol=-1e-3"],
        ["spectrum", "--n", "12", "--tol=nan"],
        ["spectrum", "--n", "12", "--tol=inf"],
    ],
    ids=["check-negative", "check-nan", "check-inf",
         "spectrum-negative", "spectrum-nan", "spectrum-inf"],
)
def test_bad_tolerance_is_an_input_error(tmp_path, fig1_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--spec", str(fig1_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "verdict.json").exists()


@pytest.mark.parametrize("command", [["simulate", "--n", "3"], ["scan", "--N-list", "9"]],
                         ids=["simulate", "scan"])
@pytest.mark.parametrize("flag, name", [("--dt", "dt"), ("--tmax", "t_max")],
                         ids=["dt", "tmax"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_step_or_horizon_is_an_input_error(tmp_path, fig1_path, capsys,
                                                      command, flag, name, value):
    out = tmp_path / "out"
    assert main([*command, flag, value, "--spec", str(fig1_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must")
    assert err.endswith(f"got {value}\n")


def test_simulate_tiny_step_stores_only_the_start(tmp_path, fig2_path):
    out = tmp_path / "out"
    assert main(["simulate", "--spec", str(fig2_path), "--n", "3", "--dt", "1e-300",
                 "--tmax", "1e-299", "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "0"


def test_simulate_over_the_step_budget_is_an_input_error(tmp_path, fig1_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--spec", str(fig1_path), "--n", "3", "--dt", "1e-9",
                 "--tmax", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: t_max / dt = 1e+09 RK4 steps, over the budget of 1e+08 steps\n")
    assert not out.exists()


def test_simulate_fewer_than_three_cells_is_an_input_error(tmp_path, fig1_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--spec", str(fig1_path), "--n", "2", "--tmax", "3",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: need n >= 3 cells per type, got 2\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, what",
    [(["simulate", "--n", "100000", "--tmax", "1"], "3 dense 600000 x 600000 arrays"),
     (["spectrum", "--n", "100000000"], "100000000 modes of 6 roots"),
     (["rootcurves", "--phi-points", "300000000"], "300000000 angles")],
    ids=["simulate", "spectrum", "rootcurves"],
)
def test_run_over_the_memory_budget_is_an_input_error(tmp_path, fig1_path, capsys,
                                                      argv, what):
    out = tmp_path / "out"
    assert main([*argv, "--spec", str(fig1_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what}")
    assert err.endswith("over the budget of 2147483648 bytes\n")
    assert not out.exists()


def test_scan_empty_size_list_is_an_input_error(tmp_path, fig1_path, capsys):
    out = tmp_path / "out"
    assert main(["scan", "--spec", str(fig1_path), "--N-list", ",",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: N_values is empty")
    assert not (out / "scan.csv").exists()


@pytest.mark.parametrize(
    "flag, value, name",
    [("--phi-min", "nan", "phi_min"), ("--phi-min", "0", "phi_min"),
     ("--phi-max", "inf", "phi_max"), ("--phi-max", "1e-7", "phi_max"),
     ("--phi-points", "1", "phi_points")],
)
def test_rootcurves_bad_grid_is_an_input_error(tmp_path, fig2_path, capsys,
                                               flag, value, name):
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["rootcurves", "--spec", str(fig2_path), flag, value,
                   "--out", str(out)])
    assert rc == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must")
    assert "RuntimeWarning" not in err
    assert not (out / "rootcurves.csv").exists()


def test_check_writes_report(tmp_path, fig1_path):
    out = tmp_path / "out"
    assert main(["check", "--spec", str(fig1_path), "--out", str(out)]) == 0
    report = json.loads((out / "conditions.json").read_text())
    assert report["overall"] == "necessary-conditions-hold"


@pytest.mark.parametrize("figure", ["figure1", "figure2", "figure3", "figure3c"])
def test_check_writes_the_bytes_it_prints(tmp_path, capsys, figure):
    # the report is encoded once: the file is the printed summary, and both
    # are what write_json makes of the same report
    spec = getattr(fs.figures, figure)()
    path = tmp_path / "spec.json"
    fs.save_spec(spec, path)
    main(["check", "--spec", str(path), "--out", str(tmp_path / "out")])
    written = (tmp_path / "out" / "conditions.json").read_bytes()
    assert written == capsys.readouterr().out.encode("utf-8")
    reports.write_json(tmp_path / "direct.json", fs.conditions(spec))
    assert written == (tmp_path / "direct.json").read_bytes()


def test_spectrum_outputs(tmp_path, fig1_path):
    out = tmp_path / "spec_out"
    assert main(["spectrum", "--spec", str(fig1_path), "--n", "8",
                 "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "m,phi,re,im,residual"
    assert len(lines) == 1 + 6 * 8
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["status"] in ("stable", "marginally-unstable", "unstable")
    assert verdict["zero_multiplicity"] == 2


def test_simulate_outputs_and_determinism(tmp_path, fig1_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    argv = ["simulate", "--spec", str(fig1_path), "--n", "4", "--bc", "2",
            "--tmax", "20", "--dt", "0.02"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    for name in ("trajectory.csv", "transient.json", "trajectory.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rep = json.loads((out1 / "transient.json").read_text())
    assert rep["blew_up"] is False
    assert rep["magnitude"] < 0.0


def test_force_flag_guards_overwrites(tmp_path, fig1_path):
    out = tmp_path / "out"
    argv = ["spectrum", "--spec", str(fig1_path), "--n", "4", "--out", str(out)]
    assert main(argv) == 0
    assert main(argv) == 1  # refuses to overwrite
    assert main(argv + ["--force"]) == 0


@pytest.mark.parametrize(
    "argv, last",
    [
        (["spectrum", "--n", "4"], "verdict.json"),
        (["scan", "--N-list", "9,18", "--dt", "0.02"], "scan.svg"),
        (["rootcurves", "--phi-points", "20"], "rootcurves.json"),
        (["reproduce", "fig3a"], "fig3a/report.json"),
    ],
    ids=["spectrum", "scan", "rootcurves", "reproduce"],
)
def test_existing_output_refused_before_any_write(tmp_path, fig2_path, capsys, argv, last):
    # the file a command writes last is the one it used to refuse too late
    out = tmp_path / "out"
    target = out / last
    target.parent.mkdir(parents=True)
    target.write_bytes(b"kept")
    listing = sorted(out.rglob("*"))
    spec = [] if argv[0] == "reproduce" else ["--spec", str(fig2_path)]
    assert main([*argv, *spec, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(out.rglob("*")) == listing
    assert target.read_bytes() == b"kept"


def test_scan_outputs(tmp_path, fig1_path):
    out = tmp_path / "scan_out"
    assert main(["scan", "--spec", str(fig1_path), "--bc", "1",
                 "--N-list", "9,18", "--dt", "0.02", "--out", str(out)]) == 0
    scan = json.loads((out / "scan.json").read_text())
    assert len(scan["points"]) == 2
    assert scan["slope"] is not None
    assert (out / "scan.svg").read_text().startswith("<svg")


def test_rootcurves_outputs(tmp_path, fig2_path):
    out = tmp_path / "rc_out"
    assert main(["rootcurves", "--spec", str(fig2_path), "--out", str(out),
                 "--phi-points", "40"]) == 0
    payload = json.loads((out / "rootcurves.json").read_text())
    assert payload["tangency"]["plus"]["passed"] is True
    assert payload["right_angle_deviation_deg"] < 2.0
    lines = (out / "rootcurves.csv").read_text().splitlines()
    assert lines[0] == "t,branch,re,im,predicted_re,predicted_im,ratio"
    assert len(lines) == 1 + 2 * 40


def test_rootcurves_rejects_degenerate_spec(tmp_path):
    sym = tmp_path / "sym.json"
    fs.save_spec(
        fs.build_spec(
            fs.Arrangement.TRIATOMIC_NN,
            [{"g_x": -1.0, "g_v": -1.0,
              "rho_x": {"1": -0.5, "-1": -0.5},
              "rho_v": {"1": -0.5, "-1": -0.5}}] * 3,
        ),
        sym,
    )
    assert main(["rootcurves", "--spec", str(sym), "--out",
                 str(tmp_path / "rc")]) == 1


def _hot_spec():
    # positive positional gains: the line genuinely blows up
    return fs.build_spec(
        fs.Arrangement.TRIATOMIC_NN,
        [{"g_x": 1.0, "g_v": 0.0,
          "rho_x": {"1": -0.5, "-1": -0.5},
          "rho_v": {"1": -0.5, "-1": -0.5}}] * 3,
    )


def test_simulate_blowup_reported(tmp_path):
    path = tmp_path / "hot.json"
    fs.save_spec(_hot_spec(), path)
    out = tmp_path / "out"
    assert main(["simulate", "--spec", str(path), "--n", "4", "--tmax", "200",
                 "--out", str(out)]) == 0
    rep = json.loads((out / "transient.json").read_text())
    assert rep["blew_up"] is True
    assert rep["time"] > 0.0
    assert not (out / "trajectory.csv").exists()


def _listing(path):
    return sorted(p.name for p in path.iterdir())


_SIMULATE_FILES = ["report.json", "trajectory.csv", "trajectory.svg"]


def test_reproduce_figure3a(tmp_path):
    out = tmp_path / "repro"
    assert main(["reproduce", "fig3a", "--out", str(out)]) == 0
    report = json.loads((out / "fig3a" / "report.json").read_text())
    assert list(report) == ["figure", "conditions", "tolerance", "computed", "published",
                            "relative_error", "within_tolerance"]
    assert report["within_tolerance"] is True
    assert report["published"]["magnitude"] == -72.8
    assert abs(report["computed"]["magnitude"] + 72.8) / 72.8 < 0.02
    assert _listing(out / "fig3a") == _SIMULATE_FILES


def test_reproduce_plot_only_kind(tmp_path, monkeypatch):
    import flockstab.cli as cli
    from flockstab.figures import FigureRun

    small = FigureRun("fig2a", figure2, "simulate", 5, fs.BoundaryCondition.TYPE_I,
                      0.02, 20.0)
    monkeypatch.setitem(cli.FIGURE_RUNS, "fig2a", small)
    out = tmp_path / "repro"
    assert main(["reproduce", "fig2a", "--out", str(out)]) == 0
    report = json.loads((out / "fig2a" / "report.json").read_text())
    assert list(report) == ["figure", "conditions", "tolerance", "computed", "published",
                            "within_tolerance"]
    assert report["published"] is None
    assert report["within_tolerance"] is None
    assert _listing(out / "fig2a") == _SIMULATE_FILES


def test_reproduce_scan_kind(tmp_path, monkeypatch):
    import flockstab.cli as cli
    from flockstab.figures import FigureRun

    small = FigureRun("fig2b", figure2, "scan", 60, fs.BoundaryCondition.TYPE_I,
                      0.02, None, n_values=(15, 30, 45))
    monkeypatch.setitem(cli.FIGURE_RUNS, "fig2b", small)
    out = tmp_path / "repro"
    assert main(["reproduce", "fig2b", "--out", str(out)]) == 0
    report = json.loads((out / "fig2b" / "report.json").read_text())
    assert list(report) == ["figure", "conditions", "tolerance", "computed", "published",
                            "within_tolerance"]
    assert report["computed"]["slope"] > 0.0
    assert _listing(out / "fig2b") == ["report.json", "scan.csv", "scan.svg"]


def test_reproduce_blowup_kind(tmp_path, monkeypatch, capsys):
    import flockstab.cli as cli
    from flockstab.figures import FigureRun

    hot = FigureRun("fig3c", _hot_spec, "simulate", 4, fs.BoundaryCondition.TYPE_I,
                    0.01, 200.0)
    monkeypatch.setitem(cli.FIGURE_RUNS, "fig3c", hot)
    out = tmp_path / "repro"
    assert main(["reproduce", "fig3c", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("fig3c: blow-up at t=")
    report = json.loads((out / "fig3c" / "report.json").read_text())
    assert list(report) == ["figure", "conditions", "tolerance", "blew_up", "time",
                            "within_tolerance"]
    assert report["blew_up"] is True
    assert report["within_tolerance"] is None
    assert _listing(out / "fig3c") == ["report.json"]
