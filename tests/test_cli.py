"""Tests for the command-line front end: output encodings, config
precedence, exit codes and the machine-readable record schema."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner

import specgap
from specgap.cli import cli
from test_model import n3_first_maximum


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def profile(tmp_path):
    """A 't,rho' CSV on the circle of length 2 pi with a Gaussian dip."""
    path = tmp_path / "prof.csv"
    rows = ["t,rho"]
    for i in range(65):
        t = 2 * math.pi * i / 64.0
        rho = 2.0 - 0.5 * math.exp(-8.0 * (t - math.pi) ** 2)
        rows.append(f"{t},{rho}")
    path.write_text("\n".join(rows) + "\n")
    return path


def _json_without_timings(res):
    assert res.exit_code == 0, res.output
    rec = json.loads(res.output)
    del rec["timings"]
    return rec


# ---------------------------------------------------------------------------
# bound: encodings carry identical content

def test_bound_json_schema(runner):
    res = runner.invoke(cli, ["bound", "-n", "3", "-K", "1", "-D", "2",
                              "--format", "json"])
    assert res.exit_code == 0, res.output
    rec = json.loads(res.output)
    assert rec["schema_version"] == "1"
    assert rec["query"]["n"] == 3.0
    assert rec["query"]["K"] == 1.0
    assert rec["query"]["D"] == 2.0
    assert rec["results"]["model_lambda1"] > rec["results"]["shi_zhang"]
    assert all(rec["flags"].values())
    assert rec["timings"]["compute_s"] >= 0.0


def test_bound_formats_agree(runner):
    args = ["bound", "-n", "3", "-K", "-1", "-D", "1"]
    js = json.loads(runner.invoke(cli, args + ["--format", "json"]).output)
    crow = next(csv.DictReader(
        io.StringIO(runner.invoke(cli, args + ["--format", "csv"]).output)))
    for key in ("model_lambda1", "shi_zhang", "zhong_yang", "yang"):
        assert float(crow[f"results.{key}"]) == pytest.approx(
            js["results"][key], rel=1e-12)
    table = runner.invoke(cli, args).output
    assert "model_lambda1" in table


def test_bound_aubry_inputs(runner):
    aubry = ["--aubry-p", "2", "--aubry-kbar", "0.05", "--aubry-C", "0.5"]
    res = runner.invoke(cli, ["bound", "-n", "3", "-K", "1", "-D", "2",
                              "--format", "json"] + aubry)
    assert res.exit_code == 0, res.output
    rec = json.loads(res.output)
    assert rec["query"]["aubry_C"] == 0.5
    # n K (1 - C k_bar) = 3 (1 - 0.025)
    assert rec["results"]["aubry"] == pytest.approx(2.925, rel=1e-15)
    assert rec["flags"]["aubry_le_model"]
    for partial in (aubry[:2], aubry[2:]):
        res = runner.invoke(cli, ["bound", "-n", "3", "-K", "1", "-D", "2"]
                            + partial)
        assert res.exit_code == 2, res.output


def test_bound_table_is_default(runner):
    res = runner.invoke(cli, ["bound", "-n", "4", "-K", "0", "-D", "1.5"])
    assert res.exit_code == 0
    assert "model_lambda1" in res.output
    assert "," not in res.output  # aligned table, not csv


# ---------------------------------------------------------------------------
# exit codes and validation

def test_missing_flags_exit_2(runner):
    res = runner.invoke(cli, ["bound", "-n", "3"])
    assert res.exit_code == 2
    assert "-K" in res.output or "curv" in res.output


def test_domain_error_exit_2(runner):
    res = runner.invoke(cli, ["bound", "-n", "3", "-K", "1", "-D", "-1"])
    assert res.exit_code == 2
    res = runner.invoke(cli, ["bound", "-n", "3", "-K", "1", "-D", "4"])
    assert res.exit_code == 2  # beyond the closing diameter


def test_numerical_error_exit_3(runner):
    # n = 1.5 within 1e-6 of the closing diameter: cos^(1/2) is not smooth
    # at the pole, the Romberg extrapolants do not settle by the mesh cap,
    # so the run ends with a numerical failure
    D = repr(math.pi * (1.0 - 1e-6))
    res = runner.invoke(cli, ["bound", "-n", "1.5", "-K", "1", "-D", D])
    assert res.exit_code == 3
    assert "certified" in res.output.lower()


_NO_SCIPY_RUN = """
import sys
from specgap.cli import cli
for argv in (["sweep", sys.argv[1]],
             ["bound", "-n", "3", "-K", "-1", "-D", "2.5"],
             ["match", "-N", "3", "-K", "1", "-l", "4.5", "-u", "0.75"],
             ["match", "-N", "3", "-K", "-1", "-l", "0.9", "-u", "0.3"]):
    cli.main(argv, standalone_mode=False)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.exit(f"scipy loaded: {loaded}" if loaded else 0)
"""


def test_sweep_and_bound_load_no_scipy(tmp_path):
    # a fresh interpreter: the 45-point sweep grid, one bound report and
    # two matches (tan, and tanh below the essential threshold)
    grid = tmp_path / "grid.txt"
    grid.write_text("n = 3 4 5\nK = -1 -0.25 0 0.25 1\nD = 0.625 1.25 2.5\n")
    src = os.path.dirname(os.path.dirname(specgap.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(grid)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("\n") >= 45 + 1 + 4


_NO_SCIPY_EIGEN = """
import math, sys
from specgap.eigen import EigenQuery, neumann_eigenvalue_shooting
from specgap.model import Branch, ModelParams
for params, a, b in ((ModelParams(3, 1, Branch.TAN), -0.2, math.pi / 2),
                     (ModelParams(3, -1, Branch.COTH), 0.0, 1.8),
                     (ModelParams(3, -1, Branch.TANH), -0.6, 1.6),
                     (ModelParams(2.5, 1, Branch.TAN), -math.pi / 2, 0.3),
                     (ModelParams(1.5, 1, Branch.TAN), -math.pi / 2, 0.3),
                     (ModelParams(1.5, -1, Branch.COTH), 0.0, 1.8)):
    print(neumann_eigenvalue_shooting(EigenQuery(params, a, b)))
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "scipy" or m == "specgap._ode")
sys.exit(f"loaded: {loaded}" if loaded else 0)
"""


def test_asymmetric_eigenvalues_load_no_scipy():
    # asymmetric intervals in a fresh interpreter, all on the flux
    # operator: a tan interval ending at the right pole, a coth one
    # starting at the origin and a tanh one, and on the mesh graded at the
    # pole tan intervals starting at the left pole (n = 2.5 and 1.5) and an
    # n = 1.5 coth interval starting at the origin.  None of them
    # integrates, so the integrator module is not even imported
    src = os.path.dirname(os.path.dirname(specgap.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run([sys.executable, "-c", _NO_SCIPY_EIGEN], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("\n") == 6


def test_match_target_twelve_decades_down(runner):
    # the first-maximum shot keeps m's relative accuracy, so a target of
    # 1e-12 is matched, and m at the returned start meets the closed form
    res = runner.invoke(cli, ["match", "-N", "3", "-K", "-1", "-l", "1.0",
                              "-u", "1e-12", "--format", "json"])
    rec = _json_without_timings(res)
    _, m = n3_first_maximum("tanh", -1.0, 1.0, rec["results"]["a"])
    assert rec["results"]["attained"] == pytest.approx(m, rel=1e-8)
    assert rec["results"]["attained"] == pytest.approx(1e-12, rel=1e-12)


def test_diameter_too_small_exit_2(runner):
    # pi^2/D^2 overflows (D * D underflows to 0 at 1e-200)
    for D in ("1e-200", "1e-160"):
        res = runner.invoke(cli, ["bound", "-n", "3", "-K", "1", "-D", D])
        assert res.exit_code == 2, res.output
        assert "too small" in res.output


def test_infeasible_delta_exit_2(runner):
    res = runner.invoke(cli, ["perturb", "-n", "3", "-d", "0.3",
                              "-l", "1", "-K", "1"])
    assert res.exit_code == 2


@pytest.mark.parametrize("y_grid", ["0", "-3"])
def test_perturb_empty_y_grid_exit_2(runner, y_grid):
    res = runner.invoke(cli, ["perturb", "-n", "3", "-d", "0.1", "-l", "1",
                              "-K", "1", "--y-grid", y_grid])
    assert res.exit_code == 2
    assert "--y-grid" in res.output


def test_alpha_above_one_exit_2(runner, tmp_path):
    res = runner.invoke(cli, ["bound", "-n", "3", "-K", "1", "-D", "1",
                              "--alpha", "5"])
    assert res.exit_code == 2
    assert "alpha" in res.output
    grid = tmp_path / "g.txt"
    grid.write_text("n = 3\nK = 1\nD = 1\nalpha = 5\n")
    res = runner.invoke(cli, ["sweep", str(grid)])
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# config files

def test_config_supplies_defaults(runner, tmp_path):
    cfg = tmp_path / "q.cfg"
    cfg.write_text("n = 3\nK = 1\nD = 2\n")
    res = runner.invoke(cli, ["--config", str(cfg), "bound",
                              "--format", "json"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["query"]["D"] == 2.0


def test_flags_override_config(runner, tmp_path):
    cfg = tmp_path / "q.cfg"
    cfg.write_text("n = 3\nK = 1\nD = 2\nalpha = 0.5\n")
    res = runner.invoke(cli, ["--config", str(cfg), "bound",
                              "-D", "1.0", "--format", "json"])
    rec = json.loads(res.output)
    assert rec["query"]["D"] == 1.0  # flag wins
    assert rec["query"]["alpha"] == 0.5  # config fills the default


def test_config_satisfies_required_options(runner, tmp_path):
    cfg = tmp_path / "q.cfg"
    cfg.write_text("K = 1\n")
    res = runner.invoke(cli, ["--config", str(cfg), "bound",
                              "-n", "3", "-D", "2", "--format", "json"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["query"]["K"] == 1.0
    res = runner.invoke(cli, ["--config", str(cfg), "bound", "-n", "3"])
    assert res.exit_code == 2
    assert "-D" in res.output


def test_config_inline_comment(runner, tmp_path):
    cfg = tmp_path / "q.cfg"
    cfg.write_text("# query\nn = 3\nK = 1  # per dimension\nD = 2\n")
    res = runner.invoke(cli, ["--config", str(cfg), "bound",
                              "--format", "json"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["query"]["K"] == 1.0


def test_config_ignores_non_query_keys(runner, tmp_path):
    # help, the output encoding and jsolve's PROFILE are not query options
    cfg = tmp_path / "q.cfg"
    cfg.write_text("help = 1\nfmt = json\nprofile = nowhere.csv\n"
                   "n = 3\nK = 1\nD = 2\n")
    res = runner.invoke(cli, ["--config", str(cfg), "bound",
                              "--format", "csv"])
    assert res.exit_code == 0, res.output
    assert res.output.startswith("schema_version,")
    res = runner.invoke(cli, ["--config", str(cfg), "bound"])
    assert res.exit_code == 0, res.output
    assert res.output.startswith("schema_version ")


@pytest.mark.parametrize("command,config,flags", [
    ("match", "N = 3\nK = -1\nlam = 2\nu_star = 0.5\ntol = 1e-9\n",
     ["-N", "3", "-K", "-1", "-l", "2", "-u", "0.5", "--tol", "1e-9"]),
    ("jsolve", "length = 6.283185307179586\nn = 3\nK = 1\nmesh = 256\n"
     "geometry = circle\ndelta = 0.5\nkbar-p = 2\n",
     ["-L", "6.283185307179586", "-n", "3", "-K", "1", "--mesh", "256",
      "--delta", "0.5", "--kbar-p", "2"]),
    ("perturb", "n = 3\ndelta = 0.1\nlambda1 = 1\nK = 1\nsigma = 0.01\n"
     "y_grid = 51\n",
     ["-n", "3", "-d", "0.1", "-l", "1", "-K", "1", "--sigma", "0.01",
      "--y-grid", "51"]),
])
def test_config_supplies_subcommand_defaults(runner, tmp_path, profile,
                                             command, config, flags):
    cfg = tmp_path / "q.cfg"
    cfg.write_text(config)
    args = [str(profile)] if command == "jsolve" else []
    from_flags = _json_without_timings(runner.invoke(
        cli, [command] + args + flags + ["--format", "json"]))
    from_config = _json_without_timings(runner.invoke(
        cli, ["--config", str(cfg), command] + args + ["--format", "json"]))
    assert from_config == from_flags


def test_config_malformed_reports_line(runner, tmp_path):
    cfg = tmp_path / "q.cfg"
    cfg.write_text("n = 3\nwhat even is this\n")
    res = runner.invoke(cli, ["--config", str(cfg), "bound"])
    assert res.exit_code == 2
    assert "line 2" in res.output


# ---------------------------------------------------------------------------
# sweep

def test_sweep_single_point_matches_bound(runner, tmp_path):
    grid = tmp_path / "g.txt"
    grid.write_text("n = 3\nK = -1\nD = 1\n")
    srow = next(csv.DictReader(io.StringIO(
        runner.invoke(cli, ["sweep", str(grid)]).output)))
    js = json.loads(runner.invoke(
        cli, ["bound", "-n", "3", "-K", "-1", "-D", "1",
              "--format", "json"]).output)
    assert float(srow["results.model_lambda1"]) == pytest.approx(
        js["results"]["model_lambda1"], rel=1e-12)


def test_sweep_grid_order_and_size(runner, tmp_path):
    grid = tmp_path / "g.txt"
    grid.write_text("n = 3 4\nK = 0  # flat row\nD = 1, 2\n")
    rows = list(csv.DictReader(io.StringIO(
        runner.invoke(cli, ["sweep", str(grid)]).output)))
    assert len(rows) == 4
    assert [r["query.n"] for r in rows] == ["3", "3", "4", "4"]
    assert [r["query.D"] for r in rows] == ["1", "2", "1", "2"]


def test_list_json_for_one_row(runner, tmp_path):
    grid = tmp_path / "g.txt"
    grid.write_text("n = 3\nK = -1\nD = 1\n")
    res = runner.invoke(cli, ["sweep", str(grid), "--format", "json"])
    assert res.exit_code == 0, res.output
    recs = json.loads(res.output)
    assert isinstance(recs, list) and len(recs) == 1
    assert recs[0]["query"]["D"] == 1.0
    res = runner.invoke(cli, ["verify", "S^3(r=2", "--format", "json"])
    assert res.exit_code == 0, res.output
    assert len(json.loads(res.output)) == 1


def test_sweep_malformed_grid(runner, tmp_path):
    grid = tmp_path / "g.txt"
    grid.write_text("n = 3\nbogus := 1\n")
    res = runner.invoke(cli, ["sweep", str(grid)])
    assert res.exit_code == 2
    assert "line 2" in res.output
    grid.write_text("n = 3\nK = 0\n")
    res = runner.invoke(cli, ["sweep", str(grid)])
    assert res.exit_code == 2  # missing D axis
    grid.write_text("n = 3\nn = 4\nK = 0\nD = 1\n")
    res = runner.invoke(cli, ["sweep", str(grid)])
    assert res.exit_code == 2
    assert "duplicate" in res.output


def test_sweep_csv_header_independent_of_row_order(runner, tmp_path):
    headers = []
    for ks in ("-1 1", "1 -1"):
        grid = tmp_path / "g.txt"
        grid.write_text(f"n = 3\nK = {ks}\nD = 1\n")
        res = runner.invoke(cli, ["sweep", str(grid)])
        assert res.exit_code == 0, res.output
        headers.append(res.output.splitlines()[0])
    assert headers[0] == headers[1]
    cols = headers[0].split(",")
    sections = [c.split(".")[0] for c in cols]
    assert sections == sorted(sections, key=["schema_version", "query",
                                             "results", "flags",
                                             "timings"].index)
    assert {"results.lichnerowicz", "results.yang"} <= set(cols)


# ---------------------------------------------------------------------------
# match / jsolve / perturb / verify records

def test_match_record(runner):
    res = runner.invoke(cli, ["match", "-N", "3", "-K", "-1", "-l", "2",
                              "-u", "0.5", "--format", "json"])
    assert res.exit_code == 0, res.output
    rec = json.loads(res.output)
    assert rec["results"]["case"] == "neg-super-tanh"
    assert abs(rec["results"]["residual"]) < 1e-8
    assert rec["results"]["m_min"] == pytest.approx(0.0278749, rel=1e-4)
    assert rec["flags"]["converged"]
    assert not rec["flags"]["boundary"]


def test_match_tol_sets_only_the_converged_flag(runner):
    recs = [_json_without_timings(runner.invoke(
        cli, ["match", "-N", "3", "-K", "1", "-l", "4", "-u", "0.8",
              "--tol", tol, "--format", "json"])) for tol in ("1e-3", "-1")]
    assert recs[0]["results"] == recs[1]["results"]
    assert recs[0]["flags"]["converged"] and not recs[1]["flags"]["converged"]


def test_match_subthreshold_m_min_is_nan_string(runner):
    args = ["match", "-N", "3", "-K", "-1", "-l", "0.9", "-u", "0.5"]
    res = runner.invoke(cli, args + ["--format", "json"])
    assert res.exit_code == 0, res.output
    rec = json.loads(res.output)
    assert rec["results"]["m_min"] == "nan"
    assert rec["results"]["case"] == "neg-sub"
    res = runner.invoke(cli, args + ["--format", "csv"])
    assert res.exit_code == 0, res.output
    row = next(csv.DictReader(io.StringIO(res.output)))
    assert row["results.m_min"] == "nan"
    assert row["results.case"] == "neg-sub"
    res = runner.invoke(cli, args + ["--format", "table"])
    assert res.exit_code == 0, res.output
    assert re.search(r"results\.m_min\s+nan\b", res.output), res.output


def test_jsolve_record(runner, profile):
    res = runner.invoke(cli, ["jsolve", str(profile), "-L", str(2 * math.pi),
                              "-n", "3", "-K", "1", "--mesh", "256",
                              "--format", "json"])
    assert res.exit_code == 0, res.output
    rec = json.loads(res.output)
    assert rec["results"]["sigma"] > 0.0
    assert rec["results"]["k_bar"] > 0.0
    assert rec["flags"]["positive"] and rec["flags"]["sigma_nonneg"]


def test_perturb_record(runner):
    res = runner.invoke(cli, ["perturb", "-n", "3", "-d", "0.1",
                              "-l", "1", "-K", "1", "--format", "json"])
    assert res.exit_code == 0, res.output
    rec = json.loads(res.output)
    assert rec["results"]["N"] == pytest.approx(5.000005, rel=1e-9)
    assert rec["results"]["beta"] == pytest.approx(1.0 / 36.0, rel=1e-9)
    assert all(rec["flags"].values())


def test_verify_filter(runner):
    res = runner.invoke(cli, ["verify", "sphere", "--format", "json"])
    assert res.exit_code == 0, res.output
    recs = json.loads(res.output)
    assert len(recs) >= 3
    assert all(r["flags"]["ok"] for r in recs)


def test_verify_unknown_filter(runner):
    res = runner.invoke(cli, ["verify", "dodecahedron"])
    assert res.exit_code == 2
