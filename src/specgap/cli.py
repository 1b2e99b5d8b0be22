"""Command-line front end with machine-readable output.

Every subcommand assembles one record (or a list of records) shaped as

    {schema_version, query, results, flags, timings}

and prints it as an aligned table (6 significant digits), JSON, or CSV
(both at full round-trip precision).  Exit codes: 0 success, 2 bad
input, 3 numerical failure.  A flat key=value config file supplies
option defaults below explicit flags to bound, match, jsolve and
perturb.
"""

from __future__ import annotations

import json
import math
import os
import time
from itertools import product

import click
import numpy as np

from . import bounds as bounds_mod
from . import harness as harness_mod
from . import matching as matching_mod
from . import perturbation as perturbation_mod
from .auxfunc import (CurvatureProfile, Geometry, check_lemma_J, k_bar,
                      solve_J)
from .errors import CertifiedInfinite, InputError, NumericalError
from .model import ModelParams, branch_for_curvature

SCHEMA_VERSION = "1"

_FMT = click.option("--format", "fmt",
                    type=click.Choice(["table", "json", "csv"]),
                    default="table", show_default=True,
                    help="output encoding")


# ---------------------------------------------------------------------------
# record assembly and emission

def _record(query: dict, results: dict, flags: dict,
            timings: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "query": query,
            "results": results, "flags": flags, "timings": timings}


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else str(x)  # "nan", "inf", "-inf"
    return obj


def _scalar_text(val, digits: int) -> str:
    if isinstance(val, (bool, np.bool_)):
        return "true" if val else "false"
    if isinstance(val, (float, np.floating)):
        return format(float(val), f".{digits}g")  # "nan", "inf", "-inf" too
    return str(val)


_SECTIONS = ("query", "results", "flags", "timings")


def _flatten(record: dict) -> dict:
    flat = {"schema_version": record["schema_version"]}
    for section in _SECTIONS:
        for key, val in record[section].items():
            flat[f"{section}.{key}"] = val
    return flat


def _csv_columns(flats: list[dict]) -> list[str]:
    """Union of the rows' columns, section by section.

    Within a section the keys every row has come first, in record order,
    then the keys only some rows have, by name; so the header does not
    depend on the order of the rows.
    """
    cols = ["schema_version"]
    for section in _SECTIONS:
        keys = [[k for k in f if k.startswith(section + ".")] for f in flats]
        common = [k for k in keys[0] if all(k in row for row in keys)]
        cols += common + sorted(set().union(*keys) - set(common))
    return cols


def _emit(payload, fmt: str) -> None:
    """Print one record (a dict) or a list of records.

    JSON keeps the shape it is given: an object for a single-record
    subcommand, a list (of any length) for sweep and verify.
    """
    if fmt == "json":
        click.echo(json.dumps(_jsonify(payload), indent=2))
        return
    records = [payload] if isinstance(payload, dict) else payload
    if fmt == "csv":
        flats = [_flatten(r) for r in records]
        cols = _csv_columns(flats)
        click.echo(",".join(cols))
        for f in flats:
            click.echo(",".join(
                _scalar_text(f[k], 17) if k in f else "" for k in cols))
        return
    for rec in records:
        flat = _flatten(rec)
        width = max(len(k) for k in flat)
        for key, val in flat.items():
            click.echo(f"{key.ljust(width)}  {_scalar_text(val, 6)}")
        if rec is not records[-1]:
            click.echo("")


# ---------------------------------------------------------------------------
# key=value files (config and sweep grids)

def _key_values(path: str):
    """Yield (lineno, key, value) for each 'key = value' line of PATH.

    '#' starts a comment; blank lines are skipped.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise click.UsageError(
                    f"{path}, line {lineno}: expected 'key = value', "
                    f"got {text!r}")
            key, _, val = text.partition("=")
            yield lineno, key.strip(), val.strip()


# ---------------------------------------------------------------------------
# group with library-error mapping so exit codes survive standalone mode

class _ErrorMappingGroup(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InputError as exc:
            wrapped = click.ClickException(f"input error: {exc}")
            wrapped.exit_code = 2
            raise wrapped from exc
        except NumericalError as exc:
            wrapped = click.ClickException(f"numerical failure: {exc}")
            wrapped.exit_code = 3
            raise wrapped from exc


# subcommands whose option defaults a --config file supplies
_CONFIGURED = ("bound", "match", "jsolve", "perturb")
_NOT_CONFIGURED = ("help", "fmt", "profile")  # not query options


@click.group(cls=_ErrorMappingGroup,
             context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              default=None, help="flat key=value file supplying defaults")
@click.pass_context
def cli(ctx, config):
    """Spectral-gap model eigenvalues, bounds, and verification tools."""
    if config:
        values = {key.replace("-", "_"): val
                  for _, key, val in _key_values(config)
                  if key not in _NOT_CONFIGURED}
        ctx.default_map = {name: values for name in _CONFIGURED}


main = cli


# ---------------------------------------------------------------------------
# bound

@cli.command()
@click.option("-n", "--dim", "n", type=float, required=True,
              help="manifold dimension")
@click.option("-K", "--curv", "K", type=float, required=True,
              help="Ricci lower bound per dimension")
@click.option("-D", "--diameter", "D", type=float, required=True)
@click.option("-a", "--alpha", type=float, default=1.0, show_default=True)
@click.option("--aubry-C", "aubry_c", type=float, default=None,
              help="structural constant C(n,p)")
@click.option("--aubry-kbar", type=float, default=None)
@click.option("--aubry-p", type=float, default=None)
@_FMT
def bound(n, K, D, alpha, aubry_c, aubry_kbar, aubry_p, fmt):
    """All applicable lower bounds at one (n, K, D), with ordering flags."""
    aubry_inputs = None
    given = [aubry_p, aubry_kbar, aubry_c]
    if any(v is not None for v in given):
        if any(v is None for v in given):
            raise click.UsageError(
                "--aubry-p, --aubry-kbar, --aubry-C must be given together")
        aubry_inputs = tuple(given)
    query = {"n": n, "K": K, "D": D, "alpha": alpha}
    if aubry_inputs is not None:
        query.update(aubry_p=aubry_p, aubry_kbar=aubry_kbar, aubry_C=aubry_c)
    _emit(_bound_record(query, aubry_inputs), fmt)


def _bound_record(query: dict, aubry_inputs=None) -> dict:
    """Time bound_report at the query's (n, K, D, alpha); build its record."""
    t0 = time.perf_counter()
    rep = bounds_mod.bound_report(query["n"], query["K"], query["D"],
                                  query["alpha"], aubry_inputs)
    dt = time.perf_counter() - t0
    results = {k: v for k, v in rep.as_dict().items() if k not in query}
    return _record(query, results, dict(rep.consistency), {"compute_s": dt})


# ---------------------------------------------------------------------------
# sweep

_GRID_KEYS = ("n", "k", "d", "alpha")


def _parse_grid(path: str) -> dict:
    axes: dict = {}
    for lineno, key, rhs in _key_values(path):
        key = key.lower()
        if key not in _GRID_KEYS:
            raise click.UsageError(
                f"{path}, line {lineno}: unknown axis {key!r} "
                f"(expected one of {', '.join(_GRID_KEYS)})")
        if key in axes:
            raise click.UsageError(
                f"{path}, line {lineno}: duplicate axis {key!r}")
        try:
            vals = [float(tok) for tok in rhs.replace(",", " ").split()]
        except ValueError as exc:
            raise click.UsageError(f"{path}, line {lineno}: {exc}") from None
        if not vals:
            raise click.UsageError(
                f"{path}, line {lineno}: axis {key!r} has no values")
        axes[key] = vals
    for req in ("n", "k", "d"):
        if req not in axes:
            raise click.UsageError(f"{path}: missing required axis {req!r}")
    axes.setdefault("alpha", [1.0])
    return axes


@cli.command()
@click.argument("gridfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt",
              type=click.Choice(["table", "json", "csv"]), default="csv",
              show_default=True)
def sweep(gridfile, fmt):
    """Bound reports over the cartesian grid in GRIDFILE.

    The grid file holds lines 'axis = v1 v2 ...' (comma or space
    separated) for axes n, K, D and optionally alpha; '#' starts a
    comment.  Rows print in grid order (n outermost, alpha innermost) once
    the whole grid is done, as the CSV header joins every row's columns.
    """
    axes = _parse_grid(gridfile)
    _emit([_bound_record(dict(n=n, K=K, D=D, alpha=alpha))
           for n, K, D, alpha in product(axes["n"], axes["k"], axes["d"],
                                         axes["alpha"])], fmt)


# ---------------------------------------------------------------------------
# match

@cli.command()
@click.option("-N", "--dim", "N", type=float, required=True,
              help="model dimension (integer not required)")
@click.option("-K", "--curv", "K", type=float, required=True,
              help="model curvature")
@click.option("-l", "--lam", "lam", type=float, required=True,
              help="model eigenvalue")
@click.option("-u", "--target", "u_star", type=float, required=True,
              help="maximum value to match, in (0, 1]")
@click.option("--tol", type=float, default=1e-8, show_default=True,
              help="flags.converged holds when the residual is at most "
                   "this; the root find does not read it")
@_FMT
def match(N, K, lam, u_star, tol, fmt):
    """Start point a whose solution attains the prescribed maximum."""
    params = ModelParams(N, K, branch_for_curvature(K, family="pole"))
    t0 = time.perf_counter()
    res = matching_mod.match_maximum(params, lam, u_star)
    try:
        mmin = matching_mod.m_min(params, lam)
    except CertifiedInfinite:
        mmin = math.nan
    dt = time.perf_counter() - t0
    query = {"N": N, "K": K, "lam": lam, "u_star": u_star, "tol": tol}
    results = {"a": res.a, "case": res.case, "attained": res.attained,
               "residual": res.residual, "m_min": mmin}
    flags = {"boundary": res.boundary,
             "converged": res.boundary or res.residual <= tol}
    _emit(_record(query, results, flags, {"compute_s": dt}), fmt)


# ---------------------------------------------------------------------------
# jsolve

@cli.command()
@click.argument("profile", type=click.Path(exists=True, dir_okay=False))
@click.option("--geometry", type=click.Choice(["circle", "interval"]),
              default="circle", show_default=True)
@click.option("-L", "--length", "length", type=float, required=True,
              help="carrier length (circumference or interval length)")
@click.option("-n", "--dim", "n", type=int, required=True,
              help="ambient dimension the profile refers to")
@click.option("-K", "--curv", "K", type=float, required=True)
@click.option("--tau", type=float, default=2.0, show_default=True)
@click.option("--delta", type=float, default=None,
              help="flag whether max |J-1| <= delta")
@click.option("--mesh", type=int, default=1024, show_default=True)
@click.option("--kbar-p", "kbar_p", type=float, default=1.0,
              show_default=True)
@_FMT
def jsolve(profile, geometry, length, n, K, tau, delta, mesh, kbar_p, fmt):
    """Auxiliary multiplier J for the curvature profile in PROFILE (CSV
    't,rho')."""
    t0 = time.perf_counter()
    prof = CurvatureProfile.from_csv(profile, length, n, Geometry(geometry))
    sol = solve_J(prof, K, tau, mesh)
    rep = check_lemma_J(sol)
    kb = k_bar(prof, K, kbar_p)
    dt = time.perf_counter() - t0
    dev = float(np.max(np.abs(sol.J - 1.0)))
    query = {"profile": os.fspath(profile), "geometry": geometry,
             "length": length, "n": n, "K": K, "tau": tau, "mesh": mesh,
             "kbar_p": kbar_p}
    results = {"sigma": sol.sigma, "sigma_tilde": sol.sigma_tilde,
               "k_bar": kb, "J_min": float(np.min(sol.J)),
               "J_max": float(np.max(sol.J)), "max_J_minus_1": dev,
               "residual_sup": rep.residual_sup}
    flags = {"positive": rep.positive, "mean_one": rep.mean_one,
             "sigma_nonneg": rep.sigma_nonneg}
    if delta is not None:
        query["delta"] = delta
        flags["j_within_delta"] = dev <= delta
    _emit(_record(query, results, flags, {"compute_s": dt}), fmt)


# ---------------------------------------------------------------------------
# perturb

@cli.command()
@click.option("-n", "--dim", "n", type=float, required=True)
@click.option("-d", "--delta", type=float, required=True)
@click.option("-l", "--lambda1", "lambda1", type=float, required=True)
@click.option("-K", "--curv", "K", type=float, required=True)
@click.option("--sigma", type=float, default=0.0, show_default=True)
@click.option("--y-grid", "y_grid", type=click.IntRange(min=1), default=1001,
              show_default=True, help="interior sample count for the "
              "condition window")
@_FMT
def perturb(n, delta, lambda1, K, sigma, y_grid, fmt):
    """Perturbed parameter ledger with condition margins."""
    t0 = time.perf_counter()
    pp = perturbation_mod.perturbed_params(n, delta, lambda1, K, sigma)
    y = np.linspace(pp.y_lo, pp.y_hi, y_grid + 2)[1:-1]
    cond = perturbation_mod.verify_conditions(pp, y)
    j_range = np.linspace(1.0 - pp.delta, 1.0 + pp.delta, 101)
    term3 = perturbation_mod.check_term_III(pp.n, pp.K, pp.N, pp.K_bar,
                                            pp.sigma, j_range)
    dt = time.perf_counter() - t0
    query = {"n": n, "delta": delta, "lambda1": lambda1, "K": K,
             "sigma": sigma}
    results = {"lambda_bar": pp.lambda_bar, "N": pp.N, "alpha": pp.alpha,
               "beta": pp.beta, "K_bar": pp.K_bar, "y_lo": pp.y_lo,
               "y_hi": pp.y_hi, "min_cond1": cond.min_cond1,
               "min_cond2": cond.min_cond2, "min_cond3": cond.min_cond3,
               "min_term_III": term3}
    flags = {"cond1": cond.min_cond1 >= 0, "cond2": cond.min_cond2 >= 0,
             "cond3": cond.min_cond3 >= 0, "term_III": term3 >= 0}
    _emit(_record(query, results, flags, {"compute_s": dt}), fmt)


# ---------------------------------------------------------------------------
# verify

@cli.command()
@click.argument("name_filter", required=False, default=None)
@click.option("--alpha", type=float, default=1.0, show_default=True)
@_FMT
def verify(name_filter, alpha, fmt):
    """Main-inequality checks over the built-in catalog.

    NAME_FILTER, when given, keeps catalog entries whose name contains
    it (case-insensitive).
    """
    rows = harness_mod.catalog()
    if name_filter:
        needle = name_filter.lower()
        rows = [m for m in rows
                if needle in m.name.lower() or needle in m.kind]
        if not rows:
            raise click.UsageError(
                f"no catalog entry matches {name_filter!r}")
    records = []
    for m in rows:
        t0 = time.perf_counter()
        rep = harness_mod.check_main_inequality(m, alpha)
        dt = time.perf_counter() - t0
        query = {"manifold": rep.manifold, "dim": rep.dim, "K": rep.K,
                 "diameter": rep.diameter, "alpha": rep.alpha}
        results = {"lambda1_exact": rep.lambda1_exact,
                   "model_value": rep.model_value,
                   "lower_bound": rep.lower_bound, "slack": rep.slack}
        records.append(_record(query, results, {"ok": rep.ok},
                               {"compute_s": dt}))
    _emit(records, fmt)


if __name__ == "__main__":
    main()
