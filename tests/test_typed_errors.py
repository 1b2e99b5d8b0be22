"""Extreme and non-finite inputs end in a result or a typed error.

Every argument slot of the public entry points gets +-inf, nan, 1e-300
and 1e300 in turn, the other arguments held at a valid call.  A result
or a SpecgapError is fine; a builtin exception (ZeroDivisionError,
ValueError, OverflowError, ...) is not.  The CLI maps SpecgapErrors to
exit codes 2 and 3, so it must never exit 1.
"""

import math

import numpy as np
import pytest
from click.testing import CliRunner

from specgap.auxfunc import CurvatureProfile, Geometry, k_bar, solve_J
from specgap.bounds import (aubry, bound_report, lichnerowicz, shi_zhang,
                            shi_zhang_maximizer, yang)
from specgap.cli import cli
from specgap.eigen import (EigenQuery, lambda1_model,
                           neumann_eigenvalue_shooting,
                           symmetric_interval_length)
from specgap.errors import DomainError, SpecgapError
from specgap.harness import (circle, diameter_chain_check, flat_torus,
                             gradient_comparison_sphere, sphere)
from specgap.matching import (constant_drift_limit, match_maximum,
                              reflection_check)
from specgap.model import Branch, ModelParams, drift_eval, solve_ivp, weight_mu
from specgap.perturbation import (check_term_III, choose_alpha_beta,
                                  choose_N, perturbed_params)

EXTREMES = (math.inf, -math.inf, math.nan, 1e-300, 1e300)

TAN3 = ModelParams(3.0, 1.0, Branch.TAN)
TANH3 = ModelParams(3.0, -1.0, Branch.TANH)


def _mathieu(length, geometry=Geometry.CIRCLE):
    # a deficit 0.5 (1 + cos t) below (n-1) K = 2 at K = 1
    return CurvatureProfile(geometry, length, 3,
                            lambda t: 2.0 - 0.5 * (1.0 + np.cos(t)))


# (callable, valid arguments); each slot is replaced in turn
CALLS = [
    (lambda1_model, (3.0, 1.0, 2.0)),
    (lambda1_model, (3.0, -1.0, 2.0)),
    (lambda lam: symmetric_interval_length(TANH3, lam), (1.5,)),
    (lambda lam: symmetric_interval_length(TAN3, lam), (4.0,)),
    (lambda a, b, tol: neumann_eigenvalue_shooting(
        EigenQuery(TANH3, a, b, tol)), (-0.5, 1.0, 1e-10)),
    (bound_report, (3.0, 1.0, 2.0, 0.9)),
    (lambda lam, u: match_maximum(TAN3, lam, u), (4.5, 0.75)),
    (lambda lam, u: match_maximum(TANH3, lam, u), (1.5, 0.1)),
    (perturbed_params, (3.0, 0.1, 2.0, 1.0)),
    (diameter_chain_check, (3.0, 1.0, 2.5, 0.1)),
    (lambda lam, a: solve_ivp(TANH3, lam, a), (3.0, -1.0)),
    (lambda lam, a: solve_ivp(TAN3, lam, a), (4.5, -math.pi / 2)),
    (lambda k: reflection_check(TANH3, 1.5, -1.0, k), (201,)),
    (lambda k: gradient_comparison_sphere(3, k), (100,)),
    (lambda L, K, tau, mesh: solve_J(_mathieu(L), K, tau, mesh),
     (2 * math.pi, 1.0, 2.0, 64)),
    (lambda L, K, tau, mesh: solve_J(_mathieu(L, Geometry.INTERVAL), K, tau,
                                     mesh), (math.pi, 1.0, 2.5, 64)),
    (lambda L: solve_J(CurvatureProfile.constant(2.5, L, 3), 1.0), (1.0,)),
    (lambda K, p, mesh: k_bar(_mathieu(2 * math.pi), K, p, mesh),
     (1.0, 2.0, 64)),
    (CurvatureProfile.constant, (2.5, 1.0, 3)),
    (lambda base, depth, width, center: k_bar(CurvatureProfile.bump(
        base, depth, width, center, 2 * math.pi, 3), 1.0),
     (2.0, 0.5, 1.0, 3.0)),
    (lambda base, depth, width, center: k_bar(CurvatureProfile.bump(
        base, depth, width, center, 4.0, 3, Geometry.INTERVAL), 1.0),
     (2.0, 0.5, 1.0, 3.0)),
]

# jsolve also takes the profile file the test writes, after its options
COMMANDS = [
    ("bound", ("-n", "3", "-K", "1", "-D", "2")),
    ("match", ("-N", "3", "-K", "1", "-l", "4.5", "-u", "0.75")),
    ("perturb", ("-n", "3", "-d", "0.1", "-l", "2", "-K", "1")),
    ("jsolve", ("-L", "6.283185307179586", "-n", "3", "-K", "1",
                "--tau", "2", "--mesh", "64", "--kbar-p", "2",
                "--delta", "0.5")),
]


def test_extreme_inputs_raise_only_typed_errors(tmp_path):
    escaped = []
    for fn, args in CALLS:
        for i in range(len(args)):
            for x in EXTREMES:
                bad = args[:i] + (x,) + args[i + 1:]
                try:
                    fn(*bad)
                except SpecgapError:
                    pass
                except Exception as exc:
                    escaped.append(f"{fn.__name__}{bad}: {exc!r}")

    profile = tmp_path / "rho.csv"
    t = np.linspace(0.0, 2 * math.pi, 65)
    profile.write_text("".join(f"{x!r},{2.0 - 0.5 * (1.0 + math.cos(x))!r}\n"
                               for x in t))
    runner = CliRunner()
    for name, opts in COMMANDS:
        tail = [str(profile)] if name == "jsolve" else []
        for i in range(1, len(opts), 2):
            for x in EXTREMES:
                argv = [name, *opts[:i], repr(x), *opts[i + 1:], *tail]
                res = runner.invoke(cli, argv)
                if res.exit_code not in (0, 2, 3):
                    escaped.append(f"{argv}: exit {res.exit_code}, "
                                   f"{res.exception!r}")
    assert not escaped, "\n".join(escaped)


def test_non_finite_inputs_are_domain_errors():
    with pytest.raises(DomainError):
        symmetric_interval_length(TANH3, math.inf)
    with pytest.raises(DomainError):
        diameter_chain_check(3.0, 1.0, math.inf, 0.1)
    with pytest.raises(DomainError):
        perturbed_params(3.0, 0.1, math.inf, 1.0)
    with pytest.raises(DomainError):
        perturbed_params(3.0, 0.1, 2.0, -math.inf)
    with pytest.raises(DomainError):
        EigenQuery(TANH3, -math.inf, 1.0)
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            solve_J(_mathieu(2 * math.pi), x, 2.0)
        with pytest.raises(DomainError):
            solve_J(_mathieu(2 * math.pi), 1.0, x)
        with pytest.raises(DomainError):
            k_bar(_mathieu(2 * math.pi), x, 2.0)
        with pytest.raises(DomainError):
            k_bar(_mathieu(2 * math.pi), 1.0, x)
        # these returned nan or inf: choose_N(inf, 0.1) nan,
        # choose_alpha_beta(inf, 0.1) (0.5, nan), shi_zhang(3, nan, 1) nan,
        # shi_zhang_maximizer (nan, False), lichnerowicz(inf, 1) inf and
        # check_term_III with J = [nan] nan
        for call in (lambda: choose_N(x, 0.1),
                     lambda: choose_alpha_beta(x, 0.1),
                     lambda: shi_zhang(3.0, x, 1.0),
                     lambda: shi_zhang_maximizer(3.0, x, 1.0),
                     lambda: lichnerowicz(x, 1.0),
                     lambda: lichnerowicz(3.0, x),
                     lambda: yang(3.0, x, 1.0),
                     lambda: aubry(3.0, x, 2.0, 0.1, 1.0),
                     lambda: check_term_III(3.0, 1.0, 3.0, 0.5, 0.0, [x]),
                     lambda: check_term_III(3.0, x, 3.0, 0.5, 0.0, 1.0),
                     # these built manifolds with nan spectra, or (torus
                     # side inf) lambda1_exact 0 and an infinite diameter,
                     # or returned nan
                     lambda: sphere(3, x),
                     lambda: circle(x),
                     lambda: flat_torus([x]),
                     lambda: flat_torus([1.0, x]),
                     lambda: constant_drift_limit(TANH3, x),
                     lambda: weight_mu(TAN3, x),
                     lambda: drift_eval(TAN3, x)):
            with pytest.raises(DomainError):
                call()
    # nan lies on neither side of the whole line: these returned nan
    for call in (lambda: weight_mu(TANH3, math.nan),
                 lambda: drift_eval(TANH3, [0.5, math.nan])):
        with pytest.raises(DomainError):
            call()
    # no samples raised a builtin ValueError, a fractional count TypeError
    for k in (0, -3, 2.5):
        with pytest.raises(DomainError):
            reflection_check(TANH3, 1.5, -1.0, k)
        with pytest.raises(DomainError):
            gradient_comparison_sphere(3, k)

