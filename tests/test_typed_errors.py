"""Extreme and non-finite inputs end in a result or a typed error.

Every argument slot of the public entry points gets +-inf, nan, 1e-300
and 1e300 in turn, the other arguments held at a valid call.  A result
or a SpecgapError is fine; a builtin exception (ZeroDivisionError,
ValueError, OverflowError, ...) is not.  The CLI maps SpecgapErrors to
exit codes 2 and 3, so it must never exit 1.
"""

import math

import pytest
from click.testing import CliRunner

from specgap.bounds import bound_report
from specgap.cli import cli
from specgap.eigen import (EigenQuery, lambda1_model,
                           neumann_eigenvalue_shooting,
                           symmetric_interval_length)
from specgap.errors import DomainError, SpecgapError
from specgap.harness import diameter_chain_check
from specgap.matching import match_maximum
from specgap.model import Branch, ModelParams, solve_ivp
from specgap.perturbation import perturbed_params

EXTREMES = (math.inf, -math.inf, math.nan, 1e-300, 1e300)

TAN3 = ModelParams(3.0, 1.0, Branch.TAN)
TANH3 = ModelParams(3.0, -1.0, Branch.TANH)

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
]

COMMANDS = [
    ("bound", ("-n", "3", "-K", "1", "-D", "2")),
    ("match", ("-N", "3", "-K", "1", "-l", "4.5", "-u", "0.75")),
    ("perturb", ("-n", "3", "-d", "0.1", "-l", "2", "-K", "1")),
]


def test_extreme_inputs_raise_only_typed_errors():
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

    runner = CliRunner()
    for name, opts in COMMANDS:
        for i in range(1, len(opts), 2):
            for x in EXTREMES:
                argv = [name, *opts[:i], repr(x), *opts[i + 1:]]
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
