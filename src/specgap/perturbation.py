"""Perturbed model parameters for the gradient-comparison argument.

Given the manifold data (n, lambda_1, K) and a perturbation size delta,
the comparison machinery runs on a slightly enlarged eigenvalue
lambda_bar = (1 + 2 delta) lambda_1, an effective dimension N > n, and a
weakened curvature Kbar, chosen so that three scalar conditions hold for
every value of the auxiliary ratio y in the open window

    ( (1-delta)/(1+2delta),  (1+delta)/(1+2delta) ):

    (1)  2 (1-alpha) y^2 - (n+1) y + (n-1) >= 0,
    (2)  1 - 2 n beta / (n+1) - y          >= 0,
    (3)  y (n+1)/(n-1) - (N+1)/(N-1)       >= 0.

Condition (3) is tight as y approaches its lower endpoint, which forces
N >= (r+1)/(r-1) with r = (1-delta)/(1+2delta) (n+1)/(n-1); the choice
here takes that critical value times (1 + 1e-6) so all inequalities are
strict.  alpha and beta are set to half their supremal feasible values.
Kbar is chosen so that the curvature surplus

    (n-1) K - (N-1) Kbar / J - sigma

stays nonnegative for every J in [1-delta, 1+delta]: the binding end is
J = 1-delta when K >= 0 and J = 1+delta when K < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleDelta

__all__ = [
    "PerturbedParams",
    "ConditionReport",
    "choose_lambda_bar",
    "choose_N",
    "choose_alpha_beta",
    "choose_K_bar",
    "perturbed_params",
    "y_window",
    "cond1_margin",
    "cond2_margin",
    "cond3_margin",
    "verify_conditions",
    "check_term_III",
]

_N_MARGIN = 1e-6


def _validate_n_delta(n: float, delta: float) -> None:
    # delta = 0 is the exact unperturbed limit; it stays legal so the
    # diameter chain can report its collapse to equality
    if not (n > 1):
        raise DomainError(f"dimension must exceed 1, got {n}")
    if not (0.0 <= delta < 0.5):
        raise DomainError(f"delta must lie in [0, 0.5), got {delta}")


def choose_lambda_bar(lambda1: float, delta: float) -> float:
    """Enlarged eigenvalue (1 + 2 delta) lambda_1 used by the comparison."""
    if not (0 < lambda1 < math.inf):
        raise DomainError(f"lambda_1 must be positive and finite, got "
                          f"{lambda1}")
    if not (0.0 <= delta < 0.5):
        raise DomainError(f"delta must lie in [0, 0.5), got {delta}")
    return (1.0 + 2.0 * delta) * lambda1


def choose_N(n: float, delta: float) -> float:
    """Smallest effective dimension satisfying condition (3), plus margin.

    Condition (3) at the window's lower end y -> (1-delta)/(1+2delta)
    requires (N+1)/(N-1) <= r := (1-delta)/(1+2delta) (n+1)/(n-1).  For
    that to admit any N the ratio r must exceed 1; large delta with small
    n makes the request infeasible.
    """
    _validate_n_delta(n, delta)
    r = (1.0 - delta) / (1.0 + 2.0 * delta) * (n + 1.0) / (n - 1.0)
    if r <= 1.0 + 1e-12:
        raise InfeasibleDelta(
            f"delta = {delta} leaves no room for an effective dimension at "
            f"n = {n} (window ratio r = {r:.6g} <= 1)")
    n_critical = (r + 1.0) / (r - 1.0)
    return n_critical * (1.0 + _N_MARGIN)


def y_window(delta: float) -> tuple[float, float]:
    """Open interval of auxiliary ratios the conditions must cover."""
    if not (0.0 <= delta < 0.5):
        raise DomainError(f"delta must lie in [0, 0.5), got {delta}")
    return ((1.0 - delta) / (1.0 + 2.0 * delta),
            (1.0 + delta) / (1.0 + 2.0 * delta))


def choose_alpha_beta(n: float, delta: float) -> tuple[float, float]:
    """Half the supremal feasible (alpha, beta) for conditions (1)-(2).

    beta's supremum is explicit.  The smaller root of the condition (1)
    quadratic decreases in alpha from (n+1 - |n-3|)/4 at alpha = 0, so
    the condition is feasible iff y_hi lies at or below that root (to
    1e-12).  It is tight at y_hi when

        alpha = 1 - ((n+1) y_hi - (n-1)) / (2 y_hi^2)
              = (1 - y_hi) ((n-1) - 2 y_hi) / (2 y_hi^2),

    clamped to [0, 1]; the factored form carries 1 - y_hi = delta /
    (1 + 2 delta) exactly, so alpha does not cancel near y_hi = 1.
    """
    _validate_n_delta(n, delta)
    y_hi = y_window(delta)[1]
    beta_sup = (n + 1.0) * (1.0 - y_hi) / (2.0 * n)
    root0 = 0.25 * (n + 1.0 - abs(n - 3.0))
    if root0 < y_hi - 1e-12:
        raise InfeasibleDelta(
            f"condition (1) infeasible already at alpha = 0 for "
            f"n = {n}, delta = {delta}")
    gap = delta / (1.0 + 2.0 * delta)
    alpha_sup = gap * ((n - 1.0) - 2.0 * y_hi) / (2.0 * y_hi * y_hi)
    alpha_sup = min(1.0, max(0.0, alpha_sup))
    return 0.5 * alpha_sup, 0.5 * beta_sup


def choose_K_bar(n: float, delta: float, K: float, sigma: float = 0.0,
                 N: float | None = None,
                 aubry: tuple[float, float] | None = None) -> float:
    """Perturbed model curvature keeping the curvature surplus nonnegative.

    The binding multiplier is (1-delta) on K for K >= 0 and (1+delta)
    for K < 0; the auxiliary-function cost sigma always enters with
    (1+delta).  For K > 0 an optional integral-curvature cap (C, eps)
    additionally enforces Kbar <= n K (1 - C eps) / N.
    """
    _validate_n_delta(n, delta)
    if not math.isfinite(K):
        raise DomainError(f"curvature must be finite, got {K}")
    if not (0 <= sigma < math.inf):
        raise DomainError(f"sigma must be nonnegative and finite, got "
                          f"{sigma}")
    if N is None:
        N = choose_N(n, delta)
    if not (N > 1):
        raise DomainError(f"effective dimension must exceed 1, got {N}")
    if K >= 0:
        base = ((1.0 - delta) * K * (n - 1.0)
                - (1.0 + delta) * sigma) / (N - 1.0)
    else:
        base = ((1.0 + delta) * K * (n - 1.0)
                - (1.0 + delta) * sigma) / (N - 1.0)
    if aubry is not None and K > 0:
        C, eps = aubry
        if C < 0 or eps < 0:
            raise DomainError("integral-curvature cap needs C, eps >= 0")
        base = min(base, n * K * (1.0 - C * eps) / N)
    # the weakening must be strict whenever there is anything to pay
    # for; with K <= 0 and sigma = 0 the scaled value can sit at or
    # above K, which is fine because nothing is charged against it
    if (delta > 0 or sigma > 0) and (K > 0 or sigma > 0) and K >= 0 \
            and not base < K:
        raise DomainError(
            f"perturbed curvature {base} does not fall below K = {K}; "
            f"N = {N} is too small for delta = {delta}")
    return base


@dataclass(frozen=True)
class PerturbedParams:
    """Full perturbed parameter set for one (n, delta, lambda1, K, sigma)."""

    n: float
    delta: float
    lambda1: float
    K: float
    sigma: float
    lambda_bar: float
    N: float
    alpha: float
    beta: float
    K_bar: float

    @property
    def y_lo(self) -> float:
        return y_window(self.delta)[0]

    @property
    def y_hi(self) -> float:
        return y_window(self.delta)[1]


def perturbed_params(n: float, delta: float, lambda1: float, K: float,
                     sigma: float = 0.0,
                     aubry: tuple[float, float] | None = None
                     ) -> PerturbedParams:
    """Assemble the whole perturbed parameter ledger in one call."""
    lam_bar = choose_lambda_bar(lambda1, delta)
    N = choose_N(n, delta)
    alpha, beta = choose_alpha_beta(n, delta)
    K_bar = choose_K_bar(n, delta, K, sigma, N=N, aubry=aubry)
    return PerturbedParams(n=n, delta=delta, lambda1=lambda1, K=K,
                           sigma=sigma, lambda_bar=lam_bar, N=N,
                           alpha=alpha, beta=beta, K_bar=K_bar)


# ---------------------------------------------------------------------------
# condition margins (nonnegative = satisfied)

def cond1_margin(n: float, alpha: float, y):
    y = np.asarray(y, dtype=float)
    out = 2.0 * (1.0 - alpha) * y * y - (n + 1.0) * y + (n - 1.0)
    return out if out.ndim else float(out)


def cond2_margin(n: float, beta: float, y):
    y = np.asarray(y, dtype=float)
    out = 1.0 - 2.0 * n * beta / (n + 1.0) - y
    return out if out.ndim else float(out)


def cond3_margin(n: float, N: float, y):
    y = np.asarray(y, dtype=float)
    out = y * (n + 1.0) / (n - 1.0) - (N + 1.0) / (N - 1.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ConditionReport:
    min_cond1: float
    min_cond2: float
    min_cond3: float

    @property
    def all_ok(self) -> bool:
        return (self.min_cond1 >= 0.0 and self.min_cond2 >= 0.0
                and self.min_cond3 >= 0.0)


def verify_conditions(pp: PerturbedParams, y) -> ConditionReport:
    """Minimum margins of conditions (1)-(3) over the given y values."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return ConditionReport(
        float(np.min(cond1_margin(pp.n, pp.alpha, y))),
        float(np.min(cond2_margin(pp.n, pp.beta, y))),
        float(np.min(cond3_margin(pp.n, pp.N, y))),
    )


def check_term_III(n: float, K: float, N: float, K_bar: float,
                   sigma: float, J) -> float:
    """Minimum of the curvature surplus (n-1)K - (N-1)Kbar/J - sigma.

    J may be a scalar or an array of auxiliary-function values (all
    positive); nonnegative return means the surplus condition holds.
    """
    J = np.atleast_1d(np.asarray(J, dtype=float))
    if np.any(J <= 0):
        raise DomainError("auxiliary-function values must be positive")
    surplus = (n - 1.0) * K - (N - 1.0) * K_bar / J - sigma
    return float(np.min(surplus))
