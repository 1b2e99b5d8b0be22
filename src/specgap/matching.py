"""Matching the attained maximum of the model eigenfunction to a target.

For fixed (N, Kbar, lambda_bar) the model IVP started at a has a first
maximum m(a) = w(a + d) in (0, 1] for starts at or right of the
symmetric position.  The minimisation/matching facts used here:

* m_min: the infimum of m over the comparison family is attained by the
  start at the singular endpoint (tan's left pole for Kbar > 0, the
  origin of the coth drift for Kbar < 0).
* Kbar > 0: m(a) increases from m_min (pole start) to 1 (symmetric
  start), so any target in [m_min, 1] is matched inside one family.
* Kbar < 0, lambda_bar > theta^2/4: with omega = sqrt(lambda_bar -
  theta^2/4), both drift families approach the constant-drift value
  m_const = exp(-theta pi / (2 omega)) for distant starts; the coth
  family sweeps [m_min, m_const) and the tanh family sweeps (m_const, 1]
  as the start moves left toward the symmetric position.
* Kbar < 0, lambda_bar <= theta^2/4: only the tanh family turns at all,
  and only for starts left of a critical position; its maximum sweeps
  (0, 1] between that critical position and the symmetric start.

The reflection identity w_-(x) = -w(-x)/m maps the solution started at a
to the one started at -b, exchanging the roles of minimum and maximum;
it is what transfers a maximum match into a minimum match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import model
from .eigen import symmetric_interval_length
from .errors import (
    BracketFailure,
    CertifiedInfinite,
    DomainError,
    TargetBelowMinimum,
)
from .model import Branch, ModelParams

__all__ = [
    "MatchResult",
    "ReflectionReport",
    "m_min",
    "constant_drift_limit",
    "reflection_check",
    "match_maximum",
    "r_epsilon",
]

_WALK_STEPS = 64


@dataclass(frozen=True)
class MatchResult:
    params: ModelParams
    a: float
    case: str
    target: float
    attained: float
    residual: float
    boundary: bool = False


@dataclass(frozen=True)
class ReflectionReport:
    sup_err: float
    d_err: float
    max_product_err: float


def _family(params: ModelParams, family: str) -> ModelParams:
    """The same (N, Kbar) on the branch of FAMILY ("pole" or "symmetric").

    "pole" is the comparison family that starts at a singular endpoint;
    "symmetric" is the branch with even weight.
    """
    return ModelParams(params.dim, params.curv,
                       model.branch_for_curvature(params.curv, family))


def constant_drift_limit(params: ModelParams, lambda_bar: float) -> float:
    """Attained maximum for the constant drift -theta (distant-start limit).

    Valid above the essential threshold: exp(-theta pi / (2 omega)) with
    omega = sqrt(lambda_bar - theta^2 / 4).
    """
    if params.curv >= 0:
        raise DomainError("constant-drift limit applies to negative curvature")
    gap = lambda_bar - params.essential_threshold
    if gap <= 0:
        raise DomainError("constant-drift limit needs lambda_bar above "
                          "theta^2/4")
    omega = math.sqrt(gap)
    return math.exp(-params.theta * math.pi / (2.0 * omega))


def m_min(params: ModelParams, lambda_bar: float) -> float:
    """Infimum of the attained maximum over the comparison family.

    Evaluated at the singular start.  Raises CertifiedInfinite when that
    solution never turns (negative curvature below the essential
    threshold), and reports the boundary value 1 at the tan anchor
    lambda_bar = N Kbar.
    """
    pp = _family(params, "pole")
    if pp.branch is Branch.ZERO:
        return 1.0
    if pp.branch is Branch.TAN:
        anchor = pp.dim * pp.curv
        if lambda_bar < anchor * (1.0 - 1e-9):
            raise DomainError(
                f"lambda_bar {lambda_bar} below the full-domain eigenvalue "
                f"{anchor}")
        if lambda_bar <= anchor * (1.0 + 1e-9):
            return 1.0  # full-interval boundary case
    sol = model.solve_ivp(pp, lambda_bar, pp.domain().lo)
    if math.isinf(sol.d):
        raise CertifiedInfinite(
            "comparison solution never attains an interior maximum "
            f"(certificate: {sol.certificate})")
    return sol.m


def reflection_check(params: ModelParams, lambda_bar: float, a: float,
                     n_samples: int = 201) -> ReflectionReport:
    """Verify w_-(x) = -w(-x)/m against the solution started at -b.

    Requires an odd drift (tan, tanh, zero); the coth domain is not
    reflection symmetric.
    """
    if params.branch is Branch.COTH:
        raise DomainError("coth drift has no reflection-symmetric domain")
    sol = model.solve_ivp(params, lambda_bar, a)
    if not math.isfinite(sol.d):
        raise DomainError("reflection check needs a finite first maximum")
    m = sol.m
    refl = model.solve_ivp(params, lambda_bar, -sol.b)
    xs = np.linspace(-sol.b, -a, n_samples)
    lhs = refl.w_at(xs)
    rhs = -sol.w_at(-xs) / m
    sup_err = float(np.max(np.abs(lhs - rhs)))
    d_err = abs(refl.d - sol.d)
    max_product_err = abs(refl.m * m - 1.0)
    return ReflectionReport(sup_err, d_err, max_product_err)


def _family_max(params: ModelParams, lambda_bar: float, a: float):
    """m(a) for one family member; None when certified never to turn."""
    sol = model.solve_ivp(params, lambda_bar, a)
    if math.isinf(sol.d):
        return None
    return sol.m


def _match_root(params: ModelParams, lambda_bar: float, u_star: float,
                lo: float, hi: float, case: str) -> MatchResult:
    """Brent root of m(a) = u_star for starts a in the bracket [lo, hi]."""
    a_root = brentq(lambda a: _family_max(params, lambda_bar, a) - u_star,
                    lo, hi, xtol=1e-13, rtol=8.9e-16)
    attained = _family_max(params, lambda_bar, a_root)
    return MatchResult(params, a_root, case, u_star, attained,
                       attained - u_star)


def match_maximum(params: ModelParams, lambda_bar: float,
                  u_star: float) -> MatchResult:
    """Find the start a whose solution attains max w = u_star.

    Dispatches on curvature sign and the essential threshold, selecting
    the drift family (and a bracket inside it) before a scalar root find
    on the strictly monotone family map a -> m(a).
    """
    if not (0.0 < u_star <= 1.0):
        raise DomainError(f"target maximum must lie in (0, 1], got {u_star}")
    if not (lambda_bar > 0):
        raise DomainError("lambda_bar must be positive")

    if params.curv == 0:
        if u_star < 1.0 - 1e-12:
            raise TargetBelowMinimum(
                "zero-curvature family attains only max w = 1")
        a = -0.5 * math.pi / math.sqrt(lambda_bar)
        return MatchResult(params, a, "zero-symmetric", u_star, 1.0, 0.0)

    if params.curv > 0:
        return _match_tan(_family(params, "pole"), lambda_bar, u_star)
    return _match_negative(params, lambda_bar, u_star)


def _match_symmetric(params: ModelParams, lambda_bar: float,
                     u_star: float, case: str) -> MatchResult:
    even = _family(params, "symmetric")
    a = -0.5 * symmetric_interval_length(even, lambda_bar)
    return MatchResult(even, a, case, u_star, 1.0, 1.0 - u_star)


def _match_tan(params: ModelParams, lambda_bar: float,
               u_star: float) -> MatchResult:
    anchor = params.dim * params.curv
    if lambda_bar < anchor * (1.0 - 1e-9):
        raise DomainError(
            f"lambda_bar {lambda_bar} below the full-domain eigenvalue "
            f"{anchor}")
    if lambda_bar <= anchor * (1.0 + 1e-9):
        # family degenerate: only the full interval with max 1
        if u_star >= 1.0 - 1e-9:
            a = params.domain().lo
            return MatchResult(params, a, "tan-anchor", u_star, 1.0,
                               1.0 - u_star, boundary=True)
        raise TargetBelowMinimum(
            "at the anchor eigenvalue the family only attains max w = 1")

    lo_val = m_min(params, lambda_bar)
    if u_star < lo_val * (1.0 - 1e-12) - 1e-15:
        raise TargetBelowMinimum(
            f"target {u_star} below family minimum {lo_val}")
    if u_star >= 1.0 - 1e-12:
        return _match_symmetric(params, lambda_bar, u_star, "tan-symmetric")

    pole = params.domain().lo
    a_sym = -0.5 * symmetric_interval_length(params, lambda_bar)
    if u_star <= lo_val:
        return MatchResult(params, pole, "tan-pole", u_star, lo_val,
                           lo_val - u_star, boundary=True)
    return _match_root(params, lambda_bar, u_star, pole, a_sym,
                       "tan-interior")


def _walk_until(fvals_needed, start, step_fn, max_steps=_WALK_STEPS):
    """Geometric walk helper; returns the first argument meeting the goal."""
    a = start
    for k in range(max_steps):
        a = step_fn(start, k)
        if fvals_needed(a):
            return a
    raise BracketFailure("bracket walk exhausted its step budget")


def _match_negative(params: ModelParams, lambda_bar: float,
                    u_star: float) -> MatchResult:
    s = params.scale
    thresh = params.essential_threshold
    coth = _family(params, "pole")
    tanh = _family(params, "symmetric")

    if u_star >= 1.0 - 1e-12:
        return _match_symmetric(params, lambda_bar, u_star,
                                "neg-symmetric")

    if lambda_bar > thresh:
        m_const = constant_drift_limit(params, lambda_bar)
        band = max(1e-9, 1e-9 * m_const)
        lo_val = m_min(coth, lambda_bar)
        if u_star < lo_val * (1.0 - 1e-12) - 1e-15:
            raise TargetBelowMinimum(
                f"target {u_star} below family minimum {lo_val}")
        if u_star <= lo_val:
            return MatchResult(coth, 0.0, "neg-pole", u_star, lo_val,
                               lo_val - u_star, boundary=True)

        if abs(u_star - m_const) <= band:
            # distant-start boundary: both families flatten at m_const
            a_big = 14.0 / (2.0 * s) * max(1.0, math.log(10.0))
            attained = _family_max(tanh, lambda_bar, a_big)
            return MatchResult(tanh, a_big, "neg-constant", u_star,
                               attained, attained - u_star, boundary=True)

        if u_star < m_const:
            # coth family: m increases from m_min (a -> 0) to m_const
            a_hi = _walk_until(
                lambda a: _family_max(coth, lambda_bar, a) - u_star > 0.0,
                0.25 / s, lambda a0, k: a0 * 1.6 ** k)
            return _match_root(coth, lambda_bar, u_star, coth.domain().lo,
                               a_hi, "neg-super-coth")

        # tanh family: m decreases from 1 (symmetric start) to m_const
        a_sym = -0.5 * symmetric_interval_length(tanh, lambda_bar)
        a_hi = _walk_until(
            lambda a: _family_max(tanh, lambda_bar, a) - u_star < 0.0,
            a_sym, lambda a0, k: a0 + (2.0 ** k) * 0.25 / s)
        return _match_root(tanh, lambda_bar, u_star, a_sym, a_hi,
                           "neg-super-tanh")

    # below the essential threshold: tanh starts left of the critical
    # position; m sweeps (0, 1] on [a_sym, a_crit)
    a_sym = -0.5 * symmetric_interval_length(tanh, lambda_bar)

    def m_of(a):
        return _family_max(tanh, lambda_bar, a)

    a_lo, f_lo = a_sym, 1.0 - u_star
    a_hi = None
    a_probe = a_sym
    for k in range(_WALK_STEPS):
        a_probe = a_sym + (2.0 ** k) * 0.25 / s
        mk = m_of(a_probe)
        if mk is None:
            # stepped past the critical start; bisect back to finite m
            lo, hi = a_lo, a_probe
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                mm = m_of(mid)
                if mm is None:
                    hi = mid
                elif mm > u_star:
                    lo, a_lo = mid, mid
                else:
                    a_hi = mid
                    break
            if a_hi is not None:
                break
            raise BracketFailure("could not straddle the target before the "
                                 "critical start")
        if mk > u_star:
            a_lo = a_probe
        else:
            a_hi = a_probe
            break
    if a_hi is None:
        raise BracketFailure("bracket walk exhausted its step budget")
    return _match_root(tanh, lambda_bar, u_star, a_lo, a_hi, "neg-sub")


def r_epsilon(params: ModelParams, lambda_bar: float, a: float, eps: float,
              delta: float) -> float:
    """sqrt(1 - delta) times the distance from a to the level w = -1 + eps.

    The model's inner radius surrogate: how far the solution must travel
    from its minimum before rising by eps, deflated by the perturbation
    factor.
    """
    if not (0.0 <= delta < 1.0):
        raise DomainError(f"delta must lie in [0, 1), got {delta}")
    sol = model.solve_ivp(params, lambda_bar, a)
    if not math.isfinite(sol.d):
        raise DomainError("level distance needs a finite first maximum")
    if not (0.0 < eps <= 1.0 + sol.m):
        raise DomainError(
            f"eps must lie in (0, 1 + max w] = (0, {1.0 + sol.m}], got {eps}")
    t_eps = sol.w_inverse(-1.0 + eps)
    return math.sqrt(1.0 - delta) * (t_eps - a)
