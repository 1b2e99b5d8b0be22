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
  (0, 1] between that critical position and the symmetric start.  A
  start at or past the critical position never turns (solve_ivp
  certifies d = inf); matching counts its maximum as m = 0, the limit of
  m at the critical start, so m stays continuous and non-increasing
  along the family.  Any other certified non-turning start (the "pole"
  certificate: no turn before the tan pole) raises CertifiedInfinite.

Each family is matched by one Brent root in a start variable x in which
m is close to linear, and whose ends are starts with m known from a shot
already taken or in closed form (2 sqrt|Kbar| is the rate at which the
drift approaches its constant limit):

* tan: x = sqrt((a - pole)^2 + c^2) - c, c = (N - 1)/sqrt(lambda_bar),
  from the pole start (m_min) to the symmetric one (m = 1).  Within c of
  the pole, where its drift (N - 1)/(a - pole) outweighs the frequency,
  m is even in a - pole and m ~ m_min + C x; beyond, x grows as a does.
* coth: x = (1 - e^(-2 sqrt|Kbar| a))^2 from the singular start (m_min)
  at x = 0 to the distant starts (m_const) at x = 1.
* tanh: x = 1 - e^(-2 sqrt|Kbar| (a - a_sym)) from the symmetric start
  (m = 1) at x = 0 to the distant starts (m_const, or 0 below the
  threshold) at x = 1.

The reflection identity w_-(x) = -w(-x)/m maps the solution started at a
to the one started at -b, exchanging the roles of minimum and maximum;
it is what transfers a maximum match into a minimum match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .eigen import symmetric_interval_length
from .errors import (CertifiedInfinite, DomainError, NumericalError,
                     TargetBelowMinimum)
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
    if not 0 < gap < math.inf:
        raise DomainError(f"constant-drift limit needs a finite lambda_bar "
                          f"above theta^2/4, got {lambda_bar}")
    omega = math.sqrt(gap)
    return math.exp(-params.theta * math.pi / (2.0 * omega))


def _at_tan_anchor(params: ModelParams, lambda_bar: float) -> bool:
    """Whether lambda_bar lies within 1e-9 (relative) of the anchor N Kbar.

    Raises DomainError below the band: no tan family member lives there.
    """
    anchor = params.dim * params.curv
    if lambda_bar < anchor * (1.0 - 1e-9):
        raise DomainError(
            f"lambda_bar {lambda_bar} below the full-domain eigenvalue "
            f"{anchor}")
    return lambda_bar <= anchor * (1.0 + 1e-9)


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
    if pp.branch is Branch.TAN and _at_tan_anchor(pp, lambda_bar):
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
    if not (isinstance(n_samples, (int, np.integer)) and n_samples > 0):
        raise DomainError(f"need an integer n_samples >= 1, got {n_samples!r}")
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


def _family_max(params: ModelParams, lambda_bar: float, a: float) -> float:
    """m(a) for one family member; 0.0 past the critical start (see top)."""
    sol = model.solve_ivp(params, lambda_bar, a)
    if math.isinf(sol.d) and sol.certificate != "subthreshold":
        raise CertifiedInfinite(f"start {a} never turns ({sol.certificate})")
    return 0.0 if math.isinf(sol.d) else sol.m


def _match_root(params: ModelParams, lambda_bar: float, u_star: float,
                known: dict, x_hi: float, start, case: str) -> MatchResult:
    """Brent root of m(start(x)) = u_star over x in [0, x_hi], START
    monotone, with m memoised from the KNOWN {a: m(a)} of both ends on.
    It stops at the first start within model.RTOL u_star of the target,
    and raises NumericalError where no start floats tell apart is."""
    from ._ode import _EPS, brentq

    def m(a: float) -> float:
        if a not in known:
            known[a] = _family_max(params, lambda_bar, a)
        return known[a]

    def gap(x: float) -> float:
        r = m(start(x)) - u_star
        if abs(r) <= model.RTOL * u_star:
            return 0.0
        # a start that never turns (m = 0) gives only a sign: read as -1,
        # below every turning start's gap, the plateau does not pass for
        # a start near the root
        return r if r > -u_star else -1.0

    a = start(brentq(gap, 0.0, x_hi, xtol=4.0 * _EPS * x_hi, rtol=4.0 * _EPS))
    attained = m(a)
    if abs(attained - u_star) > model.RTOL * u_star:
        raise NumericalError(
            f"no start resolves max w = {u_star!r}: closest a = {a!r} "
            f"attains {attained!r}, residual {attained - u_star!r}")
    return MatchResult(params, a, case, u_star, attained, attained - u_star)


def match_maximum(params: ModelParams, lambda_bar: float,
                  u_star: float) -> MatchResult:
    """Find the start a whose solution attains max w = u_star.

    Settles the boundary cases (tan anchor, symmetric start, singular
    start, constant-drift band), then takes one Brent root in the drift
    family's start variable (see the module docstring), which stops at
    the first start whose m lies within model.RTOL u_star of the target,
    the accuracy to which a shot resolves m.  No start is solved twice,
    nor one whose m is known.  On negative curvature the singular start's
    m_min is solved only for targets up to the band around m_const.
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

    pole = _family(params, "pole")
    even = _family(params, "symmetric")
    prefix = "tan" if params.curv > 0 else "neg"
    if params.curv > 0 and _at_tan_anchor(pole, lambda_bar):
        # family degenerate: only the full interval with max 1
        if u_star >= 1.0 - 1e-9:
            return MatchResult(pole, pole.domain().lo, "tan-anchor", u_star,
                               1.0, 1.0 - u_star, boundary=True)
        raise TargetBelowMinimum(
            "at the anchor eigenvalue the family only attains max w = 1")

    if u_star >= 1.0 - 1e-12:
        a = -0.5 * symmetric_interval_length(even, lambda_bar)
        return MatchResult(even, a, f"{prefix}-symmetric", u_star, 1.0,
                           1.0 - u_star)

    rate = 2.0 * params.scale
    lo = pole.domain().lo
    turns = params.curv > 0 or lambda_bar > params.essential_threshold
    # m_const is m of the distant starts on negative curvature, 0 below the
    # threshold where they never turn.  The tanh family matches every
    # target there and those above the constant-drift band: the singular
    # start neither bounds nor brackets them
    m_const, tanh = 0.0, params.curv < 0
    if params.curv < 0 and turns:
        m_const = constant_drift_limit(params, lambda_bar)
        band = max(1e-9, 1e-9 * m_const)
        tanh = u_star > m_const + band
    if not tanh:
        # the pole family turns, so its singular start bounds m from below
        lo_val = _family_max(pole, lambda_bar, lo)
        if u_star < lo_val * (1.0 - 1e-12) - 1e-15:
            raise TargetBelowMinimum(
                f"target {u_star} below family minimum {lo_val}")
        if u_star <= lo_val:
            return MatchResult(pole, lo, f"{prefix}-pole", u_star, lo_val,
                               lo_val - u_star, boundary=True)
        if params.curv < 0 and abs(u_star - m_const) <= band:
            # distant-start boundary: both families flatten at m_const
            a_big = 14.0 / rate * max(1.0, math.log(10.0))
            attained = _family_max(even, lambda_bar, a_big)
            return MatchResult(even, a_big, "neg-constant", u_star,
                               attained, attained - u_star, boundary=True)
        if params.curv < 0:
            return _match_root(
                pole, lambda_bar, u_star, {lo: lo_val, math.inf: m_const},
                1.0, lambda x: math.log1p(-math.sqrt(x)) / -rate if x < 1.0
                else math.inf, "neg-super-coth")

    # m is 1 at the symmetric start by construction: not solved there
    a_sym = -0.5 * symmetric_interval_length(even, lambda_bar)
    if params.curv > 0:
        # on tan the pole family is the even one; x_hi is a_sym's own x,
        # so that the root's upper end reads its known m = 1
        c = (params.dim - 1.0) / math.sqrt(lambda_bar)
        x_hi = (a_sym - lo) ** 2 / (math.hypot(a_sym - lo, c) + c)
        return _match_root(
            pole, lambda_bar, u_star, {lo: lo_val, a_sym: 1.0}, x_hi,
            lambda x: a_sym if x == x_hi
            else lo + math.sqrt(x * (x + 2.0 * c)), "tan-interior")
    return _match_root(
        even, lambda_bar, u_star, {a_sym: 1.0, math.inf: m_const}, 1.0,
        lambda x: a_sym - math.log1p(-x) / rate if x < 1.0 else math.inf,
        "neg-super-tanh" if turns else "neg-sub")


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
