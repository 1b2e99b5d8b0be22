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
  along the walk and a bracket may end past that position.  Any other
  certified non-turning start (the "pole" certificate: no turn before
  the tan pole) raises CertifiedInfinite.

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
from .errors import (BracketFailure, CertifiedInfinite, DomainError,
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


def _walk(m, u_star: float, near: float, probe,
          rising: bool) -> tuple[float, float]:
    """Probe a = probe(0), probe(1), ... until m(a) crosses u_star.

    RISING: m grows along the walk.  Returns the last probe short of the
    target (NEAR if none is) and the first one past it.
    """
    for k in range(64):
        a = probe(k)
        if (m(a) > u_star) == rising:
            return near, a
        near = a
    raise BracketFailure("bracket walk exhausted its step budget")


def _memo(params: ModelParams, lambda_bar: float, known: dict):
    """m(a) for the family of PARAMS, memoised for the call from the KNOWN
    values {a: m(a)} on."""
    def m(a: float) -> float:
        if a not in known:
            known[a] = _family_max(params, lambda_bar, a)
        return known[a]
    return m


def _match_root(params: ModelParams, m, u_star: float, lo: float, hi: float,
                case: str) -> MatchResult:
    """Brent root of m(a) = u_star for starts a in the bracket [lo, hi],
    stopped at the first start whose m a shot resolves to u_star: within
    model.RTOL u_star."""
    from ._ode import brentq

    def gap(a: float) -> float:
        r = m(a) - u_star
        return 0.0 if abs(r) <= model.RTOL * u_star else r

    a_root = brentq(gap, lo, hi, xtol=1e-13, rtol=8.9e-16)
    attained = m(a_root)
    return MatchResult(params, a_root, case, u_star, attained,
                       attained - u_star)


def match_maximum(params: ModelParams, lambda_bar: float,
                  u_star: float) -> MatchResult:
    """Find the start a whose solution attains max w = u_star.

    Settles the boundary cases (tan anchor, symmetric start, singular
    start, constant-drift band), then selects the drift family and a
    bracket inside it for a Brent root of the monotone map a -> m(a).
    The root stops at the first start whose m lies within model.RTOL
    u_star of the target, the accuracy to which a shot resolves m.  Each
    family's m is memoised for the call, so no start is solved twice, and
    starts with m (1 at the symmetric start, by construction) already
    known are not solved at all.  On negative curvature the singular
    start's m_min is solved only for targets up to the band around
    m_const: the targets above are the tanh family's, which m_min
    neither bounds nor brackets.
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

    s = params.scale
    known = {}
    m_pole = _memo(pole, lambda_bar, known)
    turns = params.curv > 0 or lambda_bar > params.essential_threshold
    # the tanh family matches every target below the essential threshold,
    # where the pole family does not turn, and those above the
    # constant-drift band; the singular start neither bounds nor brackets
    # them
    tanh = params.curv < 0
    if params.curv < 0 and turns:
        m_const = constant_drift_limit(params, lambda_bar)
        band = max(1e-9, 1e-9 * m_const)
        tanh = u_star > m_const + band
    if not tanh:
        # the pole family turns, so its singular start bounds m from below
        lo_val = m_pole(pole.domain().lo)
        if u_star < lo_val * (1.0 - 1e-12) - 1e-15:
            raise TargetBelowMinimum(
                f"target {u_star} below family minimum {lo_val}")
        if u_star <= lo_val:
            return MatchResult(pole, pole.domain().lo, f"{prefix}-pole",
                               u_star, lo_val, lo_val - u_star, boundary=True)
        if params.curv < 0 and abs(u_star - m_const) <= band:
            # distant-start boundary: both families flatten at m_const
            a_big = 14.0 / (2.0 * s) * max(1.0, math.log(10.0))
            attained = _family_max(even, lambda_bar, a_big)
            return MatchResult(even, a_big, "neg-constant", u_star,
                               attained, attained - u_star, boundary=True)
        if params.curv < 0:
            # coth family: m increases from m_min (a -> 0) to m_const
            a_lo, a_hi = _walk(m_pole, u_star, 0.0,
                               lambda k: 0.25 / s * 1.6 ** k, rising=True)
            return _match_root(pole, m_pole, u_star, a_lo, a_hi,
                               "neg-super-coth")

    # m is 1 at the symmetric start by construction: not solved there
    a_sym = -0.5 * symmetric_interval_length(even, lambda_bar)
    if params.curv > 0:
        known[a_sym] = 1.0  # on tan the pole family is the even one
        return _match_root(pole, m_pole, u_star, pole.domain().lo, a_sym,
                           "tan-interior")
    # tanh family: m decreases from 1 (symmetric start) toward m_const,
    # or below the threshold to 0 at the critical start and beyond
    m_even = _memo(even, lambda_bar, {a_sym: 1.0})
    a_lo, a_hi = _walk(m_even, u_star, a_sym,
                       lambda k: a_sym + 2.0 ** k * 0.25 / s, rising=False)
    return _match_root(even, m_even, u_star, a_lo, a_hi,
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
