"""Closed-form spectral-gap lower bounds and their comparison report.

Classical benchmarks for the first nonzero Neumann/closed eigenvalue of
an n-manifold with Ric >= (n-1)K and diameter D:

    lichnerowicz   n K                          (K > 0)
    zhong_yang     pi^2 / D^2                   (K  = 0, any K as D-only)
    shi_zhang      max_s 4(s-s^2) pi^2/D^2 + s(n-1)K   over s in (0,1)
    yang           pi^2/D^2 exp(-c_n D sqrt((n-1)|K|)),  c_n = max{2, n-1}
    aubry          n K (1 - C k_bar), floored at 0      (K > 0)

All of them are dominated by the model value lambda1_model(n, K, D);
bound_report evaluates everything on one query and flags the ordering.
The Shi-Zhang maximizer is explicit: the quadratic in s peaks at
s* = 1/2 + (n-1) K D^2 / (8 pi^2), clamped to [0, 1] when the supremum
over the open interval is only attained in the closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError

__all__ = [
    "lichnerowicz",
    "zhong_yang",
    "shi_zhang",
    "shi_zhang_maximizer",
    "yang",
    "aubry",
    "main_bound",
    "BoundReport",
    "bound_report",
]

_PI2 = math.pi ** 2


def _validate_n(n: float) -> None:
    if not (1 < n < math.inf):
        raise DomainError(f"dimension must be finite and exceed 1, got {n}")


def _validate_alpha(alpha: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")


def _flat_value(D: float) -> float:
    """pi^2 / D^2; DomainError unless D > 0 and the value is finite."""
    if not (D > 0):
        raise DomainError(f"diameter must be positive, got {D}")
    # D * D underflows to 0 below about 1e-162; pi^2 / (D * D) overflows
    # a little above that
    flat = _PI2 / (D * D) if D * D > 0.0 else math.inf
    if flat == math.inf:
        raise DomainError(f"diameter {D} too small: pi^2/D^2 overflows")
    return flat


def lichnerowicz(n: float, K: float) -> float:
    """n K, valid only under positive curvature."""
    _validate_n(n)
    if not (0 < K < math.inf):
        raise DomainError(f"positive finite curvature required, got K = {K}")
    return n * K


def zhong_yang(D: float) -> float:
    """pi^2 / D^2."""
    return _flat_value(D)


def shi_zhang_maximizer(n: float, K: float, D: float) -> tuple[float, bool]:
    """Argmax s of 4(s-s^2) pi^2/D^2 + s(n-1)K and a clamp flag.

    The flag reports that the optimum over the open interval (0,1) is a
    supremum attained only at the returned closure endpoint.
    """
    _validate_n(n)
    _flat_value(D)
    if not math.isfinite(K):
        raise DomainError(f"curvature must be finite, got K = {K}")
    s_star = 0.5 + (n - 1.0) * K * D * D / (8.0 * _PI2)
    if s_star >= 1.0:
        return 1.0, True
    if s_star <= 0.0:
        return 0.0, True
    return s_star, False


def shi_zhang(n: float, K: float, D: float) -> float:
    s, _ = shi_zhang_maximizer(n, K, D)
    return 4.0 * (s - s * s) * _PI2 / (D * D) + s * (n - 1.0) * K


def yang(n: float, K: float, D: float) -> float:
    """pi^2/D^2 damped by exp(-c_n D sqrt((n-1)|K|)) for nonpositive K."""
    _validate_n(n)
    flat = _flat_value(D)
    if not (-math.inf < K <= 0):
        raise DomainError(f"finite nonpositive K required, got K = {K}")
    c_n = max(2.0, n - 1.0)
    return flat * math.exp(-c_n * D * math.sqrt((n - 1.0) * abs(K)))


def aubry(n: float, K: float, p: float, k_bar: float, C: float) -> float:
    """n K (1 - C k_bar) under an L^p smallness of the curvature deficit.

    C is the structural constant for the pair (n, p); the bound
    degenerates to 0 once C k_bar reaches 1 and it never goes negative.
    """
    _validate_n(n)
    if not (0 < K < math.inf):
        raise DomainError(f"positive finite curvature required, got K = {K}")
    if p <= n / 2.0:
        raise DomainError(f"need p > n/2, got p = {p}")
    if k_bar < 0 or C < 0:
        raise DomainError("k_bar and C must be nonnegative")
    return max(n * K * (1.0 - C * k_bar), 0.0)


def main_bound(n: float, K: float, D: float, alpha: float = 1.0) -> float:
    """alpha times the model value lambda1_model(n, K, D)."""
    _validate_alpha(alpha)
    from .eigen import lambda1_model
    return alpha * lambda1_model(n, K, D)


_SLACK = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """All applicable bounds on one (n, K, D) query plus ordering flags."""

    n: float
    K: float
    D: float
    alpha: float
    zhong_yang: float
    shi_zhang: float
    shi_zhang_s: float
    shi_zhang_clamped: bool
    model_lambda1: float
    main_bound: float
    lichnerowicz: float | None = None
    yang: float | None = None
    aubry: float | None = None
    consistency: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(self.consistency.values())

    def as_dict(self) -> dict:
        out = {"n": self.n, "K": self.K, "D": self.D, "alpha": self.alpha}
        for key in ("lichnerowicz", "zhong_yang", "shi_zhang", "shi_zhang_s",
                    "yang", "aubry", "model_lambda1", "main_bound"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        out["shi_zhang_clamped"] = self.shi_zhang_clamped
        return out


def bound_report(n: float, K: float, D: float, alpha: float = 1.0,
                 aubry_inputs: tuple[float, float, float] | None = None
                 ) -> BoundReport:
    """Evaluate every applicable bound and flag ordering against the model.

    aubry_inputs, when given, is the triple (p, k_bar, C).  Each present
    classical bound must sit below the model value within a 1e-9
    relative slack; the flags record each comparison.
    """
    from .eigen import lambda1_model

    _validate_alpha(alpha)
    model = lambda1_model(n, K, D)
    zy = zhong_yang(D)
    s_opt, clamped = shi_zhang_maximizer(n, K, D)
    sz = shi_zhang(n, K, D)
    lich = lichnerowicz(n, K) if K > 0 else None
    yg = yang(n, K, D) if K < 0 else None
    ab = None
    if aubry_inputs is not None and K > 0:
        p, kb, C = aubry_inputs
        ab = aubry(n, K, p, kb, C)

    tol = _SLACK * max(1.0, model)
    # flat-case pi^2/D^2 is a lower envelope only when K >= 0; under
    # negative curvature the model value dips below it and the flat
    # number turns into the upper end of the sandwich
    if K >= 0:
        consistency = {"zhong_yang_le_model": zy <= model + tol}
    else:
        consistency = {"zhong_yang_ge_model": zy >= model - tol}
    consistency["shi_zhang_le_model"] = sz <= model + tol
    if lich is not None:
        consistency["lichnerowicz_le_model"] = lich <= model + tol
    if yg is not None:
        consistency["yang_le_model"] = yg <= model + tol
    if ab is not None:
        consistency["aubry_le_model"] = ab <= model + tol

    return BoundReport(n=n, K=K, D=D, alpha=alpha, zhong_yang=zy,
                       shi_zhang=sz, shi_zhang_s=s_opt,
                       shi_zhang_clamped=clamped, model_lambda1=model,
                       main_bound=alpha * model, lichnerowicz=lich,
                       yang=yg, aubry=ab, consistency=consistency)
