"""Desk-scale verification against manifolds with closed-form spectra.

A small catalog of spaces where lambda_1, the diameter, and the Ricci
lower bound are all exact (round spheres, flat tori, circles) feeds the
main inequality lambda_1(M) >= alpha lambda_1(n, K, D).  Two further
checks exercise the analytic core: the gradient comparison on the unit
sphere, where the model solution reproduces |grad u| = sqrt(1 - u^2)
exactly, and the diameter chain, which rescales the perturbed model's
interval back to the original parameters through the model eigenvalues
at the rescaled length and reports the alpha the chain actually achieves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import lambda1_model, symmetric_interval_length
from .errors import DomainError
from .model import Branch, ModelParams, branch_for_curvature, solve_ivp
from .perturbation import perturbed_params

__all__ = [
    "ModelManifold",
    "sphere",
    "flat_torus",
    "circle",
    "catalog",
    "MainInequalityReport",
    "check_main_inequality",
    "GradientReport",
    "gradient_comparison_sphere",
    "ChainReport",
    "diameter_chain_check",
]


@dataclass(frozen=True)
class ModelManifold:
    """A space with exact lambda_1, diameter, and Ricci lower bound."""

    name: str
    kind: str                # "sphere" | "torus" | "circle"
    dim: int
    lambda1_exact: float
    diameter_exact: float
    ricci_lower: float       # (dim - 1) K with K exact

    @property
    def K(self) -> float:
        """Ricci lower bound normalized per dimension."""
        if self.dim >= 2:
            return self.ricci_lower / (self.dim - 1.0)
        return 0.0           # circles are flat


def sphere(n: int, radius: float = 1.0) -> ModelManifold:
    """Round n-sphere: lambda_1 = n/r^2, diam = pi r, K = 1/r^2."""
    if not (2 <= n < math.inf and 0 < radius < math.inf):
        raise DomainError(f"need n >= 2, 0 < radius < inf, got {n}, {radius}")
    r2 = radius * radius
    return ModelManifold(name=f"S^{n}(r={radius:g})", kind="sphere", dim=n,
                         lambda1_exact=n / r2,
                         diameter_exact=math.pi * radius,
                         ricci_lower=(n - 1.0) / r2)


def flat_torus(lengths) -> ModelManifold:
    """Flat torus: lambda_1 = (2 pi / max L)^2, diam = half the diagonal."""
    lengths = [float(L) for L in lengths]
    if not lengths or not all(0 < L < math.inf for L in lengths):
        raise DomainError(f"need finite side lengths > 0, got {lengths}")
    n = len(lengths)
    label = "x".join(f"{L:g}" for L in lengths)
    return ModelManifold(name=f"T^{n}({label})", kind="torus", dim=n,
                         lambda1_exact=(2.0 * math.pi / max(lengths)) ** 2,
                         diameter_exact=0.5 * math.hypot(*lengths),
                         ricci_lower=0.0)


def circle(circumference: float) -> ModelManifold:
    """Circle: lambda_1 = (2 pi / L)^2, diam = L/2, flat."""
    if not 0 < circumference < math.inf:
        raise DomainError(f"circumference must be positive and finite, "
                          f"got {circumference}")
    L = float(circumference)
    return ModelManifold(name=f"S^1(L={L:g})", kind="circle", dim=1,
                         lambda1_exact=(2.0 * math.pi / L) ** 2,
                         diameter_exact=0.5 * L, ricci_lower=0.0)


def catalog() -> list[ModelManifold]:
    """Built-in spaces with closed-form spectra, spanning K > 0 and K = 0."""
    return [
        sphere(2, 1.0),
        sphere(3, 1.0),
        sphere(4, 1.0),
        sphere(3, 2.0),
        flat_torus([1.0, 1.0]),
        flat_torus([2.0, 1.0]),
        flat_torus([2.0 * math.pi] * 3),
        circle(2.0 * math.pi),
        circle(1.0),
    ]


@dataclass(frozen=True)
class MainInequalityReport:
    manifold: str
    dim: int
    K: float
    diameter: float
    lambda1_exact: float
    model_value: float
    alpha: float
    lower_bound: float
    slack: float
    ok: bool


def check_main_inequality(m: ModelManifold,
                          alpha: float = 1.0) -> MainInequalityReport:
    """lambda_1(M) >= alpha * lambda_1(n, K, D), reporting the slack.

    One-dimensional carriers (circles) are flat, and the flat comparison
    value pi^2/D^2 does not depend on the dimension, so they are scored
    against the two-dimensional flat model.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if m.dim < 2 and m.K != 0.0:
        raise DomainError("curved comparison needs dim >= 2")
    model_dim = max(m.dim, 2)
    model_value = lambda1_model(model_dim, m.K, m.diameter_exact)
    lower = alpha * model_value
    slack = m.lambda1_exact - lower
    ok = slack >= -1e-9 * max(1.0, m.lambda1_exact)
    return MainInequalityReport(manifold=m.name, dim=m.dim, K=m.K,
                                diameter=m.diameter_exact,
                                lambda1_exact=m.lambda1_exact,
                                model_value=model_value, alpha=alpha,
                                lower_bound=lower, slack=slack, ok=ok)


@dataclass(frozen=True)
class GradientReport:
    n: int
    n_samples: int
    sup_discrepancy: float
    equator_discrepancy: float
    pole_value: float
    ok: bool


def gradient_comparison_sphere(n: int, n_samples: int = 1000
                               ) -> GradientReport:
    """Gradient bound sharpness on the unit sphere with u = cos(distance).

    The distance function from a pole has |grad u| = sqrt(1 - u^2); the
    model solution at the closing eigenvalue is w = sin(t) on the full
    domain, so w' composed with w^{-1} must reproduce sqrt(1 - u^2) at
    every latitude.  Checks a latitude grid plus the equator and pole
    degeneracies.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if not (isinstance(n_samples, (int, np.integer)) and n_samples > 0):
        raise DomainError(f"need an integer n_samples >= 1, got {n_samples!r}")
    params = ModelParams(float(n), 1.0, Branch.TAN)
    lo = params.domain().lo
    sol = solve_ivp(params, float(n), lo)

    theta = np.linspace(0.0, math.pi, n_samples + 2)[1:-1]
    u = np.cos(theta)
    exact = np.sqrt(1.0 - u * u)
    # one-pass integration into the closing pole is ill-conditioned, so
    # latitudes past the equator are read through the family's
    # reflection identity w(t) = -w(-t) (maximum value 1 here), which
    # lands every inversion in the accurately integrated half
    got = np.array([sol.wp_at(sol.w_inverse(-abs(ui))) for ui in u])
    sup = float(np.max(np.abs(got - exact)))

    equator = abs(sol.wp_at(sol.w_inverse(0.0)) - 1.0)
    pole = abs(sol.wp_at(lo))
    return GradientReport(n=n, n_samples=n_samples, sup_discrepancy=sup,
                          equator_discrepancy=float(equator),
                          pole_value=float(pole),
                          ok=sup < 1e-8 and equator < 1e-8 and pole < 1e-12)


@dataclass(frozen=True)
class ChainReport:
    n: float
    K: float
    lambda1: float
    delta: float
    lambda_bar: float
    N: float
    K_bar: float
    d_bar: float
    target: float
    alpha_achieved: float
    ok: bool


def diameter_chain_check(n: float, K: float, lambda1: float, delta: float,
                         sigma: float = 0.0) -> ChainReport:
    """Rescale the perturbed interval back to (n, K), reporting alpha.

    Starting from lambda_bar = (1+2 delta) lambda_1 and the perturbed
    (N, Kbar), the symmetric interval length d_bar shrinks by
    sqrt(1+delta) to target.  The achieved alpha is lambda_1 over the
    (n, K) model eigenvalue at target; it must stay below 1 and approach
    it as delta -> 0.
    """
    pp = perturbed_params(n, delta, lambda1, K, sigma)
    params_bar = ModelParams(pp.N, pp.K_bar,
                             branch_for_curvature(pp.K_bar, "symmetric"))
    d_bar = symmetric_interval_length(params_bar, pp.lambda_bar)
    target = d_bar / math.sqrt(1.0 + delta)
    alpha_achieved = lambda1 / lambda1_model(n, K, target)
    ok = 0.0 < alpha_achieved <= 1.0 + 1e-12
    return ChainReport(n=n, K=K, lambda1=lambda1, delta=delta,
                       lambda_bar=pp.lambda_bar, N=pp.N, K_bar=pp.K_bar,
                       d_bar=d_bar, target=target,
                       alpha_achieved=alpha_achieved, ok=ok)
