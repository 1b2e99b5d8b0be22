"""Write docs/domain.md: where lambda1(n, K, D) is trusted.

    PYTHONPATH=src python docs/domain_map.py

For each (n, K, D) of the grid it runs both routes on the symmetric
interval of length D:

* the Green operator (lambda1_model, the production route), and
* the Pruefer-angle Brent root launched at the left end, as on any
  other interval (eigen._prufer_eigenvalue),

and compares each value with a reference that shares no code with
either:

* K = 0: pi^2/D^2;
* n = 3: the closed form (w = u / cos or u / cosh turns the ODE into
  u'' + (lambda + K) u = 0), solved with mpmath;
* other n, K < 0: the flux form w' = 1/mu - lambda G, G' = w - (mu'/mu) G
  (G = int_0^t mu w / mu), w(0) = G(0) = 0, integrated by scipy's DOP853
  at rtol 1e-13, where lambda1 is the root of lambda G(D/2) mu(D/2) = 1;
* other n, K > 0: the Pruefer root where it certifies, else none.

A verdict is "meets tol" (within the default tol 1e-10 of the
reference), "typed error" (a SpecgapError), "unchecked" (no reference)
or SILENT MISS.  The grid is n in {1.5, 2, 3, 4, 5, 10}, K from -4 to 2,
and 10 log-spaced D from 0.05 up to 1e-6 short of the closing diameter
pi/sqrt(K) (K > 0), |K| D^2 = 1e3 (K < 0) or 30 (K = 0).
"""

from __future__ import annotations

import math
import os
import time

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from specgap.eigen import _prufer_eigenvalue, lambda1_model
from specgap.errors import SpecgapError
from specgap.model import ModelParams, branch_for_curvature

TOL = 1e-10
DIMS = (1.5, 2.0, 3.0, 4.0, 5.0, 10.0)
CURVS = (-4.0, -1.0, -0.25, 0.0, 0.25, 1.0, 2.0)
N_D = 10
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "domain.md")


def diameters(K: float) -> np.ndarray:
    if K > 0:
        top = math.pi / math.sqrt(K) * (1.0 - 1e-6)
    elif K < 0:
        top = math.sqrt(1e3 / -K)
    else:
        top = 30.0
    return np.geomspace(0.05, top, N_D)


def n3_closed_form(K: float, D: float) -> float:
    """The Neumann end D/2 of the odd u (u(0) = 0) is the first root of
    the flux g u' - g' u, g = cos or cosh of sqrt|K| t; u is entire in
    lambda + K, so a complex square root is safe."""
    with mp.workdps(40 + int(math.sqrt(abs(K)) * D / 2)):
        h, s = mp.mpf(D) / 2, mp.sqrt(abs(mp.mpf(K)))
        if K > 0:
            g, dg = mp.cos(s * h), -s * mp.sin(s * h)
            lo, hi = (mp.pi / (2 * h)) ** 2 - K, (mp.pi / h) ** 2 - K
        else:
            g, dg = mp.cosh(s * h), s * mp.sinh(s * h)
            lo, hi = mp.mpf(0), (mp.pi / (2 * h)) ** 2 - K

        def flux(lam):
            k = mp.sqrt(mp.mpc(lam + K))
            return mp.re(g * mp.cos(k * h) - dg * mp.sin(k * h) / k)

        return float(mp.findroot(flux, (lo, hi), solver="anderson"))


def flux_form(n: float, K: float, D: float, guess: float) -> float:
    """tanh branch: ln lambda + ln G(D/2) + ln mu(D/2) = 0, a Brent root
    in ln lambda; the guess only seeds the bracket."""
    s, n1, L = math.sqrt(-K), n - 1.0, 0.5 * D
    log_mu = n1 * (s * L + math.log1p(math.exp(-2.0 * s * L)) - math.log(2.0))

    def h(log_lam):
        lam = math.exp(log_lam)

        def rhs(t, y):
            return (math.cosh(s * t) ** -n1 - lam * y[1],
                    y[0] - n1 * s * math.tanh(s * t) * y[1])

        sol = solve_ivp(rhs, (0.0, L), [0.0, 0.0], method="DOP853",
                        rtol=1e-13, atol=1e-15)
        return log_lam + math.log(sol.y[1, -1]) + log_mu

    lo = hi = math.log(guess)
    while h(lo) > 0.0:
        lo -= 0.05
    while h(hi) < 0.0:
        hi += 0.05
    return math.exp(brentq(h, lo, hi, xtol=1e-14, rtol=1e-15))


def attempt(fn):
    try:
        return fn()
    except SpecgapError as exc:
        return type(exc).__name__


def verdict(value, ref) -> str:
    if isinstance(value, str):
        return "typed error"
    if ref is None:
        return "unchecked"
    return "meets tol" if abs(value / ref - 1.0) <= TOL else "SILENT MISS"


def text(x) -> str:
    return x if isinstance(x, str) else f"{x:.12e}"


def main() -> None:
    start = time.perf_counter()
    rows = []
    for n in DIMS:
        for K in CURVS:
            params = ModelParams(n, K, branch_for_curvature(K, "symmetric"))
            for D in diameters(K):
                D = float(D)
                green = attempt(lambda: lambda1_model(n, K, D))
                prufer = attempt(lambda: _prufer_eigenvalue(
                    params, -0.5 * D, 0.5 * D, TOL))
                if K == 0:
                    ref, source = math.pi ** 2 / D ** 2, "pi^2/D^2"
                elif n == 3:
                    ref, source = n3_closed_form(K, D), "closed form"
                elif K < 0:
                    seed = green if isinstance(green, float) else prufer
                    ref = (flux_form(n, K, D, seed)
                           if isinstance(seed, float) else None)
                    source = "flux form" if ref else "none"
                elif isinstance(prufer, float):
                    ref, source = prufer, "Pruefer"
                else:
                    ref, source = None, "none"
                rows.append((n, K, D, green, prufer, ref, source,
                             verdict(green, ref),
                             verdict(prufer, None if source == "Pruefer"
                                     else ref)))

    def count(col, what):
        return sum(r[col] == what for r in rows)

    kinds = ("meets tol", "typed error", "unchecked", "SILENT MISS")
    lines = [
        "# Where lambda1(n, K, D) is trusted",
        "",
        "Written by `docs/domain_map.py` (see its docstring for the grid",
        "and the references); do not edit by hand.  Tolerance 1e-10",
        "relative.  `Green` is `lambda1_model` (the Green operator);",
        "`Pruefer` is the Pruefer-angle root launched at the left end;",
        "where it is the reference itself, its verdict is `unchecked`.",
        "",
        "| route | " + " | ".join(kinds) + " |",
        "|---|" + "---|" * len(kinds),
        "| Green | " + " | ".join(str(count(7, k)) for k in kinds) + " |",
        "| Pruefer | " + " | ".join(str(count(8, k)) for k in kinds) + " |",
        "",
        "| n | K | D | theta D | Green | Pruefer | reference | source "
        "| Green verdict | Pruefer verdict |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for n, K, D, green, prufer, ref, source, v1, v2 in rows:
        theta_d = (n - 1.0) * math.sqrt(abs(K)) * D
        lines.append(f"| {n:g} | {K:g} | {D:.6g} | {theta_d:.3g} "
                     f"| {text(green)} | {text(prufer)} "
                     f"| {'-' if ref is None else text(ref)} | {source} "
                     f"| {v1} | {v2} |")
    with open(OUT, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {OUT} in {time.perf_counter() - start:.0f} s: "
          f"{len(rows)} points, Green " + ", ".join(
              f"{count(7, k)} {k}" for k in kinds))


if __name__ == "__main__":
    main()
