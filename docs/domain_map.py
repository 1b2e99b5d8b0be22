"""Write docs/domain.md: where lambda1(n, K, D) and the eigenvalues of
asymmetric intervals are trusted.

    PYTHONPATH=src python docs/domain_map.py

For each (n, K, D) of the grid it runs two methods on the symmetric
interval of length D:

* the Green operator (lambda1_model, the production route), and
* the Pruefer-angle Brent root launched at the left end, as on any
  other interval (tests/prufer_oracle.py, the tests' shooting oracle),

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

On asymmetric intervals it runs neumann_eigenvalue_shooting (the flux
operator, on the uniform mesh or the one graded at a pole end, counting
its integrator calls) and the Pruefer root on every point.  The points
(seeded draws):

* the six interval kinds of the singular benchmark, 8 draws each;
* 72 long (3, -1) intervals of length 4.5 to 8, 36 tanh with a in
  [-2, 0] and 36 coth with a in [0, 1];
* 32 (10, -1) tanh intervals, [-1.863, 2.082], [-1.55, 2.747] and 30
  with a in [-2, -0.3] and b in [0.5, 3];
* tan intervals at the left and the right pole and coth ones at the
  origin, and the same 1e-6 and 1e-3 away, for n in {1.5, 2, 2.5, 3,
  4.5};
* three long (3, -1) intervals near the essential threshold;
* long pole: coth [0, L] with K = -1 for n in {1.2, 1.5, 1.8, 2.5, 3,
  3.5, 4.5, 7, 7.5, 10.5} and theta L = (n - 1) L in {5, 10, 20, 50,
  100, 200, 300}.

References: for n = 3 the closed form on [a, b] (n3_interval); for the
(10, -1) intervals a flux-form shot w' = F / mu, F' = -lambda mu w,
w(a) = 1, F(a) = 0 by scipy's DOP853 at rtol 1e-13, with lambda_1 the
root of F(b) whose w changes sign once; otherwise the Pruefer root where
it certifies, else none.  bench/reference.lambda1_interval is not used:
its scan steps over lambda_1 where lambda_2 / lambda_1 < 1.25.
"""

from __future__ import annotations

import math
import os
import sys
import time

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from specgap import model
from specgap.eigen import (EigenQuery, _pole_ends, lambda1_model,
                           neumann_eigenvalue_shooting)
from specgap.errors import SpecgapError
from specgap.model import Branch, ModelParams, branch_for_curvature

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests"))
from prufer_oracle import prufer_eigenvalue  # noqa: E402

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


def n3_interval(K: float, branch: str, a: float, b: float):
    """lambda_1 of the n = 3 model on [a, b] from the closed form, or None.

    With mu = g^2 (g = cos, cosh or sinh of sqrt|K| t), w = u / g turns
    the ODE into u'' + (lambda + K) u = 0, and from w'(a) = 0 (u = g,
    u' = g' at a) the Neumann end b is a root of the flux g u' - g' u in
    lambda.  Below the essential threshold -K (K < 0) at most one root
    lies (u then has at most one zero), so a geometric scan there cannot
    step over two; above it the scan is linear in k = sqrt(lambda + K),
    from k = 0, by a sixteenth of pi / (b - a), the spacing of the roots
    in k.  The first root, by bisection, is lambda_1 only if its w
    changes sign once; otherwise None.
    """
    g, dg = {"tan": (mp.cos, lambda z: -mp.sin(z)),
             "tanh": (mp.cosh, mp.sinh), "coth": (mp.sinh, mp.cosh)}[branch]
    with mp.workdps(40 + int(math.sqrt(abs(K)) * (b - a))):
        s, a, b = mp.sqrt(abs(mp.mpf(K))), mp.mpf(a), mp.mpf(b)
        ga, dga = g(s * a), s * dg(s * a)
        gb, dgb = g(s * b), s * dg(s * b)

        def u(lam, t):
            k, tau = mp.sqrt(mp.mpc(lam + K)), t - a
            return (mp.re(ga * mp.cos(k * tau) + dga * mp.sin(k * tau) / k),
                    mp.re(dga * mp.cos(k * tau) - ga * k * mp.sin(k * tau)))

        def flux(lam):
            ub, dub = u(lam, b)
            return (gb * dub - dgb * ub) / lam

        def scan():
            lam = mp.mpf(10) ** -40 * (1 + abs(K))
            while K < 0 and lam < -K:
                yield lam
                lam *= 2
            # from the threshold itself: the last doubling may overshoot
            # it by up to a factor 2, past the first root's k
            k = mp.mpf(0) if K < 0 else mp.sqrt(lam + K)
            dk = mp.pi / (16 * (b - a))
            for _ in range(4000):
                k += dk
                yield k * k - K

        prev = f_prev = None
        for lam in scan():
            f = flux(lam)
            if prev is not None and f * f_prev <= 0:
                break
            prev, f_prev = lam, f
        else:
            return None
        lo, hi = prev, lam
        while hi - lo > mp.mpf(10) ** -20 * hi:  # bisection: flux varies
            mid = (lo + hi) / 2                   # over decades in lambda
            if flux(mid) * f_prev > 0:
                lo = mid
            else:
                hi = mid
        root = (lo + hi) / 2
        w = [u(root, t)[0] / g(s * t) for t in mp.linspace(a, b, 2003)[1:-1]]
        if sum(x * y < 0 for x, y in zip(w, w[1:])) != 1:
            return None
        return float(root)


def flux_shot_tanh(n: float, K: float, a: float, b: float, guess: float):
    """tanh branch: the root of F(b) in [0.8, 1.2] guess from the
    flux-form shot, if its w changes sign once; otherwise None."""
    s, n1 = math.sqrt(-K), n - 1.0

    def shot(lam):
        def rhs(t, y):
            mu = math.cosh(s * t) ** n1
            return y[1] / mu, -lam * mu * y[0]
        return solve_ivp(rhs, (a, b), [1.0, 0.0], method="DOP853",
                         rtol=1e-13, atol=1e-16, dense_output=True)

    try:
        lam = brentq(lambda lam: shot(lam).y[1, -1], 0.8 * guess,
                     1.2 * guess, xtol=1e-300, rtol=8.9e-16)
    except ValueError:
        return None
    w = shot(lam).sol(np.linspace(a, b, 2001))[0]
    return lam if np.count_nonzero(np.diff(np.sign(w))) == 1 else None


def asymmetric_points():
    """(set, params, a, b) of the asymmetric map (module docstring)."""
    rng = np.random.default_rng(18)
    half_pi = math.pi / 2
    tan = ModelParams(3.0, 1.0, Branch.TAN)
    coth = ModelParams(3.0, -1.0, Branch.COTH)
    tanh = ModelParams(3.0, -1.0, Branch.TANH)
    for _ in range(8):
        yield "singular", tan, rng.uniform(-1.0, -0.6), rng.uniform(0.9, 1.1)
        yield "singular", tan, -half_pi, rng.uniform(0.2, 0.4)
        yield "singular", tan, rng.uniform(-0.3, 0.0), half_pi
        yield "singular", coth, 0.0, rng.uniform(1.6, 2.0)
        yield "singular", coth, rng.uniform(0.3, 0.6), rng.uniform(2.0, 2.4)
        yield "singular", tanh, rng.uniform(-0.8, -0.4), rng.uniform(1.4, 1.8)
    for params, lo, hi in ((tanh, -2.0, 0.0), (coth, 0.0, 1.0)):
        for _ in range(36):
            a = rng.uniform(lo, hi)
            yield "long", params, a, a + rng.uniform(4.5, 8.0)
    n10 = ModelParams(10.0, -1.0, Branch.TANH)
    yield "n = 10", n10, -1.863, 2.082
    yield "n = 10", n10, -1.55, 2.747
    for _ in range(30):
        yield "n = 10", n10, rng.uniform(-2.0, -0.3), rng.uniform(0.5, 3.0)
    for n in (1.5, 2.0, 2.5, 3.0, 4.5):
        tan_n = ModelParams(n, 1.0, Branch.TAN)
        coth_n = ModelParams(n, -1.0, Branch.COTH)
        for off in (0.0, 1e-6, 1e-3):
            for b in (-1.2, 0.0, 1.3):
                yield "pole", tan_n, -half_pi + off, b
            yield "pole", tan_n, -0.5, half_pi - off
            for b in (0.3, 1.0, 2.5):
                yield "pole", coth_n, off, b
    for a, b in ((-10.0, 30.0), (-1.0, 60.0)):
        yield "threshold", tanh, a, b
    yield "threshold", coth, 0.0, 40.0
    for n in (1.2, 1.5, 1.8, 2.5, 3.0, 3.5, 4.5, 7.0, 7.5, 10.5):
        for theta_l in (5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 300.0):
            yield "long pole", ModelParams(n, -1.0, Branch.COTH), 0.0, \
                theta_l / (n - 1.0)


def asymmetric_rows():
    """One row per point, and the integrator calls of all the route's
    calls."""
    calls = [0]
    integrate = model._scipy_solve_ivp

    def counted(*args, **kwargs):
        calls[0] += 1
        return integrate(*args, **kwargs)

    rows = []
    for name, params, a, b in asymmetric_points():
        n, K, branch = params.dim, params.curv, params.branch
        model._scipy_solve_ivp = counted
        try:
            route = attempt(lambda: neumann_eigenvalue_shooting(
                EigenQuery(params, a, b, TOL)))
        finally:
            model._scipy_solve_ivp = integrate
        if branch is Branch.TAN and b == params.domain().hi:
            a, b = -b, -a  # what neumann_eigenvalue_shooting runs
        mesh = "graded" if any(_pole_ends(params, a, b)) else "uniform"
        prufer = attempt(lambda: prufer_eigenvalue(params, a, b, TOL))
        if n == 3:
            ref, source = n3_interval(K, branch.value, a, b), "closed form"
        elif branch is Branch.TANH:
            seed = prufer if isinstance(prufer, float) else route
            ref = (flux_shot_tanh(n, K, a, b, seed)
                   if isinstance(seed, float) else None)
            source = "flux shot"
        elif isinstance(prufer, float):
            ref, source = prufer, "Pruefer"
        else:
            ref = None
        if ref is None:
            source = "none"
        rows.append((name, params, a, b, mesh, route, prufer, ref, source,
                     verdict(route, ref),
                     verdict(prufer, None if source == "Pruefer" else ref)))
    return rows, calls[0]


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
                prufer = attempt(lambda: prufer_eigenvalue(
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
        "`Pruefer` is the Pruefer-angle root launched at the left end",
        "(`tests/prufer_oracle.py`);",
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
    asym, integrator_calls = asymmetric_rows()
    lines += [
        "",
        "## Asymmetric intervals",
        "",
        "`route` is `neumann_eigenvalue_shooting`, the flux operator on the",
        "`uniform` mesh or the one `graded` at a pole end, and `Pruefer` the",
        "Pruefer-angle root, each run on every point (a tan interval ending",
        "at the right pole is listed as its mirror image, which the route",
        "runs).  Where the Pruefer root is the reference itself, its verdict",
        f"is `unchecked`.  The route's integrator calls: {integrator_calls}.",
        "",
        "| column | " + " | ".join(kinds) + " |",
        "|---|" + "---|" * len(kinds),
    ]
    for col, label in ((9, "route"), (10, "Pruefer")):
        lines.append(f"| {label} | " + " | ".join(
            str(sum(r[col] == k for r in asym)) for k in kinds) + " |")
    lines += [
        "",
        "| set | n | K | branch | a | b | theta L | mesh | route | Pruefer "
        "| reference | source | route verdict | Pruefer verdict |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for (name, params, a, b, mesh, route, prufer, ref, source, v1,
         v2) in asym:
        lines.append(
            f"| {name} | {params.dim:g} | {params.curv:g} "
            f"| {params.branch.value} | {a:.6g} | {b:.6g} "
            f"| {params.theta * (b - a):.3g} | {mesh} | {text(route)} "
            f"| {text(prufer)} | {'-' if ref is None else text(ref)} "
            f"| {source} | {v1} | {v2} |")
    with open(OUT, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {OUT} in {time.perf_counter() - start:.0f} s: "
          f"{len(rows)} points, Green " + ", ".join(
              f"{count(7, k)} {k}" for k in kinds) + f"; {len(asym)} "
          "asymmetric points, route " + ", ".join(
              f"{sum(r[9] == k for r in asym)} {k}" for k in kinds)
          + f", {integrator_calls} integrator calls")


if __name__ == "__main__":
    main()
