"""Flux-form shots by scipy's DOP853 at rtol 1e-13: references for
n != 3, where no closed form exists, for lambda_1 of the tanh model (the
Pruefer root cannot certify there) and for the first maximum.  They
share no code with the package, neither its operators nor its
integrator.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


def flux_shot(n, K, a, b, guess):
    """lambda_1 on [a, b] from the flux F = mu w': w' = F / mu,
    F' = -lam mu w, w(a) = 1, F(a) = 0, as Brent's root of F(b) in
    [0.8, 1.2] guess, if its w changes sign once; otherwise None."""
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


def flux_form(n, K, D, guess):
    """lambda_1 on [-D/2, D/2] from the half-interval flux form
    w' = 1/mu - lam G, G' = w - (mu'/mu) G (G = int_0^t mu w / mu),
    w(0) = G(0) = 0: the root of ln lam + ln G(D/2) + ln mu(D/2) = 0, a
    Brent root in ln lam; the guess only seeds the bracket."""
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


def first_maximum(n, K, lam, a, branch):
    """m, the first maximum of w from w(a) = -1, w'(a) = 0 at a regular
    start a, where the flux F = mu w' (w' = F / mu, F' = -lam mu w, with
    mu = g^(n-1), g = cos, cosh or sinh of sqrt|K| t) first falls back to
    0; None if it does not within 50 / sqrt|K| or before the tan pole."""
    s, n1 = math.sqrt(abs(K)), n - 1.0
    g = {"tan": math.cos, "tanh": math.cosh, "coth": math.sinh}[branch]
    hi = 0.5 * math.pi / s * (1.0 - 1e-9) if branch == "tan" else a + 50 / s

    def rhs(t, y):
        mu = g(s * t) ** n1
        return y[1] / mu, -lam * mu * y[0]

    def turn(t, y):
        return y[1]
    turn.terminal, turn.direction = True, -1

    sol = solve_ivp(rhs, (a, hi), [-1.0, 0.0], method="DOP853", rtol=1e-13,
                    atol=1e-16, events=turn)
    return sol.y_events[0][0][0] if sol.status == 1 else None
