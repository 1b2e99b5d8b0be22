"""Pruefer-angle shooting oracle for the first Neumann eigenvalue of any
interval.

The scaled Pruefer angle phi = atan2(sqrt(lam) w, w') of the solution
launched at the left end a (w = -1, w' = 0, by the model's Frobenius
series at a singular left end) follows the bounded equation
phi' = k - T sin(2 phi) / 2 (Pruefer 1926; Pryce, Numerical Solution of
Sturm-Liouville Problems, 1993, ch. 5).  It is run to the far end b on
the model's scalar DOP853 (specgap._ode, the integrator of every shot),
where the Neumann condition w' = 0 reads phi = pi/2, so lambda_1 is the
root of a continuous, strictly increasing function with no event.

It shares no code with the package's eigenvalue routes (the Green
operators of the eigen module), so the tests and docs/domain_map.py use
it as an independent reference.
"""

import math
from functools import cache

from specgap import _ode, model
from specgap.bounds import shi_zhang
from specgap.errors import BracketFailure, DomainError, NumericalError

# prufer_angle's rtol = atol (the angle is O(1)).  At 3e-14 the root
# certifies every interval of its accuracy study, within 1.1e-11 of the
# closed forms; at 1e-13 two long n = 10 tanh intervals of 32 did not.
ANGLE_TOL = 3e-14
# The root certificate's bound on the angle's integration error.  That
# error grows with the angle's sensitivity to lambda (up to 4e-8 on
# n = 10 tanh intervals, where the angle moves by 1e-6 across the band),
# so no one bound serves: it is the angle's change when integrated at
# _ROUGH times the tolerance, and at least _ANGLE_ERR.  Each probe takes
# its own: at the root itself the angle may jump by pi (an end next to a
# tan pole).
_ANGLE_ERR = 1e-12
_ROUGH = 10.0
_MAX_WIDEN = 40
_MAX_ITER = 100


def prufer_angle(params, lam: float, a: float, b: float,
                 tol: float = ANGLE_TOL) -> float:
    """phi(b) for phi = atan2(sqrt(lam) w, w') of the solution launched at a.

    The pair (phi, rho) is integrated to b at rtol = atol = tol, with no
    stop at pi/2 and the last step ending on b, which may lie next to a
    pole.  rho is not read.  It is carried because DOP853's error
    estimate of phi alone can vanish within a step whose error is some 30
    times the tolerance; from tan's left pole that left phi(b) up to
    3e-12 off at tol 3e-14.
    """
    t0, phi0, rho0, _ = model._launch(params, lam, a)
    if not (t0 <= b):
        raise DomainError(f"launch point {t0} beyond the end {b}")
    if t0 == b:
        return phi0
    return _ode.shoot(model._pruefer(params, "event", math.sqrt(lam)), t0,
                      phi0, rho0, b, math.inf, tol, tol).phi


def prufer_eigenvalue(params, a: float, b: float, tol: float = 1e-10) -> float:
    """Brent root in k = sqrt(lam) of the Pruefer angle at b less pi/2,
    certified: the angle must change sign across lam (1 -+ tol) by more
    than its integration error there (see _ANGLE_ERR), or NumericalError
    is raised."""
    L = b - a

    @cache  # brentq re-evaluates both bracket ends: solve each k once
    def f(k):
        """Angle past pi/2 at lam = k^2, in which it is close to linear."""
        return prufer_angle(params, k * k, a, b) - 0.5 * math.pi

    # interval-position monotonicity makes the central interval the
    # smallest eigenvalue among intervals of this length, and the
    # quadratic bound and, on tan, N Kbar (Lichnerowicz) floor that, so
    # this seed is already a valid lower bracket up to degenerate
    # equality cases; the widening loop mops those up
    nk = params.dim * max(params.curv, 0.0)
    lo = math.sqrt(max(0.9 * shi_zhang(params.dim, params.curv, L), nk, 1e-12))
    for _ in range(_MAX_WIDEN):
        if f(lo) < 0.0:
            break
        lo /= 4.0
    else:
        raise BracketFailure("no lower bracket for the eigenvalue")

    hi = math.sqrt(8.0 * max(math.pi ** 2 / L ** 2, nk))
    for _ in range(_MAX_WIDEN):
        if f(hi) >= 0.0:
            break
        hi *= 2.0
    else:
        raise BracketFailure("no upper bracket for the eigenvalue")

    # k to a tenth of the band, so the certificate probes clear the root
    k = _ode.brentq(f, lo, hi, xtol=0.05 * tol * lo,
                    rtol=max(0.05 * tol, 1e-15), maxiter=_MAX_ITER)
    for side in (-1.0, 1.0):
        kp = k * math.sqrt(1.0 + side * tol)
        rough = prufer_angle(params, kp * kp, a, b, tol=_ROUGH * ANGLE_TOL)
        err = max(_ANGLE_ERR, abs(rough - 0.5 * math.pi - f(kp)))
        if not side * f(kp) > err:
            raise NumericalError(
                f"eigenvalue {k * k!r} not certified to {tol:g}: the angle "
                f"{f(kp):.3g} at lambda (1 {side:+g} tol) does not clear "
                f"its error {err:.3g}")
    return k * k
