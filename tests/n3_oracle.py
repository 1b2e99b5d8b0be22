"""Closed forms of the n = 3 model: the exact oracle for lambda_1 and the
first maximum.

With mu = g^2 (g = cos, cosh or sinh of s t, s = sqrt|K|, on the tan,
tanh and coth branches), w = u / g turns (mu w')' + lam mu w = 0 into
u'' + (lam + K) u = 0, since g'' = -K g on every branch.  From (u, u')
at a, with k = sqrt(lam + K) and tau = t - a,

    u(t) = u(a) cos(k tau) + u'(a) tau sinc(k tau),
    u'(t) = u'(a) cos(k tau) - u(a) k^2 tau sinc(k tau),

entire in lam + K, so a complex k is safe.  The flux mu w' = g u' - g' u
vanishes exactly where w' does, and at a pole end (g = 0) w(a) = 1 is
the regular solution u(a) = 0, u'(a) = g'(a).  Every value is a scalar
root found with mpmath at DIGITS + sqrt|K| L digits, L the length
integrated over: the flux cancels like e^(sqrt|K| L).  It shares no code
with the package: the tests and docs/domain_map.py take it as exact.
"""

import math

import mpmath as mp

DIGITS = 40


def _g(branch, s, t):
    """(g, g') of the branch's weight mu = g^2."""
    if branch == "tan":
        return mp.cos(s * t), -s * mp.sin(s * t)
    if branch == "tanh":
        return mp.cosh(s * t), s * mp.sinh(s * t)
    if branch == "coth":
        return mp.sinh(s * t), s * mp.cosh(s * t)
    raise ValueError(f"no closed form on the {branch!r} branch")


def _digits(K, length):
    return DIGITS + int(math.sqrt(abs(K)) * float(length))


def _solution(K, lam, a, t, branch):
    """(u, g u' - g' u, g) at t, from w(a) = 1, w'(a) = 0."""
    s, a, t = mp.sqrt(abs(mp.mpf(K))), mp.mpf(a), mp.mpf(t)
    (ga, dga), (g, dg) = _g(branch, s, a), _g(branch, s, t)
    z, tau = mp.mpf(lam) + K, t - a
    k = mp.sqrt(mp.mpc(z))
    c, sn = mp.cos(k * tau), tau * mp.sinc(k * tau)
    u, du = mp.re(ga * c + dga * sn), mp.re(dga * c - ga * z * sn)
    return u, g * du - dg * u, g


def lambda1_symmetric(K, D):
    """lambda_1 on [-D/2, D/2]: the odd u (u(0) = 0, u'(0) = 1) has its
    Neumann end D/2 at the first root of the flux."""
    with mp.workdps(_digits(K, D / 2)):
        if K == 0:
            return float(mp.pi ** 2 / mp.mpf(D) ** 2)
        h, s = mp.mpf(D) / 2, mp.sqrt(abs(mp.mpf(K)))
        g, dg = _g("tan" if K > 0 else "tanh", s, h)
        lo, hi = mp.mpf(0), (mp.pi / (2 * h)) ** 2 - K
        if K > 0:  # k h lies in (pi/2, pi)
            lo, hi = hi, (mp.pi / h) ** 2 - K

        def flux(lam):
            k = mp.sqrt(mp.mpc(lam + K))
            return mp.re(g * mp.cos(k * h) - dg * mp.sin(k * h) / k)

        return float(mp.findroot(flux, (lo, hi), solver="anderson"))


def lambda1_interval(K, a, b, branch):
    """lambda_1 on [a, b], or None.

    The Neumann end b is a root of the flux in lam.  Below the essential
    threshold -K (K < 0) at most one root lies (u then has at most one
    zero), so a geometric scan there cannot step over two; above it the
    scan is linear in k, from k = 0, by a sixteenth of pi / (b - a), the
    spacing of the roots in k.  The first root, by bisection, is lambda_1
    only if its w changes sign once on (a, b]; otherwise None.
    """
    with mp.workdps(_digits(K, b - a)):
        def flux(lam):
            return _solution(K, lam, a, b, branch)[1] / lam

        def scan():
            lam = mp.mpf(10) ** -40 * (1 + abs(K))
            while K < 0 and lam < -K:
                yield lam
                lam *= 2
            # from the threshold itself: the last doubling may overshoot
            # it by up to a factor 2, past the first root's k
            k = mp.mpf(0) if K < 0 else mp.sqrt(lam + K)
            for _ in range(4000):
                k += mp.pi / (16 * (mp.mpf(b) - a))
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
        # w has the sign of u inside; u's zeros lie pi / k apart, so
        # samples closer than that see every sign change
        ts = mp.linspace(a, b, 16 + int(mp.sqrt(abs(root + K)) * (b - a)))
        u = [1] + [_solution(K, root, a, t, branch)[0] for t in ts[1:]]
        if sum(x * y < 0 for x, y in zip(u, u[1:])) != 1:
            return None
        return float(root)


def first_maximum(K, lam, a, branch):
    """(b, m): the first maximum of w from w(a) = -1, w'(a) = 0, or None.

    b is the first zero of the flux.  The scan steps by an eighth of
    pi / (sqrt|lam + K| + sqrt|K|), the scale on which the flux turns, and
    by at most half the distance left to the tan pole, so a turn just
    short of the pole is not stepped over.  None if the flux keeps its
    sign to within 1e-13 of the pole or over 4000 steps.
    """
    s = math.sqrt(abs(K))
    pole = math.pi / (2 * s) if branch == "tan" else math.inf
    step = math.pi / (8 * (math.sqrt(abs(lam + K)) + s))

    def flux(t):
        with mp.workdps(_digits(K, t - a)):
            return _solution(K, lam, a, t, branch)[1]

    t = a
    for _ in range(4000):
        prev, t = t, min(t + step, (t + pole) / 2)
        if pole - t < 1e-13 * pole:
            return None
        if flux(t) > 0:
            break
    else:
        return None
    with mp.workdps(_digits(K, t - a)):
        b = mp.findroot(flux, (prev, t), solver="anderson", verify=False)
        u, _, g = _solution(K, lam, a, b, branch)
        return float(b), float(-u / g)
