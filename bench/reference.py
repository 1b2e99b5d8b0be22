"""Reference values computed apart from ``specgap``.

Nothing here imports the package under test.  Three kinds of oracle:

* Closed forms for dimension n = 3, evaluated with mpmath.  The model
  weight is mu = g^2 with g = cos, cosh or sinh of s t (s = sqrt|K|) for
  the tan, tanh and coth drifts, and g = 1 for K = 0.  Writing w = u / g
  turns (mu w')' + lam mu w = 0 into u'' + (lam + K) u = 0, because
  g'' = -K g on every branch.  With z = lam + K the solution from
  (u, u') at t0 is

      u(t)  = u(t0) C + u'(t0) S,     u'(t) = -z u(t0) S + u'(t0) C,
      C = cos(sqrt(z) tau),  S = sin(sqrt(z) tau) / sqrt(z),  tau = t - t0,

  entire in z, so one formula covers z > 0, z = 0 and z < 0.  The flux
  G = mu w' = g u' - g' u vanishes exactly where w' does, and a
  singular end (g = 0) is the regular solution with u = 0 there.
  Symmetric Neumann eigenvalues, asymmetric ones, the first maximum m(a)
  of the solution started at w(a) = -1, w'(a) = 0 and the distance to a
  level of w all reduce to scalar roots of these expressions.
* The classical closed-form floors (Lichnerowicz, Zhong-Yang, Shi-Zhang
  maximised over s, Yang).
* The auxiliary multiplier's eigenproblem u'' + V u = sigma~ u: a
  truncated Fourier (Hill) matrix for V = beta (1 + cos t), which is
  Mathieu's equation, and the top eigenvalue of the discrete operator
  from ARPACK shift-invert, a different solver from the LAPACK routines
  the package calls.

Run ``python3 -m pytest -q bench/test_reference.py`` for the self-tests
on exact anchors.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg
from scipy.special import mathieu_a

DPS = 50


class OracleError(RuntimeError):
    """A reference root could not be bracketed."""


# ---------------------------------------------------------------------------
# n = 3 closed forms

def _g(branch: str, s, t):
    """(g, g') with mu = g^2 on the given drift branch."""
    if branch == "tan":
        return mp.cos(s * t), -s * mp.sin(s * t)
    if branch == "tanh":
        return mp.cosh(s * t), s * mp.sinh(s * t)
    if branch == "coth":
        return mp.sinh(s * t), s * mp.cosh(s * t)
    if branch == "zero":
        return mp.mpf(1), mp.mpf(0)
    raise ValueError(f"unknown branch {branch!r}")


def _cs(z, tau):
    """C and S of the module docstring (entire in z)."""
    if z > 0:
        w = mp.sqrt(z)
        return mp.cos(w * tau), mp.sin(w * tau) / w
    if z < 0:
        k = mp.sqrt(-z)
        return mp.cosh(k * tau), mp.sinh(k * tau) / k
    return mp.mpf(1), tau


def _propagate(z, u0, du0, tau):
    C, S = _cs(z, tau)
    return u0 * C + du0 * S, -z * u0 * S + du0 * C


def _branch_scale(K):
    K = mp.mpf(K)
    return K, mp.sqrt(abs(K))


def _root(f, lo, hi, flo=None, fhi=None, rel=None):
    """Illinois root of f on a sign-changing bracket [lo, hi]."""
    rel = rel if rel is not None else mp.mpf(10) ** (-(DPS - 12))
    flo = f(lo) if flo is None else flo
    fhi = f(hi) if fhi is None else fhi
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise OracleError("root not bracketed")
    side = 0
    for _ in range(400):
        x = (lo * fhi - hi * flo) / (fhi - flo)
        fx = f(x)
        if fx == 0:
            return x
        if (fx > 0) == (flo > 0):
            lo, flo = x, fx
            if side == -1:
                fhi /= 2
            side = -1
        else:
            hi, fhi = x, fx
            if side == 1:
                flo /= 2
            side = 1
        if abs(hi - lo) <= rel * max(abs(lo), abs(hi)):
            break
    return (lo + hi) / 2


def lambda1_symmetric(K: float, D: float) -> float:
    """First Neumann eigenvalue of the n = 3 model on [-D/2, D/2].

    The eigenfunction is odd, so u(0) = 0, u'(0) = 1 and the root is the
    first lam > 0 with G(D/2) = g u' - g' u = 0.
    """
    with mp.workdps(DPS):
        D = mp.mpf(D)
        if K == 0:
            return float(mp.pi ** 2 / D ** 2)
        Km, s = _branch_scale(K)
        h = D / 2
        branch = "tan" if K > 0 else "tanh"
        g, dg = _g(branch, s, h)

        def G(lam):
            u, du = _propagate(lam + Km, mp.mpf(0), mp.mpf(1), h)
            return g * du - dg * u

        # tan: sqrt(lam + K) h lies in (pi/2, pi]; tanh: lam in
        # (0, |K| + (pi/2h)^2), where G(0) = 1 and G < 0 at the top
        if K > 0:
            lo = (mp.pi / (2 * h)) ** 2 - Km
            hi = (mp.pi / h) ** 2 - Km
        else:
            lo = mp.mpf(0)
            hi = (mp.pi / (2 * h)) ** 2 - Km
        return float(_root(G, lo, hi))


def lambda1_interval(K: float, a: float, b: float, branch: str) -> float:
    """First nonzero Neumann eigenvalue of the n = 3 model on [a, b].

    Launch with w(a) = 1 (u = g, u' = g'; at a singular end this is the
    regular solution), so the flux G(b; lam) vanishes at lam = 0 and at
    each eigenvalue; G / lam < 0 just above 0.  A geometric scan finds
    the first sign change, which the ratio 1.25 cannot step over since
    lambda_2 / lambda_1 > 2 for these models.
    """
    with mp.workdps(DPS):
        a, b = mp.mpf(a), mp.mpf(b)
        Km, s = _branch_scale(K)
        ga, dga = _g(branch, s, a)
        gb, dgb = _g(branch, s, b)

        def F(lam):
            u, du = _propagate(lam + Km, ga, dga, b - a)
            return (gb * du - dgb * u) / lam

        lam = mp.mpf(10) ** -20 * (mp.pi / (b - a)) ** 2
        f_prev, lam_prev = F(lam), lam
        if f_prev >= 0:
            raise OracleError("scan start above the first eigenvalue")
        for _ in range(600):
            lam = lam_prev * mp.mpf("1.25")
            f = F(lam)
            if f > 0:
                return float(_root(F, lam_prev, lam, f_prev, f))
            lam_prev, f_prev = lam, f
        raise OracleError("no eigenvalue below the scan limit")


def _start_state(branch, s, a):
    """(u, u') at a for w(a) = -1, w'(a) = 0."""
    g, dg = _g(branch, s, a)
    return -g, -dg


def _domain_hi(branch, s):
    return mp.pi / (2 * s) if branch == "tan" else mp.inf


def first_maximum(K: float, lam: float, a: float, branch: str):
    """(b, m): first interior maximum of w from w(a) = -1, w'(a) = 0.

    G' = -lam mu w, so G rises while w < 0 and the first maximum is the
    first zero of G after w has crossed 0.  Returns None when G keeps
    its sign up to the tan pole or over 60 / sqrt|K| (60 when K = 0).
    """
    with mp.workdps(DPS):
        Km, s = _branch_scale(K)
        lam, a = mp.mpf(lam), mp.mpf(a)
        u0, du0 = _start_state(branch, s, a)
        z = lam + Km

        def G(t):
            g, dg = _g(branch, s, t)
            u, du = _propagate(z, u0, du0, t - a)
            return g * du - dg * u

        top = _domain_hi(branch, s)
        horizon = min(top, a + 60 / (s if s > 0 else 1))
        step = mp.mpf(1) / (64 * mp.sqrt(abs(z) + abs(Km) + 1))
        t_prev, g_prev = a, mp.mpf(0)
        t = a + step
        while t < horizon:
            gt = G(t)
            if gt < 0 and g_prev > 0:
                b = _root(G, t_prev, t, g_prev, gt)
                gb, _ = _g(branch, s, b)
                u, _ = _propagate(z, u0, du0, b - a)
                return float(b), float(u / gb)
            t_prev, g_prev = t, gt
            t += step
        return None


def level_distance(K: float, lam: float, a: float, branch: str,
                   level: float) -> float:
    """Distance from a to the point where the ascending w first equals level.

    Without an interior maximum the tan solution ascends up to the pole.
    """
    top = first_maximum(K, lam, a, branch)
    with mp.workdps(DPS):
        Km, s = _branch_scale(K)
        if top is not None:
            hi = mp.mpf(top[0])
        elif branch == "tan":
            hi = _domain_hi(branch, s) * (1 - mp.mpf(10) ** -30)
        else:
            raise OracleError("no first maximum, so no monotone ascent")
        lam, a, level = mp.mpf(lam), mp.mpf(a), mp.mpf(level)
        u0, du0 = _start_state(branch, s, a)
        z = lam + Km

        def W(t):
            g, _ = _g(branch, s, t)
            u, _ = _propagate(z, u0, du0, t - a)
            return u / g - level

        # w(a) = -1 also at a singular start, where u and g both vanish
        lo = a + (hi - a) * mp.mpf(10) ** -12
        return float(_root(W, lo, hi) - a)


# ---------------------------------------------------------------------------
# closed-form floors

def zhong_yang(D: float) -> float:
    return math.pi ** 2 / D ** 2


def lichnerowicz(n: float, K: float) -> float:
    return n * K


def yang(n: float, K: float, D: float) -> float:
    return math.pi ** 2 / D ** 2 * math.exp(
        -max(2.0, n - 1.0) * D * math.sqrt((n - 1.0) * abs(K)))


def shi_zhang(n: float, K: float, D: float) -> tuple[float, float]:
    """(value, argmax s) of max over s in [0, 1] of
    4 (s - s^2) pi^2 / D^2 + s (n - 1) K, a concave quadratic in s."""
    a = 4.0 * math.pi ** 2 / D ** 2
    s = min(max(0.5 + (n - 1.0) * K / (2.0 * a), 0.0), 1.0)
    return a * (s - s * s) + s * (n - 1.0) * K, s


# ---------------------------------------------------------------------------
# auxiliary multiplier

def hill_sigma_tilde(beta: float, modes: int = 48) -> float:
    """Top eigenvalue of u'' + beta (1 + cos t) u on the 2 pi circle.

    In the basis exp(i k t), |k| <= modes, the operator is the symmetric
    tridiagonal matrix with diagonal beta - k^2 and off-diagonal beta / 2.
    """
    k = np.arange(-modes, modes + 1, dtype=float)
    H = np.diag(beta - k * k) + np.diag(np.full(2 * modes, beta / 2.0), 1) \
        + np.diag(np.full(2 * modes, beta / 2.0), -1)
    return float(np.linalg.eigvalsh(H)[-1])


def mathieu_sigma_tilde(beta: float) -> float:
    """The same eigenvalue from Mathieu's a_0: with t = 2x the equation
    is y'' + (a - 2q cos 2x) y = 0, a = 4 (beta - sigma~), q = -2 beta,
    and a_0(q) = a_0(-q)."""
    return beta - float(mathieu_a(0, 2.0 * beta)) / 4.0


def top_eigenvalue(V: np.ndarray, h: float, periodic: bool) -> float:
    """Top eigenvalue of the discrete d^2/dt^2 + V by ARPACK shift-invert.

    periodic: the cyclic second difference on t_j = j h.  Otherwise the
    cell-centred grid with reflecting ends (ghost value equal to the
    edge value).  The second difference is negative semidefinite, so the
    top eigenvalue lies below max V and the shift max V + 1 isolates it.
    """
    m = V.size
    inv = 1.0 / (h * h)
    diag = V - 2.0 * inv
    if not periodic:
        diag = diag.copy()
        diag[0] += inv
        diag[-1] += inv
    off = np.full(m - 1, inv)
    A = sparse.diags([off, diag, off], [-1, 0, 1], format="lil")
    if periodic:
        A[0, m - 1] = inv
        A[m - 1, 0] = inv
    vals = sparse_linalg.eigsh(A.tocsc(), k=1, sigma=float(V.max()) + 1.0,
                               which="LM", return_eigenvectors=False)
    return float(vals[0])
