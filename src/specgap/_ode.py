"""Scalar DOP853 shots of the Pruefer pair, and Brent's root.

shoot integrates the angle and log-amplitude (phi, rho) of model.py,
whose right-hand side reads phi only (model writes it as source, which
kernel builds into a step), from t0 until phi first crosses a
given angle upward (pi/2 in every shot of the model; inf never stops) or
the end is reached, and gives up after _MAX_STEPS steps.
It is the explicit Runge-Kutta method of order 8 with the embedded
5th/3rd order error estimate and the 7th degree dense output of Hairer,
Norsett & Wanner, Solving Ordinary Differential Equations I (2nd ed.,
1993), section II.5, with the error norm, step-size controller and
initial-step rule of scipy's solve_ivp(method="DOP853"), so on the same
problem it takes the same steps.  The event is located by brentq on the
dense output of the step in which phi minus that angle changes sign, as
there.

Everything is plain float arithmetic on the two components: scipy's
per-step cost on a two-component state is almost all numpy overhead on
tiny arrays.  Nor is the step a loop over the tableau, or a caller of
the right-hand side: kernel writes, on first use of each right-hand
side, its stage, solution, error and dense-output sums out from the
tableau tuples as straight-line arithmetic, with the right-hand side's
body pasted in at each stage.  Each sum keeps its terms in tableau order
and drops those whose coefficient is 0.0; for finite stages x + 0.0 k is
x, and the pasted body does the same operations in the same order as
the function, so the written-out step rounds exactly as the loops
calling it do and every shot takes the same steps.  Loops calling a dot
product 17 times a step over rows that are mostly 0.0 took about a third
of a shot's time, and calling the right-hand side and its drift at each
stage about 45% of a step.  A step on one of the model's kernels costs
about 4.5-5.5 us (CPython 3.11 on a shared 2-CPU x86 host), twelve
evaluations of sin, cos and tan or tanh and the float arithmetic around
them.

Where numpy (under errstate) raised on an overflow or an invalid value,
the shot raises IntegrationFailure: a non-finite norm, error estimate or
state, and OverflowError or ValueError from math.

brentq is scipy's brentq (Brent, Algorithms for Minimization without
Derivatives, 1973, ch. 4) for Python floats; it raises BracketFailure
when the ends do not bracket a sign change or it does not converge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, IntegrationFailure

_EPS = 2.220446049250313e-16
_TINY = 2.2250738585072014e-308

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / 8.0  # the error estimate is of order 7
# accepted steps before a shot gives up: the angle turns at the rate
# sqrt(lambda), so a run that does not stop at its event takes some
# sqrt(lambda) L steps over a span L, without bound in lambda
_MAX_STEPS = 20000

# Dormand-Prince 8(5,3): the nodes c_s and rows a_s of stages 1..11
# (stage 0 is f at the step's start), the weights of the step, the 5th
# and 3rd order error weights over stages 0..12 (12 = f at the end)
_STAGES = (
    (0.526001519587677318785587544488e-01,
     (5.26001519587677318785587544488e-2,)),
    (0.789002279381515978178381316732e-01,
     (1.97250569845378994544595329183e-2,
      5.91751709536136983633785987549e-2)),
    (0.118350341907227396726757197510,
     (2.95875854768068491816892993775e-2, 0.0,
      8.87627564304205475450678981324e-2)),
    (0.281649658092772603273242802490,
     (2.41365134159266685502369798665e-1, 0.0,
      -8.84549479328286085344864962717e-1,
      9.24834003261792003115737966543e-1)),
    (0.333333333333333333333333333333,
     (3.7037037037037037037037037037e-2, 0.0, 0.0,
      1.70828608729473871279604482173e-1,
      1.25467687566822425016691814123e-1)),
    (0.25,
     (3.7109375e-2, 0.0, 0.0,
      1.70252211019544039314978060272e-1,
      6.02165389804559606850219397283e-2, -1.7578125e-2)),
    (0.307692307692307692307692307692,
     (3.70920001185047927108779319836e-2, 0.0, 0.0,
      1.70383925712239993810214054705e-1,
      1.07262030446373284651809199168e-1,
      -1.53194377486244017527936158236e-2,
      8.27378916381402288758473766002e-3)),
    (0.651282051282051282051282051282,
     (6.24110958716075717114429577812e-1, 0.0, 0.0,
      -3.36089262944694129406857109825,
      -8.68219346841726006818189891453e-1,
      2.75920996994467083049415600797e1,
      2.01540675504778934086186788979e1,
      -4.34898841810699588477366255144e1)),
    (0.6,
     (4.77662536438264365890433908527e-1, 0.0, 0.0,
      -2.48811461997166764192642586468,
      -5.90290826836842996371446475743e-1,
      2.12300514481811942347288949897e1,
      1.52792336328824235832596922938e1,
      -3.32882109689848629194453265587e1,
      -2.03312017085086261358222928593e-2)),
    (0.857142857142857142857142857142,
     (-9.3714243008598732571704021658e-1, 0.0, 0.0,
      5.18637242884406370830023853209,
      1.09143734899672957818500254654,
      -8.14978701074692612513997267357,
      -1.85200656599969598641566180701e1,
      2.27394870993505042818970056734e1,
      2.49360555267965238987089396762,
      -3.0467644718982195003823669022)),
    (1.0,
     (2.27331014751653820792359768449, 0.0, 0.0,
      -1.05344954667372501984066689879e1,
      -2.00087205822486249909675718444,
      -1.79589318631187989172765950534e1,
      2.79488845294199600508499808837e1,
      -2.85899827713502369474065508674,
      -8.87285693353062954433549289258,
      1.23605671757943030647266201528e1,
      6.43392746015763530355970484046e-1)),
)
_B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
      4.45031289275240888144113950566,
      1.89151789931450038304281599044,
      -5.8012039600105847814672114227,
      3.1116436695781989440891606237e-1,
      -1.52160949662516078556178806805e-1,
      2.01365400804030348374776537501e-1,
      4.47106157277725905176885569043e-2)
_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
       -0.1225156446376204440720569753e+1,
       -0.4957589496572501915214079952,
       0.1664377182454986536961530415e+1,
       -0.3503288487499736816886487290,
       0.3341791187130174790297318841,
       0.8192320648511571246570742613e-1,
       -0.2235530786388629525884427845e-1, 0.0)
_E3 = tuple(b - c for b, c in zip(
    _B + (0.0,), (0.244094488188976377952755905512, 0, 0, 0, 0, 0, 0, 0,
                  0.733846688281611857341361741547, 0, 0,
                  0.220588235294117647058823529412e-1, 0)))

# dense output: three more stages (13..15) and the rows of the last four
# of the seven interpolation coefficients over stages 0..15
_EXTRA = (
    (0.1,
     (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
      2.53500210216624811088794765333e-1,
      -2.46239037470802489917441475441e-1,
      -1.24191423263816360469010140626e-1,
      1.5329179827876569731206322685e-1,
      8.20105229563468988491666602057e-3,
      7.56789766054569976138603589584e-3, -8.298e-3)),
    (0.2,
     (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
      2.83009096723667755288322961402e-2,
      5.35419883074385676223797384372e-2,
      -5.49237485713909884646569340306e-2, 0.0, 0.0,
      -1.08347328697249322858509316994e-4,
      3.82571090835658412954920192323e-4,
      -3.40465008687404560802977114492e-4,
      1.41312443674632500278074618366e-1)),
    (0.777777777777777777777777777778,
     (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
      -4.69762141536116384314449447206,
      7.68342119606259904184240953878,
      4.06898981839711007970213554331,
      3.56727187455281109270669543021e-1, 0.0, 0.0, 0.0,
      -1.39902416515901462129418009734e-3,
      2.9475147891527723389556272149,
      -9.15095847217987001081870187138)),
)
_D = (
    (-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
     0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3),
)


@functools.cache
def kernel(args: str, *body: str):
    """make(ARGS) -> (rhs, step, coefficients) for the right-hand side
    whose body, a function of (t, phi) over the names ARGS ending in
    "return phi', rho'", is the lines BODY.

    rhs(t, phi) is that function.  step and coefficients are written out
    from the tableau with BODY pasted in at each stage, not called: each
    sum keeps its terms in tableau order and drops those whose
    coefficient is 0.0; p<i>, r<i> are phi' and rho' at stage i.
    step(t0, h, t_new, phi0, rho0, p0, r0) takes one step of size
    h = t_new - t0 from (phi0, rho0), whose f is (p0, r0), and returns
    (phi_new, rho_new, the 5th and 3rd order error sums of phi and of
    rho, the stages 0..12 of phi and of rho).
    coefficients(t0, h, phi0, kp, kr, dphi, drho) returns the seven
    interpolation coefficients of each component over that step from
    its stages kp, kr and increments dphi, drho.
    The body reads t, phi, ARGS, its own locals and math's functions; it
    must not assign the step's other names (t0, h, t_new, phi0, rho0, the
    p<i> and r<i>, kp, kr, dphi, drho, phi_new, rho_new).
    """
    *lines, ret = body
    p, r = [f"p{i}" for i in range(16)], [f"r{i}" for i in range(16)]

    def dot(row, k):
        return " + ".join(f"{a!r} * {x}" for a, x in zip(row, k) if a)

    def evaluate(i, t, phi):
        return [f"        t, phi = {t}, {phi}",
                *(f"        {line}" for line in lines),
                f"        p{i}, r{i} = {ret[len('return '):]}"]

    def stages(table, first):
        return [line for i, (c, a) in enumerate(table, first)
                for line in evaluate(i, f"t0 + {c!r} * h",
                                     f"phi0 + h * ({dot(a, p)})")]

    def coefficients(d, k):
        return ", ".join([d, f"h * {k[0]} - {d}",
                          f"2.0 * {d} - h * ({k[12]} + {k[0]})",
                          *(f"h * ({dot(row, k)})" for row in _D)])

    kp, kr = ", ".join(p[:13]), ", ".join(r[:13])
    source = "\n".join([
        f"def make({args}):",
        "    def rhs(t, phi):",
        *(f"        {line}" for line in body),
        "",
        "    def step(t0, h, t_new, phi0, rho0, p0, r0):",
        *stages(_STAGES, 1),
        f"        phi_new = phi0 + h * ({dot(_B, p)})",
        f"        rho_new = rho0 + h * ({dot(_B, r)})",
        *evaluate(12, "t_new", "phi_new"),
        f"        return (phi_new, rho_new, {dot(_E5, p)}, {dot(_E5, r)},",
        f"                {dot(_E3, p)}, {dot(_E3, r)}, ({kp}), ({kr}))",
        "",
        "    def coefficients(t0, h, phi0, kp, kr, dphi, drho):",
        f"        {kp} = kp",
        f"        {kr} = kr",
        *stages(_EXTRA, 13),
        f"        return (({coefficients('dphi', p)}),",
        f"                ({coefficients('drho', r)}))",
        "",
        "    return rhs, step, coefficients",
    ])
    namespace = {name: f for name, f in vars(math).items()
                 if not name.startswith("_")}
    namespace["__name__"] = __name__
    exec(compile(source, f"<{__name__} kernel>", "exec"), namespace)
    return namespace["make"]


def _rms(x: float, y: float) -> float:
    """RMS norm of the pair; IntegrationFailure where it overflows."""
    out = math.sqrt(0.5 * (x * x + y * y))
    if not out < math.inf:
        raise IntegrationFailure("integrator overflow: state norm")
    return out


def _interpolate(F, y0: float, x):
    """Dense output at the fraction x of the step (float or array): from
    the last of the seven coefficients F, add each and multiply by x and
    1 - x in turn, written out."""
    f0, f1, f2, f3, f4, f5, f6 = F
    z = 1.0 - x
    return ((((((((0.0 + f6) * x + f5) * z + f4) * x + f3) * z + f2) * x
               + f1) * z + f0) * x + y0)


class Trajectory:
    """The dense output of every step, evaluated at t in [t_min, t_max]
    (float or array) as the pair (phi, rho); each t reads the first step
    whose end it does not pass."""

    def __init__(self, steps, t_max: float):
        t_old, h, y0, F = zip(*steps)
        self.t_min, self.t_max = t_old[0], t_max
        self._ends = np.array(t_old[1:] + (t_max,))
        self._t_old, self._h = np.array(t_old), np.array(h)
        self._y0 = np.array(y0).T          # (2, steps)
        self._F = np.array(F).transpose(1, 2, 0)   # (2, 7, steps)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        seg = np.minimum(np.searchsorted(self._ends, t), self._h.size - 1)
        x = (t - self._t_old[seg]) / self._h[seg]
        return np.array([_interpolate(F[:, seg], y0[seg], x)
                         for F, y0 in zip(self._F, self._y0)])


@dataclass
class Shot:
    """End of a shot: the event (event set) or the end of the span.

    nfev counts right-hand side evaluations, nsteps accepted steps; sol
    is the Trajectory when dense output was asked for, else None.
    """

    t: float
    phi: float
    rho: float
    event: bool
    nfev: int
    nsteps: int
    sol: Trajectory | None


def _initial_step(rhs, t0, phi0, rho0, fp, fr, span, rtol, atol) -> float:
    """Hairer, Norsett & Wanner's starting step (section II.4)."""
    sp, sr = atol + abs(phi0) * rtol, atol + abs(rho0) * rtol
    d0, d1 = _rms(phi0 / sp, rho0 / sr), _rms(fp / sp, fr / sr)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    p1, r1 = rhs(t0 + h0, phi0 + h0 * fp)
    d2 = _rms((p1 - fp) / sp, (r1 - fr) / sr) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-_EXPONENT)
    return min(100.0 * h0, h1, span)


def shoot(f, t0: float, phi0: float, rho0: float, t_end: float,
          phi_stop: float, rtol: float, atol: float,
          dense_output: bool = False) -> Shot:
    """Integrate (phi, rho)' = rhs(t, phi) with f = (rhs, step,
    coefficients), a kernel's or their loop form, from t0 < t_end until phi
    first crosses phi_stop upward (pi/2 for the event shots, inf for a
    run to t_end), or to t_end.  Raises IntegrationFailure on overflow, a
    non-finite state, a step below the float spacing or _MAX_STEPS
    accepted steps without an end."""
    try:
        return _shoot(*f, t0, phi0, rho0, t_end, phi_stop, rtol, atol,
                      dense_output)
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise IntegrationFailure(f"integrator overflow: {exc}") from exc


def _shoot(rhs, step, coefficients, t0, phi0, rho0, t_end, phi_stop, rtol,
           atol, dense_output):
    fp, fr = rhs(t0, phi0)
    h_abs = _initial_step(rhs, t0, phi0, rho0, fp, fr, t_end - t0, rtol, atol)
    nfev, nsteps, steps = 2, 0, []
    t, phi, rho = t0, phi0, rho0
    while True:
        if nsteps == _MAX_STEPS:
            raise IntegrationFailure(f"no end in {_MAX_STEPS} steps: at "
                                     f"t = {t!r}, short of {t_end!r}")
        # one accepted step from t, or a step size below the float spacing
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationFailure(
                    f"integrator step below the float spacing at t = {t!r}")
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            phi_new, rho_new, ep5, er5, ep3, er3, kp, kr = step(
                t, h, t_new, phi, rho, fp, fr)
            nfev += 12
            sp = atol + max(abs(phi), abs(phi_new)) * rtol
            sr = atol + max(abs(rho), abs(rho_new)) * rtol
            e5 = (ep5 / sp) ** 2 + (er5 / sr) ** 2
            e3 = (ep3 / sp) ** 2 + (er3 / sr) ** 2
            if not e5 + e3 < math.inf:
                raise IntegrationFailure(
                    f"non-finite error estimate at t = {t!r}")
            err = (h * e5 / math.sqrt(2.0 * (e5 + 0.01 * e3))
                   if e5 or e3 else 0.0)
            if err < 1.0:
                factor = (_MAX_FACTOR if err == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            rejected = True
        nsteps += 1
        event = phi <= phi_stop <= phi_new
        if event or dense_output:
            F = coefficients(t, h, phi, kp, kr, phi_new - phi,
                             rho_new - rho)
            nfev += 3
            steps.append((t, h, (phi, rho), F))
        if event:
            # relative tolerance only: scipy's absolute 4 eps cannot place
            # a turn that lies within 1e-15 of t = 0 (the odd launch at a
            # huge lambda)
            t_ev = brentq(lambda s: _interpolate(F[0], phi, (s - t) / h)
                          - phi_stop, t, t_new, _TINY, 4.0 * _EPS)
            x = (t_ev - t) / h
            t, phi, rho = (t_ev, _interpolate(F[0], phi, x),
                           _interpolate(F[1], rho, x))
        else:
            t, phi, rho, fp, fr = t_new, phi_new, rho_new, kp[12], kr[12]
        if event or t >= t_end:
            if not (math.isfinite(phi) and math.isfinite(rho)):
                raise IntegrationFailure(f"integrator state ({phi!r}, "
                                         f"{rho!r}) at t = {t!r}")
            sol = Trajectory(steps, t) if dense_output else None
            return Shot(t, phi, rho, event, nfev, nsteps, sol)


def brentq(f, a: float, b: float, xtol: float, rtol: float,
           maxiter: int = 100) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, to
    within xtol + rtol |x| (scipy's brentq, for floats)."""
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketFailure(f"f({a!r}) = {fpre!r} and f({b!r}) = {fcur!r} "
                             "do not bracket a root")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    raise BracketFailure(f"root find did not converge in {maxiter} "
                         f"iterations (last bracket [{xcur!r}, {xblk!r}])")
