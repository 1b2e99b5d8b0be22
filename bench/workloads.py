"""The benchmark's three workloads.

Each workload draws its inputs from the seed, runs one pass over a fixed
list of operations, and checks every output against ``reference`` (or a
property the method must have).  Reference values are computed once per
input and reused for every pass of a run.

* ``sweep``: ``specgap sweep`` on a 45-point grid, as a subprocess.
* ``singular``: in-process matching, asymmetric and singular-end
  eigenvalues, the diameter chain and the catalog.
* ``jsolve``: in-process ``solve_J`` on circles and intervals.
"""

from __future__ import annotations

import csv
import io
import math
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

import reference as ref

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "bench", "out")


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources, and
    the sweep's default thread count (SPECGAP_THREADS unset)."""
    env = dict(os.environ)
    env.pop("SPECGAP_THREADS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


@dataclass
class OpResult:
    label: str
    seconds: float
    value: object          # the return value, or the exception raised
    failed: bool           # raised an exception it was not expected to


@dataclass
class Pass:
    wall_s: float
    ops: list[OpResult]
    peak_rss_mb: float | None = None   # of a child process, when one did the work


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    expect: type | None = None         # exception the call must raise


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


class Workload:
    """Reference values cached per input, and the warm-up operation."""

    name = ""
    warmup_source = ""      # run after importing specgap and specgap.cli

    def __init__(self):
        self._refs: dict = {}

    def warm(self) -> None:
        exec(self.warmup_source, {})

    def ref(self, key, compute: Callable[[], object]):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]


class InProcess(Workload):
    """A workload whose operations are calls into the imported package."""

    def __init__(self, seed: int):
        super().__init__()
        self.rng = np.random.default_rng(seed)
        ops = self.build()
        self.ops = [ops[i] for i in self.rng.permutation(len(ops))]

    def build(self) -> list[Op]:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        results = []
        start = time.perf_counter()
        for op in self.ops:
            t0 = time.perf_counter()
            failed = False
            try:
                value = op.call()
            except Exception as exc:  # recorded; checked below
                value = exc
                failed = op.expect is None or not isinstance(exc, op.expect)
            results.append(OpResult(op.label, time.perf_counter() - t0,
                                    value, failed))
        return Pass(time.perf_counter() - start, results)

    run_pass_inprocess = run_pass


# ---------------------------------------------------------------------------
# sweep

SWEEP_AXES = {"n": [3, 4, 5], "K": [-1.0, -0.25, 0.0, 0.25, 1.0],
              "D": [0.625, 1.25, 2.5]}


class Sweep(Workload):
    """``specgap sweep`` over n x K x D, 45 points.

    The grid holds (K, D) and (4K, D/2) pairs for the scaling check and
    keeps theta D = (n-1) sqrt|K| D <= 10.  The seed orders each axis and
    draws alpha, so the rows come in a different order per seed.
    """

    name = "sweep"
    warmup_source = ("import specgap, specgap.cli\n"
                     "specgap.bounds.bound_report(3.0, 1.0, 1.25)\n")

    def __init__(self, seed: int):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.axes = {k: [v[i] for i in rng.permutation(len(v))]
                     for k, v in SWEEP_AXES.items()}
        self.alpha = float(rng.uniform(0.5, 1.0))
        os.makedirs(OUT, exist_ok=True)
        self.grid = os.path.join(OUT, f"sweep-grid-{seed}.txt")
        with open(self.grid, "w") as fh:
            for key in ("n", "K", "D"):
                fh.write(f"{key} = {' '.join(repr(v) for v in self.axes[key])}\n")
            fh.write(f"alpha = {self.alpha!r}\n")

    def _rows(self, text: str) -> list[OpResult]:
        """One operation per grid point.  The CLI prints no time per
        point that can be taken from outside, so an operation's time is
        the program's own ``timings.compute_s``: the ``bound_report``
        time measured in its pool worker, waits for the interpreter
        lock included."""
        rows = list(csv.DictReader(io.StringIO(text)))
        return [OpResult(f"row{i}", float(r["timings.compute_s"]), r, False)
                for i, r in enumerate(rows)]

    def _failed(self, wall: float, why: str) -> Pass:
        n_points = math.prod(len(v) for v in self.axes.values())
        return Pass(wall, [OpResult(f"point{i}", wall, RuntimeError(why), True)
                           for i in range(n_points)])

    def run_pass(self) -> Pass:
        """The whole CLI process: interpreter start, imports, grid, CSV."""
        err_path = os.path.join(OUT, "sweep-stderr.txt")
        with open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "specgap.cli", "sweep", self.grid],
                stdout=subprocess.PIPE, stderr=err, env=child_env(),
                cwd=ROOT)
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                # wait4 gives this child's own peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - start
        if proc.returncode != 0:
            with open(err_path) as fh:
                tail = fh.read()[-500:]
            return self._failed(wall, f"exit {proc.returncode}: {tail}")
        return Pass(wall, self._rows(out.decode()),
                    usage.ru_maxrss / 1024.0)

    def run_pass_inprocess(self) -> Pass:
        """The click command invoked in this process (traced runs)."""
        from click.testing import CliRunner
        from specgap import cli
        os.environ.pop("SPECGAP_THREADS", None)
        start = time.perf_counter()
        result = CliRunner().invoke(cli.cli, ["sweep", self.grid])
        wall = time.perf_counter() - start
        if result.exit_code != 0:
            return self._failed(wall, f"exit {result.exit_code}: "
                                      f"{result.exception!r}")
        return Pass(wall, self._rows(result.output))

    def check(self, p: Pass) -> list[str]:
        problems = []
        if any(op.failed for op in p.ops):
            return [f"sweep failed: {p.ops[0].value}"]
        rows = [op.value for op in p.ops]
        keys = Counter((int(float(r["query.n"])), float(r["query.K"]),
                        float(r["query.D"])) for r in rows)
        grid = Counter(product(*SWEEP_AXES.values()))
        if keys != grid:
            problems.append(f"sweep printed {len(rows)} rows; missing "
                            f"{sorted(grid - keys)}, extra {sorted(keys - grid)}")
        lam, alpha = {}, self.alpha
        for r in rows:
            n, K, D = int(float(r["query.n"])), float(r["query.K"]), float(r["query.D"])
            key = (n, K, D)
            model = float(r["results.model_lambda1"])
            lam[key] = model
            tag = f"sweep {key}"
            if float(r["query.alpha"]) != alpha:
                problems.append(f"{tag}: alpha echoed as {r['query.alpha']}")
            if n == 3:
                want = self.ref(key, lambda: ref.lambda1_symmetric(K, D))
                if _rel(model, want) > 1e-8:
                    problems.append(f"{tag}: model {model!r} vs n=3 closed "
                                    f"form {want!r}")
            if K == 0 and _rel(model, math.pi ** 2 / D ** 2) > 1e-8:
                problems.append(f"{tag}: model {model!r} vs pi^2/D^2")
            problems += self._check_floors(tag, r, n, K, D, model, alpha)
        problems += self._check_shape(lam)
        return problems

    @staticmethod
    def _check_floors(tag, r, n, K, D, model, alpha) -> list[str]:
        problems = []

        def col(name):
            cell = r.get(f"results.{name}", "")
            return float(cell) if cell not in ("", None) else None

        floors = {"zhong_yang": ref.zhong_yang(D)}
        sz, s_opt = ref.shi_zhang(n, K, D)
        floors["shi_zhang"] = sz
        floors["shi_zhang_s"] = s_opt
        floors["lichnerowicz"] = ref.lichnerowicz(n, K) if K > 0 else None
        floors["yang"] = ref.yang(n, K, D) if K < 0 else None
        for name, want in floors.items():
            got = col(name)
            if want is None:
                if got is not None:
                    problems.append(f"{tag}: {name} reported where it does "
                                    "not apply")
            elif got is None or abs(got - want) > 1e-12 * max(abs(want), 1.0):
                problems.append(f"{tag}: {name} {got!r} vs {want!r}")
        slack = 1e-9 * max(1.0, model)
        below = ["shi_zhang", "lichnerowicz", "yang"]
        if K >= 0:
            below.append("zhong_yang")
        for name in below:
            val = floors[name]
            if val is not None and val > model + slack:
                problems.append(f"{tag}: {name} {val!r} above model {model!r}")
        if K < 0 and floors["zhong_yang"] < model - slack:
            problems.append(f"{tag}: zhong_yang below model when K < 0")
        main = col("main_bound")
        if main is None or abs(main - alpha * model) > 1e-15 * model:
            problems.append(f"{tag}: main_bound {main!r} != alpha * model")
        for key, val in r.items():
            if key.startswith("flags.") and val not in ("", "true"):
                problems.append(f"{tag}: {key} = {val}")
        return problems

    @staticmethod
    def _check_shape(lam: dict) -> list[str]:
        problems = []
        for (n, K, D), v in lam.items():
            pair = lam.get((n, 4 * K, D / 2))
            if pair is not None and abs(pair - 4 * v) > 1e-8 * 4 * v:
                problems.append(f"sweep scaling: lambda({n},{4 * K},{D / 2}) "
                                f"= {pair!r} vs 4 lambda({n},{K},{D})")
        ns, Ks, Ds = (sorted(SWEEP_AXES[k]) for k in ("n", "K", "D"))
        for n, K in product(ns, Ks):
            seq = [lam.get((n, K, D)) for D in Ds]
            if None not in seq and not all(a > b for a, b in zip(seq, seq[1:])):
                problems.append(f"sweep: not decreasing in D at n={n} K={K}")
        for n, D in product(ns, Ds):
            seq = [lam.get((n, K, D)) for K in Ks]
            if None not in seq and not all(a < b for a, b in zip(seq, seq[1:])):
                problems.append(f"sweep: not increasing in K at n={n} D={D}")
        for K, D in product(Ks, Ds):
            seq = [lam.get((n, K, D)) for n in ns]
            if None in seq:
                continue
            pairs = list(zip(seq, seq[1:]))
            if K > 0:
                ok = all(a < b for a, b in pairs)
            elif K < 0:
                ok = all(a > b for a, b in pairs)
            else:
                ok = all(abs(a - b) <= 1e-8 * a for a, b in pairs)
            if not ok:
                problems.append(f"sweep: wrong n-dependence at K={K} D={D}")
        return problems


# ---------------------------------------------------------------------------
# singular

TAN_LAM, SUPER_LAM, SUB_LAM = 4.5, 3.0, 0.9
HALF_PI = math.pi / 2


class Singular(InProcess):
    """Singular-endpoint family queries on the n = 3 model.

    Matching in the tan (K = 1), supercritical (K = -1, lam above
    theta^2/4 = 1) and subthreshold (K = -1, lam below it) families,
    with targets stratified over the attainable range, one target below
    the family minimum, m_min, r_epsilon, asymmetric Neumann intervals
    (two of them ending at the tan pole, two at the coth origin), the
    diameter chain and the built-in catalog, whose four spheres sit at
    the closing diameter.
    """

    name = "singular"
    warmup_source = (
        "import specgap, specgap.cli\n"
        "from specgap.model import Branch, ModelParams\n"
        "specgap.matching.match_maximum(ModelParams(3.0, 1.0, Branch.TAN), "
        "4.5, 0.75)\n")

    def build(self) -> list[Op]:
        from specgap import eigen, harness, matching
        from specgap.errors import TargetBelowMinimum
        from specgap.model import Branch, ModelParams

        rng = self.rng
        tan = ModelParams(3.0, 1.0, Branch.TAN)
        coth = ModelParams(3.0, -1.0, Branch.COTH)
        self.mmin_tan = ref.first_maximum(1.0, TAN_LAM, -HALF_PI, "tan")[1]
        self.mmin_super = ref.first_maximum(-1.0, SUPER_LAM, 0.0, "coth")[1]
        ops = []
        self.targets = {}
        families = [("tan", tan, TAN_LAM, self.mmin_tan),
                    ("super", coth, SUPER_LAM, self.mmin_super),
                    ("sub", coth, SUB_LAM, 0.05)]
        for fam, params, lam, lo in families:
            for k in range(6):
                u = lo + (1.0 - lo) * (k + rng.uniform(0.1, 0.9)) / 6.0
                label = f"match:{fam}:{k}"
                self.targets[label] = (lam, u)
                ops.append(Op(label, lambda p=params, l=lam, u=u:
                              matching.match_maximum(p, l, u)))
        below = self.mmin_tan * rng.uniform(0.3, 0.9)
        ops.append(Op("below:tan", lambda: matching.match_maximum(
            tan, TAN_LAM, below), expect=TargetBelowMinimum))
        ops.append(Op("m_min:tan", lambda: matching.m_min(tan, TAN_LAM)))
        ops.append(Op("m_min:super", lambda: matching.m_min(coth, SUPER_LAM)))

        tanh = ModelParams(3.0, -1.0, Branch.TANH)
        self.r_eps = {}
        for fam, params, lam, a_lo, a_hi in [
                ("tan", tan, TAN_LAM, -1.4, -1.0),
                ("super", coth, SUPER_LAM, 0.1, 1.0),
                ("sub", tanh, SUB_LAM, -1.15, -0.75)]:
            for k in range(2):
                a = rng.uniform(a_lo, a_hi)
                eps, delta = rng.uniform(0.1, 1.0), rng.uniform(0.0, 0.3)
                label = f"r_eps:{fam}:{k}"
                self.r_eps[label] = (params, lam, a, eps, delta)
                ops.append(Op(label, lambda p=params, l=lam, a=a, e=eps, d=delta:
                              matching.r_epsilon(p, l, a, e, d)))

        self.intervals = {
            "asym:tan": (tan, rng.uniform(-1.0, -0.6), rng.uniform(0.9, 1.1)),
            "asym:tan-left-pole": (tan, -HALF_PI, rng.uniform(0.2, 0.4)),
            "asym:tan-right-pole": (tan, rng.uniform(-0.3, 0.0), HALF_PI),
            "asym:coth-origin": (coth, 0.0, rng.uniform(1.6, 2.0)),
            "asym:coth": (coth, rng.uniform(0.3, 0.6), rng.uniform(2.0, 2.4)),
            "asym:tanh": (tanh, rng.uniform(-0.8, -0.4), rng.uniform(1.4, 1.8)),
        }
        for label, (params, a, b) in self.intervals.items():
            ops.append(Op(label, lambda p=params, a=a, b=b:
                          eigen.neumann_eigenvalue_shooting(
                              eigen.EigenQuery(p, a, b))))

        # a large then a small delta per curvature sign
        for K, lam1 in [(1.0, rng.uniform(3.2, 4.5)), (-1.0, rng.uniform(1.2, 2.0))]:
            for k, delta in enumerate([rng.uniform(0.15, 0.25),
                                       rng.uniform(0.01, 0.05)]):
                ops.append(Op(f"chain:{K:+g}:{k}", lambda K=K, l=lam1, d=delta:
                              harness.diameter_chain_check(3.0, K, l, d)))

        for m in harness.catalog():
            ops.append(Op(f"catalog:{m.name}",
                          lambda m=m: harness.check_main_inequality(m)))
        return ops

    def check(self, p: Pass) -> list[str]:
        problems = []
        got = {op.label: op.value for op in p.ops}
        for label, (lam, u) in self.targets.items():
            res = got[label]
            if isinstance(res, Exception):
                continue
            top = self.ref(f"m:{label}:{res.a!r}", lambda: ref.first_maximum(
                res.params.curv, lam, res.a, res.params.branch.value))
            if top is None or abs(top[1] - u) > 1e-8:
                problems.append(f"{label}: m({res.a!r}) = {top} vs target {u!r}")
        if not isinstance(got["below:tan"], Exception):
            problems.append("below:tan: target under m_min did not raise")
        for label, want in [("m_min:tan", self.mmin_tan),
                            ("m_min:super", self.mmin_super)]:
            val = got[label]
            if not isinstance(val, Exception) and abs(val - want) > 1e-8:
                problems.append(f"{label}: {val!r} vs {want!r}")
        for label, (params, lam, a, eps, delta) in self.r_eps.items():
            val = got[label]
            if isinstance(val, Exception):
                continue
            want = self.ref(label, lambda: math.sqrt(1.0 - delta) * ref.level_distance(
                params.curv, lam, a, params.branch.value, -1.0 + eps))
            if _rel(val, want) > 1e-8:
                problems.append(f"{label}: {val!r} vs {want!r}")
        for label, (params, a, b) in self.intervals.items():
            val = got[label]
            if isinstance(val, Exception):
                continue
            want = self.ref(label, lambda: ref.lambda1_interval(
                params.curv, a, b, params.branch.value))
            central = self.ref(label + ":central", lambda: ref.lambda1_symmetric(
                params.curv, b - a))
            if _rel(val, want) > 1e-8:
                problems.append(f"{label} [{a!r}, {b!r}]: {val!r} vs {want!r}")
            if val < central * (1.0 - 1e-8):
                problems.append(f"{label}: {val!r} below the central "
                                f"interval's {central!r}")
        for K in (1.0, -1.0):
            alphas = []
            for k in range(2):
                rep = got[f"chain:{K:+g}:{k}"]
                if isinstance(rep, Exception):
                    break
                alphas.append(rep.alpha_achieved)
                if not 0.0 < rep.alpha_achieved < 1.0:
                    problems.append(f"chain K={K} delta={rep.delta}: alpha "
                                    f"{rep.alpha_achieved!r} outside (0, 1)")
            if len(alphas) == 2 and not alphas[1] > alphas[0]:
                problems.append(f"chain K={K}: alpha does not rise as delta "
                                f"shrinks: {alphas}")
        for label, rep in got.items():
            if not label.startswith("catalog:") or isinstance(rep, Exception):
                continue
            if label.startswith("catalog:S^") and rep.dim >= 2:
                want = rep.dim * rep.K          # n / r^2 on the sphere
            else:
                want = math.pi ** 2 / rep.diameter ** 2
            if _rel(rep.model_value, want) > 1e-8:
                problems.append(f"{label}: model {rep.model_value!r} vs {want!r}")
            if not rep.ok:
                problems.append(f"{label}: main inequality reported false")
        return problems


# ---------------------------------------------------------------------------
# jsolve

N_DIM, K_CURV = 3, 1.0
EPS = np.finfo(float).eps

# interval meshes, fixed so that timings do not depend on the seed;
# most operations sit at 2^12 so the median follows the interval path
BUMP_MESHES = [1 << 10] + [1 << 11] * 3 + [1 << 12] * 6 + [1 << 13] * 4 \
    + [1 << 14] * 4 + [1 << 15] * 2 + [1 << 16] + [1 << 17]
CONST_MESHES = [1 << 10, 1 << 11, 1 << 12, 1 << 12, 1 << 13, 1 << 13]
MATHIEU_MESHES = (1 << 10, 1 << 11, 1 << 12)


@dataclass
class JCase:
    geometry: str          # "circle" | "interval"
    length: float
    mesh: int
    tau: float
    kind: str              # "mathieu" | "bump" | "constant"
    params: tuple          # c | (depth, width, center) | value


class JSolve(InProcess):
    """solve_J on curvature profiles.

    Three circle solves (the Mathieu-type profile at meshes 1024 and 2048,
    a bump at 4096; dense eigensolves that set wall time and peak memory)
    and forty interval solves at meshes 2^10 to 2^17 (tridiagonal, a few
    milliseconds each, which set the median).  The Mathieu-type profile
    rho(t) = (n-1) K - c (1 + cos t) has the exact answer of
    ``reference.hill_sigma_tilde``; on [0, pi] with reflecting ends it
    has the same top eigenvalue as on the 2 pi circle.
    """

    name = "jsolve"
    warmup_source = (
        "import numpy as np\n"
        "import specgap, specgap.cli\n"
        "from specgap.auxfunc import CurvatureProfile, Geometry, solve_J\n"
        "solve_J(CurvatureProfile(Geometry.CIRCLE, 2 * np.pi, 3, "
        "lambda t: 2.0 - 0.5 * (1 + np.cos(t))), 1.0, 2.0, 1024)\n")

    def build(self) -> list[Op]:
        from specgap import auxfunc

        rng = self.rng
        cases: dict[str, JCase] = {}
        two_pi = 2.0 * math.pi
        c, tau = rng.uniform(0.2, 0.8), rng.uniform(1.5, 3.0)
        for m in (1 << 10, 1 << 11):
            cases[f"circle:mathieu:{m}"] = JCase("circle", two_pi, m, tau,
                                                 "mathieu", (c,))
        cases["circle:bump:4096"] = JCase(
            "circle", two_pi, 4096, rng.uniform(1.5, 3.0), "bump",
            (rng.uniform(0.1, 1.0), rng.uniform(0.5, 1.5), rng.uniform(0, two_pi)))
        for f in range(4):
            c, tau = rng.uniform(0.2, 0.8), rng.uniform(1.5, 3.0)
            for m in MATHIEU_MESHES:
                cases[f"interval:mathieu{f}:{m}"] = JCase(
                    "interval", math.pi, m, tau, "mathieu", (c,))
        for i, m in enumerate(BUMP_MESHES):
            L = rng.uniform(3.0, 7.0)
            cases[f"interval:bump{i}:{m}"] = JCase(
                "interval", L, m, rng.uniform(1.5, 3.0), "bump",
                (rng.uniform(0.1, 1.0), rng.uniform(0.3, 0.5) * L,
                 rng.uniform(0.0, L)))
        for i, m in enumerate(CONST_MESHES):
            cases[f"interval:const{i}:{m}"] = JCase(
                "interval", rng.uniform(1.0, 8.0), m, rng.uniform(1.5, 3.0),
                "constant", ((N_DIM - 1) * K_CURV + rng.uniform(0.0, 1.0),))
        self.cases = cases
        return [Op(label, lambda p=self._profile(case), case=case:
                   auxfunc.solve_J(p, K_CURV, case.tau, case.mesh))
                for label, case in cases.items()]

    @staticmethod
    def _profile(case: JCase):
        from specgap.auxfunc import CurvatureProfile, Geometry
        geom = Geometry(case.geometry)
        base = (N_DIM - 1) * K_CURV
        if case.kind == "mathieu":
            c = case.params[0]
            return CurvatureProfile(geom, case.length, N_DIM,
                                    lambda t: base - c * (1.0 + np.cos(t)))
        if case.kind == "bump":
            depth, width, center = case.params
            return CurvatureProfile.bump(base, depth, width, center,
                                         case.length, N_DIM, geom)
        return CurvatureProfile.constant(case.params[0], case.length, N_DIM,
                                         geom)

    @staticmethod
    def _potential(case: JCase) -> tuple[np.ndarray, float]:
        """2 (tau - 1) max((n-1) K - rho, 0) on the documented solve grid."""
        h = case.length / case.mesh
        if case.geometry == "circle":
            t = np.arange(case.mesh) * h
        else:
            t = (np.arange(case.mesh) + 0.5) * h
        if case.kind == "mathieu":
            deficit = case.params[0] * (1.0 + np.cos(t))
        elif case.kind == "bump":
            depth, width, center = case.params
            s = np.abs(t - center)
            if case.geometry == "circle":
                s = np.minimum(s, case.length - s)
            deficit = np.where(s < width,
                               depth * np.cos(0.5 * np.pi * s / width) ** 4, 0.0)
        else:
            deficit = np.zeros_like(t)
        return 2.0 * (case.tau - 1.0) * deficit, h

    def _exact_sigma(self, case: JCase) -> float:
        beta = 2.0 * (case.tau - 1.0) * case.params[0]
        return self.ref(f"hill:{beta!r}", lambda: ref.hill_sigma_tilde(beta)) \
            / (case.tau - 1.0)

    def check(self, p: Pass) -> list[str]:
        problems = []
        got = {op.label: op.value for op in p.ops}
        for label, case in self.cases.items():
            sol = got[label]
            if isinstance(sol, Exception):
                continue
            V, h = self._potential(case)
            top = self.ref(label, lambda: ref.top_eigenvalue(
                V, h, case.geometry == "circle"))
            # both solvers are backward stable: agreement to a small
            # multiple of eps times the operator norm 4/h^2 + max V
            tol = 16.0 * EPS * (4.0 / h ** 2 + float(V.max()))
            if abs(sol.sigma_tilde - top) > tol:
                problems.append(f"{label}: sigma~ {sol.sigma_tilde!r} vs "
                                f"{top!r} (tol {tol:.1e})")
            if not np.min(sol.J) > 0.0:
                problems.append(f"{label}: J not positive")
            if abs(float(np.mean(sol.J)) - 1.0) > 1e-12:
                problems.append(f"{label}: mean J = {np.mean(sol.J)!r}")
            if sol.sigma < -tol:
                problems.append(f"{label}: sigma {sol.sigma!r} < 0")
            if case.kind == "constant":
                if abs(sol.sigma) > tol or float(np.max(np.abs(sol.J - 1.0))) > 1e-9:
                    problems.append(f"{label}: constant profile gave sigma "
                                    f"{sol.sigma!r}, max|J-1| "
                                    f"{np.max(np.abs(sol.J - 1.0))!r}")
        pairs = [("circle:mathieu:1024", "circle:mathieu:2048")]
        pairs += [(f"interval:mathieu{f}:{1 << 10}", f"interval:mathieu{f}:{1 << 11}")
                  for f in range(4)]
        for coarse, fine in pairs:
            a, b = got[coarse], got[fine]
            if isinstance(a, Exception) or isinstance(b, Exception):
                continue
            exact = self._exact_sigma(self.cases[coarse])
            rich = (4.0 * b.sigma - a.sigma) / 3.0
            if abs(rich - exact) > 1e-9 * max(1.0, exact):
                problems.append(f"{coarse}: Richardson sigma {rich!r} vs "
                                f"Fourier {exact!r}")
            order = math.log2(abs(a.sigma - exact) / abs(b.sigma - exact))
            if abs(order - 2.0) > 0.1:
                problems.append(f"{coarse}: observed order {order:.3f}")
        return problems


WORKLOADS = {"sweep": Sweep, "singular": Singular, "jsolve": JSolve}
