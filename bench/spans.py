"""In-memory spans around the package's public functions, and the
per-layer metrics computed from them.

The wrappers are installed from outside the package: every module
attribute of ``specgap`` that is bound to a traced function is replaced
by a wrapper and put back afterwards.  The scipy entry points are wrapped
only where ``specgap.model`` (the integrator) and ``specgap.auxfunc``
(the eigensolvers) bind them, so the finite-difference oracle in
``specgap.eigen`` is not counted as an auxiliary eigensolve.

A span records its name, start, end, its own id and the id of the span
that caused it: the innermost open span on the same thread, or, on a
worker thread with nothing open (the sweep's thread pool), the innermost
open span of the main thread.  Self time is a span's duration minus the
union of its children's intervals.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute) of the package's public functions, named
# "<module>.<function>" in the spans
PUBLIC = [
    ("bounds", "bound_report"),
    ("eigen", "lambda1_model"),
    ("eigen", "neumann_eigenvalue_shooting"),
    ("eigen", "symmetric_interval_length"),
    ("model", "solve_ivp"),
    ("matching", "match_maximum"),
    ("matching", "m_min"),
    ("matching", "r_epsilon"),
    ("harness", "check_main_inequality"),
    ("harness", "diameter_chain_check"),
    ("perturbation", "perturbed_params"),
    ("auxfunc", "solve_J"),
]

INTEGRATOR = "model.integrator"
EIGENSOLVE = "auxfunc.eigensolve"


@dataclass
class Span:
    name: str
    start: float
    end: float
    sid: int
    parent: int
    extra: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extra=None):
        stacks, spans, ids, main = self._stacks, self.spans, self._ids, self._main

        def traced(*args, **kwargs):
            stack = stacks.setdefault(threading.get_ident(), [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = stacks.get(main)
                parent = main_stack[-1] if main_stack else 0
            sid = next(ids)
            stack.append(sid)
            out = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(name, start, end, sid, parent,
                                  extra(args, out) if extra else 0.0))

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        from specgap import auxfunc, cli, model

        modules = [m for key, m in sys.modules.items()
                   if key == "specgap" or key.startswith("specgap.")]
        for mod_name, attr in PUBLIC:
            orig = getattr(sys.modules[f"specgap.{mod_name}"], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapper)
        self._set(cli.sweep, "callback",
                  self._wrap("cli.sweep", cli.sweep.callback))
        self._set(model, "_scipy_solve_ivp",
                  self._wrap(INTEGRATOR, model._scipy_solve_ivp,
                             lambda args, out: out.nfev if out else 0))
        # matrix bytes computed from the array arguments: the dense
        # matrix on the circle, the two diagonals on the interval
        self._set(auxfunc, "eigh",
                  self._wrap(EIGENSOLVE, auxfunc.eigh,
                             lambda args, out: args[0].nbytes))
        self._set(auxfunc, "eigh_tridiagonal",
                  self._wrap(EIGENSOLVE, auxfunc.eigh_tridiagonal,
                             lambda args, out: args[0].nbytes + args[1].nbytes))

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    def take(self) -> list[Span]:
        """The spans recorded so far; the list starts empty again."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def _union_length(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer totals of one traced pass with their units, in report
    order (all but trace.overhead)."""
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def self_s(name):
        return sum(s.duration - _union_length(
            [(c.start, c.end) for c in children[s.sid]], s.start, s.end)
            for s in named[name])

    def total_s(name):
        return sum(s.duration for s in named[name])

    def calls(name):
        return len(named[name])

    def under(name, ancestor):
        count = 0
        for s in named[name]:
            p = by_id.get(s.parent)
            while p is not None and p.name != ancestor:
                p = by_id.get(p.parent)
            count += p is not None
        return count

    def ratio(a, b):
        return a / b if b else 0.0

    solves = calls(INTEGRATOR)
    rhs = sum(s.extra for s in named[INTEGRATOR])
    l1 = named["eigen.lambda1_model"]
    sweep = total_s("cli.sweep")
    return {
        "model.ivp_solves": (solves, "count"),
        "model.rhs_evals": (rhs, "count"),
        "model.rhs_evals_per_solve": (ratio(rhs, solves), "ratio"),
        "model.integrator_s": (total_s(INTEGRATOR), "s"),
        "eigen.lambda1_model.calls": (len(l1), "count"),
        "eigen.lambda1_model.self_s": (self_s("eigen.lambda1_model"), "s"),
        "eigen.lambda1_model.p50_ms": (1e3 * statistics.median(
            s.duration for s in l1) if l1 else 0.0, "ms"),
        "eigen.ivp_per_eigenvalue": (ratio(
            under(INTEGRATOR, "eigen.lambda1_model"), len(l1)), "ratio"),
        "cli.sweep.self_s": (self_s("cli.sweep"), "s"),
        "cli.sweep.overlap": (ratio(total_s("bounds.bound_report"), sweep),
                              "ratio"),
        "bounds.bound_report.calls": (calls("bounds.bound_report"), "count"),
        "bounds.bound_report.self_s": (self_s("bounds.bound_report"), "s"),
        "model.solve_ivp.calls": (calls("model.solve_ivp"), "count"),
        "model.solve_ivp.self_s": (self_s("model.solve_ivp"), "s"),
        "matching.match_maximum.calls": (calls("matching.match_maximum"),
                                         "count"),
        "matching.match_maximum.self_s": (self_s("matching.match_maximum"),
                                          "s"),
        "matching.solves_per_match": (ratio(
            under(INTEGRATOR, "matching.match_maximum"),
            calls("matching.match_maximum")), "ratio"),
        "matching.m_min.self_s": (self_s("matching.m_min"), "s"),
        "matching.r_epsilon.self_s": (self_s("matching.r_epsilon"), "s"),
        "eigen.neumann_eigenvalue_shooting.calls": (calls(
            "eigen.neumann_eigenvalue_shooting"), "count"),
        "eigen.neumann_eigenvalue_shooting.self_s": (self_s(
            "eigen.neumann_eigenvalue_shooting"), "s"),
        "eigen.symmetric_interval_length.calls": (calls(
            "eigen.symmetric_interval_length"), "count"),
        "harness.check_main_inequality.self_s": (self_s(
            "harness.check_main_inequality"), "s"),
        "harness.diameter_chain_check.self_s": (self_s(
            "harness.diameter_chain_check"), "s"),
        "perturbation.perturbed_params.self_s": (self_s(
            "perturbation.perturbed_params"), "s"),
        "auxfunc.solve_J.calls": (calls("auxfunc.solve_J"), "count"),
        "auxfunc.solve_J.self_s": (self_s("auxfunc.solve_J"), "s"),
        "auxfunc.eigensolve_s": (total_s(EIGENSOLVE), "s"),
        "auxfunc.matrix_bytes": (sum(s.extra for s in named[EIGENSOLVE]),
                                 "bytes-computed"),
    }
