"""Span tracer that wraps the engine's public functions from outside.

``Tracer.install`` replaces each traced function everywhere the engine can
reach it: the defining module, every engine module that bound the same
object with ``from ... import`` (``bermudan.scheme_driver``,
``mc.payoff_eval``, ``cva.make_cos_grid``, ...), and the lazy export cache
of the ``levyxva`` package.  ``uninstall`` restores the exact previous
state, so untraced requests run the original code.

A span is (request, name, parent, start, end).  Self time is a span's
duration minus its children's; the benchmark's own work inside a request
(the root span and the derived-metric analysis) is reported under
``bench``.  Warnings raised while a span is innermost count toward that
span's module.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

import numpy as np

import levyxva
from levyxva import bermudan, bsde, charfunc, cos, cva, mc, model

LAYERS = {
    "model": model,
    "charfunc": charfunc,
    "cos": cos,
    "bsde": bsde,
    "bermudan": bermudan,
    "cva": cva,
    "mc": mc,
}

TRACED = {
    "model": ("taylor_expand",),
    "charfunc": ("build_order_n", "CharFuncApprox.eval"),
    "cos": ("step_kernel", "point_kernel", "dct_coeffs", "m_matrix_product", "put_payoff_coeffs"),
    "bsde": ("scheme_driver", "theta_step", "spot_step", "solve_bsde", "make_cos_grid"),
    "bermudan": ("price_bermudan_xva", "payoff_eval"),
    "cva": ("newton_exercise_point", "price_bermudan_cos", "cva_report", "greeks"),
    "mc": ("simulate", "simulate_crn_pair", "lsm_price", "lsm_cva"),
}

ROOT = "bench.request"
ANALYSIS = "bench.analysis"

# Poisson mean at which simulate_crn_pair caps its inverse-CDF draw.
CRN_POISSON_CAP = 200.0

_MISSING = object()


def span_names() -> list:
    return [f"{mod}.{func}" for mod, funcs in TRACED.items() for func in funcs]


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "1/req"
        units[f"{name}.self_s"] = "s/req"
    for mod in TRACED:
        units[f"{mod}.self_s"] = "s/req"
        units[f"{mod}.warnings"] = "1/req"
    units.update({
        "cos.kernel_builds_per_req": "1/req",
        "cos.kernel_bytes": "B/req",
        "bsde.driver_calls_per_step": "ratio",
        "cva.newton_evals_per_root": "ratio",
        "charfunc.fallback_frac": "frac",
        "mc.cap_frac": "frac",
        "mc.clip_frac": "frac",
        "bench.self_s": "s/req",
        "bench.request_s": "s/req",
        "bench.req_per_s_untraced": "1/s",
        "bench.req_per_s_traced": "1/s",
        "bench.trace_overhead_frac": "frac",
    })
    return units


class Tracer:
    """In-memory spans and counters for the traced requests of one run."""

    def __init__(self, warning_log: list):
        self.spans = []
        self.counters = Counter()
        self.fallback_memo = {}
        self.warnings = Counter()
        self.requests = 0
        self._request = -1
        self._stack = []
        self._log = warning_log
        self._seen = 0
        self._root = -1
        self._patches = self._plan()
        self._saved = []

    # -- spans -------------------------------------------------------------
    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([self._request, name, parent, time.perf_counter(), 0.0])

    def exit(self) -> None:
        span = self.spans[self._stack.pop()]
        span[4] = time.perf_counter()
        if len(self._log) > self._seen:
            self.warnings[span[1].split(".", 1)[0]] += len(self._log) - self._seen
            self._seen = len(self._log)

    def begin_request(self, index: int) -> None:
        self._request = index
        self.requests += 1
        self._root = len(self.spans)
        self.enter(ROOT)

    def end_request(self) -> float:
        """Close the root span; returns the request's wall time."""
        self.exit()
        self._seen = 0
        start, end = self.spans[self._root][3:5]
        return end - start

    # -- patching ----------------------------------------------------------
    def _plan(self) -> list:
        """(owner, attribute, original, wrapper) for every place to patch."""
        plan = []
        for mod_name, funcs in TRACED.items():
            mod = LAYERS[mod_name]
            for func in funcs:
                owner, attr = mod, func
                if "." in func:
                    cls, attr = func.split(".")
                    owner = getattr(mod, cls)
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                plan.append((owner, attr, original, wrapper))
                if owner is not mod:
                    continue
                for other in LAYERS.values():
                    if other is not mod and getattr(other, attr, None) is original:
                        plan.append((other, attr, original, wrapper))
                if levyxva._EXPORTS.get(attr) == mod_name:
                    plan.append((levyxva, attr, original, wrapper))
        return plan

    def install(self) -> None:
        self._saved = [(owner, attr, owner.__dict__.get(attr, _MISSING))
                       for owner, attr, _, _ in self._patches]
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, previous in reversed(self._saved):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._saved = []

    def _wrap(self, name: str, fn):
        post = _POST.get(name)
        pre = _PRE.get(name)
        signature = inspect.signature(fn) if (pre or post) else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(tracer, signature, args, kwargs)
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if post is not None:
                tracer.enter(ANALYSIS)
                try:
                    post(tracer, signature.bind(*args, **kwargs).arguments, out)
                finally:
                    tracer.exit()
            return out

        return traced

    # -- report ------------------------------------------------------------
    def report(self) -> dict:
        """Per-layer metrics per traced request (see ``per_layer_units``)."""
        n = max(self.requests, 1)
        spans = self.spans
        child = [0.0] * len(spans)
        for req, name, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        request_s = 0.0
        for i, (req, name, parent, start, end) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if name == ROOT:
                request_s += end - start

        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name] / n
            out[f"{name}.self_s"] = self_s[name] / n
        for mod, funcs in TRACED.items():
            out[f"{mod}.self_s"] = sum(self_s[f"{mod}.{f}"] for f in funcs) / n
            out[f"{mod}.warnings"] = self.warnings[mod] / n
        out["bench.self_s"] = (self_s[ROOT] + self_s[ANALYSIS]) / n
        out["bench.request_s"] = request_s / n

        c = self.counters
        builds = calls["cos.step_kernel"] + calls["cos.point_kernel"]
        out["cos.kernel_builds_per_req"] = builds / n
        out["cos.kernel_bytes"] = c["kernel_bytes"] / n
        driver_calls, steps = self._step_counts()
        out["bsde.driver_calls_per_step"] = _ratio(driver_calls, steps)
        out["cva.newton_evals_per_root"] = _ratio(
            c["newton_evals"], calls["cva.newton_exercise_point"]
        )
        out["charfunc.fallback_frac"] = _ratio(c["fallback_entries"], c["corrected_entries"])
        out["mc.cap_frac"] = _ratio(c["cap_hits"], c["jump_draws"])
        out["mc.clip_frac"] = _ratio(c["clip_hits"], c["path_entries"])
        return out

    def _step_counts(self):
        """Driver calls and backward steps inside the two backward solvers.

        A step is a ``theta_step`` call, or a kernel build inside
        ``price_bermudan_xva`` (which builds one kernel per step).
        """
        solvers = ("bsde.solve_bsde", "bermudan.price_bermudan_xva")
        spans = self.spans

        def under(i, names):
            i = spans[i][2]
            while i >= 0:
                if spans[i][1] in names:
                    return True
                i = spans[i][2]
            return False

        driver_calls = steps = 0
        for i, span in enumerate(spans):
            name = span[1]
            if name == "bsde.scheme_driver" and under(i, solvers):
                driver_calls += 1
            elif name == "bsde.theta_step":
                steps += 1
            elif name in ("cos.step_kernel", "cos.point_kernel") and under(
                i, ("bermudan.price_bermudan_xva",)
            ):
                steps += 1
        return driver_calls, steps


def _ratio(num: float, den: float) -> float:
    """num/den, and 0.0 on a workload that never reaches the layer."""
    return num / den if den else 0.0


# -- derived counts, measured from each call's public inputs and outputs ---

def _count_newton_evals(tracer, signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    c_fn = bound.arguments["c_fn"]

    def counted(x):
        tracer.counters["newton_evals"] += 1
        return c_fn(x)

    bound.arguments["c_fn"] = counted
    return bound.args, bound.kwargs


def _count_fallbacks(tracer, arguments, cf):
    """Entries whose g[0] is bit for bit exp(tau * psi_0) and whose higher
    rows are zero: the trust region reverted them to order 0 (derived).

    ``build_order_n`` is a pure function of its arguments, and the
    XVA solve rebuilds the same time-homogeneous kernel on every step, so
    the count is computed once per distinct argument set.
    """
    if cf.order < 1:
        return
    taylor = arguments["taylor"]
    tau = arguments["T"] - arguments["t"]
    key = (
        tau, cf.order, arguments.get("span", 0.0), cf.freqs.tobytes(),
        taylor.basepoint.tobytes(), taylor.s.tobytes(), taylor.mu.tobytes(),
        taylor.a.tobytes(), taylor.gamma.tobytes(), taylor.jump_mean, taylor.jump_std,
    )
    if key not in tracer.fallback_memo:
        tracer.fallback_memo[key] = _fallbacks(taylor, tau, cf)
    fallbacks, entries = tracer.fallback_memo[key]
    tracer.counters["fallback_entries"] += fallbacks
    tracer.counters["corrected_entries"] += entries


def _fallbacks(taylor, tau, cf):
    g0 = np.atleast_2d(cf.g[0])
    zero = np.ones(g0.shape, dtype=bool)
    for gk in cf.g[1:]:
        zero &= np.atleast_2d(gk) == 0.0
    if not zero.any():
        return 0, g0.size
    rows, cols = np.nonzero(zero)
    xi = cf.freqs[cols]
    if taylor.basepoint.ndim:
        order0 = model.TaylorData(
            basepoint=taylor.basepoint[rows],
            order=0,
            s=taylor.s[:1, rows],
            mu=taylor.mu[:1, rows],
            a=taylor.a[:1, rows],
            gamma=taylor.gamma[:1, rows],
            jump_mean=taylor.jump_mean,
            jump_std=taylor.jump_std,
        )
        psi = charfunc.levy_symbol_psi(order0, xi[:, None])[:, 0]
    else:
        psi = charfunc.levy_symbol_psi(taylor, xi)
    return int(np.count_nonzero(np.exp(tau * psi) == g0[zero])), g0.size


def _count_kernel_bytes(tracer, arguments, kernel):
    tracer.counters["kernel_bytes"] += kernel.psi.nbytes + kernel.psi_dw.nbytes


def _clip_hits(x: np.ndarray) -> int:
    """Path entries pinned to the guard band: the band edges are the only
    values a continuous Euler step repeats exactly, so count the batch
    minimum and maximum when they occur more than once."""
    steps = x[:, 1:]
    hits = 0
    for edge in (steps.min(), steps.max()):
        n = int(np.count_nonzero(steps == edge))
        hits += n if n > 1 else 0
    return hits


def _count_clips(tracer, arguments, batch):
    tracer.counters["clip_hits"] += _clip_hits(batch.x)
    tracer.counters["path_entries"] += batch.x[:, 1:].size


def _count_crn(tracer, arguments, pair):
    for batch, mdl in zip(pair, (arguments["mdl_a"], arguments["mdl_b"])):
        _count_clips(tracer, arguments, batch)
        lam_dt = mdl.intensity_a(0.0, batch.x[:, :-1]) * batch.dt
        tracer.counters["cap_hits"] += int(np.count_nonzero(lam_dt >= CRN_POISSON_CAP))
        tracer.counters["jump_draws"] += lam_dt.size


_PRE = {"cva.newton_exercise_point": _count_newton_evals}
_POST = {
    "charfunc.build_order_n": _count_fallbacks,
    "cos.step_kernel": _count_kernel_bytes,
    "cos.point_kernel": _count_kernel_bytes,
    "mc.simulate": _count_clips,
    "mc.simulate_crn_pair": _count_crn,
}
