"""Command-line front end: INI run configurations, pricing/validation/bench
jobs, deterministic CSV output.

Everything numerical is imported lazily so ``--threads`` can pin the BLAS
and FFT thread counts through environment variables before numpy loads.

Exit codes: 0 ok, 2 configuration error, 3 numerical failure (Picard
divergence and friends), 4 validation failure (COS estimate outside the
widened Monte Carlo interval).
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError, NumericalError, ValidationFailure

_REQUIRED = object()

# The INI key that feeds each engine field whose rule an INI value can break.
_KEYS = {
    "vol": "[model] b", "jump_intensity": "[model] lam", "default_intensity": "[model] c",
    "mean": "[model] m", "std": "[model] delta", "rate_r": "[model] r", "spot_x0": "[model] x0",
    "slope": "[model] beta",
    "J": "[cos] j", "L": "[cos] l", "theta1": "[cos] theta1", "picard": "[cos] picard",
    "N": "[cos] n", "M": "[cos] m",
    "kind": "[payoff] kind", "strike": "[payoff] strike", "T": "[payoff] maturity",
    "mode": "[driver] mode", "closeout": "[driver] closeout",
    "recovery_b": "[driver] recovery_b", "recovery_c": "[driver] recovery_c",
    "n_paths": "[mc] n_paths", "steps": "[mc] steps", "degree": "[mc] degree",
    "seed": "[job] seed",
}


@contextlib.contextmanager
def _keyed(**keys):
    """Raise an engine input error (``errors``) as a ConfigError naming the INI
    key that fed its field; ``keys`` overrides ``_KEYS`` for a [job] list."""
    try:
        yield
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        key = keys.get(name, _KEYS.get(name))
        raise ConfigError(f"{key} {rest}" if key else str(exc)) from None


def _to_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _to_float(raw: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError("not a finite number")
    return val


def _to_float_list(raw: str) -> list:
    return [_to_float(tok) for tok in raw.split(",") if tok.strip()]


def _to_int_list(raw: str) -> list:
    return [int(tok) for tok in raw.split(",") if tok.strip()]


@dataclass
class RunConfig:
    """Fully resolved run configuration (model, scheme, payoff, job)."""

    model: object
    payoff: object
    schedule: object
    driver: object
    J: int
    L: float
    theta1: float
    picard: int
    mc_enabled: bool
    mc_paths: int
    mc_steps: int
    mc_degree: int
    job: str
    out: str
    seed: int
    widen_abs: float
    x0_list: list = field(default_factory=list)
    c_list: list = field(default_factory=list)  # (c, model) per boundary level
    j_list: list = field(default_factory=list)
    n_list: list = field(default_factory=list)
    bench_n_list: list = field(default_factory=list)
    echo_lines: list = field(default_factory=list)
    sha256: str = ""


class _Reader:
    """Typed key lookup over a parsed INI file with located error messages.

    Every lookup is recorded with its resolved value (after the default and
    any command-line override).  The record is the schema: ``check_unknown``
    rejects whatever the file holds that was never looked up, and ``echo``
    lists what was looked up.
    """

    def __init__(self, cp: configparser.ConfigParser):
        self.cp = cp
        self.seen = {}

    def get(self, section: str, key: str, conv, default=_REQUIRED, override=None):
        raw = self.cp.get(section, key, fallback=None)
        if override is not None:
            value = override
        elif raw is None:
            if default is _REQUIRED:
                raise ConfigError(f"[{section}] missing required key '{key}'")
            value = default
        else:
            try:
                value = conv(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None
        self.seen.setdefault(section, {})[key] = value
        return value

    def check_unknown(self) -> None:
        for section in self.cp.sections():
            if section not in self.seen:
                raise ConfigError(f"unknown section [{section}]")
            for key in self.cp[section]:
                if key not in self.seen[section]:
                    raise ConfigError(f"[{section}] unknown key '{key}'")

    def echo(self) -> list:
        """Sorted ``key = value`` lines of every resolved key, by section.

        Unset keys without a default (None) are left out, and so is
        ``[job] out``: where the table is written must not change its hash.
        """
        lines = []
        for section in sorted(self.seen):
            lines.append(f"[{section}]")
            for key, value in sorted(self.seen[section].items()):
                if value is None or (section, key) == ("job", "out"):
                    continue
                text = str(value).lower() if isinstance(value, bool) else f"{value!r}"
                lines.append(f"{key} = {text}")
        return lines


def parse_config(path: str, job=None, out=None, seed=None) -> RunConfig:
    """Read, validate and resolve an INI run configuration.

    ``job``, ``out`` and ``seed`` override the [job] section when given on
    the command line.  All numerical modules are imported here, after the
    caller had the chance to pin threading environment variables.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from None
    rd = _Reader(cp)
    from . import bermudan, bsde, mc as mcmod, model as modelmod

    b = rd.get("model", "b", _to_float)
    beta = rd.get("model", "beta", _to_float, 0.0)
    lam = rd.get("model", "lam", _to_float, 0.0)
    jump_m = rd.get("model", "m", _to_float, 0.0)
    delta = rd.get("model", "delta", _to_float, 0.0)
    c_level = rd.get("model", "c", _to_float, 0.0)
    rate = rd.get("model", "r", _to_float)
    x0 = rd.get("model", "x0", _to_float, 0.0)

    J = rd.get("cos", "j", int, 256)
    L = rd.get("cos", "l", _to_float, 10.0)
    theta1 = rd.get("cos", "theta1", _to_float, 0.5)
    picard = rd.get("cos", "picard", int, 5)
    n_inner = rd.get("cos", "n", int, 10)
    m_dates = rd.get("cos", "m", int, 10)

    kind = rd.get("payoff", "kind", str)
    # Only options have a strike; a portfolio INI that sets one is rejected
    # as an unknown key.
    strike = rd.get("payoff", "strike", _to_float, 1.0) if kind in ("put", "call") else 0.0
    notional = rd.get("payoff", "notional", _to_float, 1.0)
    maturity = rd.get("payoff", "maturity", _to_float)

    mode = rd.get("driver", "mode", str, "simplified")
    # Only the simplified driver has its own rate (unset: [model] r); another
    # mode that sets one is rejected as an unknown key.
    simplified_rate = (
        rd.get("driver", "simplified_rate", _to_float, None) if mode == "simplified" else None
    )
    closeout = rd.get("driver", "closeout", str, "risky")
    # Every other number of the driver, with the driver's own default.
    drv_kwargs = {
        f.name: rd.get("driver", f.name, _to_float, f.default)
        for f in fields(bsde.DriverSpec)
        if isinstance(f.default, float) and f.name != "rate_r"
    }

    def _family(level):
        if level == 0.0:
            return modelmod.CoeffFamily.zero()
        return modelmod.CoeffFamily.exponential(level, beta)

    # Build what the jobs price with before reading [job], so an unknown
    # payoff kind is reported as unknown, not as one the job cannot price.
    with _keyed():
        mdl = modelmod.ModelSpec(
            vol=modelmod.CoeffFamily.exponential(b, beta),
            jump_intensity=_family(lam),
            jump_law=modelmod.JumpLaw(jump_m, delta),
            default_intensity=_family(c_level),
            rate_r=rate,
            spot_x0=x0,
        )
        payoff = bermudan.PayoffSpec(kind=kind, strike=strike, notional=notional)
        schedule = bermudan.ExerciseSchedule(T=maturity, M=m_dates, N=n_inner)
        driver = bsde.DriverSpec(
            mode=mode,
            rate_r=rate if simplified_rate is None else simplified_rate,
            closeout=closeout,
            **drv_kwargs,
        )
        bsde.BsdeGrid(schedule.n_steps, schedule.dt, theta1, picard=picard)
        grid = bsde.make_cos_grid(mdl, maturity, J, L)

    mc_enabled = rd.get("mc", "enabled", _to_bool, False)
    mc_paths = rd.get("mc", "n_paths", int, 100_000)
    mc_steps = rd.get("mc", "steps", int, 100)
    mc_degree = rd.get("mc", "degree", int, 3)

    job_kind = rd.get("job", "kind", str, None, override=job)
    if job_kind is None:
        raise ConfigError("no job selected: set [job] kind or pass --job")
    if job_kind not in JOBS:
        raise ConfigError(f"unknown job {job_kind!r}; choose from {', '.join(JOBS)}")
    if job_kind in ("price-cva", "greeks", "boundary") and kind != "put":
        raise ConfigError(
            f"[payoff] kind = {kind!r}: job {job_kind} prices Bermudan puts only"
        )
    simulating = ("validate", "convergence") + (("price-xva", "price-cva") if mc_enabled else ())
    # The LSM estimate these jobs read has no mark-to-market input; the CVA
    # one reads no driver.
    if driver.needs_mtm and job_kind in simulating and job_kind != "price-cva":
        raise ConfigError(
            f"[driver] closeout = 'risk-free' with mode = 'full': job {job_kind} "
            "runs the LSM estimate, which has no mark-to-market input"
        )
    out_path = rd.get("job", "out", str, "-", override=out)
    seed_val = rd.get("job", "seed", int, 0, override=seed)
    # Every simulating job feeds an estimator, which needs two paths.
    with _keyed():
        mcmod._check_run(maturity, mc_steps, mc_paths, seed_val)
        mcmod._check_paths(mc_paths)
        modelmod._require_count("degree", mc_degree)
        if job_kind in simulating:
            mcmod._check_dates(mc_steps, m_dates)

    def job_key(key, reader, conv, default):
        """A key that only job ``reader`` reads; another job rejects it, so
        the key is echoed and hashed only where it acts."""
        if job_kind == reader:
            return rd.get("job", key, conv, default)
        if cp.has_option("job", key):
            raise ConfigError(f"[job] {key} is read only by job {reader}, not by {job_kind}")
        return default

    widen_abs = job_key("widen_abs", "validate", _to_float, 1e-3)
    x0_list = job_key("x0_list", "price-xva", _to_float_list, [x0])
    c_list = job_key("c_list", "boundary", _to_float_list, [0.0, 0.1, 0.2])
    j_list = job_key("j_list", "convergence", _to_int_list, [8, 16, 32, 64, 128, 256])
    n_list = job_key("n_list", "convergence", _to_int_list, [1, 10, 20, 30])
    bench_n_list = job_key("bench_n_list", "bench", _to_int_list, [2, 4, 8])
    # What each list entry prices with, built as its job builds it.
    with _keyed(vol="[job] x0_list entries", spot_x0="[job] x0_list entries"):
        for spot in x0_list:
            bsde.make_cos_grid(replace(mdl, spot_x0=spot), maturity, J, L)
    with _keyed(default_intensity="[job] c_list entries"):
        c_models = [(c_val, mdl.with_default(_family(c_val))) for c_val in c_list]
    with _keyed(J="[job] j_list entries"):
        for j_val in j_list:
            replace(grid, J=j_val)
    for key, entries in (("n_list", n_list), ("bench_n_list", bench_n_list)):
        with _keyed(N=f"[job] {key} entries"):
            for n_val in entries:
                replace(schedule, N=n_val)

    rd.check_unknown()
    echo_lines = rd.echo()

    return RunConfig(
        model=mdl,
        payoff=payoff,
        schedule=schedule,
        driver=driver,
        J=J,
        L=L,
        theta1=theta1,
        picard=picard,
        mc_enabled=mc_enabled,
        mc_paths=mc_paths,
        mc_steps=mc_steps,
        mc_degree=mc_degree,
        job=job_kind,
        out=out_path,
        seed=seed_val,
        widen_abs=widen_abs,
        x0_list=x0_list,
        c_list=c_models,
        j_list=j_list,
        n_list=n_list,
        bench_n_list=bench_n_list,
        echo_lines=echo_lines,
        sha256=hashlib.sha256("\n".join(echo_lines).encode("utf-8")).hexdigest(),
    )


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def emit_table(columns, rows, rc: RunConfig) -> str:
    """Deterministic CSV: config hash + echo as comments, then the table."""
    lines = [f"# config-sha256 {rc.sha256}"]
    lines.extend(f"# {ln}" for ln in rc.echo_lines)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _xva_value(rc: RunConfig, mdl, schedule, J: int) -> float:
    from . import bermudan

    return bermudan.price_bermudan_xva(
        mdl, rc.payoff, schedule, rc.driver, J=J, L=rc.L, theta1=rc.theta1, picard=rc.picard
    ).value


def _lsm_interval(rc: RunConfig, mdl):
    from . import mc as mcmod

    batch = mcmod.simulate(mdl, rc.schedule.T, rc.mc_steps, rc.mc_paths, rc.seed)
    return mcmod.lsm_price(batch, rc.payoff, rc.schedule, rc.driver, rc.mc_degree)


def _job_price_xva(rc: RunConfig):
    rows = []
    for x0 in rc.x0_list:
        mdl = replace(rc.model, spot_x0=x0)
        value = _xva_value(rc, mdl, rc.schedule, rc.J)
        lo = hi = None
        if rc.mc_enabled:
            _, (lo, hi) = _lsm_interval(rc, mdl)
        rows.append((rc.schedule.T, x0, lo, hi, value))
    return ["T", "S0", "MC_lo", "MC_hi", "COS"], rows, None


def _job_price_cva(rc: RunConfig):
    from . import cva as cvamod
    from . import mc as mcmod

    dspec = cvamod.DefaultSpec(rc.model.default_intensity)
    est, _, _ = cvamod.cva_report(
        rc.model, dspec, rc.payoff, rc.schedule, J=rc.J, L=rc.L
    )
    lo = hi = None
    if rc.mc_enabled:
        m_d, m_r = cvamod.leg_models(rc.model, dspec)
        batch_d, batch_r = mcmod.simulate_crn_pair(
            m_d, m_r, rc.schedule.T, rc.mc_steps, rc.mc_paths, rc.seed
        )
        _, (lo, hi) = mcmod.lsm_cva(batch_d, batch_r, rc.payoff, rc.schedule, rc.mc_degree)
    rows = [(rc.schedule.T, rc.payoff.strike, lo, hi, est)]
    return ["T", "K", "MC_lo", "MC_hi", "COS"], rows, None


def _job_greeks(rc: RunConfig):
    from . import cva as cvamod

    dspec = cvamod.DefaultSpec(rc.model.default_intensity)
    est, res_d, res_r = cvamod.cva_report(
        rc.model, dspec, rc.payoff, rc.schedule, J=rc.J, L=rc.L
    )
    delta, gamma = cvamod.greeks(
        rc.model, dspec, rc.payoff, rc.schedule, legs=(res_d, res_r)
    )
    rows = [(rc.schedule.T, rc.payoff.strike, est, delta, gamma)]
    return ["T", "K", "CVA", "delta", "gamma"], rows, None


def _job_boundary(rc: RunConfig):
    from . import cva as cvamod

    rows = []
    for c_val, mdl in rc.c_list:
        res = cvamod.price_bermudan_cos(mdl, rc.payoff, rc.schedule, J=rc.J, L=rc.L)
        for t_m, x_star in res.boundary:
            if x_star == x_star:
                rows.append((c_val, t_m, x_star))
    return ["c", "t_m", "x_star"], rows, None


def _job_validate(rc: RunConfig):
    value = _xva_value(rc, rc.model, rc.schedule, rc.J)
    _, (lo, hi) = _lsm_interval(rc, rc.model)
    ok = (lo - rc.widen_abs) <= value <= (hi + rc.widen_abs)
    verdict = "PASS" if ok else "FAIL"
    rows = [("xva", value, lo, hi, verdict)]
    error = None
    if not ok:
        error = (
            f"COS value {value:.6g} outside widened Monte Carlo interval "
            f"[{lo - rc.widen_abs:.6g}, {hi + rc.widen_abs:.6g}]"
        )
    return ["quantity", "COS", "MC_lo", "MC_hi", "verdict"], rows, error


def _job_convergence(rc: RunConfig):
    ref, _ = _lsm_interval(rc, rc.model)
    rows = []
    for J in rc.j_list:
        for N in rc.n_list:
            value = _xva_value(rc, rc.model, replace(rc.schedule, N=N), J)
            rows.append((J, N, value, ref, abs(value - ref)))
    return ["J", "N", "COS", "LSM", "abs_error"], rows, None


def _job_bench(rc: RunConfig):
    from . import bermudan
    from . import cva as cvamod

    combos = [(rc.J, n, rc.schedule.M) for n in rc.bench_n_list]
    rows = []
    for probe in bermudan.complexity_probe(
        rc.model, rc.payoff, rc.driver, rc.schedule.T, combos, L=rc.L
    ):
        rows.append(("xva-scaling", probe["J"], probe["N"], probe["M"], probe["seconds"]))
    (xva_probe,) = bermudan.complexity_probe(
        rc.model, rc.payoff, rc.driver, rc.schedule.T, [(256, 10, rc.schedule.M)], L=rc.L
    )
    rows.append(("xva", 256, 10, rc.schedule.M, xva_probe["seconds"]))
    # Portfolio payoffs carry no strike; their CVA timing uses K = 1.
    put = replace(rc.payoff, kind="put", strike=rc.payoff.strike or 1.0)
    t0 = time.perf_counter()
    cvamod.price_bermudan_cos(rc.model, put, rc.schedule, J=100, L=rc.L)
    t_cva = time.perf_counter() - t0
    rows.append(("cva", 100, None, rc.schedule.M, t_cva))
    rows.append(("speedup", None, None, None, xva_probe["seconds"] / t_cva))
    return ["kind", "J", "N", "M", "seconds"], rows, None


_DISPATCH = {
    "price-xva": _job_price_xva,
    "price-cva": _job_price_cva,
    "greeks": _job_greeks,
    "boundary": _job_boundary,
    "validate": _job_validate,
    "convergence": _job_convergence,
    "bench": _job_bench,
}
JOBS = tuple(_DISPATCH)


def run(rc: RunConfig) -> int:
    """Execute the configured job, write its CSV artifact, map errors."""
    columns, rows, error = _DISPATCH[rc.job](rc)
    text = emit_table(columns, rows, rc)
    if rc.out == "-":
        sys.stdout.write(text)
    else:
        with open(rc.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    if error is not None:
        raise ValidationFailure(error)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levyxva",
        description="Bermudan XVA/CVA pricing engine under local Levy dynamics",
    )
    parser.add_argument("--config", required=True, help="path to the INI run configuration")
    parser.add_argument("--job", choices=JOBS, help="override the [job] kind")
    parser.add_argument("--out", help="output CSV path ('-' for stdout)")
    parser.add_argument("--seed", type=int, help="override the [job] seed")
    parser.add_argument("--threads", type=int, help="pin BLAS/FFT thread count")
    args = parser.parse_args(argv)

    if args.threads is not None:
        if args.threads < 1:
            print("config error: --threads must be positive", file=sys.stderr)
            return 2
        if "numpy" in sys.modules:
            print("warning: numpy already imported; --threads may be ignored", file=sys.stderr)
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ[var] = str(args.threads)

    try:
        rc = parse_config(args.config, job=args.job, out=args.out, seed=args.seed)
        return run(rc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
