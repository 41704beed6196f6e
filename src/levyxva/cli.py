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
import hashlib
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

from .errors import ConfigError, NumericalError, ValidationFailure

JOBS = (
    "price-xva",
    "price-cva",
    "greeks",
    "boundary",
    "validate",
    "convergence",
    "bench",
)

_REQUIRED = object()


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
    c_list: list = field(default_factory=list)
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

    b = rd.get("model", "b", _to_float)
    beta = rd.get("model", "beta", _to_float, 0.0)
    lam = rd.get("model", "lam", _to_float, 0.0)
    jump_m = rd.get("model", "m", _to_float, 0.0)
    delta = rd.get("model", "delta", _to_float, 0.0)
    c_level = rd.get("model", "c", _to_float, 0.0)
    rate = rd.get("model", "r", _to_float)
    x0 = rd.get("model", "x0", _to_float, 0.0)
    for key, val in (("b", b), ("lam", lam), ("delta", delta), ("c", c_level)):
        if val < 0.0:
            raise ConfigError(f"[model] {key} must be nonnegative, got {val}")

    J = rd.get("cos", "j", int, 256)
    L = rd.get("cos", "l", _to_float, 10.0)
    theta1 = rd.get("cos", "theta1", _to_float, 0.5)
    picard = rd.get("cos", "picard", int, 5)
    n_inner = rd.get("cos", "n", int, 10)
    m_dates = rd.get("cos", "m", int, 10)
    if J < 2:
        raise ConfigError(f"[cos] j must be at least 2, got {J}")
    if L <= 0.0:
        raise ConfigError(f"[cos] l must be positive, got {L}")
    if not 0.0 < theta1 <= 1.0:
        raise ConfigError(f"[cos] theta1 must lie in (0, 1], got {theta1}")
    if picard < 1:
        raise ConfigError(f"[cos] picard must be at least 1, got {picard}")
    if n_inner < 1 or m_dates < 1:
        raise ConfigError("[cos] n and m must be at least 1")

    kind = rd.get("payoff", "kind", str)
    # Only options have a strike; a portfolio INI that sets one is rejected
    # as an unknown key.
    strike = rd.get("payoff", "strike", _to_float, 1.0) if kind in ("put", "call") else 0.0
    notional = rd.get("payoff", "notional", _to_float, 1.0)
    maturity = rd.get("payoff", "maturity", _to_float)
    if maturity <= 0.0:
        raise ConfigError(f"[payoff] maturity must be positive, got {maturity}")

    mode = rd.get("driver", "mode", str, "simplified")
    if mode not in ("zero", "simplified", "full"):
        raise ConfigError(f"[driver] mode must be zero/simplified/full, got {mode!r}")
    # Only the simplified driver has its own rate (unset: [model] r); another
    # mode that sets one is rejected as an unknown key.
    simplified_rate = (
        rd.get("driver", "simplified_rate", _to_float, None) if mode == "simplified" else None
    )
    closeout = rd.get("driver", "closeout", str, "risky")
    drv_kwargs = {
        key: rd.get("driver", key, _to_float, 0.0)
        for key in (
            "rate_b",
            "rate_c",
            "rate_f",
            "rate_i",
            "rate_k",
            "rate_tc",
            "rate_fc",
            "margin_tc",
            "margin_fc",
            "capital_c1",
            "margin_c2",
        )
    }
    drv_kwargs["recovery_b"] = rd.get("driver", "recovery_b", _to_float, 1.0)
    drv_kwargs["recovery_c"] = rd.get("driver", "recovery_c", _to_float, 1.0)

    # Build the specs before reading [job], so an unknown payoff kind is
    # reported as unknown, not as one the job cannot price.
    from . import bermudan, bsde

    try:
        payoff = bermudan.PayoffSpec(kind=kind, strike=strike, notional=notional)
        schedule = bermudan.ExerciseSchedule(T=maturity, M=m_dates, N=n_inner)
        driver = bsde.DriverSpec(
            mode=mode,
            rate_r=rate if simplified_rate is None else simplified_rate,
            closeout=closeout,
            **drv_kwargs,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    mc_enabled = rd.get("mc", "enabled", _to_bool, False)
    mc_paths = rd.get("mc", "n_paths", int, 100_000)
    mc_steps = rd.get("mc", "steps", int, 100)
    mc_degree = rd.get("mc", "degree", int, 3)
    if mc_paths < 2 or mc_steps < 1 or mc_degree < 1:
        raise ConfigError("[mc] n_paths, steps and degree must be positive")

    job_kind = rd.get("job", "kind", str, None, override=job)
    if job_kind is None:
        raise ConfigError("no job selected: set [job] kind or pass --job")
    if job_kind not in JOBS:
        raise ConfigError(f"unknown job {job_kind!r}; choose from {', '.join(JOBS)}")
    if job_kind in ("price-cva", "greeks", "boundary") and kind != "put":
        raise ConfigError(
            f"[payoff] kind = {kind!r}: job {job_kind} prices Bermudan puts only"
        )
    out_path = rd.get("job", "out", str, "-", override=out)
    seed_val = rd.get("job", "seed", int, 0, override=seed)
    if not 0 <= seed_val < 2**64:
        raise ConfigError(f"seed must fit in an unsigned 64-bit integer, got {seed_val}")
    widen_abs = rd.get("job", "widen_abs", _to_float, 1e-3)
    x0_list = rd.get("job", "x0_list", _to_float_list, [x0])
    c_list = rd.get("job", "c_list", _to_float_list, [0.0, 0.1, 0.2])
    if any(c < 0.0 for c in c_list):
        raise ConfigError(f"[job] c_list entries must be nonnegative, got {c_list}")
    j_list = rd.get("job", "j_list", _to_int_list, [8, 16, 32, 64, 128, 256])
    n_list = rd.get("job", "n_list", _to_int_list, [1, 10, 20, 30])
    bench_n_list = rd.get("job", "bench_n_list", _to_int_list, [2, 4, 8])

    from . import model as modelmod

    def _family(level):
        if level == 0.0:
            return modelmod.CoeffFamily.zero()
        return modelmod.CoeffFamily.exponential(level, beta)

    mdl = modelmod.ModelSpec(
        vol=modelmod.CoeffFamily.exponential(b, beta),
        jump_intensity=_family(lam),
        jump_law=modelmod.JumpLaw(jump_m, delta),
        default_intensity=_family(c_level),
        rate_r=rate,
        spot_x0=x0,
    )
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
        c_list=c_list,
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
    from . import model as modelmod

    slope = rc.model.vol.slope
    rows = []
    for c_val in rc.c_list:
        if c_val > 0.0:
            mdl = rc.model.with_default(modelmod.CoeffFamily.exponential(c_val, slope))
        else:
            mdl = rc.model.without_default()
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
