"""Tests for the command-line front end: INI parsing, job dispatch,
CSV layout, exit codes, and determinism of the emitted artifacts.

Jobs are exercised in-process through ``cli.main`` with tiny grids so the
whole module stays fast; one subprocess test checks the installed console
script.
"""

import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyxva import cli


BASE = {
    "model": {
        "b": "0.15",
        "beta": "-2.0",
        "lam": "0.2",
        "m": "-0.2",
        "delta": "0.2",
        "c": "0.1",
        "r": "0.05",
        "x0": "0.0",
    },
    "cos": {"j": "32", "m": "2", "n": "2"},
    "payoff": {"kind": "put", "strike": "1.0", "maturity": "0.5"},
    "job": {"kind": "price-cva"},
}


# The [job] keys that a single job reads, each with that job.
READER = {
    "x0_list": "price-xva",
    "c_list": "boundary",
    "j_list": "convergence",
    "n_list": "convergence",
    "bench_n_list": "bench",
    "widen_abs": "validate",
}


def write_config(tmp_path, name="run.ini", drop=(), **overrides):
    """Write BASE merged with per-section override dicts, return the path."""
    sections = {sec: dict(vals) for sec, vals in BASE.items()}
    for sec, vals in overrides.items():
        sections.setdefault(sec, {}).update(vals)
    for sec_key in drop:
        sec, key = sec_key.split(".")
        sections[sec].pop(key, None)
    lines = []
    for sec, vals in sections.items():
        lines.append(f"[{sec}]")
        lines.extend(f"{key} = {val}" for key, val in vals.items())
        lines.append("")
    path = tmp_path / name
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def run_cli(args, capsys):
    code = cli.main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(["--config", tmp_path / "nope.ini"], capsys)
        assert code == 2
        assert "config error: cannot read config file" in err

    def test_unknown_key(self, tmp_path, capsys):
        path = write_config(tmp_path, model={"bogus": "1"})
        code, _, err = run_cli(["--config", path], capsys)
        assert code == 2
        assert "config error: [model] unknown key 'bogus'" in err

    def test_unknown_section(self, tmp_path, capsys):
        path = write_config(tmp_path, extras={"x": "1"})
        code, _, err = run_cli(["--config", path], capsys)
        assert code == 2
        assert "unknown section [extras]" in err

    def test_missing_required_key(self, tmp_path, capsys):
        path = write_config(tmp_path, drop=["payoff.maturity"])
        code, _, err = run_cli(["--config", path], capsys)
        assert code == 2
        assert "[payoff] missing required key 'maturity'" in err

    def test_bad_float(self, tmp_path, capsys):
        path = write_config(tmp_path, model={"b": "abc"})
        code, _, err = run_cli(["--config", path], capsys)
        assert code == 2
        assert "[model] b = 'abc'" in err

    def test_negative_vol_level(self, tmp_path, capsys):
        path = write_config(tmp_path, model={"b": "-0.1"})
        code, _, err = run_cli(["--config", path], capsys)
        assert code == 2
        assert "must be nonnegative" in err

    @pytest.mark.parametrize(
        "section, key, value, needle",
        [
            ("cos", "j", "1", "[cos] j must be at least 2"),
            ("cos", "l", "0", "[cos] l must be positive"),
            ("cos", "theta1", "1.5", "[cos] theta1 must lie in [0, 1]"),
            ("payoff", "maturity", "0", "maturity must be positive"),
            ("payoff", "kind", "swaption-payer", "unknown payoff kind"),
            ("driver", "mode", "fancy", "mode must be zero/simplified/full"),
            ("job", "kind", "price-everything", "unknown job"),
            ("job", "seed", "-1", "unsigned 64-bit"),
            ("mc", "enabled", "perhaps", "[mc] enabled"),
            ("model", "r", "nan", "[model] r = 'nan': not a finite number"),
            ("model", "b", "inf", "[model] b = 'inf': not a finite number"),
            ("payoff", "maturity", "inf", "[payoff] maturity = 'inf': not a finite number"),
            ("cos", "theta2", "0.5", "[cos] unknown key 'theta2'"),
            ("driver", "rate_b", "-inf", "[driver] rate_b = '-inf': not a finite number"),
            ("job", "x0_list", "0.0, nan", "[job] x0_list = '0.0, nan': not a finite number"),
            ("job", "c_list", "-0.1, 0.0", "[job] c_list entries must be nonnegative"),
            ("job", "j_list", "1, 8", "[job] j_list entries must be at least 2"),
            ("job", "n_list", "0, 1", "[job] n_list entries must be at least 1"),
            ("job", "bench_n_list", "0", "[job] bench_n_list entries must be at least 1"),
            ("model", "m", "1e6", "[model] m overflows kappa"),
            # A finite kappa = e^700 drives the centre so far out that the
            # interval's half-width rounds away.
            ("model", "m", "700", "[model] m leaves no usable truncation interval"),
            ("model", "r", "1e300", "[model] r leaves no usable truncation interval"),
            ("mc", "n_paths", "1", "[mc] n_paths must be at least 2"),
            # sigma^2/2 and m^4 overflow a float at parse time.
            ("model", "b", "1e200", "[model] b overflows sigma^2/2"),
            ("model", "m", "-1e300", "[model] m overflows the jump moments"),
            pytest.param(
                "model", "m", {"m": "-1e300", "lam": "0"}, "[model] m overflows the jump moments",
                id="model-m-huge-lam-0",
            ),
            # exp(slope * x0) overflows (x0 < 0) or underflows (x0 > 0) at
            # beta = -2, and 2 * beta overflows the slope of sigma^2/2.
            ("model", "x0", "-1e300", "[model] x0 overflows or underflows a coefficient"),
            ("model", "x0", "-400", "[model] x0 overflows or underflows a coefficient"),
            ("model", "x0", "400", "[model] x0 overflows or underflows a coefficient"),
            ("model", "beta", "1e308", "[model] beta of vol overflows sigma^2/2 as 2 * slope"),
            # No vol and no jumps: no truncation range exists.
            pytest.param(
                "model", "b", {"b": "0", "lam": "0"}, "[model] b must be positive at the spot",
                id="model-b-0-lam-0-degenerate",
            ),
        ],
    )
    def test_rejected_values(self, tmp_path, capsys, section, key, value, needle):
        overrides = {section: value if isinstance(value, dict) else {key: value}}
        if key in READER:
            overrides[section]["kind"] = READER[key]
        path = write_config(tmp_path, **overrides)
        code, _, err = run_cli(["--config", path], capsys)
        assert code == 2
        assert needle in err

    def test_strike_is_unknown_for_portfolio_payoffs(self, tmp_path, capsys):
        path = write_config(
            tmp_path, payoff={"kind": "portfolio-linear"}, job={"kind": "price-xva"}
        )
        code, _, err = run_cli(["--config", path], capsys)
        assert code == 2
        assert "[payoff] unknown key 'strike'" in err

    @pytest.mark.parametrize("mode", ["zero", "full"])
    def test_simplified_rate_is_unknown_outside_simplified_mode(self, tmp_path, capsys, mode):
        path = write_config(tmp_path, driver={"mode": mode, "simplified_rate": "0.05"})
        code, _, err = run_cli(["--config", path], capsys)
        assert code == 2
        assert "[driver] unknown key 'simplified_rate'" in err

    @pytest.mark.parametrize("key, job", sorted(READER.items()))
    def test_job_key_is_rejected_for_other_jobs(self, tmp_path, capsys, key, job):
        path = write_config(tmp_path, job={key: "1"})
        code, _, err = run_cli(["--config", path], capsys)
        assert code == 2
        assert f"[job] {key} is read only by job {job}, not by price-cva" in err

    @pytest.mark.parametrize("job", ["price-cva", "greeks", "boundary"])
    @pytest.mark.parametrize("kind", ["call", "portfolio-linear"])
    def test_cva_jobs_need_a_put(self, tmp_path, capsys, job, kind):
        drop = ["payoff.strike"] if kind.startswith("portfolio") else []
        path = write_config(tmp_path, drop=drop, payoff={"kind": kind}, job={"kind": job})
        code, _, err = run_cli(["--config", path], capsys)
        assert code == 2
        assert f"config error: [payoff] kind = '{kind}': job {job}" in err

    @pytest.mark.parametrize(
        "job, mc", [("validate", "false"), ("convergence", "false"), ("price-xva", "true")]
    )
    def test_lsm_jobs_reject_the_risk_free_closeout(self, tmp_path, capsys, job, mc):
        # The LSM estimate has no mark-to-market input, so the job is
        # refused before it prices anything.
        path = write_config(
            tmp_path,
            driver={"mode": "full", "closeout": "risk-free"},
            mc={"enabled": mc, "n_paths": "100", "steps": "4"},
            job={"kind": job},
        )
        code, _, err = run_cli(["--config", path], capsys)
        assert code == 2
        assert "config error: [driver] closeout = 'risk-free'" in err
        assert f"job {job} runs the LSM estimate" in err

    @pytest.mark.parametrize(
        "job, mc",
        [("validate", "false"), ("convergence", "false"), ("price-xva", "true"),
         ("price-cva", "true")],
    )
    def test_simulating_jobs_need_an_exercise_date_on_a_step(self, tmp_path, capsys, job, mc):
        # Rejected before the COS solve and the simulation run.
        path = write_config(
            tmp_path,
            cos={"m": "10"},
            mc={"enabled": mc, "n_paths": "100", "steps": "15"},
            job={"kind": job},
        )
        code, out, err = run_cli(["--config", path], capsys)
        assert code == 2 and out == ""
        assert "config error: [mc] steps must be divisible by the number of exercise dates" in err

    def test_steps_are_not_checked_for_a_job_that_does_not_simulate(self, tmp_path, capsys):
        path = write_config(
            tmp_path, cos={"m": "10"}, mc={"steps": "15"}, job={"kind": "price-xva"}
        )
        code, out, err = run_cli(["--config", path], capsys)
        assert code == 0 and err == ""
        assert len(parse_csv(out)[1]) == 1

    def test_every_mapped_field_names_a_key_the_parser_reads(self, tmp_path):
        section, read = None, set()
        for ln in cli.parse_config(write_config(tmp_path)).echo_lines:
            if ln.startswith("["):
                section = ln
            else:
                read.add(f"{section} {ln.split(' = ')[0]}")
        assert set(cli._KEYS.values()) <= read

    def test_malformed_ini(self, tmp_path, capsys):
        path = tmp_path / "broken.ini"
        path.write_text("b = 0.15\n", encoding="utf-8")
        code, _, err = run_cli(["--config", path], capsys)
        assert code == 2
        assert "malformed config file" in err

    def test_threads_must_be_positive(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code, _, err = run_cli(["--config", path, "--threads", "0"], capsys)
        assert code == 2
        assert "--threads must be positive" in err


# Every numeric key of [model] and [driver].
NUMERIC_KEYS = [("model", key) for key in ("b", "beta", "lam", "m", "delta", "c", "r", "x0")] + [
    ("driver", key)
    for key in (
        "simplified_rate", "rate_b", "rate_c", "rate_f", "rate_i", "rate_k", "rate_tc",
        "rate_fc", "recovery_b", "recovery_c", "margin_tc", "margin_fc", "capital_c1",
        "margin_c2",
    )
]
EXTREMES = [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 700.0, -700.0, 1.0, -1.0, 1e6, -1e6]


class TestParseProperty:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(NUMERIC_KEYS),
            st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False)),
            min_size=1,
        )
    )
    def test_parse_raises_nothing_but_config_error(self, values):
        overrides = {}
        for (section, key), value in values.items():
            overrides.setdefault(section, {})[key] = repr(value)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), **overrides)
            try:
                cli.parse_config(path)
            except cli.ConfigError:
                pass


class TestEchoAndHash:
    def test_header_layout(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code, out, err = run_cli(["--config", path], capsys)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert re.fullmatch(r"# config-sha256 [0-9a-f]{64}", lines[0])
        comments = [ln for ln in lines if ln.startswith("# ")]
        # Echo covers every section, keys sorted inside each.
        sections = [ln[2:] for ln in comments if ln[2:].startswith("[")]
        assert sections == sorted(["[cos]", "[driver]", "[job]", "[mc]", "[model]", "[payoff]"])
        assert "# kind = 'price-cva'" in comments

    def test_hash_tracks_configuration(self, tmp_path, capsys):
        p1 = write_config(tmp_path, "a.ini")
        p2 = write_config(tmp_path, "b.ini")
        p3 = write_config(tmp_path, "c.ini", payoff={"strike": "1.1"})
        sha = []
        for p in (p1, p2, p3):
            _, out, _ = run_cli(["--config", p], capsys)
            sha.append(out.splitlines()[0])
        assert sha[0] == sha[1]
        assert sha[0] != sha[2]

    def test_seed_override_changes_hash(self, tmp_path, capsys):
        path = write_config(tmp_path)
        _, out1, _ = run_cli(["--config", path], capsys)
        _, out2, _ = run_cli(["--config", path, "--seed", "99"], capsys)
        assert out1.splitlines()[0] != out2.splitlines()[0]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("x0_list", "0.0, 0.4"),
            ("c_list", "0.0, 0.3"),
            ("j_list", "8, 64"),
            ("n_list", "1, 5"),
            ("bench_n_list", "2, 3"),
            ("widen_abs", "0.01"),
        ],
    )
    def test_job_lists_enter_hash(self, tmp_path, key, value):
        # A job-specific key enters the hash of the job that reads it.
        job = {"kind": READER[key]}
        plain = cli.parse_config(write_config(tmp_path, "a.ini", job=job))
        keyed = cli.parse_config(write_config(tmp_path, "b.ini", job={**job, key: value}))
        assert plain.sha256 != keyed.sha256

    def test_output_path_stays_out_of_hash(self, tmp_path, capsys):
        _, plain, _ = run_cli(["--config", write_config(tmp_path, "a.ini")], capsys)
        path = write_config(tmp_path, "b.ini", job={"out": tmp_path / "x.csv"})
        run_cli(["--config", path], capsys)
        from_key = (tmp_path / "x.csv").read_text(encoding="utf-8")
        run_cli(["--config", path, "--out", tmp_path / "y.csv"], capsys)
        from_flag = (tmp_path / "y.csv").read_text(encoding="utf-8")
        assert plain == from_key == from_flag
        assert not any(ln.startswith("# out = ") for ln in plain.splitlines())

    def test_every_key_set_is_echoed(self, tmp_path, capsys):
        every = {
            "model": BASE["model"],
            "cos": {"j": "16", "l": "8.0", "theta1": "1.0", "picard": "3", "n": "2", "m": "2"},
            "payoff": {"kind": "put", "strike": "1.1", "notional": "2.0", "maturity": "0.5"},
            "driver": {
                "mode": "full",
                "closeout": "risk-free",
                **{
                    key: "0.01"
                    for key in (
                        "rate_b", "rate_c", "rate_f", "rate_i", "rate_k", "rate_tc",
                        "rate_fc", "margin_tc", "margin_fc", "capital_c1", "margin_c2",
                    )
                },
                "recovery_b": "0.4",
                "recovery_c": "0.4",
            },
            "mc": {"enabled": "false", "n_paths": "100", "steps": "4", "degree": "2"},
            "job": {
                "kind": "price-cva",
                "out": tmp_path / "o.csv",
                "seed": "3",
            },
        }
        path = write_config(tmp_path, **every)
        assert run_cli(["--config", path], capsys)[0] == 0
        echoed, section = set(), None
        for line in (tmp_path / "o.csv").read_text(encoding="utf-8").splitlines()[1:]:
            if not line.startswith("# "):
                break
            if line.startswith("# ["):
                section = line[3:-1]
            else:
                echoed.add((section, line[2:].split(" = ")[0]))
        want = {(sec, key) for sec, vals in every.items() for key in vals} - {("job", "out")}
        assert echoed == want


class TestJobs:
    def test_price_cva_matches_library(self, tmp_path, capsys):
        from levyxva import cva as cvamod

        path = write_config(tmp_path)
        code, out, _ = run_cli(["--config", path], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["T", "K", "MC_lo", "MC_hi", "COS"]
        assert len(rows) == 1
        t, k, lo, hi, val = rows[0]
        assert (float(t), float(k)) == (0.5, 1.0)
        assert lo == "" and hi == ""  # Monte Carlo disabled by default
        rc = cli.parse_config(str(path))
        want, _, _ = cvamod.cva_report(
            rc.model, cvamod.DefaultSpec(rc.model.default_intensity),
            rc.payoff, rc.schedule, J=rc.J, L=rc.L,
        )
        assert float(val) == pytest.approx(want, rel=1e-5)

    def test_price_cva_with_monte_carlo_interval(self, tmp_path, capsys):
        path = write_config(
            tmp_path, mc={"enabled": "yes", "n_paths": "2000", "steps": "8"}
        )
        code, out, _ = run_cli(["--config", path, "--seed", "7"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        _, _, lo, hi, val = rows[0]
        assert float(lo) < float(hi)
        assert float(lo) > 0.0

    def test_price_xva_row_per_spot(self, tmp_path, capsys):
        from dataclasses import replace

        from levyxva import bermudan

        path = write_config(
            tmp_path,
            model={"c": "0"},
            job={"kind": "price-xva", "x0_list": "0.0, 0.4"},
            driver={"mode": "simplified"},
        )
        code, out, _ = run_cli(["--config", path], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["T", "S0", "MC_lo", "MC_hi", "COS"]
        assert [float(r[1]) for r in rows] == [0.0, 0.4]
        rc = cli.parse_config(str(path))
        for row in rows:
            mdl = replace(rc.model, spot_x0=float(row[1]))
            res = bermudan.price_bermudan_xva(
                mdl, rc.payoff, rc.schedule, rc.driver, J=rc.J, L=rc.L
            )
            assert float(row[4]) == pytest.approx(res.value, rel=1e-5)

    def test_explicit_theta_scheme_prices(self, tmp_path, capsys):
        # theta1 = 0 is the explicit scheme, valid for the theta-scheme grid.
        from levyxva import bermudan

        path = write_config(tmp_path, cos={"theta1": "0"}, job={"kind": "price-xva"})
        code, out, _ = run_cli(["--config", path], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        rc = cli.parse_config(str(path))
        assert rc.theta1 == 0.0
        res = bermudan.price_bermudan_xva(
            rc.model, rc.payoff, rc.schedule, rc.driver, J=rc.J, L=rc.L, theta1=0.0
        )
        assert math.isfinite(res.value)
        assert float(rows[0][4]) == pytest.approx(res.value, rel=1e-5)

    def test_greeks_matches_library(self, tmp_path, capsys):
        from levyxva import cva as cvamod

        path = write_config(tmp_path, job={"kind": "greeks"})
        code, out, _ = run_cli(["--config", path], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["T", "K", "CVA", "delta", "gamma"]
        rc = cli.parse_config(str(path))
        dspec = cvamod.DefaultSpec(rc.model.default_intensity)
        est, res_d, res_r = cvamod.cva_report(
            rc.model, dspec, rc.payoff, rc.schedule, J=rc.J, L=rc.L
        )
        delta, gamma = cvamod.greeks(
            rc.model, dspec, rc.payoff, rc.schedule, J=rc.J, L=rc.L, legs=(res_d, res_r)
        )
        got = [float(cell) for cell in rows[0]]
        assert got[2] == pytest.approx(est, rel=1e-5)
        assert got[3] == pytest.approx(delta, rel=1e-5)
        assert got[4] == pytest.approx(gamma, rel=1e-5)

    def test_boundary_lists_inner_dates_per_intensity(self, tmp_path, capsys):
        path = write_config(
            tmp_path, job={"kind": "boundary", "c_list": "0.0, 0.1, 0.2"}
        )
        code, out, _ = run_cli(["--config", path], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["c", "t_m", "x_star"]
        # M = 2 exercise dates -> one inner date per intensity level.
        assert [float(r[0]) for r in rows] == [0.0, 0.1, 0.2]
        assert all(float(r[1]) == 0.25 for r in rows)
        stars = [float(r[2]) for r in rows]
        assert stars[0] < stars[1] < stars[2] < 0.0

    def test_convergence_table(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            model={"c": "0"},
            mc={"n_paths": "2000", "steps": "8"},
            job={"kind": "convergence", "j_list": "8, 16", "n_list": "2"},
        )
        code, out, _ = run_cli(["--config", path, "--seed", "5"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["J", "N", "COS", "LSM", "abs_error"]
        assert [(int(r[0]), int(r[1])) for r in rows] == [(8, 2), (16, 2)]
        for r in rows:
            assert float(r[4]) == pytest.approx(
                abs(float(r[2]) - float(r[3])), abs=1e-5
            )
        # The reference column repeats the single Monte Carlo estimate.
        assert rows[0][3] == rows[1][3]

    def test_bench_times_a_put_for_portfolio_payoffs(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            drop=["payoff.strike"],
            payoff={"kind": "portfolio-linear"},
            job={"kind": "bench", "bench_n_list": "2"},
        )
        code, out, _ = run_cli(["--config", path], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["xva-scaling", "xva", "cva", "speedup"]

    def test_bench_reports_scaling_and_speedup(self, tmp_path, capsys):
        path = write_config(tmp_path, job={"kind": "bench", "bench_n_list": "2"})
        code, out, _ = run_cli(["--config", path], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["kind", "J", "N", "M", "seconds"]
        kinds = [r[0] for r in rows]
        assert kinds == ["xva-scaling", "xva", "cva", "speedup"]
        assert all(float(r[4]) > 0.0 for r in rows)


class TestValidate:
    CONFIG = {
        "model": {"c": "0"},
        "mc": {"enabled": "on", "n_paths": "4000", "steps": "8"},
    }

    def test_pass_verdict(self, tmp_path, capsys):
        path = write_config(
            tmp_path, job={"kind": "validate", "widen_abs": "10.0"}, **self.CONFIG
        )
        code, out, err = run_cli(["--config", path, "--seed", "11"], capsys)
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == ["quantity", "COS", "MC_lo", "MC_hi", "verdict"]
        assert rows[0][0] == "xva" and rows[0][4] == "PASS"

    def test_fail_verdict_exits_4_but_still_writes(self, tmp_path, capsys):
        out_file = tmp_path / "report.csv"
        path = write_config(
            tmp_path, job={"kind": "validate", "widen_abs": "-10.0"}, **self.CONFIG
        )
        code, _, err = run_cli(
            ["--config", path, "--seed", "11", "--out", out_file], capsys
        )
        assert code == 4
        assert "validation failure" in err
        _, rows = parse_csv(out_file.read_text(encoding="utf-8"))
        assert rows[0][4] == "FAIL"


class TestNumericalFailure:
    def test_contraction_violation_exits_3(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            model={"c": "0"},
            driver={"mode": "simplified", "simplified_rate": "1000.0"},
            job={"kind": "price-xva"},
        )
        code, _, err = run_cli(["--config", path], capsys)
        assert code == 3
        assert "numerical failure" in err
        assert "contraction" in err


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_price_exits_3(self, tmp_path, capsys):
        # sigma = 0.15 e^{800 x} overflows on the grid: the solve reaches nan.
        path = write_config(
            tmp_path,
            model={"beta": "800", "lam": "0", "c": "0"},
            job={"kind": "price-xva"},
        )
        code, out, err = run_cli(["--config", path], capsys)
        assert code == 3
        assert out == ""
        assert "numerical failure" in err and "non-finite value" in err


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        path = write_config(tmp_path)
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, _, _ = run_cli(["--config", path, "--out", f1], capsys)
        code2, _, _ = run_cli(["--config", path, "--out", f2], capsys)
        assert code1 == code2 == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_stdout_equals_file_output(self, tmp_path, capsys):
        path = write_config(tmp_path)
        _, out, _ = run_cli(["--config", path], capsys)
        f = tmp_path / "o.csv"
        run_cli(["--config", path, "--out", f], capsys)
        assert out == f.read_text(encoding="utf-8")


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        path = write_config(tmp_path, cos={"j": "16"})
        proc = subprocess.run(
            [sys.executable, "-m", "levyxva.cli", "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("# config-sha256 ")

    def test_missing_config_flag_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "levyxva.cli"], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert "--config" in proc.stderr
