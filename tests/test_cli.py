import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decentsim import bound, cli, dynamics
from decentsim.cli import main, results_payload_bytes, run
from decentsim.config import parse_config
from decentsim.dynamics import SlopeAccumulator, ed_verdict, simulate
from test_dynamics import replay_final_betas

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def uniform21(tmp_path):
    path = tmp_path / "uniform21.csv"
    rows = "\n".join(f"delegate{i:02d},10" for i in range(21))
    path.write_text("address,blocks\n" + rows + "\n", encoding="utf-8")
    return path


def read_report(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestMetricsCommand:
    def test_uniform_delegates_anchor(self, uniform21, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["metrics", "--input", str(uniform21), "--out", str(out)])
        assert code == 0
        report = read_report(out)
        full = report["results"]["levels"][0]
        assert full["share"] == "100"
        assert abs(full["entropy_bits"] - 4.392) < 5e-4
        assert full["gini"] == 0.0

    def test_metrics_csv_layout(self, uniform21, tmp_path):
        out_csv = tmp_path / "table.csv"
        main(["metrics", "--input", str(uniform21), "--csv_out", str(out_csv),
              "--out", str(tmp_path / "r.json")])
        with out_csv.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "addresses_100", "gini_100", "entropy_100",
            "addresses_50", "gini_50", "entropy_50",
            "addresses_33", "gini_33", "entropy_33",
        ]
        assert len(rows) == 2

    def test_missing_input_exit_code(self, tmp_path, capsys):
        code = main(["metrics", "--input", str(tmp_path / "absent.csv")])
        assert code == 3
        assert "DomainError" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["1_0", "+4", "١٢"])
    def test_lax_block_count_exit_code(self, raw, tmp_path, capsys):
        path = tmp_path / "lax.csv"
        path.write_text(f"address,blocks\nalice,{raw}\nbob,3\n", encoding="utf-8")
        assert main(["metrics", "--input", str(path)]) == 3
        assert "base-10 integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "count",
        ["9" + "0" * 307, "9" * 400, "9" * 5000, str(2**53 + 1)],
        ids=["gini-overflow", "float-overflow", "int-digit-limit", "cap-plus-one"],
    )
    def test_block_count_above_exact_floats_exit_code(self, count, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(f"address,blocks\nalice,{count}\nbob,3\n", encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "decentsim.cli", "metrics", "--input", str(path)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("DomainError: "), done.stderr
        assert "2**53" in done.stderr and "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"address,blocks\n" + b"a" * 200_000 + b",1\n", ":2: field larger than field limit"),
            (b"address,blocks\n\xff,1\n", ": not UTF-8 text"),
        ],
        ids=["field-over-csv-limit", "not-utf8"],
    )
    def test_unreadable_csv_exit_code(self, body, message, tmp_path):
        path = tmp_path / "unreadable.csv"
        path.write_bytes(body)
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "decentsim.cli", "metrics", "--input", str(path)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith(f"DomainError: {path}{message}"), done.stderr
        assert "Traceback" not in done.stderr

    def test_single_producer_level_prints_positive_zero(self, tmp_path, capsys):
        # the 50% and 33% levels hold alice alone
        path = tmp_path / "top.csv"
        path.write_text("address,blocks\nalice,10\nbob,5\ncarol,5\n", encoding="utf-8")
        assert main(["metrics", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert '"entropy_bits": 0.0' in out
        assert "-0.0" not in out


class TestCheckCommand:
    def test_fixed_cost_merge_example(self, tmp_path):
        out = tmp_path / "check.json"
        code = main([
            "check", "--model", "pow", "--br", "12.5", "--c2", "1",
            "--powers", "1,1", "--m", "2", "--out", str(out),
        ])
        assert code == 0
        results = read_report(out)["results"]
        assert results["gr"]["holds"] is True
        assert results["nd"]["holds"] is False
        witness = results["nd"]["witness"]
        assert witness["merged_total"] - witness["separate_total"] == pytest.approx(1.0)
        assert results["ed"] == "deferred"

    @pytest.mark.parametrize(
        "args",
        [
            # c1 * power overflows, so every utility is -inf
            ["--model", "pow", "--br", "12.5", "--c1", "1e300", "--powers", "1e10,1e10", "--m", "2"],
            # 2 ** gamma overflows
            ["--model", "gamma", "--br", "1", "--gamma", "1e10", "--powers", "2,1", "--m", "1"],
            # the fsum of the powers overflows
            ["--model", "pow", "--br", "1", "--powers", "1e308,1e308", "--m", "1"],
        ],
        ids=["cost-term", "lottery-weight", "total-power"],
    )
    def test_non_finite_utility_exit_code(self, args, capsys):
        code = main(["check", *args])
        assert code == 3
        assert "DomainError: utility of node 0 is not finite" in capsys.readouterr().err

    def test_zero_weight_sum_exit_code(self):
        # 1e-100 ** 5 underflows to 0; under -W error a warning would end
        # in a traceback
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "decentsim.cli", "check", "--model", "gamma",
             "--br", "3", "--gamma", "5", "--powers", "1e-100,1e-100", "--m", "1"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True,
        )
        assert done.returncode == 3, done.stderr
        assert done.stderr == (
            "DomainError: utility of node 0 is undefined: lottery weight sum is 0\n"
        )

    def test_check_process_does_not_load_numpy_random(self):
        # the linearity probe draws from random.Random(seed)
        script = (
            "import sys\n"
            "from decentsim import cli\n"
            "code = cli.main(['check', '--config', 'configs/check/sqrt_lottery.json'])\n"
            "assert code == 0, code\n"
            "assert 'numpy.random' not in sys.modules\n"
        )
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", script], cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_search_bound_exit_code(self, capsys):
        code = main([
            "check", "--model", "pow", "--br", "1", "--powers", "1,1,1,1,1,1,1",
            "--m", "2",
        ])
        assert code == 4

    def test_huge_grid_is_refused_at_once(self, capsys):
        started = time.perf_counter()
        code = main([
            "check", "--model", "gamma", "--br", "3", "--powers", "4,1,2,0.5,3,1.5",
            "--m", "6", "--grid", "100000",
        ])
        assert time.perf_counter() - started < 1.0
        assert code == 4
        assert "grid allocations, above the bound of" in capsys.readouterr().err


def reject_constant(name):
    raise ValueError(f"report holds the non-JSON number {name}")


CHECK_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-5.0, 20.0),
    st.sampled_from((0.0, 1.0, 2.0)),
)


@st.composite
def check_argv(draw):
    n = draw(st.integers(1, 5))
    flags = {
        "model": draw(st.sampled_from(("pow", "pos", "dpos", "gamma", "linear"))),
        "powers": ",".join(map(repr, draw(st.lists(CHECK_NUMBER, min_size=n, max_size=n)))),
        "m": draw(st.integers(-1, 7)),
        "delta": repr(draw(st.one_of(st.sampled_from((0.0, 50.0, 100.0)), CHECK_NUMBER))),
        "grid": draw(st.integers(-1, 8)),
        "max_nodes": draw(st.integers(0, 6)),
        "sybil": draw(st.sampled_from(("zero", "threshold-cover"))),
        "linearity_trials": 4,
    }
    owners = draw(st.lists(st.sampled_from("abc"), max_size=6))
    if owners:
        flags["owners"] = ",".join(owners)
    for key in ("br", "c1", "c2", "c", "sb", "gamma", "k", "margin"):
        if draw(st.booleans()):
            flags[key] = repr(draw(CHECK_NUMBER))
    if draw(st.booleans()):
        flags["ndpos"] = draw(st.integers(-1, 4))
    # "--key=value", so that argparse reads a value such as -inf as a value
    return ["check"] + [f"--{key}={value}" for key, value in flags.items()]


class TestCheckInputs:
    @settings(max_examples=150, deadline=None)
    @given(check_argv())
    def test_exits_cleanly(self, argv):
        # every input either reports strict JSON or exits with a documented code
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            json.loads(out.getvalue(), parse_constant=reject_constant)
        else:
            assert code in (2, 3, 4, 5, 6)
            assert err.getvalue().split(":")[0].endswith("Error")


    @pytest.mark.parametrize(
        "flag, code, prefix",
        [("--owners=a,", 2, "ConfigError: config key 'owners'"),
         ("--owners=a, ,b", 2, "ConfigError: config key 'owners'"),
         ("--seed=-1", 3, "DomainError: seed ")],
        ids=["trailing-comma", "blank-name", "negative-seed"],
    )
    def test_bad_input_names_its_key(self, flag, code, prefix, capsys):
        assert main(["check", "--model=pow", "--br=1", "--powers=1,1,1", "--m=1", flag]) == code
        assert capsys.readouterr().err.startswith(prefix)


class TestUnwritablePath:
    """A path under a regular file cannot be made: exit 2, no traceback."""

    ARGV = {
        "out": ["anchors", "--out", "{bad}/report.json"],
        "sweep-csv_out": ["sweep", "--f_grid", "1e-3", "--epsilon_grid", "0",
                          "--rho_grid", "0.1", "--csv_out", "{bad}/curves.csv"],
        "trajectories_dir": ["simulate", "--model", "pow", "--br", "1", "--r_max", "1",
                             "--horizon", "5", "--n_nodes", "2", "--init", "explicit",
                             "--init_powers", "1,2", "--trajectories_dir", "{bad}/trajs"],
        "metrics-csv_out": ["metrics", "--input", "{input}", "--csv_out", "{bad}/table.csv"],
    }

    @pytest.mark.parametrize("key", ARGV)
    def test_exit_code(self, key, tmp_path, uniform21, capsys):
        bad = tmp_path / "file"
        bad.write_text("", encoding="utf-8")
        code = main([arg.format(bad=bad, input=uniform21) for arg in self.ARGV[key]])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith(("FileExistsError: ", "NotADirectoryError: "))


class TestSweepCommand:
    def test_twelve_row_csv(self, tmp_path):
        out_csv = tmp_path / "curves.csv"
        code = main([
            "sweep", "--f_grid", "1e-4,1e-3,1e-2", "--epsilon_grid", "0,9,99,999",
            "--rho_grid", "0.1", "--samples", "2000", "--csv_out", str(out_csv),
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 0
        with out_csv.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["f", "epsilon", "rho", "estimate", "ci_low", "ci_high"]
        assert len(rows) == 13


class TestBoundCommand:
    def test_report_fields(self, tmp_path):
        out = tmp_path / "bound.json"
        code = main([
            "bound", "--f", "1e-4", "--rho", "0.1", "--samples", "5000",
            "--seed", "42", "--out", str(out),
        ])
        assert code == 0
        results = read_report(out)["results"]
        assert results["ci_low"] <= results["estimate"] <= results["ci_high"]
        assert len(results["per_k"]) == 101
        assert results["p0"] <= results["p0_analytic_bound"] + 3 * results["p0_std_error"]
        # micro is computed exactly: no sampling error
        assert results["std_error"] == results["p0_std_error"] == 0.0
        assert results["ci_low"] == results["estimate"] == results["ci_high"]

    def test_max_step_anchor(self, tmp_path):
        # every strategy is exact: the anchor's catch-up chance is far below
        # what any affordable sample count could see
        out = tmp_path / "bound.json"
        code = main(["bound", "--f", "1e-4", "--rho", "0.1", "--strategy", "max-step",
                     "--out", str(out)])
        assert code == 0
        report = read_report(out)
        results = report["results"]
        assert results["estimate"] == pytest.approx(2.7903076125e-7, rel=1e-9, abs=0)
        assert results["std_error"] == results["p0_std_error"] == 0.0
        assert results["ci_low"] == results["estimate"] == results["ci_high"]
        assert results["p0"] == results["per_k"][0]
        assert report["wall_time_s"] < 0.1

    def test_budget_exit_code(self, capsys):
        # about 1e9 poor wins on each of the 101 lines
        code = main(["bound", "--f", "1e-4", "--rho", "1e-9", "--strategy", "max-step"])
        assert code == 5
        assert "exact DP cells exceed the cap of 4e+09" in capsys.readouterr().err

    def test_line_width_exit_code(self, capsys):
        # 2% of the cell cap, but one line of about 4.2e7 climb counts
        started = time.perf_counter()
        code = main(["bound", "--f", "1e-9", "--rho", "0.1", "--k_max", "1", "--u", "5e-7"])
        assert time.perf_counter() - started < 0.5
        assert code == 5
        assert f"exceeds the cap of {bound.MAX_LINE_CELLS}" in capsys.readouterr().err

    def test_dp_cell_budget_exit_code(self, capsys):
        # about 9.2e9 climbs on the last line, times 101 lines
        code = main(["bound", "--f", "1e-4", "--rho", "0.1", "--u", "1e-9"])
        assert code == 5
        assert "exact DP cells exceed the cap of 4e+09" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("u", "inf"), ("epsilon", "nan"), ("rho", "inf")]
    )
    def test_non_finite_parameter_exit_code(self, flag, value, capsys):
        code = main(["bound", "--f", "1e-4", "--rho", "0.1", "--samples", "1000",
                     f"--{flag}", value])
        assert code == 3
        assert f"{flag} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        *(["bound", "--f", "0.5", "--rho", "1e308", "--strategy", strategy]
          for strategy in ("micro", "max-step", "hybrid")),
        ["sweep", "--f_grid=0.5", "--epsilon_grid=0", "--rho_grid=0.1,1e308"],
    ], ids=["micro", "max-step", "hybrid", "sweep"])
    def test_overflowing_rich_power_exit_code(self, argv, capsys):
        # the last line's rich power 1 + 10 * 1e308 is past the float range
        assert main(argv + ["--k_max", "10"]) == 3
        err = capsys.readouterr().err
        assert err == ("DomainError: the rich power 1 + k_max*rho leaves the float range: "
                       "rho = 1e+308, k_max = 10\n")

    def test_config_error_exit_code(self, capsys):
        code = main(["bound", "--rho", "0.1"])
        assert code == 2
        assert "'f'" in capsys.readouterr().err

    def test_trivial_bound_table_is_budgeted(self, capsys, monkeypatch):
        # f = 1 starts on the target, but the report still lists k_max + 1 lines
        monkeypatch.setattr(bound, "MAX_CELLS", 50.0)
        code = main(["bound", "--f", "1", "--rho", "0.1", "--k_max", str(10**6)])
        assert code == 5
        assert "exact DP cells exceed the cap of 50" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["micro", "max-step", "hybrid"])
    def test_per_line_table_is_capped(self, strategy, capsys):
        # k_max 1e7 within the cell cap: the per-line table alone would
        # take hundreds of MB, so it is refused before it is built
        started = time.perf_counter()
        code = main(["bound", "--f", "1", "--rho", "0.1", "--k_max", str(10**7),
                     "--samples", "1", "--strategy", strategy])
        assert time.perf_counter() - started < 0.5
        assert code == 5
        err = capsys.readouterr().err
        assert f"k_max + 1 = 10000001 lines exceed the cap of {bound.MAX_LINES}" in err

    def test_infinite_integer_exit_code(self, capsys):
        assert main(["bound", "--f", "0.5", "--rho", "0.1", "--k_max", "inf"]) == 2
        assert "config key 'k_max' expects int" in capsys.readouterr().err

    @pytest.mark.parametrize("u_sweep", [False, True])
    def test_report_keys(self, u_sweep):
        # BoundEstimate's fields less samples and params, plus the analytic bound
        results = run(parse_config("bound", overrides={
            "f": 1e-3, "rho": 0.1, "k_max": 3, "u_sweep": u_sweep,
        }))["results"]
        keys = {"estimate", "ci_low", "ci_high", "std_error", "p0", "p0_std_error",
                "p0_analytic_bound", "dense_success_mass", "per_k"}
        assert set(results) == keys | ({"u_sensitivity"} if u_sweep else set())

    def test_empty_sweep_grid_exit_code(self, capsys):
        assert main(["sweep", "--f_grid=", "--epsilon_grid=0", "--rho_grid=0.1"]) == 3
        assert "DomainError: sweep grids must be non-empty" in capsys.readouterr().err

    def test_sweep_cell_cap_exit_code(self, capsys):
        # 1000 x 101 x 1 = 101,000 cells, over the cap of 100,000
        f_grid = ",".join(str((i + 1) / 1001) for i in range(1000))
        eps_grid = ",".join(str(i) for i in range(101))
        started = time.perf_counter()
        code = main(["sweep", f"--f_grid={f_grid}", f"--epsilon_grid={eps_grid}",
                     "--rho_grid=0.1"])
        assert time.perf_counter() - started < 0.5
        assert code == 5
        err = capsys.readouterr().err
        assert f"sweep of 101000 cells exceeds the cap of {bound.MAX_SWEEP_CELLS}" in err


def run_trichotomy(*args):
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / "run_trichotomy.py"), *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestTrichotomyScript:
    @pytest.mark.parametrize(
        "horizon, seeds",
        [("0", "30"), ("50", "1")],
        ids=["seeds-end-alike", "one-seed"],
    )
    def test_no_spread_skips_the_martingale_check(self, horizon, seeds):
        # neither run has a spread of the final fractions to scale by
        out = run_trichotomy("--gammas", "1.0", "--horizon", horizon, "--seeds", seeds)
        assert "nan" not in out
        assert "martingale" not in out

    def test_nodes_that_never_win_are_skipped(self):
        # in 50 steps two nodes win in none of the 5 seeds; their spread
        # across seeds is rounding noise, which would scale |z| to about 1e16
        out = run_trichotomy("--gammas", "1.0", "--horizon", "50", "--seeds", "5")
        line = next(line for line in out.splitlines() if "martingale check" in line)
        assert "(2 skipped: same in every seed)" in line
        assert float(line.split("=")[1].split()[0]) < 10


class TestSimulateCommand:
    ARGS = [
        "simulate", "--model", "gamma", "--br", "3", "--gamma", "0.5",
        "--r_max", "3", "--horizon", "40", "--n_nodes", "2",
        "--init", "explicit", "--init_powers", "4,1", "--seeds", "0,1",
    ]

    def test_trajectory_csv_format(self, tmp_path):
        traj_dir = tmp_path / "trajs"
        code = main(self.ARGS + [
            "--trajectories_dir", str(traj_dir), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 0
        with (traj_dir / "trajectory_0.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["step", "ratio", "beta_1", "beta_2"]
        assert len(rows) == 42
        assert float(rows[1][2]) + float(rows[1][3]) == pytest.approx(1.0)

    def test_fractional_seed_in_file_exit_code(self, tmp_path, capsys):
        # a JSON list item follows the int rule, as the comma string does
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seeds": [0.5]}))
        code = main(self.ARGS[:-2] + ["--config", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("ConfigError: config key 'seeds' expects ints")

    @pytest.mark.parametrize("horizon", ["0", "40"])
    def test_window_below_one_exit_code(self, horizon, capsys):
        argv = self.ARGS + ["--horizon", horizon, "--window", "-5"]
        assert main(argv) == 3
        assert "DomainError: window must be >= 1" in capsys.readouterr().err

    def test_report_has_verdict(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        results = read_report(out)["results"]
        assert results["n_seeds"] == 2
        assert "converged_fraction" in results["ed"]


    @pytest.mark.parametrize("argv", [
        ["--model", "gamma", "--br", "3", "--gamma", "400", "--r", "1", "--r_max", "3",
         "--horizon", "50", "--n_nodes", "3", "--init", "power-law", "--init_exponent", "2"],
        ["--model", "pow", "--br", "1e307", "--r_max", "1e307", "--horizon", "50",
         "--n_nodes", "3", "--init", "power-law"],
        # every weight underflows to 0 from the first step
        ["--model", "gamma", "--br", "1", "--gamma", "400", "--r_max", "1", "--horizon", "5",
         "--n_nodes", "2", "--init", "explicit", "--init_powers", "0.1,0.1"],
        # a subnormal total: u * total can round up to the total, past every node
        ["--model", "gamma", "--br", "1", "--gamma", "1", "--r", "0", "--r_max", "1",
         "--horizon", "3", "--n_nodes", "2", "--init", "explicit", "--init_powers",
         "1e-323,1e-323"],
    ])
    def test_lottery_weight_overflow_exit_code(self, argv, capsys):
        assert main(["simulate", *argv, "--seeds", "1"]) == 3
        assert "DomainError: lottery weights leave the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--model", "gamma", "--br", "3", "--init_powers", "1e300,1e-300"],
         "power ratios leave the float range"),
        # c1 times a power overflows in the PoW net reward
        (["--model", "pow", "--br", "3", "--c1", "1e308", "--init_powers", "4,1"],
         "net rewards leave the float range"),
    ], ids=["power-ratio", "pow-net-reward"])
    def test_power_ratio_overflow_exit_code(self, argv, message):
        # under -W error a numpy overflow warning would end in a traceback
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "decentsim.cli", "simulate", *argv,
             "--r_max", "3", "--horizon", "5", "--n_nodes", "2", "--init", "explicit"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True,
        )
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith(f"DomainError: {message}")

    @pytest.mark.parametrize("flags", [
        # 256 steps of 10 seeds of 2,000,000 nodes would take 38 GiB
        {"n_nodes": 2_000_000, "seeds": list(range(10)), "trajectories_dir": "trajs"},
        {"n_nodes": 1e12},
        # one node, but a generator per seed
        {"n_nodes": 1, "seeds": list(range(100_000)), "horizon": 1},
    ], ids=["2e6-nodes", "1e12-nodes", "1e5-seeds"])
    def test_oversized_state_exit_code(self, flags, tmp_path):
        # SimConfig refuses these before the initial powers or the CSV
        # header are built; under -W error a warning would end in a traceback
        config = tmp_path / "big.json"
        config.write_text(json.dumps({
            "model": "gamma", "br": 3.0, "r_max": 3.0, "horizon": 300,
            "init": "power-law", **flags,
        }))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "decentsim.cli", "simulate",
             "--config", str(config)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), DECENTSIM_OUT=str(tmp_path)),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 5, done.stderr
        assert done.stderr.startswith("BudgetError: ")
        assert "state cells, over the cap of 1e+07" in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "trajs").exists()

    def test_initial_power_overflow_exit_code(self, capsys):
        # 10 ** 400 leaves the float range
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "simulate", "--model", "gamma", "--br", "1", "--r_max", "1", "--horizon", "10",
                "--n_nodes", "10", "--init", "power-law", "--init_exponent", "-400",
                "--seeds", "1",
            ])
        assert code == 3
        err = capsys.readouterr().err
        assert "DomainError: initial powers must be finite" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


SANE = st.one_of(st.floats(1e-3, 20.0), st.sampled_from((0.0, 1.0, 3.0)))
EXTREME = st.one_of(
    st.sampled_from((0.0, 1e-300, 1e300, 400.0, -1.0)),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def simulate_argv(draw):
    n = draw(st.integers(1, 6))
    horizon = draw(st.integers(0, 40))
    flags = {
        "model": draw(st.sampled_from(("pow", "pos", "gamma"))),
        "horizon": horizon,
        "n_nodes": n,
        "init": draw(st.sampled_from(("explicit", "power-law", "two-point"))),
        # duplicate seeds, and enough seeds for the slope statistics
        "seeds": ",".join(map(str, draw(st.one_of(
            st.lists(st.integers(0, 3), min_size=1, max_size=4), st.just(list(range(31))),
        )))),
        "window": draw(st.one_of(st.integers(0, horizon), st.integers(-1, 45))),
    }
    sane = {
        "sb": st.sampled_from((0.0, 1e-3, 1.0)),
        "r_max": st.floats(1e-3, 20.0),
        "init_f": st.floats(1e-3, 1.0),
        "delta": st.floats(0.0, 100.0),
    }
    # one number at most is extreme, so that most runs get past validation
    extreme = draw(st.sampled_from(
        ("br", "c1", "c2", "c", "r", "gamma", "init_exponent", "epsilon", *sane, None)
    ))
    for key in ("br", "c1", "c2", "c", "r", "gamma", "init_exponent", "epsilon", *sane):
        flags[key] = repr(draw(EXTREME if key == extreme else sane.get(key, SANE)))
    size = draw(st.sampled_from((n, n, n + 1)))
    flags["init_powers"] = ",".join(map(repr, draw(st.lists(SANE, min_size=size, max_size=size))))
    rich = draw(st.one_of(st.integers(1, max(n - 1, 1)), st.integers(0, n)))
    flags["init_count_rich"], flags["init_count_poor"] = rich, n - rich
    if draw(st.booleans()):
        flags["trajectories_dir"] = "trajs"
    # "--key=value", so that argparse reads a value such as -inf as a value
    return ["simulate"] + [f"--{key}={value}" for key, value in flags.items()]


class TestSimulateInputs:
    @settings(max_examples=150, deadline=None)
    @given(simulate_argv())
    def test_exits_cleanly(self, argv):
        # every input either reports strict JSON or exits with a documented code
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setenv("DECENTSIM_OUT", tmp)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        if code == 0:
            json.loads(out.getvalue(), parse_constant=reject_constant)
        else:
            assert code in (2, 3, 4, 5, 6)
            assert err.getvalue().split(":")[0].endswith("Error")

    @pytest.mark.parametrize("model", ["dpos", "linear"])
    def test_model_without_lottery_exit_code(self, model, capsys):
        # the schema offers only the lottery models, so no CLI run reaches
        # the simulator's UnsupportedModelError (exit 6)
        argv = ["simulate", "--model", model, "--br", "3", "--r_max", "3", "--horizon", "5",
                "--n_nodes", "2", "--init", "explicit", "--init_powers", "4,1", "--seeds", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("ConfigError: config key 'model' must be one of")


WALK_SANE = {
    "f": st.sampled_from((1e-4, 1e-2, 0.3, 0.5, 1.0)),
    "rho": st.sampled_from((1e-3, 0.1, 0.5)),
    "epsilon": st.sampled_from((0.0, 1.0, 9.0)),
    "u": st.sampled_from((0.5, 0.1, 1e-2)),
    "k_max": st.integers(1, 6),
    "n_jump": st.integers(1, 3),
}
WALK_EXTREME = {
    "float": st.one_of(
        st.sampled_from((0.0, 1e-310, 1e-300, 1e-9, 1.0, 2.0, 1e300, -1.0)),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    "int": st.sampled_from((-1, 0, 10**7, 2**63, 10**30, "inf")),
}


@st.composite
def walk_argv(draw):
    subcommand = draw(st.sampled_from(("bound", "sweep")))
    # one parameter at most is extreme, so that most runs get past validation
    extreme = draw(st.sampled_from((*WALK_SANE, None)))
    values = {
        key: draw(WALK_EXTREME["int" if key in ("k_max", "n_jump") else "float"]
                  if key == extreme else sane)
        for key, sane in WALK_SANE.items()
    }
    flags = {
        "strategy": draw(st.sampled_from(("micro", "max-step", "hybrid"))),
        "u": repr(values["u"]),
        "k_max": values["k_max"],
        "n_jump": values["n_jump"],
        "seed": draw(st.integers(0, 3)),
        # ignored by the exact paths
        "samples": draw(st.integers(1, 300)),
    }
    if subcommand == "bound":
        for key in ("f", "rho", "epsilon"):
            flags[key] = repr(values[key])
        flags["u_sweep"] = draw(st.booleans())
    else:
        # the drawn value leads each grid; grids may also be empty
        for key in ("f", "epsilon", "rho"):
            grid = draw(st.lists(WALK_SANE[key], max_size=2))
            if draw(st.sampled_from((True, True, True, False))):
                grid.insert(0, values[key])
            flags[f"{key}_grid"] = ",".join(map(repr, grid))
    # "--key=value", so that argparse reads a value such as -inf as a value
    return [subcommand] + [f"--{key}={value}" for key, value in flags.items()]


class TestWalkInputs:
    @settings(max_examples=150, deadline=None)
    @given(walk_argv(), st.sampled_from((3e3, 50.0, 0.0)))
    def test_exits_cleanly(self, argv, max_cells):
        # every input either reports strict JSON or exits with a documented
        # code; lowered cell caps reach the cap checks at small sizes, and a
        # numpy warning fails as it does under python -W error
        out, err = io.StringIO(), io.StringIO()
        with (
            mock.patch.object(bound, "MAX_CELLS", max_cells),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
            warnings.catch_warnings(),
        ):
            warnings.simplefilter("error")
            code = main(argv)
        if code == 0:
            json.loads(out.getvalue(), parse_constant=reject_constant)
        else:
            assert code in (2, 3, 4, 5, 6)
            assert err.getvalue().split(":")[0].endswith("Error")

    @pytest.mark.parametrize("strategy", ["micro", "max-step", "hybrid"])
    @pytest.mark.parametrize("f", ["1e-310", "5e-324"])
    @pytest.mark.parametrize("subcommand", ["bound", "sweep"])
    def test_subnormal_f(self, strategy, f, subcommand, capsys):
        # an inf power ratio at a subnormal f must not warn; micro and hybrid
        # need more than 2**53 micro-steps there and exit 3
        cell = {
            "bound": [f"--f={f}", "--rho=0.1"],
            "sweep": [f"--f_grid={f}", "--epsilon_grid=0.0", "--rho_grid=0.1"],
        }[subcommand]
        argv = [subcommand, *cell, "--k_max=3", f"--strategy={strategy}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        out, err = capsys.readouterr()
        if strategy == "max-step":
            assert code == 0
            json.loads(out, parse_constant=reject_constant)
        else:
            assert code == 3
            assert err.startswith("DomainError: the walk needs more than 2**53 micro-steps")


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv, field",
        [
            (["simulate", "--r", "inf"], "r"),
            (["simulate", "--init", "explicit", "--init_powers", "inf,1"], "powers"),
            (["simulate", "--gamma", "nan"], "gamma"),
            (["simulate", "--init_exponent", "nan"], "exponent"),
            (["simulate", "--epsilon", "nan"], "epsilon"),
            (["simulate", "--model", "pow", "--br", "inf"], "b_r"),
            (["check", "--powers", "inf,1"], "powers"),
            (["check", "--gamma", "nan"], "gamma"),
            (["check", "--model", "linear", "--k", "inf"], "k"),
            (["check", "--sybil", "threshold-cover", "--margin", "nan"], "margin"),
            (["check", "--sybil", "threshold-cover", "--margin", "inf"], "margin"),
        ],
    )
    def test_non_finite_input_exit_code(self, argv, field, capsys):
        defaults = {
            "simulate": ["--model", "gamma", "--br", "3", "--r_max", "3", "--horizon", "5",
                         "--n_nodes", "2", "--init", "power-law"],
            "check": ["--model", "gamma", "--br", "3", "--powers", "1,1", "--m", "2"],
        }[argv[0]]
        code = main(argv[:1] + defaults + argv[1:])
        assert code == 3
        assert f"DomainError: {field} must be finite" in capsys.readouterr().err


def reference_simulate(cfg):
    """The results but ``monotonicity`` and the trajectory CSV bytes of a
    simulate config, computed from the full trajectories of ``simulate``
    with ``ed_verdict`` and ``csv.writer``: the oracle of the streamed
    ``_run_simulate``.  Also returns the trajectories, for
    ``assert_slope_stats_exact``.  Each seed's final state is checked
    against a replay by the scalar ``step``."""
    sim = cli.sim_config(cfg)
    trajectories = simulate(sim)
    for traj in trajectories:
        assert np.array_equal(traj.betas[-1], replay_final_betas(sim, traj.seed))
    window = sim.effective_window() if sim.horizon else 1
    results = {
        "horizon": sim.horizon,
        "n_seeds": len(trajectories),
        "per_seed": [
            {
                "seed": traj.seed,
                "final_ratio": float(traj.ratios[-1]),
                "final_betas": [float(b) for b in traj.betas[-1]],
            }
            for traj in trajectories
        ],
    }
    if sim.horizon:
        verdict = ed_verdict(trajectories, cfg["epsilon"], cfg["delta"], window)
        results["ed"] = {
            "converged_fraction": verdict.converged_fraction,
            "mean_final_ratio": verdict.mean_final_ratio,
            "window": window,
        }
    files = {}
    for traj in trajectories:
        handle = io.StringIO(newline="")
        writer = csv.writer(handle)
        writer.writerow(["step", "ratio"] + [f"beta_{i + 1}" for i in range(traj.n_nodes)])
        for t in range(traj.horizon + 1):
            writer.writerow(
                [t, repr(float(traj.ratios[t]))] + [repr(float(b)) for b in traj.betas[t]]
            )
        files[f"trajectory_{traj.seed}.csv"] = handle.getvalue().encode("utf-8")
    return results, files, trajectories


EPS = 2.0**-52


def exact_slopes(series):
    """Exact least-squares slope over steps 0..H of each row y of the float
    ``series``, sum(c_t * (y_t - y_0)) / D with c_t = t - H/2 and D the sum
    of c_t**2, in Fraction arithmetic; and the error a float computation of
    it is allowed, (H + 5) * 2**-52 * sum(|c_t * (y_t - y_0)|) / D: two
    roundings per term, at most H + 1 in the sum and two in the division."""
    horizon = series.shape[1] - 1
    steps = [Fraction(2 * t - horizon, 2) for t in range(horizon + 1)]
    denom = sum(c * c for c in steps)
    if denom == 0:
        return [(Fraction(0), Fraction(0))] * len(series)
    out = []
    for row in series.tolist():
        terms = [c * (Fraction(y) - Fraction(row[0])) for c, y in zip(steps, row)]
        out.append((sum(terms) / denom, (horizon + 5) * EPS * sum(map(abs, terms)) / denom))
    return out


def assert_slope_stats_exact(reported, trajectories):
    """The four ``monotonicity`` fields against the exact slopes of the
    tracked fraction series.  Each seed's streamed slope, and its slope by
    the batch fit that preceded the streamed one, lie within the per-seed
    tolerance of ``exact_slopes``.  The mean then moves by at most the mean
    tolerance and the standard error by at most their root mean square over
    n - 1, each plus the rounding of its own sums."""
    n = len(trajectories)
    tracked = np.stack(
        [t.betas[:, pick(t.betas[0])] for t in trajectories for pick in (np.argmin, np.argmax)]
    )
    streamed = SlopeAccumulator(n, tracked.shape[1] - 1)
    for start in range(0, tracked.shape[1], 7):
        streamed.add(tracked[:, start : start + 7].T)
    sides = zip(("min", "max"), (tracked[0::2], tracked[1::2]), streamed.slopes().reshape(-1, 2).T)
    for side, series, slopes in sides:
        exact, tol = zip(*exact_slopes(series))
        assert all(abs(Fraction(s) - e) <= t for s, e, t in zip(slopes, exact, tol))
        # the batch fit: centred series against centred steps, one BLAS dot
        centred = np.arange(series.shape[1], dtype=float)
        centred -= centred.mean()
        denom = float((centred**2).sum())
        batch = (series - series.mean(axis=1, keepdims=True)) @ centred / (denom or np.inf)
        assert all(abs(Fraction(b) - e) <= t for b, e, t in zip(batch, exact, tol))
        mean = sum(exact) / n
        rounding = (n + 8) * EPS * max(abs(e) for e in exact)
        assert abs(Fraction(reported[f"slope_{side}"]) - mean) <= sum(tol) / n + rounding
        se = Fraction(math.sqrt(sum((e - mean) ** 2 for e in exact) / (n - 1) / n))
        se_tol = math.sqrt(sum(t * t for t in tol) / (n * (n - 1)))
        assert abs(Fraction(reported[f"se_{side}"]) - se) <= Fraction(se_tol) + rounding


GAMMA5 = {
    "model": "gamma", "br": 1.5, "gamma": 0.5, "r": 1.0, "r_max": 1.5, "n_nodes": 5,
    "init": "explicit", "init_powers": [5.0, 1.0, 2.0, 1.5, 3.0],
}


class TestStreamedSimulate:
    """The streamed CLI report against ``reference_simulate``."""

    CASES = {
        "slope-statistics": dict(GAMMA5, horizon=300, seeds=list(range(35))),
        # the CSVs hold the header and step 0
        "horizon-zero": dict(GAMMA5, horizon=0, seeds=list(range(31)), window=5,
                             trajectories_dir="trajs"),
        "window-is-horizon": dict(GAMMA5, horizon=50, seeds=[0, 1, 2, 3], window=50, epsilon=1.0),
        "delta-50": dict(GAMMA5, horizon=400, seeds=list(range(12)), delta=50.0, epsilon=0.8),
        "stake-lottery": {
            "model": "pos", "br": 1.0, "c": 0.2, "sb": 0.5, "r": 1.0, "r_max": 1.0,
            "n_nodes": 2, "init": "explicit", "init_powers": [4.0, 1.0], "horizon": 90,
            "seeds": [2, 6, 11], "epsilon": 3.0,
        },
        # the last CSV block is partial; a seed listed twice has one file
        "work-lottery-csv": {
            "model": "pow", "br": 2.0, "c1": 0.1, "c2": 0.2, "r": 0.5, "r_max": 2.0,
            "n_nodes": 3, "init": "explicit", "init_powers": [3.0, 1.0, 2.0],
            "horizon": 2 * dynamics.RECORD_BLOCK + 37, "seeds": [8, 9, 8], "delta": 40.0,
            "trajectories_dir": "trajs",
        },
        # ten and thirteen nodes: row sums take numpy's pairwise path; the
        # horizon is off a block of 256, 7 or 1 steps
        "ten-nodes-off-both-blocks": {
            "model": "gamma", "br": 0.2, "gamma": 1.5, "r": 1.0, "r_max": 0.2,
            "n_nodes": 10, "init": "power-law", "init_exponent": 2.0,
            "horizon": 4355, "seeds": [3, 4],
            "epsilon": 2.0, "trajectories_dir": "trajs",
        },
        # a step of 2 seeds of 4,500 nodes takes 72 KB, so BLOCK_BYTES
        # holds 116 steps: a full block and a partial one
        "budget-block-csv": {
            "model": "gamma", "br": 1.0, "gamma": 1.5, "r": 1.0, "r_max": 1.0,
            "n_nodes": 4500, "init": "power-law", "init_exponent": 0.5,
            "horizon": 120, "seeds": [6, 2], "delta": 30.0, "epsilon": 1.0,
            "trajectories_dir": "trajs",
        },
        # powers 1..13: the net reward clamps to r_max up to power 3 and
        # to 0 from power 5 on
        "work-clamped-both-ways": {
            "model": "pow", "br": 3.0, "c1": 0.5, "c2": 0.5, "r": 0.5, "r_max": 1.0,
            "n_nodes": 13, "init": "power-law", "init_exponent": -1.0, "horizon": 300,
            "seeds": list(range(31)), "delta": 30.0, "trajectories_dir": "trajs",
        },
        "stake-lottery-ten-nodes": {
            "model": "pos", "br": 1.0, "c": 0.2, "sb": 0.01, "r": 1.0, "r_max": 1.0,
            "n_nodes": 10, "init": "two-point", "init_f": 0.1, "init_count_rich": 3,
            "init_count_poor": 7, "horizon": 500, "seeds": [5, 6, 7], "window": 100,
            "epsilon": 1.0, "trajectories_dir": "trajs",
        },
        "one-seed-csv": dict(GAMMA5, horizon=700, seeds=[4], trajectories_dir="trajs"),
    }
    CSV_CASES = sorted(name for name, case in CASES.items() if case.get("trajectories_dir"))

    @pytest.fixture(scope="class")
    def reference(self):
        """``reference_simulate`` of a case, computed once per case at the
        default ``RECORD_BLOCK``; call it before patching anything."""
        cache = {}

        def of(case):
            if case not in cache:
                cfg = parse_config("simulate", overrides=self.CASES[case])
                cache[case] = reference_simulate(cfg)
            return cache[case]

        return of

    @pytest.mark.parametrize("block", ["default", 1, 7])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_full_trajectory_report(self, case, block, reference, tmp_path, monkeypatch):
        expected, files, trajectories = reference(case)
        monkeypatch.setenv("DECENTSIM_OUT", str(tmp_path))
        default_block = dynamics.RECORD_BLOCK
        if block != "default":
            monkeypatch.setattr(dynamics, "RECORD_BLOCK", block)
        cfg = parse_config("simulate", overrides=self.CASES[case])
        results = run(cfg)["results"]
        if cfg["trajectories_dir"]:
            out_dir = tmp_path / cfg["trajectories_dir"]
            assert results.pop("trajectories_dir") == str(out_dir)
            written = {path.name: path.read_bytes() for path in out_dir.iterdir()}
            assert written == files
        if len(trajectories) >= dynamics.MIN_SLOPE_SEEDS:
            if block != "default":
                # the slopes do not depend on the block either
                monkeypatch.setattr(dynamics, "RECORD_BLOCK", default_block)
                again = run(cfg)["results"]["monotonicity"]
                assert json.dumps(again) == json.dumps(results["monotonicity"])
            assert_slope_stats_exact(results.pop("monotonicity"), trajectories)
        assert json.dumps(results, sort_keys=True) == json.dumps(expected, sort_keys=True)

    @pytest.mark.parametrize("chunk_floats", [1, 64])
    @pytest.mark.parametrize("case", CSV_CASES)
    def test_csv_bytes_do_not_depend_on_slices(self, case, chunk_floats, reference, tmp_path,
                                               monkeypatch):
        _, files, _ = reference(case)
        monkeypatch.setenv("DECENTSIM_OUT", str(tmp_path))
        # one record per slice, or a few records per slice: a repeated
        # record keeps its text across a slice boundary
        monkeypatch.setattr(cli, "CHUNK_FLOATS", chunk_floats)
        run(parse_config("simulate", overrides=self.CASES[case]))
        written = {path.name: path.read_bytes() for path in (tmp_path / "trajs").iterdir()}
        assert written == files

    @pytest.mark.parametrize(
        "n_seeds, with_csv",
        [
            pytest.param(8, False, id="False"),
            pytest.param(2, True, id="True"),
            # 30 seeds or more: the slope statistics are streamed too
            pytest.param(30, False, id="slopes"),
        ],
    )
    def test_peak_memory_flat_in_horizon(self, n_seeds, with_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("DECENTSIM_OUT", str(tmp_path))
        seeds = list(range(n_seeds))

        def peak_bytes(horizon):
            cfg = parse_config("simulate", overrides={
                "model": "gamma", "br": 1.0, "r_max": 1.0, "n_nodes": 2,
                "init": "explicit", "init_powers": [2.0, 1.0], "horizon": horizon,
                "seeds": seeds, "trajectories_dir": "trajs" if with_csv else "",
            })
            tracemalloc.start()
            try:
                run(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(10)  # one-time allocations of the first run
        short = peak_bytes(8192)
        long = peak_bytes(24576)
        # keeping one value per seed and step would add
        # 16384 * len(seeds) * 8 bytes to the longer run's peak
        assert long - short < 32768 * len(seeds)


class TestTrajectoryWriters:
    """A simulate run writes its trajectory CSVs itself, formatting every
    value with ``repr``, and starts no process."""

    ARGV = ["simulate", "--model", "pow", "--br", "1", "--r_max", "1", "--n_nodes", "2",
            "--init", "explicit", "--init_powers", "1,2", "--seeds", "1,2,3"]

    @pytest.mark.parametrize("chunk_floats", ["default", 3])
    def test_repeated_records_match_repr(self, chunk_floats, tmp_path, monkeypatch):
        # states that sum to 1 at delta 100: each record is the ratio 1.0
        # and the state itself
        a, b, c, d = [0.25, 0.25, 0.5], [0.5, 0.25, 0.25], [0.125, 0.375, 0.5], [0.75, 0.0, 0.25]
        # equal as floats, not as bytes
        zero, negative_zero = [0.0, 0.0, 1.0], [-0.0, 0.0, 1.0]
        if chunk_floats != "default":
            # below one record of 4 floats: one record per slice
            monkeypatch.setattr(cli, "CHUNK_FLOATS", chunk_floats)
        long = 1 + cli.CHUNK_FLOATS // 4  # more steps than one slice
        blocks = [
            # (file 0, file 1) states of each step: repeats inside a block,
            # across a slice boundary, and in one file while the other moves
            [(a, c)],
            [(a, c), (a, d), (b, d), (zero, d), (negative_zero, d), (negative_zero, c), (b, c)],
            [(b, c)] * (long - 10) + [(b, a)] * 10,
            [(zero, a)],
        ]
        cfg = parse_config("simulate", overrides={
            "model": "pow", "br": 1.0, "r_max": 1.0, "n_nodes": 3, "init": "explicit",
            "init_powers": [1.0, 1.0, 1.0], "horizon": 1, "seeds": [1, 2], "delta": 100.0,
        })
        writer = cli._TrajectoryCsvWriter(tmp_path, cli.sim_config(cfg))
        t0 = 0
        for block in blocks:
            writer.record(t0, np.array(block), None)
            t0 += len(block)
        rows = [step for block in blocks for step in block]
        for file in (0, 1):
            expected = "step,ratio,beta_1,beta_2,beta_3\r\n" + "".join(
                f"{n},1.0,{','.join(repr(float(v)) for v in step[file])}\r\n"
                for n, step in enumerate(rows)
            )
            assert (tmp_path / f"trajectory_{file + 1}.csv").read_bytes() == expected.encode()
        written = (tmp_path / "trajectory_1.csv").read_bytes()
        assert b"\r\n4,1.0,0.0,0.0,1.0\r\n5,1.0,-0.0,0.0,1.0\r\n" in written

    def test_clamped_case_repeats_records(self):
        # the byte-equality tests of TestStreamedSimulate reuse a record's
        # text: its rows repeat the one before
        case = TestStreamedSimulate.CASES["work-clamped-both-ways"]
        _, files, _ = reference_simulate(parse_config("simulate", overrides=case))
        for body in files.values():
            records = [row.split(b",", 1)[1] for row in body.splitlines()[1:]]
            assert any(records[t] == records[t - 1] for t in range(1, len(records)))

    def test_none_outlives_a_run(self, tmp_path, monkeypatch, capfd):
        started = []

        class SpyPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(subprocess, "Popen", SpyPopen)
        (tmp_path / "file").write_text("", encoding="utf-8")
        # trajectory_2.csv cannot be opened; trajectory_1.csv was written
        # before it
        (tmp_path / "blocked" / "trajectory_2.csv").mkdir(parents=True)
        codes = [
            main(self.ARGV + ["--horizon", "600", "--trajectories_dir", str(tmp_path / name)])
            for name in ("written", "file/trajs", "blocked")
        ]
        err = capfd.readouterr().err
        assert codes == [0, 2, 2]
        assert started == []
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("IsADirectoryError: ")
        assert err.splitlines()[-1].endswith(f"'{tmp_path / 'blocked' / 'trajectory_2.csv'}'")
        assert [len(path.read_bytes().splitlines()) for path in
                sorted((tmp_path / "written").iterdir())] == [602] * 3

    @pytest.mark.skipif(sys.platform == "win32", reason="sets RLIMIT_NOFILE")
    def test_more_files_than_descriptors(self, tmp_path):
        # a descriptor limit below the file count: the run opens the files
        # one at a time
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": "pow", "br": 1.0, "r_max": 1.0, "n_nodes": 2, "init": "explicit",
            "init_powers": [1.0, 2.0], "horizon": 1, "seeds": list(range(100)),
            "trajectories_dir": str(tmp_path / "trajs"),
        }), encoding="utf-8")
        _, files, _ = reference_simulate(parse_config("simulate", file=config))
        script = (
            "import resource, sys; from decentsim import cli; "
            "hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]; "
            "resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard)); "
            "sys.exit(cli.main(sys.argv[1:]))"
        )
        subprocess.run(
            [sys.executable, "-c", script, "simulate", "--config", str(config)], check=True,
            stdout=subprocess.DEVNULL, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        written = {path.name: path.read_bytes() for path in (tmp_path / "trajs").iterdir()}
        assert written == files


class TestOutputDirEnv:
    def test_relative_out_resolves_against_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DECENTSIM_OUT", str(tmp_path))
        code = main(["anchors", "--out", "nested/report.json"])
        assert code == 0
        report = read_report(tmp_path / "nested" / "report.json")
        assert report["results"]["f_0"] == 7.58e-9


class TestDeterminism:
    def test_rerun_reproduces_results_payload(self):
        cfg = parse_config(
            "bound", overrides={"f": 1e-3, "rho": 0.1, "samples": 5000, "seed": 9}
        )
        first = run(cfg)
        second = run(cfg)
        assert results_payload_bytes(first) == results_payload_bytes(second)
        assert first["wall_time_s"] != 0  # timing sits outside the payload

    def test_stdout_report_round_trips(self, capsys):
        code = main(["anchors"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        rerun = run(parse_config("anchors", overrides=report["config"]))
        assert results_payload_bytes(rerun) == results_payload_bytes(report)

    def test_echoed_config_reruns_randomized_payload(self, capsys):
        code = main(["bound", "--f", "1e-3", "--rho", "0.1", "--samples", "3000",
                     "--seed", "11"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        rerun = run(parse_config("bound", overrides=report["config"]))
        assert results_payload_bytes(rerun) == results_payload_bytes(report)


class TestImportHeapFreeze:
    SCRIPT = """
import gc, weakref
from decentsim import cli
imported = len(gc.get_objects())
assert cli.main(["bound", "--f", "1e-3", "--rho", "0.1"]) == 0
assert gc.get_freeze_count() >= imported, (gc.get_freeze_count(), imported)
assert gc.isenabled()

class Node:
    pass

node = Node()
node.self = node
alive = weakref.ref(node)
del node
gc.collect()
assert alive() is None
"""

    def test_main_freezes_the_import_heap(self):
        # what the imports built sits in the permanent generation, so exit
        # does not tear it down; a cycle made after main is still collected
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", self.SCRIPT],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
