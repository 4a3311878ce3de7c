import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vccsat import experiments
from vccsat.analysis import alpha2_closed_form, avg_sum_rate_closed_form
from vccsat.caching import (
    Assignment,
    CacheLayout,
    DeliverySchedule,
    StagePlan,
    build_schedule,
    schedule_to_dict,
)
from vccsat.channel import SCENARIOS
from vccsat.cli import main, parse_config_file
from vccsat.linkphy import SystemConfig

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# operating point\nscenario = ILS\nL = 16\ng = 6\nq = 4\npt_db = 12\nsigma_e2 = 0.25\n"
        )
        values = parse_config_file(path)
        assert values == {
            "scenario": "ILS",
            "l": 16,
            "g": 6,
            "q": 4,
            "pt_db": 12.0,
            "sigma_e2": 0.25,
        }

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("antennas = 8\n")
        with pytest.raises(ValueError, match="unknown config key 'antennas'"):
            parse_config_file(path)

    def test_duplicate_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("l = 8\nL = 16\n")
        with pytest.raises(ValueError, match="run.cfg:2: duplicate config key 'l'"):
            parse_config_file(path)
        code, out, err = run(capsys, "analyze", "--config", str(path))
        assert (code, out) == (2, "")
        assert "duplicate config key" in err

    def test_bad_value_named_in_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("L = eight\n")
        with pytest.raises(ValueError, match="cannot parse l"):
            parse_config_file(path)


class TestConfigKeys:
    """A config file may set only the keys its command reads."""

    @pytest.mark.parametrize(
        "argv,text,unread",
        [
            (["analyze"], "L = 16\ntrials = 1000\n", "trials"),
            (["figure", "2", "--analytic-only"], "l = 16\nscenario = FHS\nt = 1000\n", "l, scenario"),
            (["validate", "--trials", "600"], "q_max = 3\n", "q_max"),
        ],
        ids=["analyze", "figure", "validate"],
    )
    def test_unread_key_rejected(self, capsys, tmp_path, monkeypatch, argv, text, unread):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        code, out, err = run(capsys, *argv, "--config", str(path))
        assert code == 2
        assert f"vccsat {argv[0]} does not read config key(s) {unread}" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == [path]

    def test_simulate_reads_every_key(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "scenario = ILS\nm = 2\nbeta = 0.1\nomega = 1\nL = 4\ng = 2\nq = 2\npt_db = 10\n"
            "pt_linear = 10\nsigma_e2 = 0\nt = 1000\ntheta = 4\nq_max = 2\nq_max_baseline = 2\n"
            "trials = 1000\nseed = 5\nworkers = 1\n"
        )
        code, _, _ = run(capsys, "simulate", "--gain", "--config", str(path), "--out", str(tmp_path / "run"))
        assert code == 0
        resolved = json.loads((tmp_path / "run.json").read_text())["manifest"]["resolved"]
        assert (resolved["l"], resolved["q_max"], resolved["seed"], resolved["m"]) == (4, 2, 5, 2.0)


class TestResolved:
    """defaults < config file < flags, as the manifest records them."""

    def resolved(self, capsys, tmp_path, text, *flags):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        out = tmp_path / "out.json"
        code, _, _ = run(capsys, "analyze", "--config", str(path), "--json", str(out), *flags)
        assert code == 0
        return json.loads(out.read_text())["manifest"]["resolved"]

    @pytest.mark.parametrize(
        "text, flags, expected",
        [("", [], 8), ("L = 16\n", [], 16), ("L = 16\n", ["--L", "4"], 4)],
        ids=["default", "file", "flag"],
    )
    def test_override_order(self, capsys, tmp_path, text, flags, expected):
        assert self.resolved(capsys, tmp_path, text, *flags)["l"] == expected

    def test_pt_db_flag_beats_file_pt_linear(self, capsys, tmp_path):
        resolved = self.resolved(capsys, tmp_path, "pt_linear = 100\n", "--pt-db", "10")
        assert resolved["pt_db"] == 10.0
        assert "pt_linear" not in resolved

    def test_file_pt_linear_beats_db_default(self, capsys, tmp_path):
        resolved = self.resolved(capsys, tmp_path, "pt_linear = 10\n")
        assert resolved["pt_linear"] == 10.0
        assert "pt_db" not in resolved

    def test_key_order(self, capsys, tmp_path):
        # defaults in table order, then file keys in file order, then flags
        resolved = self.resolved(capsys, tmp_path, "omega = 1\nm = 2\nbeta = 0.1\n", "--pt-linear", "5")
        assert list(resolved) == [
            "scenario", "l", "g", "q", "sigma_e2", "t", "theta", "q_max", "q_max_baseline",
            "trials", "seed", "workers", "omega", "m", "beta", "pt_linear",
        ]


class TestAnalyze:
    def test_emits_all_quantities(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--scenario", "AS", "--G", "6", "--Q", "4", "--L", "8", "--pt-db", "10", "--gain"
        )
        assert code == 0
        for key in ("alpha2", "xi", "xi1", "xi2", "avg_sum_rate", "effective_gain"):
            assert key in out
        config = SystemConfig(
            l_antennas=8, g_groups=6, q_mux=4, p_t=10.0, shadowing=SCENARIOS["AS"]
        )
        assert f"{alpha2_closed_form(config):.6g}" in out
        assert f"{avg_sum_rate_closed_form(config):.6g}" in out

    def test_baseline_mode_labelled(self, capsys):
        code, out, _ = run(capsys, "analyze", "--G", "1", "--Q", "4")
        assert code == 0
        assert "baseline (cacheless, G=1)" in out

    def test_custom_shadowing_triple(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--m", "2.0", "--beta", "0.2", "--omega", "0.5", "--pt-db", "0"
        )
        assert code == 0
        assert f"{10 * np.log10(0.9):.4f}" in out  # snr offset for 2b + w = 0.9

    def test_partial_custom_shadowing_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", "--m", "2.0")
        assert code == 2
        assert "requires all of m, beta, omega" in err

    def test_rate_that_is_not_finite_rejected_before_any_output(self, capsys):
        # at 3082 dB the cacheless closed-form rate overflows to inf for q = 2..7
        code, out, err = run(capsys, "analyze", "--pt-db", "3082", "--gain")
        assert (code, out) == (2, "")
        assert err.startswith("error: closed-form rate is not finite (inf)")

    def test_finite_rate_at_huge_power_reported(self, capsys):
        code, out, _ = run(capsys, "analyze", "--pt-db", "3082")
        assert code == 0
        assert "avg_sum_rate    : 50.0194\n" in out

    @pytest.mark.parametrize(
        "argv, rate",
        [
            (["analyze", "--pt-db", "-3233", "--gain"], "0.0"),
            (["analyze", "--pt-linear", "5e-324", "--gain"], "0.0"),
            (["simulate", "--pt-linear", "5e-324", "--gain", "--trials", "100"], "0.0"),
            (["analyze", "--pt-linear", "1e-320", "--gain"], "1.26777e-319"),
            (["simulate", "--pt-linear", "1e-320", "--gain", "--trials", "100"], "1.26777e-319"),
        ],
        ids=["analyze-db", "analyze-linear", "simulate", "analyze-subnormal", "simulate-subnormal"],
    )
    def test_underflowing_baseline_rate_rejected(self, capsys, tmp_path, monkeypatch, argv, rate):
        # at the smallest subnormal power (-3233 dB rounds to it) alpha2
        # itself underflows to 0, so every rate is 0, and a gain over a zero
        # baseline rate is undefined; at 1e-320 alpha2 keeps a few bits and
        # the rates are subnormal, so their ratio is rounding noise (1.00994
        # at Q* = Q'* = 3, where the low-SNR limit is 0.987971 at 2)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: the baseline's best rate is {rate}, so the gain is undefined\n"
        assert not list(tmp_path.iterdir())

    def test_underflowing_rate_reported(self, capsys):
        code, out, _ = run(capsys, "analyze", "--pt-linear", "5e-324")
        assert code == 0
        assert "alpha2          : 0\n" in out
        assert "avg_sum_rate    : 0\n" in out

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["analyze", "--pt-db", "-3000"], "avg_sum_rate    : 1.19189e-299\n"),
            (
                ["analyze", "--pt-db", "-3000", "--gain"],
                "effective_gain  : 0.987971 (Q*=2, Q'*=2, rate_vcc=1.24653e-299, rate_base=1.26171e-299)\n",
            ),
            (
                ["validate", "--pt-db", "-170", "--trials", "1000"],
                "[PASS] rate-approximation: closed=1.19189e-16 mc=1.1915e-16 rel=0.0003 (tol 0.05)\n",
            ),
        ],
        ids=["analyze-db", "analyze-db-gain", "validate"],
    )
    def test_rate_at_tiny_power_reported(self, capsys, argv, line):
        # the closed form takes log2(1 + x) as log1p(x) / log(2), which stays
        # positive for x far below machine epsilon, as the Monte Carlo rate does
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert line in out

    def test_gain_at_tiny_power_is_the_overhead_ratio(self, capsys, tmp_path):
        # at low SNR every rate is P_t desired xi / (L (2b + sigma_e2 + w) ln 2)
        # for every G and Q, so Q* = Q'* = 2 and the gain is xi(G=6) / xi(G=1)
        config = SystemConfig(l_antennas=8, g_groups=6, q_mux=2, p_t=1.0, shadowing=SCENARIOS["AS"])
        limit = config.xi / replace(config, g_groups=1).xi
        stem = tmp_path / "run"
        code, _, _ = run(capsys, "simulate", "--pt-db", "-400", "--gain", "--trials", "100", "--out", str(stem))
        assert code == 0
        row = json.loads(stem.with_suffix(".json").read_text())["results"]["rate"]
        assert row["rate_analytic"] > 0
        assert row["gain_analytic"] == pytest.approx(limit, rel=1e-12)

    def test_gain_with_q1_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", "--Q", "1", "--gain")
        assert code == 2
        assert "Q must be >= 2" in err

    @pytest.mark.parametrize("flags", [["--q-max", "1"], ["--q-max-baseline", "11"]])
    def test_bad_q_cap_rejected_before_any_output(self, capsys, flags):
        code, out, err = run(capsys, "analyze", "--gain", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: q_max must be in [2, 10]")

    def test_constraint_violation_diagnostic(self, capsys):
        code, _, err = run(capsys, "analyze", "--T", "100")
        assert code == 2
        assert "G*Q*Theta must be < T" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--gain", "--pt-linear", "inf"],
            ["analyze", "--gain", "--sigma-e2", "inf"],
            ["analyze", "--gain", "--m", "2.0", "--beta", "nan", "--omega", "0.5"],
            ["simulate", "--m", "inf", "--beta", "0.1", "--omega", "1", "--trials", "1000"],
        ],
    )
    def test_non_finite_input_rejected(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and "finite" in err
        assert "nan" not in out
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["analyze", "simulate", "validate"])
    def test_overflowing_pt_db_rejected(self, capsys, tmp_path, monkeypatch, command):
        # 10 ** (pt_db / 10) overflows a Python float above about 3083 dB;
        # the overflow is reported as the infinite power it stands for
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, command, "--pt-db", "1e10")
        assert (code, out) == (2, "")
        assert err == "error: p_t must be finite and > 0, got inf\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--json", "out.json"],
            ["analyze", "--gain", "--json", "out.json"],
            ["simulate", "--trials", "100"],
            ["simulate", "--gain", "--trials", "100"],
            ["validate", "--trials", "100"],
        ],
        ids=["analyze", "analyze-gain", "simulate", "simulate-gain", "validate"],
    )
    def test_zero_power_channel_rejected(self, capsys, tmp_path, monkeypatch, argv):
        # the default sigma_e2 keeps the estimate's power positive, but every
        # rate and SNR of a channel without power would be zero
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--m", "1", "--beta", "0", "--omega", "0")
        assert (code, out) == (2, "")
        assert err == "error: degenerate parameters: mean channel power is zero\n"
        assert not list(tmp_path.iterdir())

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "analyze", "--config", "/nonexistent/path.cfg")
        assert code == 2
        assert "error" in err

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _, _ = run(capsys, "analyze", "--json", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert data["manifest"]["command"] == "analyze"
        assert data["results"]["avg_sum_rate"] > 0


class TestOSError:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--config", "{dir}"],
            ["schedule", "--states", "2", "--t", "1", "--users-per-group", "1", "--q", "1",
             "--demands", "{dir}", "--out", "{dir}/sched.json"],
            ["figure", "1", "--analytic-only", "--outdir", "{file}"],
        ],
        ids=["config-is-a-directory", "demands-is-a-directory", "outdir-is-a-file"],
    )
    def test_reported_as_usage_error(self, capsys, tmp_path, argv):
        # for schedule, exit 1 would read as "schedule incomplete"
        (tmp_path / "file").write_text("")
        argv = [a.format(dir=tmp_path, file=tmp_path / "file") for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


class TestBrokenPipe:
    # unbuffered, the first print fails; buffered, the final flush does
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_quietly(self, unbuffered):
        # the pipe's read end is closed before the command starts, as when
        # `| head` has already exited
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "vccsat.cli", "analyze", "--gain"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")


class TestSimulate:
    def test_writes_csv_and_manifest(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, _, _ = run(
            capsys, "simulate", "--trials", "1000", "--seed", "1", "--out", str(out)
        )
        assert code == 0
        csv_text = (tmp_path / "run.csv").read_text()
        assert csv_text.startswith("# manifest: run.json")
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["manifest"]["seed"] == 1
        assert meta["results"]["rate"]["trials"] == 1000

    def test_rerun_is_byte_identical_across_workers(self, capsys, tmp_path):
        args = ["simulate", "--trials", "9000", "--seed", "2", "--gain", "--q-max", "3", "--q-max-baseline", "3"]
        code, _, _ = run(capsys, *args, "--workers", "1", "--out", str(tmp_path / "a" / "run"))
        assert code == 0
        code, _, _ = run(capsys, *args, "--workers", "2", "--out", str(tmp_path / "b" / "run"))
        assert code == 0
        assert (tmp_path / "a" / "run.csv").read_bytes() == (tmp_path / "b" / "run.csv").read_bytes()

    @pytest.mark.parametrize(
        "flags, label",
        [(["--m", "2.0", "--beta", "0.2", "--omega", "0.5"], "custom"), (["--scenario", "ils"], "ils")],
        ids=["custom", "scenario"],
    )
    def test_csv_scenario_label(self, capsys, tmp_path, flags, label):
        code, _, _ = run(capsys, "simulate", *flags, "--trials", "100", "--out", str(tmp_path / "run"))
        assert code == 0
        header, row = (tmp_path / "run.csv").read_text().splitlines()[1:]
        assert dict(zip(header.split(","), row.split(",")))["scenario"] == label

    def test_validate_mode_removed(self, capsys, tmp_path, monkeypatch):
        # the oracle suite is `vccsat validate`; simulate has no second path to it
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--validate", "--trials", "600", "--q-max", "3", "--out", "zz"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --validate" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_gain_with_q1_rejected(self, capsys):
        code, _, err = run(capsys, "simulate", "--Q", "1", "--gain", "--trials", "1000")
        assert code == 2
        assert "Q must be >= 2" in err

    @pytest.mark.parametrize(
        "argv", [["simulate", "--gain"], ["validate", "--G", "1", "--Q", "2"]], ids=["simulate-gain", "validate-g1"]
    )
    def test_rate_that_is_not_finite_rejected_before_any_draw(self, capsys, tmp_path, monkeypatch, argv):
        # the cacheless closed-form rate overflows to inf at 3082 dB
        def no_draw(*args):
            raise AssertionError("a substream was drawn")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(experiments, "substream", no_draw)
        code, out, err = run(capsys, *argv, "--pt-db", "3082", "--trials", "100")
        assert (code, out) == (2, "")
        assert err.startswith("error: closed-form rate is not finite (inf)")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--pt-db", "3082", "--trials", "1000"],
            ["simulate", "--pt-db", "3082", "--trials", "1000"],
            # every batch's mean and sum of squared deviations are finite,
            # but their merge overflows (1530-1532 dB at this seed)
            ["simulate", "--pt-db", "1531", "--trials", "20000"],
        ],
        ids=["validate", "simulate", "simulate-batch-total"],
    )
    def test_overflowing_monte_carlo_rejected(self, capsys, tmp_path, monkeypatch, argv, workers):
        # the closed-form rate is finite, but alpha^2 times a trial's signal
        # or estimate power overflows; RuntimeWarnings fail the test
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--workers", workers)
        assert (code, out) == (2, "")
        assert err.startswith("error: Monte Carlo values are not finite (overflow encountered in ")
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [["--q-max", "1"], ["--q-max-baseline", "11"]])
    def test_bad_q_cap_rejected_before_monte_carlo(self, capsys, tmp_path, monkeypatch, flags):
        def no_monte_carlo(*args, **kwargs):
            raise AssertionError("mc_sum_rate ran before the q caps were checked")

        monkeypatch.setattr(experiments, "mc_sum_rate", no_monte_carlo)
        code, out, err = run(
            capsys, "simulate", "--gain", *flags, "--trials", "100000", "--out", str(tmp_path / "run")
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: q_max must be in [2, 10]")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, capsys, tmp_path, workers):
        code, _, err = run(
            capsys, "simulate", "--trials", "200", "--workers", workers, "--out", str(tmp_path / "run")
        )
        assert code == 2
        assert f"workers must be >= 1, got {workers}" in err
        assert not list(tmp_path.iterdir())


class TestMonteCarloFlags:
    """Every command that registers --trials and --workers rejects bad values
    before it does any work or writes any file."""

    @pytest.mark.parametrize(
        "command",
        [
            ["figure", "2", "--analytic-only", "--outdir", "figs"],
            ["figure", "6", "--outdir", "figs"],
            ["simulate", "--out", "run"],
            ["validate"],
        ],
        ids=["figure-analytic", "figure", "simulate", "validate"],
    )
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--workers", "0"], "workers must be >= 1, got 0"),
            (["--workers", "-3"], "workers must be >= 1, got -3"),
            (["--trials", "5"], "trials must be >= 100, got 5"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
        ],
        ids=["workers0", "workers-3", "trials5", "seed-1"],
    )
    def test_rejected_before_any_output(self, capsys, tmp_path, monkeypatch, command, flags, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *command, *flags)
        assert code == 2
        assert f"error: {message}" in err
        assert out == ""
        assert not list(tmp_path.iterdir())

    def test_config_file_values_checked(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text("workers = 0\n")
        code, _, err = run(capsys, "figure", "2", "--analytic-only", "--config", "run.cfg", "--outdir", "figs")
        assert code == 2
        assert "workers must be >= 1, got 0" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


class TestFigure:
    def test_unknown_id_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "figure", "7", "--outdir", str(tmp_path))
        assert code == 2
        assert "unknown figure id" in err

    def test_figure2_analytic_only(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figure", "2", "--outdir", str(tmp_path), "--analytic-only")
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert files == ["fig2_as_l8.csv", "fig2_fhs_l8.csv", "fig2_ils_l8.csv"]
        lines = (tmp_path / "fig2_as_l8.csv").read_text().strip().split("\n")
        assert lines[0] == "# manifest: fig2_manifest.json"
        assert lines[1] == (
            "pt_db,snr_ave_db,scenario,L,G,Q_best_vcc,Q_best_base,rate_vcc,rate_base,"
            "gain_analytic,gain_mc,mc_stderr,seed"
        )
        assert len(lines) == 2 + 9  # comment + header + grid points incl. 18.1 dB
        manifest = json.loads((tmp_path / "fig2_manifest.json").read_text())
        assert manifest["command"] == "figure 2"
        assert len(manifest["outputs"]) == 3
        # nothing was drawn, so no seed or stream version is recorded
        assert manifest["seed"] is None
        assert "stream_version" not in manifest

    def test_figure1_gain_anchor_at_15_db(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figure", "1", "--outdir", str(tmp_path), "--analytic-only")
        assert code == 0
        lines = (tmp_path / "fig1_fhs_l8.csv").read_text().strip().split("\n")
        header = lines[1].split(",")
        rows = {float(l.split(",")[0]): dict(zip(header, l.split(","))) for l in lines[2:]}
        assert 2.7 <= float(rows[15.0]["gain_analytic"]) <= 3.3
        assert float(rows[15.0]["snr_ave_db"]) == pytest.approx(15.0 - 8.9655, abs=1e-3)

    def test_figure_rerun_byte_identical_across_workers(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["figure", "1", "--trials", "2000", "--seed", "3"]
        code, _, _ = run(capsys, *args, "--outdir", str(a), "--workers", "1")
        assert code == 0
        code, _, _ = run(capsys, *args, "--outdir", str(b), "--workers", "2")
        assert code == 0
        assert (a / "fig1_fhs_l8.csv").read_bytes() == (b / "fig1_fhs_l8.csv").read_bytes()

    def test_too_few_trials_fails_without_output(self, capsys, tmp_path):
        code, _, err = run(capsys, "figure", "2", "--trials", "50", "--outdir", str(tmp_path))
        assert code == 2
        assert "error: trials must be >= 100, got 50" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_block_too_short_for_q_cap_rejected(self, capsys, tmp_path):
        # q = 8 needs 6*8*12 = 576 pilot symbols; the curves' q = 2 template
        # would fit, so the check must use the cap
        outdir = tmp_path / "figs"
        code, out, err = run(capsys, "figure", "2", "--analytic-only", "--T", "500", "--outdir", str(outdir))
        assert code == 2
        assert "G*Q*Theta must be < T" in err
        assert out == ""
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "argv",
        [["figure", "2", "--L", "16"], ["figure", "2", "--q-max", "3"], ["validate", "--q-max", "3"]],
    )
    def test_flag_the_command_ignores_is_rejected(self, capsys, argv):
        # figure curves fix their own channel and q caps; validate has no gain search
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


class TestSchedule:
    def test_complete_schedule_exit_zero(self, capsys, tmp_path):
        out = tmp_path / "sched.json"
        code, stdout, _ = run(
            capsys,
            "schedule",
            "--states", "5", "--t", "2", "--users-per-group", "2", "--q", "2",
            "--out", str(out),
        )
        assert code == 0
        assert "complete" in stdout
        data = json.loads(out.read_text())
        assert data["verification"]["complete"] is True
        assert data["schedule"]["n_stages"] == 10

    def test_eight_state_delivery_counts(self, capsys, tmp_path):
        out = tmp_path / "sched.json"
        code, _, _ = run(
            capsys,
            "schedule",
            "--states", "8", "--t", "3", "--users-per-group", "2", "--q", "2",
            "--out", str(out),
        )
        assert code == 0
        data = json.loads(out.read_text())
        per_user: dict[int, int] = {}
        for stage in data["schedule"]["stages"]:
            for rnd in stage["rounds"]:
                for entry in rnd:
                    per_user[entry["user"]] = per_user.get(entry["user"], 0) + 1
        assert set(per_user.values()) == {35}  # C(7, 3)

    def test_q_exceeding_group_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "schedule",
            "--states", "3", "--t", "1", "--users-per-group", "1", "--q", "2",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "exceeds users_per_group" in err

    def test_demands_file(self, capsys, tmp_path):
        demands = {str(u): 10 + u for u in range(1, 7)}
        demands_path = tmp_path / "demands.json"
        demands_path.write_text(json.dumps(demands))
        out = tmp_path / "sched.json"
        code, _, _ = run(
            capsys,
            "schedule",
            "--states", "3", "--t", "1", "--users-per-group", "2", "--q", "1",
            "--files", "20", "--demands", str(demands_path), "--out", str(out),
        )
        assert code == 0
        data = json.loads(out.read_text())
        files = {e["file"] for s in data["schedule"]["stages"] for r in s["rounds"] for e in r}
        assert files == set(range(11, 17))

    @pytest.mark.parametrize(
        "text",
        ["[1, 2, 3]", '{"1": 1.7, "2": 2, "3": 3}', '{"1": true, "2": 2, "3": 3}'],
        ids=["list", "float", "bool"],
    )
    def test_malformed_demands_rejected(self, capsys, tmp_path, text):
        demands_path = tmp_path / "demands.json"
        demands_path.write_text(text)
        out = tmp_path / "sched.json"
        code, _, err = run(
            capsys,
            "schedule",
            "--states", "3", "--t", "1", "--users-per-group", "1", "--q", "1",
            "--demands", str(demands_path), "--out", str(out),
        )
        assert code == 2
        assert "expected a JSON object mapping user id to an integer file index" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"1": 2, "01": 1, "2": 3}', "user id '01' is not a plain decimal integer"),
            ('{" 1": 2, "2": 3}', "user id ' 1' is not a plain decimal integer"),
            ('{"1": 2, "+2": 3}', "user id '+2' is not a plain decimal integer"),
            ('{"1": 2, "1": 1, "2": 3}', "user id(s) '1' given more than once"),
            ('{"1": 2', "demands.json: malformed JSON: Expecting ',' delimiter"),
        ],
        ids=["leading-zero", "space", "plus", "repeated", "malformed"],
    )
    def test_non_canonical_user_ids_rejected(self, capsys, tmp_path, text, message):
        # "01", " 1" and a repeated "1" all name user 1, so one of its
        # demands would be dropped without a word
        demands_path = tmp_path / "demands.json"
        demands_path.write_text(text)
        out = tmp_path / "sched.json"
        code, _, err = run(
            capsys,
            "schedule",
            "--states", "2", "--t", "1", "--users-per-group", "1", "--q", "1",
            "--files", "3", "--demands", str(demands_path), "--out", str(out),
        )
        assert code == 2
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, expected",
        [
            # user 1 also receives a subfile of file 3, which user 3 demands
            (
                lambda stages: stages + (StagePlan(groups=(1,), rounds=((Assignment(1, 1, 1, 3, (2,)),),)),),
                {"missing": {}, "duplicated": {}, "unexpected": {"1": [[3, [2]]]}},
            ),
            # stage (1, 2) dropped: user 1 lacks label {2} of file 1, user 2 label {1} of file 2
            (
                lambda stages: stages[1:],
                {"missing": {"1": [[1, [2]]], "2": [[2, [1]]]}, "duplicated": {}, "unexpected": {}},
            ),
            # stage (1, 2) repeated: the same two labels arrive twice
            (
                lambda stages: stages + stages[:1],
                {"missing": {}, "duplicated": {"1": [[1, [2]]], "2": [[2, [1]]]}, "unexpected": {}},
            ),
        ],
        ids=["unexpected", "missing", "duplicated"],
    )
    def test_incomplete_delivery_is_exported(self, capsys, tmp_path, monkeypatch, edit, expected):
        def build_edited(layout, q, demands):
            schedule = build_schedule(layout, q, demands)
            return DeliverySchedule(g=schedule.g, q=schedule.q, stages=edit(schedule.stages))

        monkeypatch.setattr("vccsat.cli.build_schedule", build_edited)
        out = tmp_path / "sched.json"
        code, _, _ = run(
            capsys,
            "schedule",
            "--states", "3", "--t", "1", "--users-per-group", "1", "--q", "1",
            "--out", str(out),
        )
        assert code == 1
        verification = json.loads(out.read_text())["verification"]
        assert verification["complete"] is False
        assert {name: verification[name] for name in expected} == expected

    @pytest.mark.parametrize(
        "states, t, users_per_group, q, demands",
        [
            (3, 1, 1, 1, None),
            (5, 2, 2, 2, {u: 3 * u for u in range(1, 11)}),
            (12, 5, 8, 4, None),
        ],
        ids=["3-1-1-1", "5-2-2-2-demands", "12-5-8-4"],
    )
    def test_export_is_one_line_of_the_schedule(self, capsys, tmp_path, states, t, users_per_group, q, demands):
        layout = CacheLayout(
            n_states=states,
            t=t,
            n_files=30 if demands else states * users_per_group,
            users_per_group=users_per_group,
        )
        out = tmp_path / "sched.json"
        argv = [
            "schedule",
            "--states", str(states), "--t", str(t), "--users-per-group", str(users_per_group), "--q", str(q),
            "--files", str(layout.n_files), "--out", str(out),
        ]
        if demands:
            demands_path = tmp_path / "demands.json"
            demands_path.write_text(json.dumps({str(u): f for u, f in demands.items()}))
            argv += ["--demands", str(demands_path)]
        else:
            demands = {u: u for u in range(1, layout.n_users + 1)}
        code, _, _ = run(capsys, *argv)
        assert code == 0
        text = out.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        data = json.loads(text)
        # JSON reads the state tuples back as lists
        expected = json.loads(json.dumps(schedule_to_dict(build_schedule(layout, q, demands))))
        assert data["schedule"] == expected
        assert data["verification"]["complete"] is True


class TestValidateCommand:
    def test_validate_defaults_pass(self, capsys):
        code, out, _ = run(capsys, "validate", "--trials", "20000")
        assert code == 0
        assert "7/7 checks passed" in out

    @pytest.mark.parametrize("argv, failed", [(["--G", "1"], []), ([], ["rate-approximation"])], ids=["g1-q1", "g6-q1"])
    def test_single_user_groups_check_every_moment(self, capsys, argv, failed):
        # at Q = 1 the draw is two users wide, so xi2 still has its pairs of
        # independent users; at G = 6 the log-of-expectations rate is 5.1%
        # above Monte Carlo, past its 5% tolerance, at every seed tried
        code, out, _ = run(capsys, "validate", "--trials", "20000", "--Q", "1", *argv)
        # "[PASS] name: detail" -> {name: "PASS"}
        status = {line[7:].split(":")[0]: line[1:5] for line in out.splitlines() if line.startswith("[")}
        assert [status[f"moment-{m}"] for m in ("xi1", "xi2", "desired")] == ["PASS"] * 3
        assert [name for name, state in status.items() if state == "FAIL"] == failed
        assert code == (1 if failed else 0)
