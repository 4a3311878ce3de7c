import json

import numpy as np
import pytest

from vccsat.analysis import alpha2_closed_form, avg_sum_rate_closed_form
from vccsat.channel import SCENARIOS
from vccsat.cli import FIGURE_SCHEMA, main, parse_config_file
from vccsat.linkphy import SystemConfig


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

    def test_gain_with_q1_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", "--Q", "1", "--gain")
        assert code == 2
        assert "Q must be >= 2" in err

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
        assert lines[1] == ",".join(FIGURE_SCHEMA)
        assert len(lines) == 2 + 9  # comment + header + grid points incl. 18.1 dB
        manifest = json.loads((tmp_path / "fig2_manifest.json").read_text())
        assert manifest["command"] == "figure 2"
        assert len(manifest["outputs"]) == 3

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


class TestValidateCommand:
    def test_validate_defaults_pass(self, capsys):
        code, out, _ = run(capsys, "validate", "--trials", "20000")
        assert code == 0
        assert "7/7 checks passed" in out
