"""Configuration loading, CSV output determinism, and exit codes."""

import io
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passivekey import ConfigError, OptimizationSpec
from passivekey.cli import DEFAULTS, CSV_HEADER, _parse_distances, load_config, main

FAST_OPTIMIZER = """
[optimizer]
coarse_mu = 6
coarse_p_pe = 6
refine_rounds = 1
refine_mu = 3
refine_p_pe = 3
x_grid_points = 40
"""


def write_config(tmp_path, body):
    path = tmp_path / "config.ini"
    path.write_text(body)
    return str(path)


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.source.eta_A == 0.5
        assert cfg.spec.mu_bounds == (0.01, math.inf)
        assert cfg.channel.alpha_db_per_km == 0.20
        assert cfg.security.eps_sec == 1e-10
        assert cfg.security.f_EC == 1.16
        assert cfg.mode == "finite"
        assert cfg.Ns == [1e13]

    def test_default_spec_is_the_library_default(self):
        # DEFAULTS repeats the OptimizationSpec defaults as strings
        assert load_config(None).spec == OptimizationSpec()

    def test_file_overrides(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "[source]\neta_A = 0.3\n"))
        assert cfg.source.eta_A == 0.3
        assert cfg.source.d_A == 1e-6  # untouched default
        # keys are case-insensitive
        cfg = load_config(write_config(tmp_path, "[source]\nETA_A = 0.4\n"))
        assert cfg.source.eta_A == 0.4

    def test_readme_ini_loads(self, tmp_path):
        # the schema is closed, so a stale key in the README's example fails here
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
        assert blocks
        for block in blocks:
            load_config(write_config(tmp_path, block))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_unknown_key_rejected(self, tmp_path_factory, data):
        section = data.draw(st.sampled_from(sorted(DEFAULTS)))
        known = {key.lower() for key in DEFAULTS[section]}
        key = data.draw(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,15}", fullmatch=True)
                        .filter(lambda k: k.lower() not in known))
        path = tmp_path_factory.mktemp("schema") / "config.ini"
        path.write_text(f"[{section}]\n{key} = 1\n")
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key.lower()}")):
            load_config(str(path))

    @pytest.mark.parametrize("body, name", [
        ("[source]\nmu = 0.3\n", "[source] mu"),
        ("[channel]\nalpha = 5\n", "[channel] alpha"),
        ("[optimiser]\n", "[optimiser]"),
        ("[Optimizer]\ncoarse_mu = 3\n", "[Optimizer]"),
        ("[DEFAULT]\nx = 1\n", "[DEFAULT] x"),
    ])
    def test_unknown_name_is_named(self, tmp_path, body, name):
        with pytest.raises(ConfigError, match=re.escape(name)):
            load_config(write_config(tmp_path, body))

    def test_parse_distances(self):
        assert _parse_distances("10:30:10") == [10.0, 20.0, 30.0]
        assert _parse_distances("5,7.5,12") == [5.0, 7.5, 12.0]
        # l0 + i * step: no drift accumulates over a long fractional grid
        grid = _parse_distances("0:9000:0.3")
        assert len(grid) == 30001
        assert grid[-1] == 9000.0

    def test_empty_distance_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="empty distance list"):
            load_config(write_config(tmp_path, "[sweep]\ndistances = ,\n"))

    def test_bad_number(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "[source]\neta_A = banana\n"))

    @pytest.mark.parametrize("body, name", [
        ("[verify]\ntrials = 1e5\n", "[verify] trials"),
        ("[optimizer]\ncoarse_mu = 24.0\n", "[optimizer] coarse_mu"),
    ])
    def test_non_integer_count_says_integer(self, tmp_path, body, name):
        with pytest.raises(ConfigError, match=re.escape(name) + ".* is not an integer"):
            load_config(write_config(tmp_path, body))

    def test_bad_mode(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "[sweep]\nmode = sideways\n"))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.ini")


class TestRunCommand:
    def test_exit_code_on_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "[sweep]\ndistances = 50:10:10\nmode = xyz\n")
        assert main(["run", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config, args", [
        ("run", "[optimizer]\ncoarse_mu = abc\n", []),
        ("run", "[optimizer]\nmu_max = abc\n", []),
        ("run", "", ["--N", "abc"]),
        ("run", "", ["--p-pe", "1.5"]),
        ("verify", "", ["--trials", "0"]),
        ("verify", "", ["--seed", "-1"]),
        ("verify", "[verify]\ntrials = 0\n", []),
        ("verify", "[verify]\nseed = -1\n", []),
        ("run", "", ["--workers", "0"]),
        ("run", "", ["--workers", "-1"]),
        ("run", "", ["--N", "inf"]),
        ("run", "", ["--sweep", "nan"]),
        ("run", "[channel]\nalpha_db_per_km = nan\n", []),
        ("run", "", ["--out", "{tmp}/missing/sweep.csv"]),
        ("verify", "", ["--trials", "100", "--out", "{tmp}/missing/verify.csv"]),
        ("run", "[source]\nmu = 0.3\n", []),
        ("run", "[channel]\nalpha = 5\n", []),
        ("run", "[optimiser]\n", []),
        ("run", "[Optimizer]\ncoarse_mu = 3\n", []),
        ("run", "[DEFAULT]\nx = 1\n", []),
        ("run", "[optimizer]\nmu_max =\n", []),
        ("run", "[source]\neta_A = 0\n", []),
        ("run", "[source]\neta_A = 1e-320\n", []),
        ("run", "[sweep]\np_pe = 0.7\n", []),
    ], ids=["coarse_mu", "mu_max", "N", "p_pe", "verify_trials_flag",
            "verify_seed_flag", "verify_trials_key", "verify_seed_key",
            "workers_0", "workers_negative", "N_inf", "sweep_nan", "alpha_nan",
            "run_out_unwritable", "verify_out_unwritable", "source_mu",
            "channel_alpha", "section_optimiser", "section_Optimizer",
            "default_section", "mu_max_empty", "eta_A_zero", "eta_A_subnormal",
            "sweep_p_pe"])
    def test_bad_input_exits_2(self, tmp_path, capsys, command, config, args):
        path = write_config(tmp_path, config)
        out = tmp_path / "sweep.csv"
        sweep = ["--sweep", "50:50:10"] if command == "run" else []
        args = [a.format(tmp=tmp_path) for a in args]
        assert main([command, "--config", path, *sweep,
                     "--out", str(out)] + args) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "missing").exists()

    def test_mu_min_alone_sets_search_floor(self, tmp_path):
        path = write_config(tmp_path, FAST_OPTIMIZER + "mu_min = 0.6\n")
        out = tmp_path / "sweep.csv"
        assert main(["run", "--config", path, "--sweep", "50:50:10",
                     "--mode", "asymptotic", "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[-1] == "ok"
        assert float(row[3]) >= 0.6

    def test_workers_match_serial(self, tmp_path):
        path = write_config(tmp_path, FAST_OPTIMIZER)
        outs = [tmp_path / "serial.csv", tmp_path / "pool.csv"]
        for workers, out in zip(("1", "2"), outs):
            assert main(["run", "--config", path, "--sweep", "50,60", "--N", "1e9",
                         "--workers", workers, "--out", str(out)]) == 0
        assert len(outs[0].read_text().splitlines()) == 3
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_percent_in_path_is_literal(self, tmp_path):
        from_file = tmp_path / "file%d%%.csv"
        from_flag = tmp_path / "flag%s.csv"
        path = write_config(tmp_path, FAST_OPTIMIZER + f"[output]\npath = {from_file}\n")
        args = ["run", "--config", path, "--sweep", "50:50:10", "--mode", "asymptotic"]
        assert main(args) == 0
        assert main(args + ["--out", str(from_flag)]) == 0
        assert from_file.read_bytes() == from_flag.read_bytes()

    def test_single_coarse_mu_asymptotic(self, tmp_path):
        path = write_config(tmp_path, FAST_OPTIMIZER.replace("coarse_mu = 6",
                                                             "coarse_mu = 1"))
        out = tmp_path / "sweep.csv"
        assert main(["run", "--config", path, "--sweep", "50:50:10",
                     "--mode", "asymptotic", "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[2] == "asymptotic"
        assert row[-1] == "ok"
        assert float(row[9]) > 0.0

    def test_both_mode_row_order(self, tmp_path):
        path = write_config(tmp_path, """
[optimizer]
coarse_mu = 8
coarse_p_pe = 8
refine_rounds = 2
refine_mu = 5
refine_p_pe = 5
x_grid_points = 60
""")
        out = tmp_path / "sweep.csv"
        assert main(["run", "--config", path, "--sweep", "40,50", "--N", "1e9",
                     "--mode", "both", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(float(r[0]), r[2]) for r in rows] == [
            (40.0, "finite"), (40.0, "asymptotic"),
            (50.0, "finite"), (50.0, "asymptotic"),
        ]
        # asymptotic dominates finite at the same point
        rates = [float(r[9]) for r in rows]
        assert rates[1] >= rates[0]
        assert rates[3] >= rates[2]

    def test_csv_deterministic(self, tmp_path):
        path = write_config(tmp_path, FAST_OPTIMIZER)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["run", "--config", path, "--sweep", "50:50:10", "--N", "1e9",
                "--mode", "finite"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_shape_and_roundtrip(self, tmp_path):
        path = write_config(tmp_path, FAST_OPTIMIZER)
        out = tmp_path / "sweep.csv"
        assert main(["run", "--config", path, "--sweep", "50:60:10",
                     "--N", "1e9", "--mode", "both", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2  # two distances x (finite, asymptotic)
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(CSV_HEADER.split(","))
            assert fields[2] in ("finite", "asymptotic")
            assert fields[-1] in ("ok", "vacuous")
            # 17-significant-digit formatting round-trips exactly
            rate = fields[9]
            assert format(float(rate), ".17g") == rate

    def test_vacuous_rows_reported_not_fatal(self, tmp_path):
        path = write_config(tmp_path, FAST_OPTIMIZER)
        out = tmp_path / "sweep.csv"
        assert main(["run", "--config", path, "--sweep", "200:200:10",
                     "--N", "1e6", "--mode", "finite", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].endswith("vacuous")

    def test_p_pe_pin(self, tmp_path):
        path = write_config(tmp_path, FAST_OPTIMIZER)
        out = tmp_path / "sweep.csv"
        assert main(["run", "--config", path, "--sweep", "50:50:10",
                     "--N", "1e9", "--p-pe", "0.7", "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[4]) == pytest.approx(0.7, rel=1e-12)

    def test_p_pe_flag_is_equal_bounds(self, tmp_path):
        # --p-pe writes both p_pe bounds: the same run as a config that does
        flag = write_config(tmp_path, FAST_OPTIMIZER)
        bounds = tmp_path / "bounds.ini"
        bounds.write_text(FAST_OPTIMIZER + "p_pe_min = 0.7\np_pe_max = 0.7\n")
        outs = [tmp_path / "flag.csv", tmp_path / "bounds.csv"]
        args = ["--sweep", "50,200", "--N", "1e9", "--mode", "both"]
        assert main(["run", "--config", flag, "--p-pe", "0.7", *args,
                     "--out", str(outs[0])]) == 0
        assert main(["run", "--config", str(bounds), *args,
                     "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestVerifyCommand:
    def test_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--seed", "3", "--trials", "2000",
                     "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "RESULT: PASS" in captured
        lines = out.read_text().splitlines()
        assert lines[0].startswith("check,")
        assert len(lines) == 1 + 1 + 18  # header + lemma3 + 3x3x2 lemma4 grid

    def test_verify_deterministic(self, tmp_path):
        cfg = load_config(None)
        cfg.verify_seed = 5
        cfg.verify_trials = 2000
        from passivekey.cli import run_verify

        streams = []
        for out in ("v1.csv", "v2.csv"):
            cfg.verify_path = str(tmp_path / out)
            buf = io.StringIO()
            assert run_verify(cfg, report_stream=buf) == 0
            streams.append(buf.getvalue())
        assert streams[0] == streams[1]
        assert (tmp_path / "v1.csv").read_bytes() == (tmp_path / "v2.csv").read_bytes()
