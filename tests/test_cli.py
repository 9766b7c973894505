"""Configuration loading, CSV output determinism, and exit codes."""

import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passivekey import ConfigError, NoConvergence, OptimizationSpec, simulate_observables
from passivekey import cli
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
        ("run", "[security]\nf_EC = inf\n", []),
        ("run", "[security]\neps_sec = 1e-160\n", []),
        ("run", "[source]\neta_A = 0\n[optimizer]\nmu_max = 0.5\n", []),
        ("run", "[source]\neta_A = 1\n", []),
        ("run", "[security]\neps_cor = 1e-320\n", []),
        ("run", "[security]\neps_cor = 0\n", []),
        ("run", "[security]\neps_sec = 1\n", []),
        ("run", "[channel]\ne_d = 0.6\n", []),
        ("run", "", ["--sweep", "0:10"]),
        ("run", "no section header\n", []),
        ("run", "[sweep]\nNs = ,\n", []),
    ], ids=["coarse_mu", "mu_max", "N", "p_pe", "verify_trials_flag",
            "verify_seed_flag", "verify_trials_key", "verify_seed_key",
            "workers_0", "workers_negative", "N_inf", "sweep_nan", "alpha_nan",
            "run_out_unwritable", "verify_out_unwritable", "source_mu",
            "channel_alpha", "section_optimiser", "section_Optimizer",
            "default_section", "mu_max_empty", "eta_A_zero", "eta_A_subnormal",
            "sweep_p_pe", "f_EC_inf", "eps_sec_underflow",
            "eta_A_zero_mu_max", "eta_A_one", "eps_cor_overflow", "eps_cor_zero",
            "eps_sec_one", "e_d", "sweep_two_parts", "unparsable", "N_empty"])
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

    @pytest.mark.parametrize("command, config, args, named", [
        ("run", "", ["--N", "abc"], "[sweep] Ns = 'abc' "),
        ("run", "", ["--N", "1e9", "--N", "x"], "[sweep] Ns = '1e9,x' "),
        ("run", "", ["--sweep", "10:x:5"], "[sweep] distances = '10:x:5' "),
        ("run", "", ["--sweep", "10,abc"], "[sweep] distances = '10,abc' "),
        ("run", "", ["--sweep", "0:10"], "[sweep] distances = '0:10' "),
        # one x point would read the key at x = 0 alone, not its worst case
        ("run", "[optimizer]\nx_grid_points = 1\n", ["--sweep", "180"],
         "[optimizer] x_grid_points must be >= 2, got 1"),
        ("run", "[channel]\neta_B = 0\n", [], "[channel] eta_B must be in (0, 1], got 0.0"),
        ("run", "[channel]\np_d = 1e-320\n", [],
         "[channel] p_d must be 0 or at least 2.2250738585072014e-308, got 1e-320"),
        ("run", "[source]\nd_A = 1\n", [], "[source] d_A must be in [0, 1), got 1.0"),
        ("run", "[security]\neps_sec = 0\n", [],
         "[security] eps_sec must be in (0, 1), got 0.0"),
        ("run", "", ["--sweep", "50:10:10"],
         "[sweep] distances = '50:10:10' is not valid: empty distance list (L1 < L0)"),
        ("run", "", ["--sweep", "20,10"],
         "[sweep] distances = '20,10' is not valid: distances must be ascending"),
        ("run", "[sweep]\ndistances = -5,10\n", [],
         "[sweep] distances = '-5,10' is not valid: distance must be in [0, inf), got -5.0"),
        ("run", "", ["--N", "0.5"],
         "[sweep] Ns = '0.5' is not valid: N must be in [1, inf), got 0.5"),
        ("run", "", ["--N", "inf"],
         "[sweep] Ns = 'inf' is not valid: N must be in [1, inf), got inf"),
        ("run", "[sweep]\nNs = ,\n", [], "[sweep] Ns = ',' is not valid: empty N list"),
        ("run", "[sweep]\nmode = sideways\n", [], "[sweep] mode = 'sideways' is not valid: "),
        ("run", "[optimizer]\ncoarse_p_pe = 0\n", [],
         "[optimizer] coarse_points[1] must be >= 1, got 0"),
        ("run", "[optimizer]\nmu_min = 0\n", [],
         "[optimizer] mu bounds must satisfy 0 < min < max, got 0.0, inf"),
        # an empty path names no file: refused before any row is computed, or
        # before verify prints its report
        ("run", "[output]\npath =\n", ["--out", ""],
         "[output] path = '' is not valid: empty path"),
        ("verify", "[verify]\npath =\n", ["--out", "", "--trials", "10"],
         "[verify] path = '' is not valid: empty path"),
        # the point count is taken before the grid is built, which would
        # fill the memory
        ("run", "", ["--sweep", "0:10:1e-300"],
         "[sweep] distances = '0:10:1e-300' is not valid: distance grid "
         "0.0:10.0:1e-300 has at least 1e+301 points, more than 1000000"),
    ], ids=["N", "N_second", "sweep_range", "sweep_list", "sweep_two_parts",
            "x_grid_points", "eta_B", "p_d_subnormal", "d_A", "eps_sec",
            "sweep_descending_range", "sweep_descending_list", "sweep_negative",
            "N_below_1", "N_inf", "N_empty", "mode", "coarse_p_pe", "mu_min",
            "output_path_empty", "verify_path_empty", "sweep_too_many_points"])
    def test_error_names_its_key(self, tmp_path, capsys, command, config, args, named):
        # a refused value names its section and key, or the model field the
        # key sets, and the value; the sweep's list keys give their raw value
        # too, as every number key does.  Nothing is printed to stdout first
        out = tmp_path / "sweep.csv"
        assert main([command, "--config", write_config(tmp_path, config),
                     "--out", str(out)] + args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: " + named)
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("optimizer", ["", "mu_max = 0.5\n"],
                             ids=["no_mu_max", "mu_max"])
    def test_blind_heralding_detector_named(self, tmp_path, capsys, optimizer):
        # delta_2 <= delta_1 leaves no decoy bound at any mu: the error names
        # eta_A and does not advise a mu_max that cannot help
        path = write_config(tmp_path, "[source]\neta_A = 0\n[optimizer]\n" + optimizer)
        assert main(["run", "--config", path, "--sweep", "50",
                     "--out", str(tmp_path / "sweep.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [source] eta_A")
        assert "mu_max" not in err

    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # no accepted config is known to fail numerically (eta_A = 0.003 did,
        # through the thermal series' term cap), so a row is made to fail
        def fails(*args):
            raise NoConvergence("series did not converge")

        monkeypatch.setattr(cli, "sweep_point", fails)
        out = tmp_path / "sweep.csv"
        assert main(["run", "--sweep", "50", "--N", "1e9", "--mode", "asymptotic",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == "numerical failure: series did not converge\n"
        assert not out.exists()

    @pytest.mark.parametrize("eta_A", ["0.003", "1e-4"])
    def test_small_heralding_efficiency_runs(self, tmp_path, capsys, eta_A):
        # the mu cap 0.99 (1 - eta_A) / eta_A reaches mu in the hundreds and
        # thousands, where the observables are closed forms with no term cap
        path = write_config(tmp_path, FAST_OPTIMIZER + f"[source]\neta_A = {eta_A}\n")
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", path, "--sweep", "50", "--N", "1e9",
                         "--mode", "both", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[2] for r in rows] == ["finite", "asymptotic"]
        assert rows[1][-1] == "ok"

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

    def test_workers_capped_at_the_affinity_mask(self, tmp_path, monkeypatch):
        # one CPU this process may use, whatever the host has: two workers
        # run the rows serially, with no process pool
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool for one usable CPU")

        path = write_config(tmp_path, FAST_OPTIMIZER)
        outs = [tmp_path / "serial.csv", tmp_path / "capped.csv"]
        assert main(["run", "--config", path, "--sweep", "50,60", "--N", "1e9",
                     "--out", str(outs[0])]) == 0
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        assert main(["run", "--config", path, "--sweep", "50,60", "--N", "1e9",
                     "--workers", "2", "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_percent_in_path_is_literal(self, tmp_path):
        from_file = tmp_path / "file%d%%.csv"
        from_flag = tmp_path / "flag%s.csv"
        path = write_config(tmp_path, FAST_OPTIMIZER + f"[output]\npath = {from_file}\n")
        args = ["run", "--config", path, "--sweep", "50:50:10", "--mode", "asymptotic"]
        assert main(args) == 0
        assert main(args + ["--out", str(from_flag)]) == 0
        assert from_file.read_bytes() == from_flag.read_bytes()

    def test_python_m_entry_point(self, tmp_path):
        # `python -m passivekey` runs from a checkout, with src on the path
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "sweep.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "passivekey", "run", "--sweep", "50",
             "--N", "1e9", "--mode", "asymptotic", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[2] == "asymptotic"

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

    def test_frozen_sweep_rows(self, tmp_path):
        # frozen_sweep.csv holds these rows as first written: finite ok,
        # finite vacuous and asymptotic rows at both N.  A change that is
        # meant to leave every rate as it was must reproduce them.
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
        assert main(["run", "--config", path, "--mode", "both", "--sweep", "0:200:50",
                     "--N", "1e9", "--N", "1e13", "--out", str(out)]) == 0
        frozen = Path(__file__).with_name("frozen_sweep.csv").read_text().splitlines()
        lines = out.read_text().splitlines()
        assert lines[0] == frozen[0] == CSV_HEADER
        assert len(lines) == len(frozen) == 1 + 5 * 2 * 2
        assert {line.split(",")[-1] for line in frozen[1:]} == {"ok", "vacuous"}
        for got, want in zip(lines[1:], frozen[1:]):
            for i, (g, w) in enumerate(zip(got.split(","), want.split(","))):
                if i in (2, 12):  # mode and status
                    assert g == w, (got, want)
                    continue
                g, w = float(g), float(w)
                assert (math.isnan(g) and math.isnan(w)) or math.isclose(
                    g, w, rel_tol=1e-12, abs_tol=0.0), (got, want)

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

    def test_zero_nontriggered_gain_is_vacuous(self, tmp_path):
        # with no dark counts, eta underflows to 0 at 20 000 km and the gains
        # with it: no gain ratio to bound, so no key, in both modes
        path = write_config(tmp_path, FAST_OPTIMIZER + "[channel]\np_d = 0\n")
        out = tmp_path / "sweep.csv"
        assert main(["run", "--config", path, "--sweep", "20000", "--N", "1e9",
                     "--mode", "both", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(r[2], r[9], r[-1]) for r in rows] == [
            ("finite", "0", "vacuous"), ("asymptotic", "0", "vacuous")]

    def test_no_dark_counts_keep_a_key_at_763_km(self, tmp_path, monkeypatch):
        # the gains there are about 1e-17, not 0: the asymptotic row has the
        # key of the 50-digit reference at its mu, within the benchmark's
        # tolerance
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        import reference_impl
        import workloads

        path = write_config(tmp_path, FAST_OPTIMIZER + "[channel]\np_d = 0\n")
        out = tmp_path / "sweep.csv"
        assert main(["run", "--config", path, "--sweep", "763", "--N", "1e9",
                     "--mode", "asymptotic", "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[-1] == "ok"
        cfg = load_config(path)
        src = replace(cfg.source, mu=float(row[3]))
        ch = replace(cfg.channel, L_km=763.0)
        ref = reference_impl.Ref(src.mu, src.eta_A, src.d_A, ch.alpha_db_per_km,
                                 ch.L_km, ch.eta_B, ch.p_d, ch.e_d)
        want = float(workloads.ref_asymptotic_rate(reference_impl, ref,
                                                   cfg.security.f_EC))
        obs = simulate_observables(src, ch)
        assert want > 0.0
        assert abs(float(row[9]) - want) <= workloads.ELL_REL_TOL * (obs.Q_t + obs.Q_nt)

    def test_subnormal_gain_is_vacuous_without_a_warning(self, tmp_path):
        # at 15 450 km with no dark counts Q_nt is subnormal, so each chi / Q_nt
        # overflows: an infinite fluctuation, no finite key, and no warning
        path = write_config(tmp_path, FAST_OPTIMIZER + "[channel]\np_d = 0\n")
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", path, "--sweep", "15450", "--N", "1e9",
                         "--mode", "finite", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].endswith(",vacuous")

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

    def test_verify_deterministic(self, tmp_path, capsys):
        cfg = load_config(None)
        cfg.verify_seed = 5
        cfg.verify_trials = 2000
        from passivekey.cli import run_verify

        streams = []
        for out in ("v1.csv", "v2.csv"):
            cfg.verify_path = str(tmp_path / out)
            assert run_verify(cfg) == 0
            streams.append(capsys.readouterr().out)
        assert streams[0] == streams[1]
        assert (tmp_path / "v1.csv").read_bytes() == (tmp_path / "v2.csv").read_bytes()

    def test_frozen_verify_output(self, tmp_path, capsys):
        # frozen_verify.txt and .csv hold this run's report and CSV as first
        # written; both must replay byte for byte
        out = tmp_path / "verify.csv"
        assert main(["verify", "--seed", "3", "--trials", "2000",
                     "--out", str(out)]) == 0
        here = Path(__file__).parent
        assert capsys.readouterr().out == (here / "frozen_verify.txt").read_text()
        assert out.read_bytes() == (here / "frozen_verify.csv").read_bytes()
