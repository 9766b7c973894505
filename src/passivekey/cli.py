"""Command-line entry point.

``passivekey run`` evaluates finite-key and asymptotic rate sweeps over
(distance, pulse-count) grids and writes one CSV row per point;
``passivekey verify`` runs the seeded Monte Carlo oracle suite against the
concentration bounds and writes a plain-text report plus a CSV of violation
counts.

Configuration is an INI-style file of ``key = value`` lines under section
headers.  ``DEFAULTS`` is the whole schema, and the run reads every key in
it: an empty config reproduces the reference setup, and a ``[DEFAULT]`` key or
a section or key it lacks is a ``ConfigError`` (sections are case-sensitive,
keys are not).  Values are literal (no ``%`` interpolation).  A flag
overrides the file by writing its config keys (``FLAG_KEYS``) before the one
typed parse; ``--p-pe`` writes both p_pe bounds, and equal bounds pin p_pe.

Exit codes: 0 success, 2 configuration error, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields

from .channel import ChannelModel
from .errors import ConfigError, DegenerateDetector, PassiveKeyError, _count, _within
from .keylength import SecurityBudget
from .optimizer import OptimizationSpec, SweepRow, distance_grid, sweep_point
from .oracle import RNG_ALGORITHM, check_lemma3, check_lemma4
from .photonics import SourceModel

CSV_HEADER = ",".join(f.name for f in fields(SweepRow))

DEFAULTS = {
    "source": {"eta_A": "0.5", "d_A": "1e-6"},
    "channel": {"alpha_db_per_km": "0.20", "eta_B": "0.1", "p_d": "6e-7",
                "e_d": "0.005"},
    "security": {"eps_sec": "1e-10", "eps_cor": "1e-12", "f_EC": "1.16"},
    "sweep": {"distances": "10:220:10", "Ns": "1e13", "mode": "finite"},
    "optimizer": {"mu_min": "0.01", "mu_max": "inf", "p_pe_min": "0.01",
                  "p_pe_max": "0.99", "coarse_mu": "24", "coarse_p_pe": "24",
                  "refine_rounds": "3", "refine_mu": "7", "refine_p_pe": "7",
                  "x_grid_points": "200"},
    "output": {"path": "sweep.csv"},
    "verify": {"seed": "1", "trials": "100000", "path": "verify.csv"},
}

# Per command: flag dest -> the (section, key) pairs its value is written to.
FLAG_KEYS = {
    "run": {"mode": [("sweep", "mode")], "sweep": [("sweep", "distances")],
            "N": [("sweep", "Ns")],
            "p_pe": [("optimizer", "p_pe_min"), ("optimizer", "p_pe_max")],
            "out": [("output", "path")]},
    "verify": {"seed": [("verify", "seed")], "trials": [("verify", "trials")],
               "out": [("verify", "path")]},
}


# The oracle suite, one check a row: (CSV name, check, its (size, size,
# fraction, eps) arguments, report line template for its TrialReport r).
_CHECKS = [
    ("lemma3", check_lemma3, (500, 500, 0.03, 1e-3),
     "phase-error sampling bound  n=500 l=500 fraction=0.03 eps=1e-03: "
     "{r.violations}/{r.trials} violations (rate {r.rate:.2e}, allowed {r.bound:.0e})"),
] + [
    ("lemma4", check_lemma4, (n1, n2, 0.1, eps),
     f"two-sample split width     n1={n1:<5} n2={n2:<5} eps={eps:g}: "
     "{r.violations}/{r.trials} exceedances (rate {r.rate:.2e})")
    for n1 in (100, 1000, 10000) for n2 in (100, 1000, 10000) for eps in (0.1, 0.01)
]


@dataclass
class RunConfig:
    source: SourceModel
    channel: ChannelModel
    security: SecurityBudget
    spec: OptimizationSpec
    distances: list[float]
    Ns: list[float]
    mode: str
    out_path: str
    verify_seed: int
    verify_trials: int
    verify_path: str


def _parse_floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def _parse_distances(text: str) -> list[float]:
    """An L0:L1:step range or a comma list, of finite, nonnegative, ascending km."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("a distance range is L0:L1:step")
        grid = distance_grid(*(float(p) for p in parts))
    else:
        grid = _parse_floats(text)
    if not grid:
        raise ValueError("empty distance list" + (" (L1 < L0)" if ":" in text else ""))
    grid = [_within("distance", L, 0, math.inf, "[)") for L in grid]
    if sorted(grid) != grid:
        raise ValueError(f"distances must be ascending, got {grid}")
    return grid


def _parse_Ns(text: str) -> list[float]:
    """A comma list of finite pulse counts N >= 1."""
    Ns = [_within("N", N, 1, math.inf, "[)") for N in _parse_floats(text)]
    if not Ns:
        raise ValueError("empty N list")
    return Ns


def _parse_mode(text: str) -> str:
    if text.strip() not in ("finite", "asymptotic", "both"):
        raise ValueError("mode must be finite|asymptotic|both")
    return text.strip()


def _check_schema(parser: configparser.ConfigParser) -> None:
    """ConfigError naming the first [DEFAULT] key, section or key DEFAULTS lacks."""
    for key in parser.defaults():
        raise ConfigError(f"[DEFAULT] {key}: keys must sit in a named section")
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown section [{section}]")
        for key in sorted(set(parser[section]) - {k.lower() for k in DEFAULTS[section]}):
            raise ConfigError(f"unknown key [{section}] {key}")


def load_config(path: str | None, overrides: argparse.Namespace | None = None) -> RunConfig:
    """Defaults, then the config file, then the non-empty flags; one typed parse."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"config parse error in {path!r}: {exc}") from exc
        _check_schema(parser)
    if overrides is not None:
        for dest, keys in FLAG_KEYS[overrides.command].items():
            value = getattr(overrides, dest)
            value = ",".join(value) if isinstance(value, list) else value
            if value:
                for section, key in keys:
                    parser.set(section, key, value)

    def fval(section, key, kind=float):
        raw = parser.get(section, key)
        try:
            return kind(raw)
        except ValueError as exc:
            what = {int: "an integer", float: "a number"}.get(kind, f"valid: {exc}")
            raise ConfigError(f"[{section}] {key} = {raw!r} is not {what}") from exc

    def fields_of(section):
        """A model's keyword arguments (all but mu and L_km) from its section's keys."""
        return {key: fval(section, key) for key in DEFAULTS[section]}

    def model(section, cls, **fields):
        """cls(**fields), a refusal prefixed with the section they were read from."""
        try:
            return cls(**fields)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc

    spec = model(
        "optimizer", OptimizationSpec,
        mu_bounds=(fval("optimizer", "mu_min"), fval("optimizer", "mu_max")),
        p_pe_bounds=(fval("optimizer", "p_pe_min"), fval("optimizer", "p_pe_max")),
        coarse_points=(fval("optimizer", "coarse_mu", int),
                       fval("optimizer", "coarse_p_pe", int)),
        refine_rounds=fval("optimizer", "refine_rounds", int),
        refine_points=(fval("optimizer", "refine_mu", int),
                       fval("optimizer", "refine_p_pe", int)),
        x_grid_points=fval("optimizer", "x_grid_points", int),
    )
    # a template like L_km=0.0: mu is the first value each row searches
    source = model("source", SourceModel, mu=spec.mu_bounds[0], **fields_of("source"))
    try:
        spec.resolved_mu_bounds(source)
        return RunConfig(
            source=source,
            channel=model("channel", ChannelModel, L_km=0.0, **fields_of("channel")),
            security=model("security", SecurityBudget, **fields_of("security")),
            spec=spec,
            distances=fval("sweep", "distances", _parse_distances),
            Ns=fval("sweep", "Ns", _parse_Ns),
            mode=fval("sweep", "mode", _parse_mode),
            out_path=parser.get("output", "path"),
            verify_seed=_count("[verify] seed", fval("verify", "seed", int), 0),
            verify_trials=_count("[verify] trials", fval("verify", "trials", int), 1),
            verify_path=parser.get("verify", "path"),
        )
    except DegenerateDetector as exc:
        raise ConfigError(f"[source] eta_A = {source.eta_A!r}: the heralding "
                          f"detector cannot tell photon numbers apart: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_writable(key: str, path: str) -> None:
    """ConfigError naming key unless path can be written as a file, before any
    work is done.  An empty path names no file (os.path would read it as the
    working directory's parent)."""
    if not path:
        raise ConfigError(f"{key} = '' is not valid: empty path")
    target = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise ConfigError(f"{key} = {path!r}: cannot write output there")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return format(value, ".17g")


def format_row(row: SweepRow) -> str:
    return ",".join(_fmt(v) for v in astuple(row))


def _row_task(args) -> SweepRow:
    L, N, mode, cfg = args
    return sweep_point(L, N, mode, cfg.source, cfg.channel, cfg.security, cfg.spec)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask (a container's cpuset
    included) where the platform has one, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run(cfg: RunConfig, workers: int = 1) -> int:
    """Write the sweep CSV; rows go to min(workers, rows, usable CPUs) processes."""
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    _check_writable("[output] path", cfg.out_path)
    modes = ["finite", "asymptotic"] if cfg.mode == "both" else [cfg.mode]
    tasks = [(L, N, m, cfg) for L in cfg.distances for N in cfg.Ns for m in modes]
    workers = min(workers, len(tasks), _usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_row_task, tasks))
    else:
        rows = [_row_task(t) for t in tasks]
    with open(cfg.out_path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(format_row(row) + "\n")
    return 0


def run_verify(cfg: RunConfig) -> int:
    """Print the oracle report and write its CSV; a check passes when r.rate <= r.bound."""
    _check_writable("[verify] path", cfg.verify_path)
    seed, trials = cfg.verify_seed, cfg.verify_trials
    csv_rows = ["check,n_or_n1,l_or_n2,rate_or_fraction,eps,violations,trials,"
                "observed_rate,ci_upper_95,seed,rng"]
    ok = True
    print(f"oracle verification  seed={seed} trials={trials} rng={RNG_ALGORITHM}")
    for name, check, (size1, size2, fraction, eps), label in _CHECKS:
        r = check(size1, size2, fraction, eps, trials=trials, seed=seed)
        passed = r.rate <= r.bound
        ok &= passed
        print(label.format(r=r), "PASS" if passed else "FAIL")
        csv_rows.append(f"{name},{size1},{size2},{fraction},{_fmt(eps)},{r.violations},"
                        f"{r.trials},{_fmt(r.rate)},{_fmt(r.ci_upper_95)},{seed},{r.rng}")
    print("RESULT:", "PASS" if ok else "FAIL")
    with open(cfg.verify_path, "w", newline="\n") as fh:
        fh.write("\n".join(csv_rows) + "\n")
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passivekey",
        description="Finite-key secret-key rates for passive decoy-state BB84 "
                    "with an SPDC source.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a rate sweep and write CSV")
    p_run.add_argument("--config", default=None, help="INI config file")
    p_run.add_argument("--mode", choices=["finite", "asymptotic", "both"])
    p_run.add_argument("--sweep", metavar="L0:L1:STEP",
                       help="distance grid in km (or comma list)")
    p_run.add_argument("--N", action="append",
                       help="basis-matched pulse count (the source emits 2N); repeatable")
    p_run.add_argument("--p-pe", dest="p_pe",
                       help="pin p_pe: sets both p_pe_min and p_pe_max")
    p_run.add_argument("--out", help="output CSV path")
    p_run.add_argument("--workers", type=int, default=1,
                       help="worker processes, >= 1; capped at the rows and CPUs")

    p_ver = sub.add_parser("verify", help="run the Monte Carlo oracle suite")
    p_ver.add_argument("--config", default=None)
    p_ver.add_argument("--seed")
    p_ver.add_argument("--trials")
    p_ver.add_argument("--out", help="violation-count CSV path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, overrides=args)
        if args.command == "run":
            return run(cfg, workers=args.workers)
        return run_verify(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PassiveKeyError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
