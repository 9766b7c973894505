"""Workloads of the passivekey benchmark: inputs from a seed, operations, checks.

Every workload calls the package only through the calls a user makes
(``optimizer.optimize_rate``, ``cli.main`` and ``keylength.key_length``),
looked up on the module at call time so that the traced run can wrap them.
The package receives only the generated inputs, never the seed.

Source, channel and security settings are the README defaults: SPDC source
with eta_A = 0.5 and d_A = 1e-6, 0.2 dB/km fibre, eta_B = 0.1, p_d = 6e-7,
e_d = 0.005, eps_sec = 1e-10, eps_cor = 1e-12 and f_EC = 1.16.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import passivekey.cli as cli  # noqa: E402
import passivekey.keylength as keylength  # noqa: E402
import passivekey.optimizer as optimizer  # noqa: E402
from passivekey.channel import ChannelModel, simulate_observables  # noqa: E402
from passivekey.errors import AllVacuous  # noqa: E402
from passivekey.keylength import SecurityBudget  # noqa: E402
from passivekey.photonics import SourceModel  # noqa: E402

SRC = SourceModel(mu=0.5, eta_A=0.5, d_A=1e-6)
CHANNEL = ChannelModel(alpha_db_per_km=0.20, L_km=0.0, eta_B=0.1, p_d=6e-7,
                       e_d=0.005)
SEC = SecurityBudget(eps_sec=1e-10, eps_cor=1e-12, f_EC=1.16)

FROZEN_PATH = Path(__file__).resolve().parent / "frozen.json"

# headline: the paper point for seed 0, else a narrow band around it.
PAPER_POINT = (50.0, 1e9)
HEADLINE_L_KM = (49.0, 51.0)
HEADLINE_LOG10_N = (8.98, 9.02)
HEADLINE_INPUTS = 8

# sweep: N = 1e13, where this optimizer grid reaches 178.2 km.  Row i sits
# at 10 + 16 i km plus a seeded offset below 6 km, so rows 0-10 (up to
# 176 km) give a key and rows 11-13 (from 186 km) are vacuous for every
# seed: the vacuous share is 3/14 whatever the seed.  The reduced grid keeps
# a row near one second, so one run holds a whole pass over the rows.
SWEEP_N = 1e13
SWEEP_ROWS = 14
SWEEP_OPTIMIZER = {"coarse_mu": "8", "coarse_p_pe": "8", "refine_rounds": "2",
                   "refine_mu": "5", "refine_p_pe": "5"}

# asymptotic: one row per km over 0-240 km with a seeded sub-km offset; the
# rows past the 206 km reach (about 15 %) stay a minority, so the median row
# is a keyed one for every seed.
ASYMPTOTIC_N = 1e13
ASYMPTOTIC_ROWS = 240

# analysis: a pool of measured-data tuples, Latin-hypercube sampled so every
# seed covers each parameter range evenly.
ANALYSIS_POOL = 256
ANALYSIS_MU = (0.05, 0.6)
ANALYSIS_L_KM = (0.0, 150.0)
ANALYSIS_LOG10_N = (8.0, 15.0)
ANALYSIS_P_PE = (0.05, 0.95)

# A reported ell re-evaluated by the 50-digit reference may differ by this
# share of N (Q_t + Q_nt), the detection count that bounds every term of ell.
ELL_REL_TOL = 1e-9
# Rates may differ from the frozen ones by this share, plus one bit of ell
# (finite rows; the floor of ell may flip) or 1e-13 per pulse (asymptotic).
FROZEN_REL_TOL = 1e-6
ASYMPTOTIC_ABS_TOL = 1e-13


@dataclass(frozen=True)
class Outcome:
    """What one operation returned, in the form the checks need."""

    index: int
    L_km: float
    N: float
    status: str                  # ok | vacuous | error
    rate: float = math.nan
    mu: float = math.nan
    p_pe: float = math.nan
    x: float = math.nan
    which: str = ""
    ell: float = math.nan        # winning ell before the floor
    csv: str = ""
    error: str = ""


@dataclass
class Workload:
    name: str
    order: list[int]                       # op k runs input order[k % len(order)]
    call: Callable[[int], object]          # timed; may raise
    outcome: Callable[[int, object, BaseException | None], Outcome]
    trace_ops: int                         # fixed op count of the traced run
    ref_samples: int                       # outcomes re-evaluated in mpmath
    kind: str                              # finite | asymptotic

    def run(self, k: int) -> tuple[float, Outcome]:
        """Run op k; return its wall time and outcome.  A raise is an outcome."""
        i = self.order[k % len(self.order)]
        exc = value = None
        start = time.perf_counter()
        try:
            value = self.call(i)
        except Exception as e:  # outcome() decides: vacuous or a failed op
            exc = e
        elapsed = time.perf_counter() - start
        return elapsed, self.outcome(i, value, exc)


def _stride_order(n: int) -> list[int]:
    """A fixed permutation of range(n) whose every prefix spreads over the range."""
    stride = round(0.618 * n)
    while math.gcd(stride, n) != 1:
        stride += 1
    return [(k * stride) % n for k in range(n)]


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    cells = list(range(n))
    rng.shuffle(cells)
    return [lo + (hi - lo) * (c + rng.random()) / n for c in cells]


def _finite_outcome(index, L, N, mu, p_pe, res) -> Outcome:
    which = "T" if res.ell_T >= res.ell_B else "B"
    return Outcome(index, L, N, "ok" if res.ell > 0 else "vacuous", res.rate,
                   mu, p_pe, res.x_opt_T if which == "T" else res.x_opt_B,
                   which, max(res.ell_T, res.ell_B))


def _error(index, L, N, exc) -> Outcome:
    return Outcome(index, L, N, "error", error=f"{type(exc).__name__}: {exc}")


def headline(seed: int, out_dir: Path) -> Workload:
    rng = random.Random(seed)
    points = [PAPER_POINT if seed == 0 else
              (round(rng.uniform(*HEADLINE_L_KM), 3),
               float(f"{10 ** rng.uniform(*HEADLINE_LOG10_N):.4g}"))
              for _ in range(HEADLINE_INPUTS)]

    def call(i):
        L, N = points[i]
        return optimizer.optimize_rate(L, N, SRC, CHANNEL, SEC)

    def outcome(i, opt, exc):
        L, N = points[i]
        if isinstance(exc, AllVacuous):
            return Outcome(i, L, N, "vacuous", 0.0)
        if exc is not None:
            return _error(i, L, N, exc)
        return _finite_outcome(i, L, N, opt.mu, opt.p_pe, opt.result)

    return Workload("headline", list(range(len(points))), call, outcome,
                    trace_ops=1, ref_samples=1, kind="finite")


def analysis(seed: int, out_dir: Path) -> Workload:
    rng = random.Random(seed)
    n = ANALYSIS_POOL
    columns = zip(_stratified(rng, n, *ANALYSIS_MU),
                  _stratified(rng, n, *ANALYSIS_L_KM),
                  _stratified(rng, n, *ANALYSIS_LOG10_N),
                  _stratified(rng, n, *ANALYSIS_P_PE))
    inputs = []
    for mu, L, log10_N, p_pe in columns:
        src = replace(SRC, mu=mu)
        obs = simulate_observables(src, replace(CHANNEL, L_km=L))
        inputs.append((src, obs, 10.0 ** log10_N, p_pe, L))

    def call(i):
        src, obs, N, p_pe, _ = inputs[i]
        return keylength.key_length(src, obs, N, p_pe, SEC)

    def outcome(i, res, exc):
        src, _, N, p_pe, L = inputs[i]
        if exc is not None:
            return _error(i, L, N, exc)
        return _finite_outcome(i, L, N, src.mu, p_pe, res)

    return Workload("analysis", list(range(n)), call, outcome,
                    trace_ops=n, ref_samples=3, kind="finite")


def _cli_workload(name, mode, distances, N, optimizer_cfg, out_dir,
                  trace_ops, ref_samples) -> Workload:
    """One ``passivekey run`` per row, so each row is timed on its own."""
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / f"{name}.ini"
    sections = {
        "source": {"eta_A": SRC.eta_A, "d_A": SRC.d_A},
        "channel": {"alpha_db_per_km": CHANNEL.alpha_db_per_km,
                    "eta_B": CHANNEL.eta_B, "p_d": CHANNEL.p_d,
                    "e_d": CHANNEL.e_d},
        "security": {"eps_sec": SEC.eps_sec, "eps_cor": SEC.eps_cor,
                     "f_EC": SEC.f_EC},
        "optimizer": optimizer_cfg,
    }
    config.write_text("".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
        for section, values in sections.items()))
    csv_path = out_dir / f"{name}.csv"

    def call(i):
        code = cli.main(["run", "--config", str(config), "--mode", mode,
                         "--sweep", repr(distances[i]), "--N", repr(N),
                         "--out", str(csv_path)])
        return code, csv_path.read_text()

    def outcome(i, value, exc):
        L = distances[i]
        if exc is not None:
            return _error(i, L, N, exc)
        code, text = value
        lines = text.splitlines()
        if code != 0 or len(lines) != 2:
            return Outcome(i, L, N, "error", error=f"exit code {code}, "
                           f"{len(lines)} CSV lines")
        row = dict(zip(cli.CSV_HEADER.split(","), lines[1].split(",")))
        if mode == "asymptotic" or row["status"] != "ok":
            return Outcome(i, L, N, row["status"], float(row["rate"]),
                           float(row["mu_opt"]), csv=lines[1])
        ell_T, ell_B = float(row["ell_T"]), float(row["ell_B"])
        return Outcome(i, L, N, "ok", float(row["rate"]), float(row["mu_opt"]),
                       float(row["p_pe_opt"]), float(row["x_opt"]),
                       "T" if ell_T >= ell_B else "B", max(ell_T, ell_B),
                       csv=lines[1])

    return Workload(name, _stride_order(len(distances)), call,
                    outcome, trace_ops=trace_ops, ref_samples=ref_samples,
                    kind=mode)


def sweep(seed: int, out_dir: Path) -> Workload:
    rng = random.Random(seed)
    distances = [round(10.0 + 16.0 * i + 6.0 * rng.random(), 3)
                 for i in range(SWEEP_ROWS)]
    return _cli_workload("sweep", "finite", distances, SWEEP_N, SWEEP_OPTIMIZER,
                         out_dir, trace_ops=4, ref_samples=2)


def asymptotic(seed: int, out_dir: Path) -> Workload:
    offset = random.Random(seed).random()
    distances = [round(i + offset, 3) for i in range(ASYMPTOTIC_ROWS)]
    return _cli_workload("asymptotic", "asymptotic", distances, ASYMPTOTIC_N,
                         {}, out_dir, trace_ops=150, ref_samples=2)


WORKLOADS = {"headline": headline, "sweep": sweep, "analysis": analysis,
             "asymptotic": asymptotic}


# ---------------------------------------------------------------- checks


def _reference():
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import reference_impl

    return reference_impl


def _ref_model(ref_impl, mu, L):
    return ref_impl.Ref(mu, SRC.eta_A, SRC.d_A, CHANNEL.alpha_db_per_km, L,
                        CHANNEL.eta_B, CHANNEL.p_d, CHANNEL.e_d)


def _detections(mu, L):
    obs = simulate_observables(replace(SRC, mu=mu), replace(CHANNEL, L_km=L))
    return obs.Q_t + obs.Q_nt


def ref_asymptotic_rate(ref_impl, ref, f_EC, grid_points=400):
    """Infinite-N rate at one mu in 50 digits, minimised over the same x grid.

    Mirrors ``keylength.asymptotic_rate``: no fluctuation terms and no log
    penalties; each strategy takes its minimum over x on a uniform grid of
    the admissible interval.
    """
    mp, h = ref_impl.mp, ref_impl._h2
    Qt, Qnt, Et, Ent = ref.observables()
    delta = Qt / Qnt
    d0, d1, d2 = ref.delta(0), ref.delta(1), ref.delta(2)
    hi = min(2 * Et * delta / d0, 2 * Ent)
    xs = [hi * k / (grid_points - 1) for k in range(grid_points)] if hi > 0 else [0]

    def one_minus_h(w):
        return 1 - h(min(max(w, mp.mpf(0)), mp.mpf("0.5"))) if w is not None else 0

    ell_t = ell_b = mp.inf
    for x in xs:
        z = ((d2 - delta) - (d2 - d0) * x) / (d2 - d1)
        g_t = one_minus_h((2 * delta * Et - d0 * x) / (2 * d1 * z) if z > 0 else None)
        g_nt = one_minus_h((2 * Ent - x) / (2 * z) if z > 0 else None)
        sp_t, sp_nt = max(d1 * z, 0), max(z, 0)
        ell_t = min(ell_t, Qnt * (max(d0 * x, 0) + sp_t * g_t))
        ell_b = min(ell_b, Qnt * (max(d0 * x + x, 0) + sp_t * g_t + sp_nt * g_nt))
    lam_t = Qt * f_EC * h(Et)
    lam_nt = Qnt * f_EC * h(Ent)
    return max(ell_t - lam_t, ell_b - lam_t - lam_nt, 0) / 2


def reference_failure(w: Workload, out: Outcome) -> str | None:
    """Why an ``ok`` outcome disagrees with the mpmath reference, or None."""
    ref_impl = _reference()
    ref = _ref_model(ref_impl, out.mu, out.L_km)
    if w.kind == "asymptotic":
        expected = float(ref_asymptotic_rate(ref_impl, ref, SEC.f_EC))
        if abs(out.rate - expected) > ELL_REL_TOL * _detections(out.mu, out.L_km):
            return f"asymptotic rate {out.rate!r} vs reference {expected!r}"
        return None
    expected = float(ref_impl.ref_ell(out.which, ref, out.x, out.N, out.p_pe,
                                      SEC.eps_sec, SEC.eps_cor, SEC.f_EC))
    if abs(out.ell - expected) > ELL_REL_TOL * out.N * _detections(out.mu, out.L_km):
        return f"ell_{out.which} {out.ell!r} vs reference {expected!r}"
    return None


def load_frozen() -> dict:
    return json.loads(FROZEN_PATH.read_text())


def frozen_failure(w: Workload, out: Outcome, frozen_rows) -> str | None:
    """Why ``out`` differs from the frozen output of its input, or None."""
    if frozen_rows is None or out.index >= len(frozen_rows):
        return None
    rate, status = frozen_rows[out.index]
    slack = ASYMPTOTIC_ABS_TOL if w.kind == "asymptotic" else 0.5 / out.N
    if out.status != status or abs(out.rate - rate) > FROZEN_REL_TOL * rate + slack:
        return f"{out.status} rate {out.rate!r}, frozen {status} rate {rate!r}"
    return None


def check(w: Workload, outcomes: list[Outcome], seed: int) -> dict[int, str]:
    """Failure reason per op, from every check that runs after timing.

    An op fails when it raised anything but the documented vacuous outcome,
    when a CSV row differs from another pass over the same input, when its
    rate or status differs from the frozen output of a shipped seed, or
    when, for a seeded sample, the mpmath reference disagrees with it.
    """
    failures = {}
    frozen_rows = load_frozen()[w.name].get(str(seed))
    first_pass = {}
    for k, out in enumerate(outcomes):
        if out.status == "error":
            failures[k] = out.error
        elif out.csv and first_pass.setdefault(out.index, out.csv) != out.csv:
            failures[k] = "CSV row differs from an earlier pass"
        else:
            reason = frozen_failure(w, out, frozen_rows)
            if reason:
                failures[k] = reason
    first_op = {}
    for k, out in enumerate(outcomes):
        if k not in failures and out.status == "ok":
            first_op.setdefault(out.index, k)
    sample = random.Random(seed).sample(sorted(first_op.values()),
                                        min(w.ref_samples, len(first_op)))
    for k in sample:
        out = outcomes[k]
        reason = reference_failure(w, out)
        if not reason and out.csv and w.run(k)[1].csv != out.csv:
            reason = "CSV row differs on a second pass"
        if reason:
            failures[k] = reason
    return failures
