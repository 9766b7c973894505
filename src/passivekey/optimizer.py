"""Outer search over (mu, p_pe), sweep rows and the maximum-distance scan.

The objective R(mu, p_pe) contains clamps, a min over x, and a root-finder,
so it is only piecewise smooth; a deterministic coarse grid followed by
shrinking-rectangle refinement is used instead of gradient methods.  Finite
rows, rows with a pinned p_pe and asymptotic rows all run that one search;
the last two give it equal p_pe bounds, an axis of a single point.  The
source intensity is capped below the divergence threshold of the
sqrt(delta_k p_k) series, mu < (1 - eta_A) / eta_A, with a safety margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelModel, simulate_observables
from .errors import AllVacuous
from .keylength import (X_GRID_POINTS, KeyLengthResult, SecurityBudget,
                        asymptotic_rate, key_length)
from .photonics import SourceModel

MU_SAFETY = 0.99


@dataclass(frozen=True)
class OptimizationSpec:
    """Grid sizes and bounds for the (mu, p_pe) search.

    mu_bounds defaults to (0.01, inf), capped at MU_SAFETY * (1 - eta_A) / eta_A
    (the series-divergence threshold); p_pe_bounds to [0.01, 0.99], and equal
    p_pe bounds pin p_pe to that one value.  The cap is infinite when eta_A is
    0 or subnormal, and then mu_bounds must give a finite upper end.
    """

    mu_bounds: tuple[float, float] = (0.01, math.inf)
    p_pe_bounds: tuple[float, float] = (0.01, 0.99)
    coarse_points: tuple[int, int] = (24, 24)
    refine_rounds: int = 3
    refine_points: tuple[int, int] = (7, 7)
    x_grid_points: int = X_GRID_POINTS

    def __post_init__(self):
        if min(*self.coarse_points, *self.refine_points, self.x_grid_points) < 1:
            raise ValueError("every grid point count must be >= 1")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")
        lo, hi = self.p_pe_bounds
        if not 0 < lo <= hi < 1:
            raise ValueError(
                f"p_pe bounds must satisfy 0 < min <= max < 1, got {lo}, {hi}"
            )

    def resolved_mu_bounds(self, eta_A: float) -> tuple[float, float]:
        lo, hi = self.mu_bounds
        cap = MU_SAFETY * (1.0 - eta_A) / eta_A if eta_A > 0 else math.inf
        hi = min(hi, cap)
        if not math.isfinite(hi):
            raise ValueError(f"mu range [{lo}, {hi}] has no finite upper end "
                             f"for eta_A={eta_A}: set mu_max")
        if not hi > lo:
            raise ValueError(f"empty mu range [{lo}, {hi}] for eta_A={eta_A}")
        return lo, hi


def distance_grid(l0: float, l1: float, step: float) -> list[float]:
    """l0 + i * step up to l1 + 1e-9 (so 0:0.3:0.1 ends at 0.3), rounded to 9 digits."""
    if not (all(map(math.isfinite, (l0, l1, step))) and step > 0):
        raise ValueError(f"distance grid needs finite ends and step > 0, got "
                         f"{l0}:{l1}:{step}")
    out = []
    while l0 + len(out) * step <= l1 + 1e-9:
        out.append(round(l0 + len(out) * step, 9))
    return out


@dataclass(frozen=True)
class OptimizeResult:
    rate: float
    mu: float
    p_pe: float
    result: KeyLengthResult


def _grid_search(evaluate, mu_bounds, spec: OptimizationSpec):
    """Best (rate, mu, p_pe, payload) of evaluate(mu)(p_pe) -> (rate, payload).

    evaluate(mu) does the work shared by a mu row once (the observables
    depend on mu, not p_pe) and returns the function of p_pe that scans the
    row.  A coarse grid, then spec.refine_rounds rectangles around the
    incumbent whose half-widths start at one coarse step and shrink
    threefold a round.  An axis whose ends are equal is a single point, so
    equal p_pe bounds cost one evaluation per mu.  Points are visited mu-major
    and replace the incumbent only with a strictly higher rate, so ties keep
    the earliest point.  With no positive rate on the coarse grid nothing is
    refined and (0.0, nan, nan, None) is returned.
    """
    mu_lo, mu_hi = mu_bounds
    pp_lo, pp_hi = spec.p_pe_bounds
    best = (0.0, math.nan, math.nan, None)

    def scan(mu_ends, pp_ends, points):
        nonlocal best
        mus, ppes = (np.linspace(lo, hi, k if hi > lo else 1)
                     for (lo, hi), k in zip((mu_ends, pp_ends), points))
        for mu in map(float, mus):
            at_mu = evaluate(mu)
            for pp in map(float, ppes):
                rate, payload = at_mu(pp)
                if rate > best[0]:
                    best = (rate, mu, pp, payload)

    scan((mu_lo, mu_hi), (pp_lo, pp_hi), spec.coarse_points)
    if not best[0] > 0.0:
        return best

    mu_step = (mu_hi - mu_lo) / max(spec.coarse_points[0] - 1, 1)
    pp_step = (pp_hi - pp_lo) / max(spec.coarse_points[1] - 1, 1)
    for _ in range(spec.refine_rounds):
        _, mu0, pp0, _ = best
        scan((max(mu_lo, mu0 - mu_step), min(mu_hi, mu0 + mu_step)),
             (max(pp_lo, pp0 - pp_step), min(pp_hi, pp0 + pp_step)),
             spec.refine_points)
        mu_step /= 3.0
        pp_step /= 3.0
    return best


def optimize_rate(
    L_km: float,
    N: float,
    src: SourceModel,
    ch: ChannelModel,
    sec: SecurityBudget,
    spec: OptimizationSpec = OptimizationSpec(),
) -> OptimizeResult:
    """Maximal rate over (mu, p_pe) at fixed distance and pulse count.

    Coarse grid, then shrinking rectangles around the incumbent; the result
    never falls below the best coarse-grid value.  src.mu and ch.L_km are
    overwritten.  Raises AllVacuous when no grid point yields a positive key.
    """
    ch_L = replace(ch, L_km=float(L_km))

    def evaluate(mu):
        src_mu = replace(src, mu=mu)
        obs = simulate_observables(src_mu, ch_L)

        def at(p_pe):
            res = key_length(src_mu, obs, N, p_pe, sec, grid_points=spec.x_grid_points)
            return res.rate, res

        return at

    rate, mu, p_pe, res = _grid_search(
        evaluate, spec.resolved_mu_bounds(src.eta_A), spec
    )
    if not rate > 0.0:
        raise AllVacuous(f"no positive key on the grid at L={L_km} km, N={N:g}")
    return OptimizeResult(rate=rate, mu=mu, p_pe=p_pe, result=res)


def max_distance(
    N: float,
    src: SourceModel,
    ch: ChannelModel,
    sec: SecurityBudget,
    spec: OptimizationSpec = OptimizationSpec(),
    step_km: float = 1.0,
    L_max_km: float = 250.0,
) -> float:
    """Largest distance with a positive optimized rate, bisected to 0.1 km.

    Scans distance_grid(0, L_max_km, step_km) to the first distance with no
    key; returns 0 when L = 0 yields none.  src.mu and ch.L_km are overwritten.
    A probe stops at the coarse grid: some coarse point is positive exactly
    when the refined optimum is, since refinement never lowers the best.
    """
    grid = distance_grid(0.0, L_max_km, step_km)
    coarse = replace(spec, refine_rounds=0)

    def positive(L):
        try:
            return optimize_rate(L, N, src, ch, sec, coarse).rate > 0.0
        except AllVacuous:
            return False

    # index of the first distance with no key, len(grid) if there is none
    i = next((i for i, L in enumerate(grid) if not positive(L)), len(grid))
    if i == 0:
        return 0.0
    if i == len(grid):
        return grid[-1]
    lo, hi = grid[i - 1], grid[i]
    while hi - lo > 0.1:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class SweepRow:
    L_km: float
    N: float
    mode: str
    mu_opt: float
    p_pe_opt: float
    x_opt: float
    ell_T: float
    ell_B: float
    ell: float
    rate: float
    e_p_t: float
    e_p_nt: float
    status: str


def sweep_point(
    L_km: float,
    N: float,
    mode: str,
    src: SourceModel,
    ch: ChannelModel,
    sec: SecurityBudget,
    spec: OptimizationSpec = OptimizationSpec(),
    p_pe_override: float | None = None,
) -> SweepRow:
    """One (L, N) row, vacuous points reported, not raised; src.mu, ch.L_km overwritten.

    p_pe_override is the same as equal p_pe bounds (p, p).  The asymptotic
    rate has no p_pe, so its search pins p_pe to the lower bound.
    """
    if mode == "asymptotic":
        ch_L = replace(ch, L_km=float(L_km))

        def evaluate(mu):
            rate = asymptotic_rate(replace(src, mu=mu), ch_L, f_EC=sec.f_EC)
            return lambda _p_pe: (rate, None)

        pinned = replace(spec, p_pe_bounds=(spec.p_pe_bounds[0],) * 2)
        rate, mu, _, _ = _grid_search(evaluate, spec.resolved_mu_bounds(src.eta_A), pinned)
        return SweepRow(L_km, N, mode, mu, math.nan, math.nan,
                        math.nan, math.nan, math.nan, rate,
                        math.nan, math.nan, "ok" if rate > 0.0 else "vacuous")

    if p_pe_override is not None:
        spec = replace(spec, p_pe_bounds=(p_pe_override, p_pe_override))
    try:
        opt = optimize_rate(L_km, N, src, ch, sec, spec)
    except AllVacuous:
        return SweepRow(L_km, N, mode, math.nan, math.nan, math.nan,
                        0.0, 0.0, 0.0, 0.0, math.nan, math.nan, "vacuous")
    res = opt.result
    x_opt = res.x_opt_T if res.ell_T >= res.ell_B else res.x_opt_B
    return SweepRow(
        L_km, N, mode, opt.mu, opt.p_pe, x_opt,
        res.ell_T, res.ell_B, res.ell, res.rate,
        res.diagnostics.e_p_t, res.diagnostics.e_p_nt, "ok",
    )
