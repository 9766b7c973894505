"""Outer search over (mu, p_pe), sweep rows and the maximum-distance scan.

The objective R(mu, p_pe) contains clamps, a min over x, and a root-finder,
so it is only piecewise smooth; a deterministic coarse grid followed by
shrinking-rectangle refinement is used instead of gradient methods.  The
optimum is the best of grid walks that carry the incumbent.  A mu row is
one generator of the points it evaluates; once the walk holds a key, a
finite row is one key_lengths call handed the incumbent, which leaves out
the points whose x_range ends show they cannot beat it (the rule is in
keylength._minimize_over_x), so every result is the one the full walk
gives.  Reach asks only whether any coarse point has a key.  A sweep row,
finite or asymptotic, is one search call (a spec that pins p_pe has equal
p_pe bounds, an axis of one point); only optimize_rate raises AllVacuous,
for outside callers.
The source intensity is capped below the divergence threshold of the
sqrt(delta_k p_k) series, mu < (1 - eta_A) / eta_A, with a safety margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelModel, simulate_observables
from .decoy_bounds import _deltas
from .errors import AllVacuous, _count, _within
from .keylength import (X_GRID_POINTS, KeyLengthResult, SecurityBudget,
                        asymptotic_rate, key_length, key_lengths)
from .photonics import SourceModel

MU_SAFETY = 0.99
_NO_KEY = (0.0, math.nan, math.nan, None)  # (rate, mu, p_pe, payload) before a key


@dataclass(frozen=True)
class OptimizationSpec:
    """Grid sizes and bounds for the (mu, p_pe) search.

    mu_bounds defaults to (0.01, inf), needs 0 < min < max and is capped at
    MU_SAFETY * (1 - eta_A) / eta_A (the series-divergence threshold);
    p_pe_bounds defaults to [0.01, 0.99], and equal p_pe bounds pin p_pe to
    that one value.  A detector that passes the delta_2 > delta_1 rule has
    eta_A > 0 and a finite cap.  x_grid_points is at least 2: x is minimised
    over, never fixed (one point reads x = 0).
    """

    mu_bounds: tuple[float, float] = (0.01, math.inf)
    p_pe_bounds: tuple[float, float] = (0.01, 0.99)
    coarse_points: tuple[int, int] = (24, 24)
    refine_rounds: int = 3
    refine_points: tuple[int, int] = (7, 7)
    x_grid_points: int = X_GRID_POINTS

    def __post_init__(self):
        for name, counts in (("coarse_points", self.coarse_points),
                             ("refine_points", self.refine_points)):
            for i, count in enumerate(counts):
                _count(f"{name}[{i}]", count, 1)
        _count("refine_rounds", self.refine_rounds, 0)
        _count("x_grid_points", self.x_grid_points, 2)
        lo, hi = self.mu_bounds
        if not 0 < lo < hi:
            raise ValueError(f"mu bounds must satisfy 0 < min < max, got {lo}, {hi}")
        lo, hi = self.p_pe_bounds
        if not 0 < lo <= hi < 1:
            raise ValueError(f"p_pe bounds must satisfy 0 < min <= max < 1, got {lo}, {hi}")

    def resolved_mu_bounds(self, src: SourceModel) -> tuple[float, float]:
        """The searched mu interval; DegenerateDetector unless delta_2 > delta_1."""
        _deltas(src)  # no decoy bound at any mu otherwise; delta_n reads no mu
        lo, hi = self.mu_bounds
        hi = min(hi, MU_SAFETY * (1.0 - src.eta_A) / src.eta_A)
        if not hi > lo:
            raise ValueError(f"empty mu range [{lo}, {hi}] for eta_A={src.eta_A}")
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


def _walk(evaluate, mu_ends, pp_ends, points, best=_NO_KEY, first=False):
    """The best (rate, mu, p_pe, payload) of best and one grid, walked
    mu-major.

    evaluate(mu, ppes, incumbent) is handed a mu row's p_pe axis and the
    incumbent rate at the row's start, and yields (j, rate, payload) for the
    points (mu, ppes[j]) it evaluates, in walk order; it may leave out a
    point that cannot beat the incumbent.  An axis with equal ends is one
    point.  A point replaces best only with a higher rate, so ties keep the
    earliest point.  first=True returns at the first point that does, and
    the lazy row evaluates nothing past it.
    """
    mus, ppes = (np.linspace(lo, hi, k if hi > lo else 1)
                 for (lo, hi), k in zip((mu_ends, pp_ends), points))
    for mu in map(float, mus):
        for j, rate, payload in evaluate(mu, ppes, best[0]):
            if rate > best[0]:
                best = rate, mu, float(ppes[j]), payload
                if first:
                    return best
    return best


def _grid_search(evaluate, mu_bounds, spec: OptimizationSpec):
    """Best (rate, mu, p_pe, payload) of the rows evaluate(mu, ppes, incumbent)
    yields (see _walk).

    The _walk of the coarse grid, then of spec.refine_rounds rectangles
    around the incumbent, half-widths one coarse step shrinking threefold a
    round; every walk starts from the incumbent, so ties keep the earliest
    point.  A finite row leaves out only points that _finite's rule shows
    cannot replace the incumbent.  With no positive coarse rate nothing is
    refined and (0.0, nan, nan, None) is returned.
    """
    mu_lo, mu_hi = mu_bounds
    pp_lo, pp_hi = spec.p_pe_bounds
    best = _walk(evaluate, mu_bounds, spec.p_pe_bounds, spec.coarse_points)
    if not best[0] > 0.0:
        return best

    mu_step = (mu_hi - mu_lo) / max(spec.coarse_points[0] - 1, 1)
    pp_step = (pp_hi - pp_lo) / max(spec.coarse_points[1] - 1, 1)
    for _ in range(spec.refine_rounds):
        _, mu0, pp0, _ = best
        best = _walk(evaluate, (max(mu_lo, mu0 - mu_step), min(mu_hi, mu0 + mu_step)),
                     (max(pp_lo, pp0 - pp_step), min(pp_hi, pp0 + pp_step)),
                     spec.refine_points, best)
        mu_step /= 3.0
        pp_step /= 3.0
    return best


def _finite(L_km, N, src, ch, sec, spec):
    """evaluate(mu, ppes, incumbent) for _walk: the finite key at L_km km,
    N pulses, (mu, ppes[j]).

    The pruning rule: once the walk holds a positive incumbent, a point
    whose rate the key's own ell at the two ends of x_range shows cannot be
    above it is not searched (keylength._minimize_over_x states the bound),
    as it could not replace the incumbent.  A row tracks the incumbent as
    the walk does.  While it is not positive, the row makes one key_length
    call a point.  At the first point j that meets a positive incumbent, the
    row hands ppes[j:] and that incumbent to one key_lengths call, one
    (strategy, p_pe, x) tensor a round, and yields the points it does not
    drop; so a row makes at most one key_lengths call.  Judging against the
    incumbent the batch started with keeps points the point-by-point rule
    might prune later in the row, but such a point's rate is below the
    incumbent at its turn, so it replaces nothing and the walk's result is
    unchanged.  A row with no nontriggered gain (Q_nt = 0) has no key at any
    p_pe and makes no call, as asymptotic_rate reads it.
    """
    ch_L = replace(ch, L_km=float(L_km))

    def evaluate(mu, ppes, incumbent):
        src_mu = replace(src, mu=mu)
        obs = simulate_observables(src_mu, ch_L)
        if obs.Q_nt == 0:
            return
        for j, p_pe in enumerate(map(float, ppes)):
            if incumbent > 0.0:  # the rest of the row: one batch
                batch = key_lengths(src_mu, obs, N, ppes[j:], sec, spec.x_grid_points,
                                    incumbent)
                yield from ((k, res.rate, res) for k, res in enumerate(batch, j)
                            if res is not None)
                return
            res = key_length(src_mu, obs, N, p_pe, sec, grid_points=spec.x_grid_points)
            incumbent = max(incumbent, res.rate)
            yield j, res.rate, res

    return evaluate


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
    evaluate = _finite(L_km, N, src, ch, sec, spec)
    rate, mu, p_pe, res = _grid_search(evaluate, spec.resolved_mu_bounds(src), spec)
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
    A probe is the coarse _walk up to its first key (nothing is skipped
    before one): exact, as refinement never lowers the coarse best.
    """
    _within("L_max_km", L_max_km, 0, math.inf, "[)")
    grid = distance_grid(0.0, L_max_km, step_km)
    mu_bounds = spec.resolved_mu_bounds(src)

    def positive(L):
        rate, *_ = _walk(_finite(L, N, src, ch, sec, spec), mu_bounds,
                         spec.p_pe_bounds, spec.coarse_points, first=True)
        return rate > 0.0

    # index of the first distance with no key, len(grid) if there is none
    i = next((i for i, L in enumerate(grid) if not positive(L)), len(grid))
    if i == 0:
        return 0.0
    if i == len(grid):
        return grid[-1]
    lo, hi = grid[i - 1], grid[i]
    while hi - lo > 0.1:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if positive(mid) else (lo, mid)
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
) -> SweepRow:
    """One (L, N) row from one _grid_search, no key reported as "vacuous".

    An asymptotic row searches mu only: its generator yields one point a mu
    row, j = 0, whatever the p_pe axis.  Equal spec.p_pe_bounds (p, p) pin
    p_pe in a finite row.  src.mu and ch.L_km are overwritten.
    """
    if mode not in ("finite", "asymptotic"):
        raise ValueError(f"mode must be 'finite' or 'asymptotic', got {mode!r}")
    _within("N", N, 1, math.inf, "[)")
    if mode == "finite":
        evaluate = _finite(L_km, N, src, ch, sec, spec)
    else:
        ch_L = replace(ch, L_km=float(L_km))

        def evaluate(mu, _ppes, _incumbent):
            yield 0, asymptotic_rate(replace(src, mu=mu), ch_L, f_EC=sec.f_EC), None

    rate, mu, p_pe, res = _grid_search(evaluate, spec.resolved_mu_bounds(src), spec)
    if res is None:  # every asymptotic row, and a finite row with no key
        ell = 0.0 if mode == "finite" else math.nan
        return SweepRow(L_km, N, mode, mu, math.nan, math.nan, ell, ell, ell, rate,
                        math.nan, math.nan, "ok" if rate > 0.0 else "vacuous")
    x_opt = res.x_opt_T if res.ell_T >= res.ell_B else res.x_opt_B
    return SweepRow(L_km, N, mode, mu, p_pe, x_opt, res.ell_T, res.ell_B, res.ell,
                    rate, res.diagnostics.e_p_t, res.diagnostics.e_p_nt, "ok")
