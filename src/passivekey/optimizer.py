"""Outer search over (mu, p_pe), sweep rows and the maximum-distance scan.

The objective R(mu, p_pe) contains clamps, a min over x, and a root-finder,
so it is only piecewise smooth; a deterministic coarse grid followed by
shrinking-rectangle refinement is used instead of gradient methods.  The
optimum is the best of grid walks that carry the incumbent; each walk gives
what a walk of every point in mu-major order gives, the first point with
the highest rate where that rate is above the incumbent's.

A walk is best-first.  Until it holds a key it takes its points one at a
time in walk order (a finite point is one key_length call).  From its
first key on, and from the start of a walk handed one, it bounds the rate
of every point left with one call (keylength.end_bounds, one tensor over
the points at three x values of their first x round, for the finite key;
the rate itself for the asymptotic one) and searches those with the highest
bounds: the top one alone first, as it is often the best and then rules out
the rest, and BATCH points at a time after it (a finite batch is one
key_lengths call, on the columns the bound was taken on).  The
pruning rule: a point is not searched once its bound is below the best
rate, or equal to it while the best point is the incumbent handed in or
comes earlier in walk order; its rate is at most its bound, so it could
not replace the best.  Reach asks only whether any coarse point has a key.
A sweep row, finite or asymptotic, is one search (a spec that pins p_pe has
equal p_pe bounds, an axis of one point); only optimize_rate raises
AllVacuous, for outside callers.
The source intensity is capped below the divergence threshold of the
sqrt(delta_k p_k) series, mu < (1 - eta_A) / eta_A, with a safety margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelModel, Observables, simulate_observables
from .decoy_bounds import _deltas
from .errors import AllVacuous, _count, _within
from .keylength import (X_GRID_POINTS, KeyLengthResult, SecurityBudget,
                        asymptotic_rate, end_bounds, key_length, key_lengths)
from .photonics import SourceModel

MU_SAFETY = 0.99
BATCH = 8  # the points one best-first step searches, after the first
MAX_DISTANCES = 10**6  # the points a distance grid may hold
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
    """l0 + i * step up to l1 + 1e-9 (so 0:0.3:0.1 ends at 0.3), rounded to 9 digits.

    The point count is taken in closed form first, and a grid of more than
    MAX_DISTANCES points is refused before any list is built."""
    if not (all(map(math.isfinite, (l0, l1, step))) and step > 0):
        raise ValueError(f"distance grid needs finite ends and step > 0, got "
                         f"{l0}:{l1}:{step}")
    top = l1 + 1e-9
    count = max((top - l0) // step + 1, 0.0)  # up to the division's rounding
    if count <= MAX_DISTANCES + 1:  # mended to the test l0 + i * step <= top
        count = int(count)
        while count and l0 + (count - 1) * step > top:
            count -= 1
        while count <= MAX_DISTANCES and l0 + count * step <= top:
            count += 1
    if count > MAX_DISTANCES:
        raise ValueError(f"distance grid {l0}:{l1}:{step} has at least {count:.7g} "
                         f"points, more than {MAX_DISTANCES}")
    return [round(l0 + i * step, 9) for i in range(count)]


@dataclass(frozen=True)
class OptimizeResult:
    rate: float
    mu: float
    p_pe: float
    result: KeyLengthResult


def _walk(mode, mu_ends, pp_ends, points, best=_NO_KEY, first=False):
    """The best (rate, mu, p_pe, payload) of best and one grid, walked
    mu-major: the first point in walk order with the highest rate, where
    that rate is above best's.

    mode gives the rates (see _Finite): mode.row(mu, ppes) yields (j, rate,
    payload) of the points (mu, ppes[j]) one at a time, in walk order, and
    may leave out points with no key; mode.bounds(mus, r, pps) returns
    (bound, search) over the points (mus[r[k]], pps[k]): the list bound[k]
    bounds the rate of point k from above, and search(ks) gives (rate,
    payload) at each point of the list ks.  An axis with equal ends is one point.

    Until the walk holds a key it takes mode.row's points, and first=True
    returns at its first key; nothing past it is evaluated.  From there the
    walk bounds every point left at once and, while any point could still
    replace the best (the rule is in the module docstring), searches such
    points with one search call each step, highest bounds first and ties in
    walk order: one point in the first step, BATCH in each later one.  The
    batch sizes change only the work: the result is the exhaustive walk's
    for any sizes.
    """
    mus, ppes = (np.linspace(lo, hi, k if hi > lo else 1)
                 for (lo, hi), k in zip((mu_ends, pp_ends), points))
    J = len(ppes)
    found = -1  # the walk index of the best point, once this walk finds one
    if not best[0] > 0.0:
        keyed = ((r * J + j, (rate, mu, float(ppes[j]), payload))
                 for r, mu in enumerate(map(float, mus))
                 for j, rate, payload in mode.row(mu, ppes) if rate > best[0])
        found, best = next(keyed, (found, best))
        if found < 0 or first:
            return best
    start = found + 1  # the points left are the walk indices start + k
    left = np.arange(start, mus.size * J)
    bound, search = mode.bounds(mus, left // J, ppes[left % J])
    size = 1  # the top-bounded point alone first: often it is the best
    while True:
        live = [k for k, b in enumerate(bound)
                if b > best[0] or (b == best[0] and start + k < found)]
        if not live:
            return best
        # the size highest bounds, ties in walk order (sorted is stable)
        batch = sorted(sorted(live, key=bound.__getitem__, reverse=True)[:size])
        for k, (rate, payload) in zip(batch, search(batch)):
            if rate > best[0] or (rate == best[0] and start + k < found):
                row, j = divmod(start + k, J)
                best, found = (rate, float(mus[row]), float(ppes[j]), payload), start + k
            bound[k] = -math.inf
        size = BATCH


def _grid_search(mode, mu_bounds, spec: OptimizationSpec):
    """Best (rate, mu, p_pe, payload) of mode's rates on spec's grids (see _walk).

    The _walk of the coarse grid, then of spec.refine_rounds rectangles
    around the incumbent, half-widths one coarse step shrinking threefold a
    round; every walk starts from the incumbent, so ties keep the earliest
    point.  With no positive coarse rate nothing is refined and
    (0.0, nan, nan, None) is returned.
    """
    mu_lo, mu_hi = mu_bounds
    pp_lo, pp_hi = spec.p_pe_bounds
    best = _walk(mode, mu_bounds, spec.p_pe_bounds, spec.coarse_points)
    if not best[0] > 0.0:
        return best

    mu_step = (mu_hi - mu_lo) / max(spec.coarse_points[0] - 1, 1)
    pp_step = (pp_hi - pp_lo) / max(spec.coarse_points[1] - 1, 1)
    for _ in range(spec.refine_rounds):
        _, mu0, pp0, _ = best
        best = _walk(mode, (max(mu_lo, mu0 - mu_step), min(mu_hi, mu0 + mu_step)),
                     (max(pp_lo, pp0 - pp_step), min(pp_hi, pp0 + pp_step)),
                     spec.refine_points, best)
        mu_step /= 3.0
        pp_step /= 3.0
    return best


class _Finite:
    """The finite key at L_km km and N pulses, as _walk reads it: rates from
    key_length and key_lengths, bounds from keylength.end_bounds."""

    def __init__(self, L_km, N, src, ch, sec, spec):
        self.L_ch = replace(ch, L_km=float(L_km))
        self.N, self.src, self.sec, self.grid_points = N, src, sec, spec.x_grid_points

    def row(self, mu, ppes):
        """One key_length call per point, lazily.  A row with no nontriggered
        gain (Q_nt = 0) has no key at any p_pe and makes no call, as
        asymptotic_rate reads it."""
        src = replace(self.src, mu=mu)
        obs = simulate_observables(src, self.L_ch)
        if obs.Q_nt == 0:
            return
        for j, p_pe in enumerate(map(float, ppes)):
            res = key_length(src, obs, self.N, p_pe, self.sec, grid_points=self.grid_points)
            yield j, res.rate, res

    def bounds(self, mus, r, pps):
        """end_bounds at every point as one tensor, and a search of any of
        them as one key_lengths call: both on (point, 1) columns of mu and of
        one simulate_observables call over mus.  A point of a row with no
        nontriggered gain has no key, and bound -inf."""
        obs = simulate_observables(replace(self.src, mu=mus), self.L_ch)

        def columns(ks):  # the source and observables of the points ks
            rows = r[ks, None]
            return (replace(self.src, mu=mus[rows]),
                    Observables(**{name: v[rows] for name, v in vars(obs).items()}))

        def search(ks):
            return [(res.rate, res) for res in key_lengths(
                *columns(ks), self.N, pps[ks], self.sec, self.grid_points)]

        gain = np.flatnonzero(obs.Q_nt[r] > 0)
        bound = np.full(len(r), -math.inf)
        bound[gain] = end_bounds(*columns(gain), self.N, pps[gain], self.sec,
                                 self.grid_points)
        return bound.tolist(), search


class _Asymptotic:
    """The asymptotic rate at L_km km, as _walk reads it: a point's bound is
    its rate, one asymptotic_rate call per mu, and its search reads it."""

    def __init__(self, L_km, src, ch, sec):
        self.L_ch = replace(ch, L_km=float(L_km))
        self.src, self.f_EC = src, sec.f_EC

    def _rate(self, mu):
        return asymptotic_rate(replace(self.src, mu=mu), self.L_ch, f_EC=self.f_EC)

    def row(self, mu, _ppes):
        yield 0, self._rate(mu), None

    def bounds(self, mus, r, _pps):
        rates = {row: self._rate(float(mus[row])) for row in dict.fromkeys(r.tolist())}
        bound = [rates[row] for row in r.tolist()]
        return bound, lambda ks: [(bound[k], None) for k in ks]


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
    rate, mu, p_pe, res = _grid_search(_Finite(L_km, N, src, ch, sec, spec),
                                       spec.resolved_mu_bounds(src), spec)
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
        rate, *_ = _walk(_Finite(L, N, src, ch, sec, spec), mu_bounds,
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

    An asymptotic row searches mu only, on a p_pe axis of one point.  Equal
    spec.p_pe_bounds (p, p) pin p_pe in a finite row.  src.mu and ch.L_km are overwritten.
    """
    if mode not in ("finite", "asymptotic"):
        raise ValueError(f"mode must be 'finite' or 'asymptotic', got {mode!r}")
    _within("N", N, 1, math.inf, "[)")
    if mode == "finite":
        search = _Finite(L_km, N, src, ch, sec, spec)
    else:  # mu only: a p_pe axis of one point
        search = _Asymptotic(L_km, src, ch, sec)
        spec = replace(spec, coarse_points=(spec.coarse_points[0], 1),
                       refine_points=(spec.refine_points[0], 1))
    rate, mu, p_pe, res = _grid_search(search, spec.resolved_mu_bounds(src), spec)
    if res is None:  # every asymptotic row, and a finite row with no key
        ell = 0.0 if mode == "finite" else math.nan
        return SweepRow(L_km, N, mode, mu, math.nan, math.nan, ell, ell, ell, rate,
                        math.nan, math.nan, "ok" if rate > 0.0 else "vacuous")
    x_opt = res.x_opt_T if res.ell_T >= res.ell_B else res.x_opt_B
    return SweepRow(L_km, N, mode, mu, p_pe, x_opt, res.ell_T, res.ell_B, res.ell,
                    rate, res.diagnostics.e_p_t, res.diagnostics.e_p_nt, "ok")
