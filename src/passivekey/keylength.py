"""Secret key lengths for the triggered-only and combined strategies.

Two extraction strategies are assembled from the decoy bounds and the
phase-error bound:

* T (triggered-only) keeps only the triggered events,
* B (both) additionally credits the nontriggered events (error
  correction separate, privacy amplification joint).

``_ell`` is the one key-length expression ell(x), on a tensor whose leading
axis is the strategy (T, then B).  ``_ledger`` builds every x-independent
term once a call, for the p_pe it searches: one sample budget with a share
per strategy, the sqrt(delta_k p_k) terms and the one chi scale that give
chi, chi0 and chi1, the decoy bounds' terms at them (delta2 - delta,
2 delta E_t, chi0 / Q_nt and the like), the code/sample split N (1 - p_pe)
and N p_pe, the leakage each strategy pays and the epsilon penalty column.
``_ell_curves`` is one x round and builds only what depends on x: zeta, the
gain bounds and W at x, one phase-error solve, h(e_p) and ell(x).
``_minimize_over_x`` takes the worst case of every (strategy, p_pe) row,
with the bound values there, each round for all rows at once; the final key is
``ell = max(ell_T, ell_B)`` (floored, clamped at zero) and the rate is
``R = ell / (2 N)``.  ``key_lengths`` runs that search for many points at
once, one (strategy, point, x) tensor a round: the p_pe of one mu row, or
(mu, p_pe) points whose mu-dependent inputs are (point, 1) columns, and
``key_length`` is its one-point case.  ``end_bounds`` bounds the rate at
such points from three x values of that search's first round, its two
ends and its middle; the optimizer's walk
searches, one ``key_lengths`` call a batch, only the points it cannot rule
out with it.  The asymptotic rate is the same expression with chi = 0,
N = 1, no penalty and e_p the raw error bound.

Epsilon ledger (``_EPS_LEDGER``), after the uncertainty-principle analysis
of Tomamichel, Lim, Gisin and Renner (Nat. Commun. 3, 634, 2012): a
strategy splits eps_sec into s shares and pays
``a log2(s/eps_sec) + b + log2(c/eps_cor)`` bits.

    strategy   s    a   b   c   chi, chi0, chi1 at   e_p at
    T         10    6   0   2   eps_sec/10 each      eps_sec, 1 class
    B         15   12   1   4   eps_sec/15 each      eps_sec, 2 classes

chi goes through ``chi_low_orders`` and chi0, chi1 are ``chi_term``'s
product on the same sqrt(delta_k p_k) terms, all at eps_pe = eps_sec/s and
once a call, in ``_ledger``; e_p goes through
``_phase_error_arrays`` at the full eps_sec (tail target eps_sec^2/16), not
at a share; error verification fails with probability eps_cor.

Two deliberate choices, calibrated against the reference curves (the
acceptance suite pins them):

* the aggregate fluctuation chi uses only the k = 0..2 orders of the
  sqrt(delta_k p_k) series (``chi_low_orders``); the full series is kept
  available as ``chi_total`` for conservative analyses;
* the key and leakage terms scale with all N basis-matched pulses.  The
  parameter-estimation fraction p_pe enters through the fluctuation terms
  and through the code/sample split of the phase-error estimate
  (n = N (1 - p_pe) Q1, l = N p_pe Q1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelModel, Observables, simulate_observables
from .decoy_bounds import (
    SampleBudget,
    _BoundTerms,
    _bound_terms,
    _bounds,
    _low_roots,
    chi_low_orders,
    evaluate_bounds,
    x_range,
)
from .errors import _count, _within
from .phase_error import _phase_error_arrays, _tail_target
from .photonics import SourceModel

X_GRID_POINTS = 200
X_REFINE_ROUNDS = 2
X_REFINE_POINTS = 50
ASYMPTOTIC_GRID_POINTS = 400
_EPS_LEDGER = np.array([[10.0, 6.0, 0.0, 2.0], [15.0, 12.0, 1.0, 4.0]])  # s, a, b, c; T, B
# the nontriggered class's credit in each strategy's row: none in T's, all in B's
_NT_CREDIT = np.array([0.0, 1.0])[:, None, None]
_NT_CREDITED = _NT_CREDIT > 0.0


@dataclass(frozen=True)
class SecurityBudget:
    """Secrecy/correctness targets and error-correction inefficiency."""

    eps_sec: float
    eps_cor: float
    f_EC: float

    def __post_init__(self):
        _within("eps_sec", self.eps_sec, 0, 1, "()")
        if _tail_target(self.eps_sec) is None:
            raise ValueError("eps_sec too small: tail target eps_sec^2/16 underflows")
        _within("eps_cor", self.eps_cor, 0, 1, "()")
        if not math.isfinite(float(_EPS_LEDGER[:, 3].max()) / self.eps_cor):
            raise ValueError("eps_cor too small: a ledger penalty log2(c/eps_cor) overflows")
        _within("f_EC", self.f_EC, 1, math.inf, "[)")


@dataclass(frozen=True)
class Diagnostics:
    """Intermediate bound values at the winning x."""

    zeta: float
    w_t: float
    w_nt: float
    e_p_t: float
    e_p_nt: float
    lambda_ec_t: float
    lambda_ec_nt: float


@dataclass(frozen=True)
class KeyLengthResult:
    ell_T: float
    ell_B: float
    ell: float
    x_opt_T: float
    x_opt_B: float
    rate: float
    diagnostics: Diagnostics


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0; array-transparent."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x > 0) & (x < 1), h, 0.0)[()]


def _phase_error_for_class(q1_lb, w, code, sample, eps_sec):
    """e_p per class on arrays of lower-bound single-photon gains; 0.5 where
    vacuous.  code and sample are N (1 - p_pe) and N p_pe, the code and
    sample bits per unit gain: scalars or arrays that broadcast to their
    shape."""
    ep = np.full(np.shape(q1_lb), 0.5)
    ok = (q1_lb > 0) & np.isfinite(w)
    if ok.any():
        n = (code * q1_lb)[ok]
        l = (sample * q1_lb)[ok]
        ep[ok] = _phase_error_arrays(n, l, w[ok].clip(0.0, 0.5), eps_sec)
    return ep


def _leakage(obs, N, f_EC):
    """(lambda_EC_t, lambda_EC_nt): error-correction leakage of each class, of
    the shape of obs' fields."""
    h_t, h_nt = binary_entropy([obs.E_t, obs.E_nt])
    return N * obs.Q_t * f_EC * h_t, N * obs.Q_nt * f_EC * h_nt


def _leaks(lam):
    """(lambda_EC_t, lambda_EC_nt as each strategy leaks it) from the pair
    ``_leakage`` gives: T's row leaks no lambda_EC_nt."""
    lam_t, lam_nt = lam
    return lam_t, np.where(_NT_CREDITED, lam_nt, 0.0)  # not lam_nt * 0: inf * 0 is nan


def _ell(x, obs, b, h_t, h_nt, N, leaks, penalty):
    """ell_T(x) and ell_B(x), along the leading strategy axis, from the gain
    bounds in b and h(e_p) of each class.

    The one key-length expression: the finite key passes its chi terms in b,
    its pulse count, its ``_leaks`` and its epsilon penalty column; the
    asymptotic rate passes chi = 0, N = 1 and no penalty.  T's row credits
    no nontriggered vacuum or single-photon gain and leaks no lambda_EC_nt.
    """
    lam_t, leak_nt = leaks
    vac = np.maximum(b.q0_t_lb + obs.Q_nt * x * _NT_CREDIT, 0.0)
    gain = np.maximum(b.q1_t_lb, 0.0) * (1.0 - h_t)
    gain_nt = np.maximum(b.q1_nt_lb, 0.0) * (1.0 - h_nt) * _NT_CREDIT
    with np.errstate(over="ignore"):  # lam_t + lam_nt past the double range: -inf, no key
        return N * (vac + gain + gain_nt) - lam_t - leak_nt - penalty


class _Ledger(NamedTuple):
    """The x-independent terms of a search's x rounds, from ``_ledger``."""

    budget: SampleBudget
    terms: _BoundTerms  # the decoy bounds' terms at chi, chi0 and chi1
    code: object       # N (1 - p_pe), code bits per unit single-photon gain
    sample: object     # N p_pe, sample bits per unit single-photon gain
    leaks: tuple       # ``_leaks`` of lambda_EC
    penalty: object


def _ledger(src, obs, N, p_pe, sec, lam):
    """Every x-independent term of ell(x) for both strategies, built once a
    call: the sample budget from ``_EPS_LEDGER``, chi, chi0 and chi1 and the
    bound terms at them, the code/sample split, the leakage lam and the
    epsilon penalty column.

    The budget carries each strategy's share eps_sec/s as a (strategy, 1, 1)
    column, at which chi, chi0 and chi1 are taken; each has shape (strategy,
    p_pe, 1) for a (p_pe, 1) column p_pe (src.mu, obs' fields and lam one
    row's, or columns of the same shape).
    """
    s, a, b, c = _EPS_LEDGER.T[:, :, None, None]  # (strategy, 1, 1) columns
    budget = SampleBudget(N=N, p_pe=p_pe, eps_pe=sec.eps_sec / s)
    roots = _low_roots(src)  # chi_term's sqrt(delta_i p_i) at i = 0, 1 among them
    terms = _bound_terms(src, obs, chi_low_orders(src, budget, obs, roots),
                         roots[0] * budget._chi_scale, roots[1] * budget._chi_scale)
    return _Ledger(budget, terms, N * (1.0 - p_pe), N * p_pe, _leaks(lam),
                   a * np.log2(s / sec.eps_sec) + b + np.log2(c / sec.eps_cor))


def _ell_curves(x, src, obs, N, sec, ledger):
    """[ell, zeta, W_t, W_nt, e_p_t, e_p_nt] on a (strategy, p_pe, x) tensor
    x, T's row first: ell and the bound values the x search reads at each
    minimum, from the x-dependent arithmetic alone.

    ledger is ``_ledger``'s terms at the (P, 1) column of p_pe; src.mu and
    obs' fields are one mu row's, or (P, 1) columns of the mu of each p_pe.
    e_p comes from one phase-error solve of T's triggered class and B's two
    classes; T's e_p_nt is nan, a class it does not credit.
    """
    b = evaluate_bounds(x, src, ledger.budget, obs, terms=ledger.terms)
    q1 = np.array([b.q1_t_lb, b.q1_nt_lb])
    q1[1, 0] = 0.0  # no solve for T's nontriggered class, which T does not credit
    e_p = _phase_error_for_class(q1, np.array([b.w_t, b.w_nt]), ledger.code,
                                 ledger.sample, sec.eps_sec)
    h_t, h_nt = binary_entropy(e_p)
    e_p[1, 0] = math.nan  # its diagnostic: no estimate, not the 0.5 cap
    return [_ell(x, obs, b, h_t, h_nt, N, ledger.leaks, ledger.penalty), b.zeta,
            b.w_t, b.w_nt, *e_p]


def _windows(lo, hi, num=X_REFINE_POINTS, at=None):
    """np.linspace(lo, hi, num) bit for bit, one row per entry of (rows, 1)
    columns lo and hi, or one row of floats: t * step + lo with the last
    point hi, and t / div * delta + lo where the step underflows to zero, as
    np.linspace has it.  at, ascending indices ending at num - 1, keeps
    those points alone, with the same bits."""
    t = np.arange(num, dtype=float) if at is None else np.array(at, dtype=float)
    delta = hi - lo
    step = delta / (num - 1)
    x = t * step + lo
    if np.count_nonzero(step) < np.size(step):
        x = np.where(step == 0, t / (num - 1) * delta + lo, x)
    x[..., -1:] = hi
    return x


def _minimize_over_x(src, obs, N, ppes, sec, lam, grid_points):
    """Per p_pe of the 1-D array ppes, per strategy T, B: (min over x of
    ell(x), minimizing x, (zeta, W_t, W_nt, e_p_t, e_p_nt) there); e_p_nt is
    nan for T.

    A round is one ``_ell_curves`` call on one (strategy, p_pe, x) tensor:
    the grid_points linspace of each p_pe's x_range (src.mu and obs' fields
    may be (P, 1) columns), then X_REFINE_ROUNDS rounds of X_REFINE_POINTS
    points, one window per row around that row's own minimum, each row by
    ``_windows``.  The ledger terms are built once, before the first round.
    Each (strategy, p_pe) row keeps its own minimum, the first of equal
    values, as a single p_pe would: a round takes every row's argmin at
    once, and a row's running best moves only to a strictly lower value.
    No value depends on what shares its array, so each p_pe keeps the result
    it has alone.  The first round holds the three x values ``end_bounds``
    reads and the later rounds only lower a row's minimum, which it relies on.
    """
    pp = ppes[:, None]
    ledger = _ledger(src, obs, N, pp, sec, lam)
    P = len(pp)
    rows = np.arange(2 * P)  # T's P rows, then B's
    x = np.broadcast_to(_windows(*x_range(src, obs), grid_points),
                        (2, P, grid_points)).reshape(rows.size, grid_points)
    best = np.full((7, rows.size), math.inf)  # ell, x, zeta, W_t, W_nt, e_p_t, e_p_nt
    for last in [False] * X_REFINE_ROUNDS + [True]:
        vals, *diag = _ell_curves(x.reshape(2, P, x.shape[1]), src, obs, N, sec, ledger)
        i = vals.reshape(x.shape).argmin(axis=1)
        f = rows * x.shape[1] + i  # each row's minimum, as a flat index
        at = np.array([a.take(f) for a in [vals, x, *diag]])
        best = np.where(at[0] < best[0], at, best)
        if not last:  # the row's neighbours of its minimum, clipped to the row
            x = _windows(x.take(f - (i > 0))[:, None],
                         x.take(f + (i < x.shape[1] - 1))[:, None])
    ell, xs, *diag = best.tolist()
    found = list(zip(ell, xs, zip(*diag)))
    return list(zip(found[:P], found[P:]))


def end_bounds(src: SourceModel, obs: Observables, N: float, ppes,
               sec: SecurityBudget, grid_points: int = X_GRID_POINTS) -> np.ndarray:
    """An upper bound on key_length's rate at each point (mu, ppes[k]) with
    a first x round of grid_points points, from three of that round's x
    values: 0.5 floor(max(min-three ell_T, min-three ell_B, 0)) / N, as a
    1-D array.  The three are the two ends of x_range and the middle index
    (grid_points - 1) // 2 (with two points, the ends alone), taken as
    ``_windows`` takes them.

    src.mu and obs' fields are one mu row's floats, or (P, 1) columns with
    the mu of each of the P points; either way the three are one
    ``_ell_curves`` call on a (strategy, point, 3) tensor.  A point's
    minimum over x is at most the least of the three, as the first x round
    of ``_minimize_over_x`` holds them and the later rounds only lower it;
    no value depends on what shares its array, so these are the bits of
    that round's values there, and the bound holds in floats too, with no
    slack.
    """
    pp = _p_pe_axis(ppes)[:, None]
    grid_points = _count("grid_points", grid_points, 2)
    x = _windows(*x_range(src, obs), grid_points,
                 at=[0, (grid_points - 1) // 2, grid_points - 1])
    ell = _ell_curves(np.broadcast_to(x, (2, len(pp), 3)), src, obs, N, sec,
                      _ledger(src, obs, N, pp, sec, _leakage(obs, N, sec.f_EC)))[0]
    return 0.5 * np.floor(np.maximum(ell.min(axis=2).max(axis=0), 0.0)) / N


def _result(pair, lam, N):
    """KeyLengthResult of one p_pe's ``_minimize_over_x`` pair."""
    (ell_t, x_t, diag_t), (ell_b, x_b, diag_b) = pair
    ell = math.floor(max(ell_t, ell_b, 0.0))  # an infinite leakage is no key
    diag = Diagnostics(*(diag_t if ell_t >= ell_b else diag_b), *lam)
    return KeyLengthResult(
        ell_T=ell_t,
        ell_B=ell_b,
        ell=float(ell),
        x_opt_T=x_t,
        x_opt_B=x_b,
        rate=0.5 * float(ell) / N,  # 2N overflows from N = 2^1023 on; 0.5 ell is exact
        diagnostics=diag,
    )


def _p_pe_axis(ppes):
    """ppes as a 1-D float array, the p_pe axis of key_lengths."""
    axis = np.asarray(ppes, dtype=float)
    if axis.ndim != 1:
        raise ValueError("p_pe must be a 1-D array of values to key_lengths, "
                         "and a single value to key_length")
    return _within("p_pe", axis, 0, 1, "()")


def key_lengths(
    src: SourceModel,
    obs: Observables,
    N: float,
    ppes,
    sec: SecurityBudget,
    grid_points: int = X_GRID_POINTS,
) -> tuple[KeyLengthResult, ...]:
    """key_length at each point (mu, ppes[k]), one result each (its own
    lambda_EC too), from one ``_minimize_over_x`` pass over one (strategy,
    point, x) tensor; src.mu and obs' fields are one mu row's floats or, as
    in ``end_bounds``, (P, 1) columns of each point's mu.  Every result is
    the one key_length gives at that point, from a first x round of >= 2 points."""
    ppes = _p_pe_axis(ppes)
    grid_points = _count("grid_points", grid_points, 2)
    lam = np.array(_leakage(obs, N, sec.f_EC))  # (2,), or (2, P, 1) on columns
    per_point = np.broadcast_to(lam.reshape(2, -1), (2, len(ppes))).T.tolist()
    return tuple(_result(pair, lam_k, N) for pair, lam_k in zip(
        _minimize_over_x(src, obs, N, ppes, sec, lam, grid_points), per_point))


def key_length(
    src: SourceModel,
    obs: Observables,
    N: float,
    p_pe: float,
    sec: SecurityBudget,
    grid_points: int = X_GRID_POINTS,
) -> KeyLengthResult:
    """Final key length ell = max(ell_T, ell_B, 0) (floored) and rate ell / (2N):
    key_lengths at one p_pe."""
    _within("p_pe", p_pe, 0, 1, "()")
    return key_lengths(src, obs, N, [p_pe], sec, grid_points)[0]


def asymptotic_rate(src: SourceModel, ch: ChannelModel, f_EC: float = 1.16) -> float:
    """Infinite-N per-pulse rate: the same ell(x) with chi = 0, N = 1 and no penalty.

    The phase-error inflation reduces to the raw single-photon error bounds
    (clipped to [0, 0.5], so a vacuous +inf bound credits nothing) and both
    strategies are minimized over x on a dense ASYMPTOTIC_GRID_POINTS grid;
    the result is an upper envelope of every finite-N rate for this source
    and channel.  No nontriggered gain (Q_nt = 0) gives rate 0.
    """
    _within("f_EC", f_EC, 1, math.inf, "[)")
    obs = simulate_observables(src, ch)
    if obs.Q_nt == 0:  # no gain ratio to bound: no key
        return 0.0
    xs = np.linspace(*x_range(src, obs), ASYMPTOTIC_GRID_POINTS)
    b = _bounds(xs, _bound_terms(src, obs, 0.0, 0.0, 0.0))  # one x row: chi = 0 for T and B
    h_t, h_nt = binary_entropy(np.array([b.w_t, b.w_nt]).clip(0.0, 0.5))
    leaks = _leaks(tuple(map(float, _leakage(obs, 1.0, f_EC))))
    ell = _ell(xs, obs, b, h_t, h_nt, 1.0, leaks, 0.0)
    ell_t, ell_b = ell[:, 0].min(axis=1).tolist()
    return max(ell_t, ell_b, 0.0) / 2.0
