"""Secret key lengths for the triggered-only and combined strategies.

Two extraction strategies are assembled from the decoy bounds and the
phase-error bound:

* T (triggered-only) keeps only the triggered events,
* B (both) additionally credits the nontriggered events (error
  correction separate, privacy amplification joint).

``_ell`` is the one key-length expression ell(x), on a tensor whose leading
axis is the strategy (T, then B).  ``_ledger`` builds the x-independent
finite-size terms (one sample budget with a share per strategy, chi, the
epsilon penalty column) once a call, ``_ell_curves`` feeds them and the
phase-error bound to it, and ``_minimize_over_x`` takes the worst case of
every (strategy, p_pe) row, with the bound values there; the final key is
``ell = max(ell_T, ell_B)`` (floored, clamped at zero) and the rate is
``R = ell / (2 N)``.  ``key_lengths`` runs that search for every p_pe of a
mu row at once, as one (strategy, p_pe, x) tensor a round, and
``key_length`` is its one-p_pe case.  The asymptotic rate is the same
expression with chi = 0, N = 1, no penalty and e_p the raw error bound.

Epsilon ledger (``_EPS_LEDGER``), after the uncertainty-principle analysis
of Tomamichel, Lim, Gisin and Renner (Nat. Commun. 3, 634, 2012): a
strategy splits eps_sec into s shares and pays
``a log2(s/eps_sec) + b + log2(c/eps_cor)`` bits.

    strategy   s    a   b   c   chi, chi0, chi1 at   e_p at
    T         10    6   0   2   eps_sec/10 each      eps_sec, 1 class
    B         15   12   1   4   eps_sec/15 each      eps_sec, 2 classes

chi goes through ``chi_low_orders`` and chi0, chi1 through ``chi_term`` in
``evaluate_bounds``, all at eps_pe = eps_sec/s; e_p goes through
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

import numpy as np

from .channel import ChannelModel, Observables, simulate_observables
from .decoy_bounds import (
    SampleBudget,
    _bounds,
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
_REFINE_T = np.arange(X_REFINE_POINTS, dtype=float)  # the steps of a refinement window
ASYMPTOTIC_GRID_POINTS = 400
_EPS_LEDGER = np.array([[10.0, 6.0, 0.0, 2.0], [15.0, 12.0, 1.0, 4.0]])  # s, a, b, c; T, B
# the nontriggered class's credit in each strategy's row: none in T's, all in B's
_NT_CREDIT = np.array([0.0, 1.0])[:, None, None]
# relative float slack of rate_ceiling, beside one bit of ell: its own solve of
# the x_range ends may differ from key_length's in the last bits
_CEILING_SLACK = 1e-9


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


def _phase_error_for_class(q1_lb, w, N, p_pe, eps_sec):
    """e_p per class on arrays of lower-bound single-photon gains; 0.5 where
    vacuous.  p_pe is a scalar or an array that broadcasts to their shape."""
    ep = np.full(np.shape(q1_lb), 0.5)
    ok = (q1_lb > 0) & np.isfinite(w)
    if np.any(ok):
        n = (N * (1.0 - p_pe) * q1_lb)[ok]
        l = (N * p_pe * q1_lb)[ok]
        ep[ok] = _phase_error_arrays(n, l, np.clip(w[ok], 0.0, 0.5), eps_sec)
    return ep


def _leakage(obs, N, f_EC):
    """(lambda_EC_t, lambda_EC_nt): error-correction leakage of each class, as floats."""
    h_t, h_nt = binary_entropy([obs.E_t, obs.E_nt])
    return float(N * obs.Q_t * f_EC * h_t), float(N * obs.Q_nt * f_EC * h_nt)


def _ell(x, obs, b, h_t, h_nt, N, lam, penalty):
    """ell_T(x) and ell_B(x), along the leading strategy axis, from the gain
    bounds in b and h(e_p) of each class.

    The one key-length expression: the finite key passes its chi terms in b,
    its pulse count, its leakage and its epsilon penalty column; the
    asymptotic rate passes chi = 0, N = 1 and no penalty.  T's row credits
    no nontriggered vacuum or single-photon gain and leaks no lambda_EC_nt.
    """
    lam_t, lam_nt = lam
    vac = np.maximum(b.q0_t_lb + obs.Q_nt * x * _NT_CREDIT, 0.0)
    gain = np.maximum(b.q1_t_lb, 0.0) * (1.0 - h_t)
    gain_nt = np.maximum(b.q1_nt_lb, 0.0) * (1.0 - h_nt) * _NT_CREDIT
    leak_nt = np.array([0.0, lam_nt])[:, None, None]  # not lam_nt * 0: inf * 0 is nan
    with np.errstate(over="ignore"):  # lam_t + lam_nt past the double range: -inf, no key
        return N * (vac + gain + gain_nt) - lam_t - leak_nt - penalty


def _ledger(src, obs, N, p_pe, sec):
    """(sample budget, chi, epsilon penalty) of both strategies from ``_EPS_LEDGER``.

    The budget carries each strategy's share eps_sec/s as a (strategy, 1, 1)
    column, at which chi (and chi0, chi1 in ``evaluate_bounds``) is taken;
    none of them depends on x, and chi has shape (strategy, p_pe, 1) for a
    (p_pe, 1) column p_pe.
    """
    s, a, b, c = _EPS_LEDGER.T[:, :, None, None]  # (strategy, 1, 1) columns
    budget = SampleBudget(N=N, p_pe=p_pe, eps_pe=sec.eps_sec / s)
    return (budget, chi_low_orders(src, budget, obs),
            a * np.log2(s / sec.eps_sec) + b + np.log2(c / sec.eps_cor))


def _ell_curves(x, src, obs, N, p_pe, sec, lam, ledger):
    """(ell, bounds, e_p) on a (strategy, p_pe, x) tensor x, T's row first.

    p_pe is a (P, 1) column and ledger ``_ledger``'s terms at the same p_pe.
    e_p stacks the triggered and the nontriggered class, (class, strategy,
    p_pe, x), from one phase-error solve of T's triggered class and B's two
    classes; T's nontriggered e_p is nan, a class it does not credit.
    """
    budget, chi, penalty = ledger
    b = evaluate_bounds(x, src, budget, obs, chi=chi)
    q1 = np.stack([b.q1_t_lb, b.q1_nt_lb])
    q1[1, 0] = 0.0  # no solve for T's nontriggered class, which T does not credit
    e_p = _phase_error_for_class(q1, np.stack([b.w_t, b.w_nt]), N, p_pe, sec.eps_sec)
    h_t, h_nt = binary_entropy(e_p)
    e_p[1, 0] = math.nan  # its diagnostic: no estimate, not the 0.5 cap
    return _ell(x, obs, b, h_t, h_nt, N, lam, penalty), b, e_p


def _windows(lo, hi):
    """np.linspace(lo, hi, X_REFINE_POINTS) bit for bit, one row per entry of
    (rows, 1) columns lo and hi: t * step + lo with the last point hi, and
    t / div * delta + lo where the step underflows to zero, as np.linspace
    has it."""
    delta = hi - lo
    step = delta / (X_REFINE_POINTS - 1)
    x = _REFINE_T * step + lo
    if np.count_nonzero(step) < np.size(step):
        x = np.where(step == 0, _REFINE_T / (X_REFINE_POINTS - 1) * delta + lo, x)
    x[:, -1:] = hi
    return x


def _minimize_over_x(src, obs, N, ppes, sec, lam, grid_points):
    """Per p_pe of the 1-D array ppes, per strategy T, B: (min over x of
    ell(x), minimizing x, (zeta, W_t, W_nt, e_p_t, e_p_nt) there); e_p_nt is
    nan for T.

    A round is one ``_ell_curves`` call on one (strategy, p_pe, x) tensor:
    the grid_points linspace of x_range in every row, then X_REFINE_ROUNDS
    rounds of X_REFINE_POINTS points, one window per row around that row's
    own minimum.  The ledger terms are built once, before the first round.
    Each (strategy, p_pe) row keeps its own minimum, the first of equal
    values, as a single p_pe would.
    """
    P, pp = len(ppes), ppes[:, None]
    ledger = _ledger(src, obs, N, pp, sec)
    lo, hi = x_range(src, obs)
    best = [(math.inf, lo, None)] * (2 * P)  # T's P rows, then B's
    x = np.broadcast_to(np.linspace(lo, hi, grid_points), (2, P, grid_points))
    for last in [False] * X_REFINE_ROUNDS + [True]:
        vals, b, e_p = _ell_curves(x, src, obs, N, pp, sec, lam, ledger)
        points = x.shape[-1]
        lows, highs = [], []
        for r, i in enumerate(vals.reshape(-1, points).argmin(axis=1).tolist()):
            row = r * points  # x and the curves share this flat index
            f = row + i
            if vals.item(f) < best[r][0]:
                best[r] = vals.item(f), x.item(f), (
                    b.zeta.item(f), b.w_t.item(f), b.w_nt.item(f), e_p[0].item(f),
                    e_p[1].item(f))
            lows.append(x.item(row + max(i - 1, 0)))
            highs.append(x.item(row + min(i + 1, points - 1)))
        if not last:
            x = _windows(np.array(lows)[:, None], np.array(highs)[:, None]).reshape(2, P, -1)
    return list(zip(best[:P], best[P:]))


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
    """ppes as a 1-D float array, the p_pe axis of key_lengths and rate_ceiling."""
    axis = np.asarray(ppes, dtype=float)
    if axis.ndim != 1:
        raise ValueError("p_pe must be a 1-D array of values to key_lengths and "
                         "rate_ceiling, and a single value to key_length")
    return axis


def key_lengths(
    src: SourceModel,
    obs: Observables,
    N: float,
    ppes,
    sec: SecurityBudget,
    grid_points: int = X_GRID_POINTS,
) -> tuple[KeyLengthResult, ...]:
    """key_length at each p_pe of the 1-D array ppes, one result each, from
    one ``_minimize_over_x`` pass over the (strategy, p_pe, x) tensor of a
    mu row (the observables, and so x_range, are the row's).  Every result
    is the one key_length gives at that p_pe, from a first x round of >= 2
    points."""
    ppes = _p_pe_axis(ppes)
    grid_points = _count("grid_points", grid_points, 2)
    lam = _leakage(obs, N, sec.f_EC)
    return tuple(_result(pair, lam, N)
                 for pair in _minimize_over_x(src, obs, N, ppes, sec, lam, grid_points))


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
    return key_lengths(src, obs, N, [p_pe], sec, grid_points)[0]


def rate_ceiling(
    src: SourceModel,
    obs: Observables,
    N: float,
    ppes,
    sec: SecurityBudget,
):
    """Upper bounds on the rates key_lengths gives at the 1-D array ppes, one
    each: the key's own ell_T and ell_B (``_ell_curves``) at the ends of
    x_range, plus a float slack.  One (strategy, p_pe, x) tensor of one
    ``_ell_curves`` call bounds every p_pe of a mu row, as x_range depends
    on mu only.

    key_length's first x round is a linspace of at least two points of
    x_range, which holds both ends exactly, and the later rounds only lower
    its minimum; so each strategy's ell is at most its ell(x) at those
    ends.  The ends are solved in a call of their own, so e_p may differ
    from key_length's in the last bits (and omega by one grid step where Phi
    is subnormal): the ceiling adds one bit of ell and _CEILING_SLACK of
    itself, and a point whose ceiling is below a rate cannot beat that rate.
    """
    ends = np.linspace(*x_range(src, obs), 2)  # ZeroGain before a p_pe check
    pp = _p_pe_axis(ppes)[:, None]
    ell, *_ = _ell_curves(np.broadcast_to(ends, (2, len(pp), 2)), src, obs, N, pp, sec,
                          _leakage(obs, N, sec.f_EC), _ledger(src, obs, N, pp, sec))
    ell = np.maximum(ell.min(axis=2).max(axis=0), 0.0)
    return 0.5 * (ell + 1.0) / N * (1.0 + _CEILING_SLACK)


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
    b = _bounds(xs, src, obs, 0.0, 0.0, 0.0)  # one x row: chi = 0 for T and B alike
    h_t, h_nt = binary_entropy(np.clip([b.w_t, b.w_nt], 0.0, 0.5))
    ell = _ell(xs, obs, b, h_t, h_nt, 1.0, _leakage(obs, 1.0, f_EC), 0.0)
    ell_t, ell_b = ell[:, 0].min(axis=1).tolist()
    return max(ell_t, ell_b, 0.0) / 2.0
