"""The shared interval check, and every argument that goes through it."""

import math
import re
import sys

import numpy as np
import pytest

from passivekey import (
    ChannelModel,
    Observables,
    PhaseErrorInputs,
    SampleBudget,
    SecurityBudget,
    SourceModel,
    asymptotic_rate,
    check_lemma3,
    check_lemma4,
    key_length,
    max_distance,
    sweep_point,
)
from passivekey import errors
from passivekey.cli import _parse_distances, _parse_Ns
from passivekey.decoy_bounds import serfling_xi
from passivekey.errors import _within
from passivekey.keylength import key_lengths

SRC = dict(mu=0.5, eta_A=0.5, d_A=1e-6)
CH = dict(alpha_db_per_km=0.2, L_km=50.0, eta_B=0.1, p_d=6e-7, e_d=0.005)
OBS = dict(Q_t=1e-3, Q_nt=1e-3, E_t=0.01, E_nt=0.01)
SEC = dict(eps_sec=1e-10, eps_cor=1e-12, f_EC=1.16)
BUDGET = dict(N=1e9, p_pe=0.5, eps_pe=1e-11)
PE = dict(n=1e6, l=1e6, e_ob=0.01, eps_sec=1e-10)


def field(cls, defaults, name):
    """A call that builds cls from defaults with one field set to its argument."""
    return lambda v: cls(**{**defaults, name: v})


def refused_values(lo, hi, ends):
    """A value below the interval, one above it where it is bounded above,
    NaN, and inf where the interval leaves inf out."""
    values = [lo - 0.5 if ends[0] == "[" else lo, math.nan]
    if hi < math.inf:
        values.append(hi + 0.5 if ends[1] == "]" else hi)
    if hi < math.inf or ends[1] == ")":
        values.append(math.inf)
    return values


MODELS = (SourceModel(**SRC), ChannelModel(**CH), SecurityBudget(**SEC))
OBSERVED = Observables(**OBS)
UNIT, HALF, OPEN_UNIT = (0, 1, "[]"), (0, 0.5, "[]"), (0, 1, "()")
AT_LEAST_1 = (1, math.inf, "[)")

# (where, argument name, a call that passes the value to it, its interval)
ARGUMENTS = [
    ("SourceModel", "mu", field(SourceModel, SRC, "mu"), (0, math.inf, "()")),
    ("SourceModel", "eta_A", field(SourceModel, SRC, "eta_A"), UNIT),
    ("SourceModel", "d_A", field(SourceModel, SRC, "d_A"), (0, 1, "[)")),
    ("ChannelModel", "alpha_db_per_km", field(ChannelModel, CH, "alpha_db_per_km"),
     (0, math.inf, "[)")),
    ("ChannelModel", "L_km", field(ChannelModel, CH, "L_km"), (0, math.inf, "[]")),
    ("ChannelModel", "eta_B", field(ChannelModel, CH, "eta_B"), (0, 1, "(]")),
    ("ChannelModel", "p_d", field(ChannelModel, CH, "p_d"), (0, 1, "[)")),
    ("ChannelModel", "e_d", field(ChannelModel, CH, "e_d"), HALF),
    ("Observables", "Q_t", field(Observables, OBS, "Q_t"), UNIT),
    ("Observables", "Q_nt", field(Observables, OBS, "Q_nt"), UNIT),
    ("Observables", "E_t", field(Observables, OBS, "E_t"), (0, 0.5 + 1e-9, "[]")),
    ("Observables", "E_nt", field(Observables, OBS, "E_nt"), (0, 0.5 + 1e-9, "[]")),
    ("SampleBudget", "N", field(SampleBudget, BUDGET, "N"), AT_LEAST_1),
    ("SampleBudget", "p_pe", field(SampleBudget, BUDGET, "p_pe"), OPEN_UNIT),
    ("SampleBudget", "eps_pe", field(SampleBudget, BUDGET, "eps_pe"), OPEN_UNIT),
    ("serfling_xi", "n1", lambda v: serfling_xi(0.1, v, 100), AT_LEAST_1),
    ("serfling_xi", "n2", lambda v: serfling_xi(0.1, 100, v), AT_LEAST_1),
    ("serfling_xi", "eps", lambda v: serfling_xi(v, 100, 100), (0, 1, "(]")),
    ("SecurityBudget", "eps_sec", field(SecurityBudget, SEC, "eps_sec"), OPEN_UNIT),
    ("SecurityBudget", "eps_cor", field(SecurityBudget, SEC, "eps_cor"), OPEN_UNIT),
    ("SecurityBudget", "f_EC", field(SecurityBudget, SEC, "f_EC"), AT_LEAST_1),
    ("asymptotic_rate", "f_EC", lambda v: asymptotic_rate(*MODELS[:2], v), AT_LEAST_1),
    ("PhaseErrorInputs", "n", field(PhaseErrorInputs, PE, "n"), (0, math.inf, "()")),
    ("PhaseErrorInputs", "l", field(PhaseErrorInputs, PE, "l"), (0, math.inf, "()")),
    ("PhaseErrorInputs", "e_ob", field(PhaseErrorInputs, PE, "e_ob"), HALF),
    ("PhaseErrorInputs", "eps_sec", field(PhaseErrorInputs, PE, "eps_sec"), OPEN_UNIT),
    ("max_distance", "L_max_km", lambda v: max_distance(1e9, *MODELS, L_max_km=v),
     (0, math.inf, "[)")),
    ("sweep_point", "N", lambda v: sweep_point(50.0, v, "finite", *MODELS), AT_LEAST_1),
    ("key_length", "N", lambda v: key_length(MODELS[0], OBSERVED, v, 0.5, MODELS[2]),
     AT_LEAST_1),
    ("key_length", "p_pe", lambda v: key_length(MODELS[0], OBSERVED, 1e9, v, MODELS[2]),
     OPEN_UNIT),
    ("check_lemma3", "eps_sec",
     lambda v: check_lemma3(100, 100, 0.1, v, trials=10, seed=1), OPEN_UNIT),
    ("check_lemma3", "true_error_fraction",
     lambda v: check_lemma3(100, 100, v, 0.1, trials=10, seed=1), UNIT),
    ("check_lemma4", "outcome_rate",
     lambda v: check_lemma4(100, 100, v, 0.1, trials=10, seed=1), UNIT),
    ("_parse_Ns", "N", lambda v: _parse_Ns(repr(v)), AT_LEAST_1),
    ("_parse_distances", "distance", lambda v: _parse_distances(repr(v)),
     (0, math.inf, "[)")),
]

CASES = [(where, name, call, value) for where, name, call, interval in ARGUMENTS
         for value in refused_values(*interval)]
CASES += [("SampleBudget", "p_pe", field(SampleBudget, BUDGET, "p_pe"), np.array(p_pe))
          for p_pe in ([0.5, 1.0], [[0.5], [math.nan]])]
CASES += [("key_lengths", "p_pe",
           lambda v: key_lengths(MODELS[0], OBSERVED, 1e9, v, MODELS[2]),
           np.array([0.5, 1.0]))]


@pytest.mark.parametrize("where, name, call, value", CASES, ids=[
    f"{where}.{name}={np.asarray(value).tolist()}" for where, name, _, value in CASES])
def test_every_interval_check_names_its_argument_and_value(where, name, call, value):
    pattern = rf"^{re.escape(name)} must be in [\[(].*[\])], got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=pattern):
        call(value)


# a nonzero p_d or e_d below the normal doubles underflows the channel's
# error sums, and a bound built on them can fall below the truth
@pytest.mark.parametrize("value", [5e-324, 1e-310, math.nextafter(sys.float_info.min, 0.0)])
@pytest.mark.parametrize("name", ["p_d", "e_d"])
def test_subnormal_channel_rate_is_refused(name, value):
    pattern = (rf"^{name} must be 0 or at least {re.escape(repr(sys.float_info.min))}, "
               rf"got {re.escape(repr(value))}$")
    with pytest.raises(ValueError, match=pattern):
        ChannelModel(**{**CH, name: value})
    smallest = ChannelModel(**{**CH, name: sys.float_info.min})
    assert getattr(smallest, name) == sys.float_info.min


class TestWithin:
    @pytest.mark.parametrize("ends, accepted", [
        ("[]", [0.0, 0.5, 1.0]), ("()", [0.5]), ("[)", [0.0, 0.5]), ("(]", [0.5, 1.0]),
    ])
    def test_ends(self, ends, accepted):
        for value in (-1.0, 0.0, 0.5, 1.0, 2.0, math.nan):
            if value in accepted:
                assert _within("x", value, 0, 1, ends) is value
            else:
                with pytest.raises(ValueError, match=re.escape(
                        f"x must be in {ends[0]}0, 1{ends[1]}, got {value!r}")):
                    _within("x", value, 0, 1, ends)

    def test_array_is_checked_elementwise(self):
        good = np.array([[0.1], [0.9]])
        assert _within("p", good, 0, 1, "()") is good
        for bad in ([0.5, 1.0], [0.0, 0.5], [0.5, math.nan]):
            with pytest.raises(ValueError, match=r"^p must be in \(0, 1\), got array"):
                _within("p", np.array(bad), 0, 1, "()")

    def test_plain_number_makes_no_numpy_call(self, monkeypatch):
        def refused(*args):
            raise AssertionError("np.all called on a plain number")

        monkeypatch.setattr(errors.np, "all", refused)
        assert _within("x", 0.5, 0, 1) == 0.5
        with pytest.raises(ValueError):
            _within("x", 2.0, 0, 1)
