from fractions import Fraction

import numpy as np
import pytest

from tcrlab.params import (
    AnalysisSigmaStake,
    ConfigurationError,
    ProtocolStake,
    SimParams,
)


def test_defaults_are_valid():
    p = SimParams()
    assert p.num_voters == 100
    assert p.num_items == 50
    assert p.initial_tokens == 100.0
    assert p.initial_stake == 5.0
    assert p.inflation_rate == 0.02
    assert isinstance(p.stake_policy, ProtocolStake)
    assert p.clamp_value


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_voters": 0},
        {"initial_tokens": 0.0},
        {"initial_tokens": -5.0},
        {"initial_stake": -1.0},
        {"initial_stake": 101.0},
        {"inflation_rate": -0.01},
        {"p_engaged": 1.5},
        {"p_informed": -0.1},
        {"p_item_good": 2.0},
        {"inflation_rate": float("nan")},
        {"initial_tokens": float("inf")},
        {"initial_stake": float("nan")},
        {"p_engaged": float("nan")},
        {"num_voters": float("nan")},
        {"num_voters": 10.5},
        {"num_items": True},
        {"p_engaged": True},
        {"initial_tokens": "100"},
        {"initial_tokens": 10**400},
        {"initial_tokens": Fraction(10**400)},
        {"initial_tokens": np.float32("inf")},
        {"clamp_value": 1},
        {"stake_policy": object()},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        SimParams(**kwargs)


def test_numpy_numbers_are_stored_as_python_numbers():
    p = SimParams(num_voters=np.int64(10), initial_tokens=np.int32(100), p_engaged=0,
                  inflation_rate=np.float32(0.05), stake_policy=AnalysisSigmaStake(np.float16(0.5)))
    assert (p.num_voters, p.initial_tokens, p.p_engaged) == (10, 100, 0)
    assert type(p.num_voters) is type(p.initial_tokens) is type(p.p_engaged) is int
    assert type(p.inflation_rate) is type(p.stake_policy.sigma) is float
    assert (p.inflation_rate, p.stake_policy.sigma) == (float(np.float32(0.05)), 0.5)


@pytest.mark.parametrize("sigma", [0.0, 1.0, -0.2, 1.5, float("nan"), float("inf")])
def test_analysis_sigma_out_of_range(sigma):
    with pytest.raises(ConfigurationError):
        AnalysisSigmaStake(sigma=sigma)


def test_analysis_sigma_accepts_open_interval():
    assert AnalysisSigmaStake(sigma=0.05).sigma == 0.05
