"""Simulation parameters and stake policies."""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields


class ConfigurationError(ValueError):
    """Raised when parameters or config files are invalid."""


def check_fields(params) -> None:
    """Check the types of a parameter dataclass's int, float and bool fields.

    An int field takes an integer, a float field an integer or a finite
    real, and a bool field a bool; a bool is not accepted as a number.
    A number that is not a Python int or float, such as a numpy scalar, is
    stored as ``int(value)`` if it is an integer and ``float(value)`` if not,
    so a run computes in Python ints and float64 whatever type it is given.
    The modules that call it postpone annotations, so ``f.type`` is a string.
    """
    for f in fields(params):
        value = getattr(params, f.name)
        if f.type == "bool":
            if not isinstance(value, bool):
                raise ConfigurationError(f"{f.name} must be true or false, got {value!r}")
        elif f.type == "int":
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{f.name} must be an integer, got {value!r}")
            if not isinstance(value, int):
                object.__setattr__(params, f.name, int(value))
        elif f.type == "float":
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigurationError(f"{f.name} must be a number, got {value!r}")
            number = value
            if not isinstance(value, (int, float)):
                try:
                    number = int(value) if isinstance(value, numbers.Integral) else float(value)
                except OverflowError:  # a real too large for a float
                    number = math.inf
                object.__setattr__(params, f.name, number)
            if not abs(number) <= sys.float_info.max:
                raise ConfigurationError(f"{f.name} must be finite, got {value}")


def check_seed(seed) -> None:
    """Seeds are integers in [0, 2**64)."""
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or not 0 <= int(seed) < 2**64):
        raise ConfigurationError(f"seed must be an integer in [0, 2**64), got {seed!r}")


@dataclass(frozen=True)
class ProtocolStake:
    """Stake schedule tied to the money supply: S(t) = (S(0)/T(0)) * T_total(t)/N."""


@dataclass(frozen=True)
class AnalysisSigmaStake:
    """Stake equal to a fixed fraction of the mean engaged-uninformed balance.

    Matches the idealized setting used by the closed-form model, where every
    participant stakes the same fraction of an uninformed participant's
    holdings. Falls back to the all-voter mean when no engaged-uninformed
    voter exists.
    """

    sigma: float

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 < self.sigma < 1.0:
            raise ConfigurationError(f"sigma must be in (0, 1), got {self.sigma}")


StakePolicy = ProtocolStake | AnalysisSigmaStake

_PROBABILITY_FIELDS = (
    "p_engaged",
    "p_informed",
    "p_vote_engaged",
    "p_vote_disengaged",
    "p_correct_informed",
    "p_correct_uninformed",
    "p_item_good",
)


@dataclass(frozen=True)
class SimParams:
    """All knobs of one simulation run.

    Defaults are the baseline experiment cell: 100 voters voting on 50
    items, initial balance 100 with initial stake 5, 2% inflation, and the
    baseline engagement/informedness probabilities.
    """

    num_voters: int = 100
    num_items: int = 50
    initial_tokens: float = 100.0
    initial_stake: float = 5.0
    inflation_rate: float = 0.02
    p_engaged: float = 0.5
    p_informed: float = 0.5
    p_vote_engaged: float = 0.8
    p_vote_disengaged: float = 0.2
    p_correct_informed: float = 0.85
    p_correct_uninformed: float = 0.15
    p_item_good: float = 0.5
    stake_policy: StakePolicy = field(default_factory=ProtocolStake)
    clamp_value: bool = True

    def __post_init__(self) -> None:
        check_fields(self)
        if self.num_voters < 1:
            raise ConfigurationError(f"num_voters must be >= 1, got {self.num_voters}")
        if self.num_items < 0:
            raise ConfigurationError(f"num_items must be >= 0, got {self.num_items}")
        if self.initial_tokens <= 0:
            raise ConfigurationError(
                f"initial_tokens must be > 0, got {self.initial_tokens}"
            )
        if not 0.0 <= self.initial_stake <= self.initial_tokens:
            raise ConfigurationError(
                f"initial_stake must be in [0, initial_tokens], got {self.initial_stake}"
            )
        if self.inflation_rate < 0:
            raise ConfigurationError(
                f"inflation_rate must be >= 0, got {self.inflation_rate}"
            )
        try:  # the initial supply, and value per token at most num_items / supply
            supply = self.initial_tokens * self.num_voters
            finite = math.isfinite(supply) and math.isfinite(self.num_items / supply)
        except OverflowError:  # a count too large for a float
            finite = False
        if not finite:
            raise ConfigurationError(
                "the initial supply initial_tokens x num_voters, and num_items divided by "
                f"it, must be finite: initial_tokens {self.initial_tokens}, "
                f"num_voters {self.num_voters}, num_items {self.num_items}"
            )
        for name in _PROBABILITY_FIELDS:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
        if not isinstance(self.stake_policy, (ProtocolStake, AnalysisSigmaStake)):
            raise ConfigurationError(f"unknown stake policy: {self.stake_policy!r}")
