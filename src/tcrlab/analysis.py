"""Closed-form token trajectories for the idealized setting.

Assumptions: disengaged voters never vote, engaged voters always vote,
informed voters are always correct and uninformed voters always incorrect,
the informed-engaged class outnumbers the uninformed-engaged class (so
every decision is correct), and each participant stakes a fixed fraction
sigma of an uninformed participant's holdings. Under these assumptions the
per-class balances after k rounds have exact closed forms, which serve as
the independent oracle for the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import ConfigurationError, check_fields


@dataclass(frozen=True)
class AnalysisParams:
    """Inputs of the closed-form model."""

    t0: float
    sigma: float
    delta: float
    n_ie: int
    n_ue: int
    n_id: int
    n_ud: int

    def __post_init__(self) -> None:
        check_fields(self)
        if self.t0 <= 0:
            raise ConfigurationError(f"t0 must be > 0, got {self.t0}")
        if not 0.0 < self.sigma < 1.0:
            raise ConfigurationError(f"sigma must be in (0, 1), got {self.sigma}")
        if self.delta < 0:
            raise ConfigurationError(f"delta must be >= 0, got {self.delta}")
        if min(self.n_ie, self.n_ue, self.n_id, self.n_ud) < 0:
            raise ConfigurationError("class counts must be non-negative")
        if self.n_ie <= self.n_ue:
            raise ConfigurationError(
                "the model requires more informed-engaged than uninformed-engaged "
                f"voters, got n_ie={self.n_ie}, n_ue={self.n_ue}"
            )


def tokens_disengaged(p: AnalysisParams, k: int) -> float:
    """Disengaged balances never move: constant t0."""
    _check_k(k)
    return p.t0


def tokens_uninformed_engaged(p: AnalysisParams, k: int) -> float:
    """t0 * (1-sigma)^k * (1+delta)^k.

    Each round they forfeit the sigma-fraction stake, then get inflated.
    Increasing iff (1+delta) > 1/(1-sigma), constant at equality.
    """
    _check_k(k)
    return p.t0 * (1.0 - p.sigma) ** k * (1.0 + p.delta) ** k


def tokens_informed_engaged(p: AnalysisParams, k: int) -> float:
    """t0 * (1+delta)^k * (1 + sigma*(n_ue/n_ie) * sum_{n<k} (1-sigma)^n).

    The geometric sum is evaluated in closed form: sigma * sum = 1 - (1-sigma)^k.
    For large k this approaches t0 * (1+delta)^k * (1 + n_ue/n_ie).
    """
    _check_k(k)
    ratio = p.n_ue / p.n_ie
    return p.t0 * (1.0 + p.delta) ** k * (1.0 + ratio * (1.0 - (1.0 - p.sigma) ** k))


def total_tokens(p: AnalysisParams, k: int) -> float:
    """Sum of the per-class trajectories weighted by class size (exact form)."""
    _check_k(k)
    return (
        (p.n_id + p.n_ud) * tokens_disengaged(p, k)
        + p.n_ue * tokens_uninformed_engaged(p, k)
        + p.n_ie * tokens_informed_engaged(p, k)
    )


def value_per_token(p: AnalysisParams, k: int) -> float:
    """k correct decisions spread over the (inflating) supply: k / total."""
    _check_k(k)
    return k / total_tokens(p, k)


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError(f"round count must be >= 0, got {k}")
