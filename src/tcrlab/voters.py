"""Seeded randomness and the four-class stochastic voter model.

Draw order contract (what makes traces replayable): a run owns a single
stream seeded once. The roster is sampled first (one block of uniforms for
engagement, then one for informedness, voter-id order). Then, per round:
one draw for the item's polarity, one participation draw per voter in
voter-id order, and finally one vote draw per *eligible* participant in
voter-id order. The item and participation draws are taken as one vector
of N + 1; draws split over several calls, or written into a buffer, yield
the same numbers as one call.
"""

from __future__ import annotations

import enum

import numpy as np

from .params import SimParams


class RngStream:
    """A seeded uniform stream; identical seed gives an identical sequence."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """n draws in [0, 1); written into ``out``, which must hold exactly n, when given."""
        return self._gen.random(n) if out is None else self._gen.random(out=out)


class VoterClass(enum.Enum):
    INFORMED_ENGAGED = "IE"
    INFORMED_DISENGAGED = "ID"
    UNINFORMED_ENGAGED = "UE"
    UNINFORMED_DISENGAGED = "UD"


def sample_roster(params: SimParams, rng: RngStream) -> np.ndarray:
    """Sample (is_engaged, is_informed) per voter from two independent Bernoullis.

    Returns an (N, 2) boolean array in voter-id order. Classes are fixed for
    the whole run.
    """
    n = params.num_voters
    engaged = rng.uniform(n) < params.p_engaged
    informed = rng.uniform(n) < params.p_informed
    return np.column_stack((engaged, informed))
