"""Registry value and per-class wealth metrics, and their column layout.

Value counts per-item collective decisions, one unit of reward or penalty
each. The raw value can go negative; a clamped-at-zero variant is also
emitted and, by default, used for wealth.
"""

from __future__ import annotations

import math

import numpy as np

from .protocol import TcrState
from .voters import VoterClass

CLASS_ORDER = tuple(VoterClass)

# One metrics row per round, in this order; wealth is NaN for an empty class
# so cross-seed aggregation can skip it instead of biasing means with zeros.
METRIC_NAMES = (
    "lurp_raw",
    "lurp_clamped",
    "t_total",
    *(f"tokens_{cls.value}" for cls in CLASS_ORDER),
    *(f"wealth_{cls.value}" for cls in CLASS_ORDER),
)


def lurp(v_correct: int, v_incorrect: int) -> int:
    """Linear unit reward and penalty: correct minus incorrect decisions."""
    if v_correct < 0 or v_incorrect < 0:
        raise ValueError("decision counts must be non-negative")
    return v_correct - v_incorrect


def class_wealth(w_tot: float, t_tot: float, t_a: float, n_a: int) -> float:
    """Average wealth per voter of a class: (w_tot / t_tot) * (t_a / n_a).

    NaN for an empty class.
    """
    if not t_tot > 0:
        raise ValueError(f"total tokens must be positive, got {t_tot}")
    if n_a == 0:
        return math.nan
    return (w_tot / t_tot) * (t_a / n_a)


def snapshot(state: TcrState) -> np.ndarray:
    """The current state as one float row in METRIC_NAMES order; pure read."""
    raw = lurp(state.v_correct, state.v_incorrect)
    clamped = max(0, raw)
    value = clamped if state.params.clamp_value else raw
    t_total = state.total_tokens
    tokens = [float(state.balances[state.class_masks[cls]].sum()) for cls in CLASS_ORDER]
    wealth = [
        class_wealth(value, t_total, t_a, state.class_sizes[cls])
        for cls, t_a in zip(CLASS_ORDER, tokens)
    ]
    return np.array([raw, clamped, t_total, *tokens, *wealth], dtype=float)
