"""Registry value and per-class wealth metrics, and their column layout.

Value counts per-item collective decisions, one unit of reward or penalty
each. The raw value can go negative; a clamped-at-zero variant is also
emitted and, by default, used for wealth.
"""

from __future__ import annotations

import numpy as np

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


def lurp(v_correct, v_incorrect):
    """Linear unit reward and penalty: correct minus incorrect decisions."""
    if (np.minimum(v_correct, v_incorrect) < 0).any():
        raise ValueError("decision counts must be non-negative")
    return v_correct - v_incorrect


def class_wealth(w_tot, t_tot, t_a, n_a):
    """Average wealth per voter of a class: (w_tot / t_tot) * (t_a / n_a).

    Works elementwise on arrays; NaN for an empty class.
    """
    if not np.greater(t_tot, 0).all():
        raise ValueError(f"total tokens must be positive, got {t_tot}")
    per_voter = np.divide(t_a, n_a, out=np.full(np.shape(t_a), np.nan), where=n_a != 0)
    return np.divide(w_tot, t_tot) * per_voter


def metric_rows(clamp_value, class_sizes, v_correct, rounds, t_total, tokens) -> np.ndarray:
    """Metric rows in METRIC_NAMES order from what a run observed after each round.

    ``v_correct`` (correct decisions), ``rounds`` (rounds done) and
    ``t_total`` (token supply) share a shape S, and ``clamp_value`` (whether
    wealth uses the clamped value) broadcasts against it; ``tokens`` is
    S + (4,) in CLASS_ORDER, and ``class_sizes`` broadcasts against it.
    Returns S + (len(METRIC_NAMES),).
    """
    raw = lurp(v_correct, rounds - v_correct)
    clamped = np.maximum(raw, 0)
    value = np.where(clamp_value, clamped, raw)
    wealth = class_wealth(value[..., None], t_total[..., None], tokens, class_sizes)
    return np.concatenate(
        (raw[..., None], clamped[..., None], t_total[..., None], tokens, wealth), axis=-1
    )

