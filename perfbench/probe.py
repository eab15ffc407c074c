"""The machine's current speed, for rescaling the benchmark's timings.

On shared hosts the speed a process gets swings by up to 1.9x, for seconds
to minutes at a time. Every timed step is bracketed by probes taken on the
CPU that ran it, and its time is multiplied by
REFERENCE_PROBE_S / (mean of the two probes). That cancels the swing and
leaves the program's own cost, in seconds of a machine on which the probe
takes REFERENCE_PROBE_S. The probe is a small run of the benchmark's own
reference engine: numpy draws and masks driven from Python, like the
program, so it slows the way the program does. The program never runs
during a probe, so no change to it can move the probe.
"""

import os
from time import perf_counter
from types import SimpleNamespace

import reference

REFERENCE_PROBE_S = 1.5e-3


class ProtocolStake:
    """Stands in for tcrlab's stake policy of the same name."""


# The default cell at 200 voters and 20 rounds.
_PARAMS = SimpleNamespace(
    num_voters=200, num_items=20, initial_tokens=100.0, initial_stake=5.0,
    inflation_rate=0.02, p_engaged=0.5, p_informed=0.5, p_vote_engaged=0.8,
    p_vote_disengaged=0.2, p_correct_informed=0.85, p_correct_uninformed=0.15,
    p_item_good=0.5, stake_policy=ProtocolStake(), clamp_value=True,
)


def probe() -> float:
    """Seconds one fixed reference run takes now. Call it once first to warm it."""
    start = perf_counter()
    reference.simulate(_PARAMS, 1)
    return perf_counter() - start


def probe_cpus(n: int) -> float:
    """Mean probe over n of the CPUs this process may use, for steps run by n processes.

    The CPUs' speeds swing mostly independently. The affinity is restored
    before returning, so processes started later may use every CPU.
    """
    allowed = os.sched_getaffinity(0)
    if n <= 1 or len(allowed) <= 1:
        return probe()
    times = []
    try:
        for cpu in sorted(allowed)[:n]:
            os.sched_setaffinity(0, {cpu})
            times.append(probe())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


def rescale(elapsed: float, before: float, after: float) -> float:
    return elapsed * REFERENCE_PROBE_S / ((before + after) / 2)
