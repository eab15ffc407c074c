"""Token-curated registry simulator with a participation-inflation mechanism.

The package has three layers:

* a round-by-round protocol engine (staking, majority tally, settlement,
  inflation) driven by a seeded four-class voter model,
* a closed-form model of the idealized setting, used as an independent
  oracle for the engine,
* an experiment harness (replicated sweeps, cross-seed aggregation,
  engine-vs-closed-form validation) and a CLI that serializes traces,
  aggregates and SVG charts.
"""

__version__ = "0.1.0"
