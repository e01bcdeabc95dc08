"""One module per table/figure of the paper's evaluation.

Every module declares its exhibit as one :class:`~repro.experiments.
framework.Experiment` registration (``module.EXPERIMENT``) beside its
Result type and the paper's numbers.  There is one way to run an
exhibit::

    framework.run_experiment(module.EXPERIMENT, Context.make(...),
                             session=...)

which returns the structured Result; ``python -m repro run <name>``
(:func:`repro.report.run_exhibit`) prints it as the paper-style table
with the published numbers alongside the reproduced ones.  The report
generator plans every registered declaration as one deduplicated
session batch; the exhibit assertions under ``exhibits/`` call
``run_experiment``; EXPERIMENTS.md records the paper-vs-measured
comparison.

Experiment scope knobs (environment variables, overridden by the
matching :class:`~repro.experiments.framework.Context` fields and CLI
flags):

- ``REPRO_TIME_SCALE``: the :class:`repro.params.SimScale` divisor
  (default 512 for quick runs; 1 reproduces the paper's full 32 ms
  windows).
- ``REPRO_CGF_SCALE``: the divisor for activation-counting cells
  (default 16).
- ``REPRO_WORKLOADS``: comma-separated workload names or ``all``
  (default: a 6-workload representative subset).
- ``REPRO_SEED``: the base RNG seed (default 0).

A malformed or non-positive scale, or a malformed seed, warns once and
falls back to its default (:mod:`repro._env`).
"""

from repro.experiments import (  # noqa: F401
    extras,
    fig1,
    fig3,
    fig6,
    fig11,
    fig13,
    framework,
    fuzz,
    intervm,
    table1,
    table2,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
    table10,
    table11,
    table12,
    table13,
    tracecal,
)

__all__ = [
    "extras", "framework", "fuzz", "intervm", "tracecal",
    "fig1", "fig3", "fig6", "fig11", "fig13",
    "table1", "table2", "table4", "table5", "table6", "table7",
    "table8", "table9", "table10", "table11", "table12", "table13",
]
