"""Shared scope for the exhibit assertions.

Each ``test_*.py`` here runs one paper exhibit (or an ablation beside
it) through :func:`repro.experiments.framework.run_experiment` and
asserts the paper's claims on the Result.  The scope below keeps the
whole directory to a couple of minutes:

    PYTHONPATH=src python -m pytest -q exhibits/

For paper fidelity, run the exhibits themselves at a smaller divisor
instead, e.g. ``REPRO_TIME_SCALE=64 REPRO_WORKLOADS=all python -m
repro report``.
"""

from repro.params import SimScale

WORKLOADS = ("cc", "tc", "mcf")
"""Workload subset: two GAP graph kernels and SPEC's mcf."""

TIMED_SCALE = SimScale(512)
"""Window divisor for command-timing simulations."""

COUNTING_SCALE = SimScale(32)
"""Window divisor for activation-counting measurements."""
