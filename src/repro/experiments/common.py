"""Shared plumbing for the experiment modules.

Besides the environment knobs (scales, workload subsets, seed) and the
activation-level measurement kernels (:func:`measure_cgf`,
:func:`acts_per_subarray_for`), this module defines the *session job*
wrappers the experiment sweeps submit to a
:class:`~repro.sim.session.SimSession`: :class:`CgfJob` and
:class:`SubarrayStatsJob` make the counting measurements cacheable and
process-pool dispatchable exactly like the timed ``SimJob`` runs.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro._env import env_int, env_positive_int
from repro.core.rct import RegionCountTable
from repro.dram.mapping import (
    RowToSubarrayMapping,
    SequentialR2SA,
    StridedR2SA,
)
from repro.dram.refresh import RefreshScheduler
from repro.params import SimScale, SystemConfig
from repro.sim.runner import MitigationSetup
from repro.sim.session import (
    SimJob,
    SimSession,
    get_default_session,
    register_job_type,
)
from repro.workloads.specs import ALL_WORKLOADS, WorkloadSpec, \
    workload_by_name
from repro.workloads.synthetic import SyntheticWorkload

DEFAULT_SUBSET = ["cc", "fotonik3d", "tc", "blender", "mcf", "bc"]
"""Representative subset: the heaviest GAP/SPEC workloads plus light
ones, spanning the full range of ACT intensity and spread."""


def default_scale() -> SimScale:
    """Simulation window divisor (REPRO_TIME_SCALE, default 512)."""
    return SimScale(env_positive_int("REPRO_TIME_SCALE", 512))


def cgf_scale() -> SimScale:
    """Window divisor for activation-level CGF measurements.

    Counting experiments are orders of magnitude cheaper than timed
    simulation, and the filter's escape probability is sensitive to the
    count-to-FTH granularity, so they run at a much milder scale
    (REPRO_CGF_SCALE, default 16: per-region counts of ~50-100 against
    an FTH of ~94 at TRHD=1K).
    """
    return SimScale(env_positive_int("REPRO_CGF_SCALE", 16))


def default_seed() -> int:
    """Base RNG seed for simulation sweeps (REPRO_SEED, default 0)."""
    return env_int("REPRO_SEED", 0)


def selected_workloads(names: Optional[Iterable[str]] = None
                       ) -> List[WorkloadSpec]:
    """Workload list from the argument or REPRO_WORKLOADS."""
    if names is None:
        raw = os.environ.get("REPRO_WORKLOADS", "")
        if raw.strip().lower() == "all":
            return list(ALL_WORKLOADS)
        names = [n for n in raw.split(",") if n.strip()] or DEFAULT_SUBSET
    return [workload_by_name(n.strip()) for n in names]


def sweep_slowdowns(pairs: Sequence[Tuple[WorkloadSpec,
                                          MitigationSetup]],
                    scale: SimScale,
                    seed: Optional[int] = None,
                    session: Optional[SimSession] = None
                    ) -> List[Tuple[float, "object"]]:
    """(slowdown %, protected result) for each (workload, setup) pair.

    The whole sweep -- protected runs plus their deduplicated
    unprotected baselines -- is submitted to the session as one batch,
    so it fans out over worker processes when the session (or the CLI's
    ``--jobs`` flag) allows, with output identical to a serial sweep.
    """
    session = session or get_default_session()
    seed = default_seed() if seed is None else seed
    jobs = [SimJob(spec, setup, scale, seed) for spec, setup in pairs]
    return session.slowdowns(jobs)


@dataclass
class CgfStats:
    """Activation-level coarse-grained-filtering measurement."""

    total_acts: int
    filtered: int
    escaped: int

    @property
    def filtered_pct(self) -> float:
        return 100.0 * self.filtered / self.total_acts \
            if self.total_acts else 0.0

    @property
    def remaining_pct(self) -> float:
        return 100.0 * self.escaped / self.total_acts \
            if self.total_acts else 0.0


def measure_cgf(spec: WorkloadSpec,
                mapping_kind: str,
                fth: int,
                num_regions: int = 128,
                scale: SimScale = SimScale(512),
                config: SystemConfig = SystemConfig(),
                seed: int = 0) -> CgfStats:
    """Replay one window of activations through per-bank RCTs.

    This is the fast activation-level path (no command timing): the
    workload generator's row visits are fed straight into a Region
    Count Table per bank, with the refresh sweep advanced at the
    equivalent per-bank ACT cadence.  Used for Table VI and the
    escape-probability column of Table VIII.
    """
    geometry = config.geometry
    mapping: RowToSubarrayMapping = (
        StridedR2SA(geometry) if mapping_kind == "strided"
        else SequentialR2SA(geometry))
    synthetic = SyntheticWorkload(spec, config, scale, seed=seed)
    acts_per_bank = scale.scale_count(spec.acts_per_bank_per_window)
    total_acts = int(acts_per_bank * geometry.total_banks)

    refs_per_window = scale.scaled_refs_per_window(config.timings)
    rcts: Dict[Tuple[int, int], RegionCountTable] = {}
    schedulers: Dict[Tuple[int, int], RefreshScheduler] = {}
    acts_seen: Dict[Tuple[int, int], int] = {}
    acts_per_ref = max(1, int(acts_per_bank / refs_per_window))

    filtered = escaped = emitted = 0
    # Round-robin the per-core traces so bank interleaving matches the
    # timed simulation's.
    traces = [synthetic.trace(core) for core in range(config.num_cores)]
    core = 0
    while emitted < total_acts:
        entry = next(traces[core])
        core = (core + 1) % len(traces)
        key = (entry.subchannel, entry.bank)
        if key not in rcts:
            rcts[key] = RegionCountTable(num_regions, fth, geometry)
            schedulers[key] = RefreshScheduler(
                geometry, mapping, refs_per_window)
            acts_seen[key] = 0
        physical = mapping.physical_index(entry.row)
        if rcts[key].on_activate(physical):
            escaped += 1
        else:
            filtered += 1
        emitted += 1
        acts_seen[key] += 1
        if acts_seen[key] % acts_per_ref == 0:
            rcts[key].on_ref_slice(schedulers[key].advance())
    return CgfStats(total_acts=emitted, filtered=filtered,
                    escaped=escaped)


def acts_per_subarray_for(spec: WorkloadSpec,
                          scale: SimScale = SimScale(512),
                          config: SystemConfig = SystemConfig(),
                          seed: int = 0) -> Tuple[float, float]:
    """(mean, std) activations per subarray per window under strided
    mapping -- the Figure 6 / Table IV measurement, activation-level."""
    geometry = config.geometry
    mapping = StridedR2SA(geometry)
    synthetic = SyntheticWorkload(spec, config, scale, seed=seed)
    acts_per_bank = scale.scale_count(spec.acts_per_bank_per_window)
    total_acts = int(acts_per_bank * geometry.total_banks)
    counts: Dict[Tuple[int, int, int], int] = {}
    traces = [synthetic.trace(core) for core in range(config.num_cores)]
    emitted, core = 0, 0
    while emitted < total_acts:
        entry = next(traces[core])
        core = (core + 1) % len(traces)
        sa = mapping.subarray_of(entry.row)
        key = (entry.subchannel, entry.bank, sa)
        counts[key] = counts.get(key, 0) + 1
        emitted += 1
    values = []
    for subch in range(geometry.subchannels):
        for bank in range(geometry.banks_per_subchannel):
            for sa in range(geometry.subarrays_per_bank):
                values.append(counts.get((subch, bank, sa), 0))
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, var ** 0.5


# ----------------------------------------------------------------------
# Session jobs for the counting measurements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CgfJob:
    """One :func:`measure_cgf` call as a cacheable session job."""

    spec: WorkloadSpec
    mapping_kind: str
    fth: int
    num_regions: int = 128
    scale: SimScale = SimScale(512)
    config: SystemConfig = SystemConfig()
    seed: int = 0

    def execute(self) -> CgfStats:
        """Run the measurement (uncached; the worker-process path)."""
        return measure_cgf(self.spec, self.mapping_kind, self.fth,
                           self.num_regions, self.scale, self.config,
                           self.seed)


@dataclass(frozen=True)
class SubarrayStatsJob:
    """One :func:`acts_per_subarray_for` call as a session job."""

    spec: WorkloadSpec
    scale: SimScale = SimScale(512)
    config: SystemConfig = SystemConfig()
    seed: int = 0

    def execute(self) -> Tuple[float, float]:
        """Run the measurement (uncached; the worker-process path)."""
        return acts_per_subarray_for(self.spec, self.scale,
                                     self.config, self.seed)


register_job_type(CgfJob, dataclasses.asdict,
                  lambda payload: CgfStats(**payload))
register_job_type(SubarrayStatsJob, list, tuple)


def measure_cgf_many(jobs: Sequence[CgfJob],
                     session: Optional[SimSession] = None
                     ) -> List[CgfStats]:
    """Run a batch of :class:`CgfJob` through the (default) session."""
    session = session or get_default_session()
    return session.run_many(jobs)


def subarray_stats_many(jobs: Sequence[SubarrayStatsJob],
                        session: Optional[SimSession] = None
                        ) -> List[Tuple[float, float]]:
    """Run :class:`SubarrayStatsJob` batches through the session."""
    session = session or get_default_session()
    return session.run_many(jobs)
