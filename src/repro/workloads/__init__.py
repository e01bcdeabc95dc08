"""Workloads: Table IV descriptors, synthetic traces, attack kernels.

The paper evaluates 24 workloads (SPEC-2017 with MPKI >= 1, the six GAP
graph kernels, and six mixes).  We reproduce each as a synthetic trace
generator calibrated to the workload's published characteristics --
L3 MPKI, ACT-PKI, bus utilisation, and the mean/std of activations per
subarray per refresh window -- since those four statistics are exactly
what every result in the paper is a function of (see DESIGN.md).

Everything that can feed cores -- the calibrated synthetic generators,
multiprogrammed mixes, recorded trace files, and the adversarial
kernels -- satisfies one seam, :class:`WorkloadSource`: an ``mlp``
hint, a per-core :meth:`~WorkloadSource.chunk_source`, and a
:meth:`~WorkloadSource.trace_factory` that
:class:`repro.cpu.system.MultiCoreSystem` consumes directly.  Ad-hoc
iterator-based traces adapt via :class:`IterableWorkloadSource`.
"""

from typing import Callable, Iterable, Protocol, runtime_checkable

from repro.cpu.trace import ChunkSource, TraceEntry, chunk_entries
from repro.workloads.attacks import (
    AttackWorkload,
    benign_striped_trace,
    double_sided_attack_stream,
    feinting_attack_stream,
    performance_attack_trace,
    trr_evasion_pattern,
    worst_case_single_bank_stream,
)
from repro.workloads.patterns import (
    AttackPattern,
    CompileContext,
    DecoyEvasion,
    DoubleSided,
    Feint,
    HalfDouble,
    NSided,
    RefreshSyncBurst,
    RowCycle,
    Sequence,
    paper_attack_set,
)
from repro.workloads.specs import (
    ALL_WORKLOADS,
    GAP_WORKLOADS,
    MIX_WORKLOADS,
    SPEC_WORKLOADS,
    WorkloadSpec,
    workload_by_name,
)
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.tenants import (
    Tenant,
    TenantScenario,
    TenantWorkload,
    TranslatedChunkSource,
    intervm_scenario,
    scenario_footprints,
)
from repro.workloads.tracefile import (
    TRACE_FORMATS,
    TraceFileWorkload,
    calibration_report,
    convert_trace,
    detect_format,
    load_trace,
    open_ingest,
    read_dramsim3_trace,
    read_litex_rows,
    read_trace,
    trace_from_string,
    trace_metadata,
    write_trace,
)


@runtime_checkable
class WorkloadSource(Protocol):
    """What a workload must provide to drive a multi-core system.

    :class:`~repro.workloads.synthetic.SyntheticWorkload`,
    :class:`~repro.workloads.mixed.MixedWorkload`,
    :class:`~repro.workloads.tracefile.TraceFileWorkload`, and
    :class:`~repro.workloads.attacks.AttackWorkload` all satisfy it; a
    custom source can be any object with these three members.
    """

    mlp: int
    """Outstanding-miss budget the cores should run with."""

    def chunk_source(self, core_id: int) -> ChunkSource:
        """The chunked miss trace for one core."""
        ...

    def trace_factory(self) -> Callable[[int], ChunkSource]:
        """``core_id -> trace`` callable for ``MultiCoreSystem``."""
        ...


class IterableWorkloadSource:
    """Adapt ``core_id -> iterable of TraceEntry`` to the seam.

    The factory is invoked once per core per system build; traces must
    be independently restartable (a generator *function*, not a spent
    generator object).
    """

    def __init__(self, factory: Callable[[int], Iterable[TraceEntry]],
                 mlp: int = 8, chunk_size: int = 256) -> None:
        self._factory = factory
        self.mlp = mlp
        self._chunk_size = chunk_size

    def chunk_source(self, core_id: int) -> ChunkSource:
        """The wrapped iterable, chunked for the core's fast path."""
        return chunk_entries(self._factory(core_id), self._chunk_size)

    def trace_factory(self) -> Callable[[int], ChunkSource]:
        """``core_id -> trace`` callable for ``MultiCoreSystem``."""
        return self.chunk_source


__all__ = [
    "ALL_WORKLOADS",
    "AttackPattern",
    "AttackWorkload",
    "CompileContext",
    "DecoyEvasion",
    "DoubleSided",
    "Feint",
    "GAP_WORKLOADS",
    "HalfDouble",
    "IterableWorkloadSource",
    "MIX_WORKLOADS",
    "NSided",
    "RefreshSyncBurst",
    "RowCycle",
    "SPEC_WORKLOADS",
    "Sequence",
    "SyntheticWorkload",
    "TRACE_FORMATS",
    "Tenant",
    "TenantScenario",
    "TenantWorkload",
    "TraceFileWorkload",
    "TranslatedChunkSource",
    "WorkloadSource",
    "WorkloadSpec",
    "benign_striped_trace",
    "calibration_report",
    "convert_trace",
    "detect_format",
    "double_sided_attack_stream",
    "feinting_attack_stream",
    "intervm_scenario",
    "load_trace",
    "open_ingest",
    "paper_attack_set",
    "performance_attack_trace",
    "read_dramsim3_trace",
    "read_litex_rows",
    "read_trace",
    "scenario_footprints",
    "trace_from_string",
    "trace_metadata",
    "trr_evasion_pattern",
    "workload_by_name",
    "worst_case_single_bank_stream",
    "write_trace",
]
