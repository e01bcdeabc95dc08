"""The benchmark's workloads: job construction, execution and digests.

Each workload is a pure function of its seed: :func:`build` turns
``(workload, seed)`` into the jobs the program receives, :func:`execute`
hands them to a serial ``SimSession`` through the same public call a
user makes, and :func:`digests` reduces the per-cell results to one
digest per cell over simulated statistics only.  This module imports
``repro``; ``run.py`` never does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, List, Optional

from repro import SimJob, SimSession, setup_by_name
from repro.params import SimScale
from repro.security.fuzz import FuzzSpec, fuzz_jobs, run_fuzz
from repro.sim.session import TenantJob, is_failure
from repro.workloads.tenants import intervm_scenario

NAMES = ("benign-cold", "attack-tenants", "fuzz-sweep")

SCALE = SimScale(512)
BENIGN_WORKLOADS = ("tc", "mcf", "lbm", "mix_1")
BENIGN_SETUPS = ("baseline", "prac-1000", "mint-rfm-1000", "mirza-1000")
ATTACK_ROWS = (8, 32)
ATTACK_SETUPS = ("mirza-1000", "prac-1000", "mint-rfm-1000", "mirza-500",
                 "prac-500")
FUZZ_BUDGET = 32

FAILED = "failed"
"""Digest slot of a cell that raised instead of producing a result."""


@dataclass(frozen=True)
class Cells:
    """The jobs of one workload run, in cell order."""

    jobs: List[Any]
    spec: Optional[FuzzSpec] = None
    """The sweep, for ``fuzz-sweep`` (its jobs are ``fuzz_jobs(spec)``)."""


def build(workload: str, seed: int, limit: Optional[int] = None,
          fuzz_budget: int = FUZZ_BUDGET) -> Cells:
    """The cells ``workload`` runs for ``seed``.

    ``limit`` keeps the first simulation cells only and ``fuzz_budget``
    sizes the fuzz sweep; the benchmark's own tests shrink them, timed
    runs never do.
    """
    if workload == "benign-cold":
        jobs = [SimJob(name, setup_by_name(setup, SCALE), SCALE, seed)
                for name in BENIGN_WORKLOADS for setup in BENIGN_SETUPS]
    elif workload == "attack-tenants":
        jobs = [TenantJob(intervm_scenario(attack_rows=rows, victim="mcf",
                                           attacker_seed=2 * seed + 1,
                                           victim_seed=2 * seed + 2),
                          setup_by_name(setup, SCALE), SCALE, seed)
                for rows in ATTACK_ROWS for setup in ATTACK_SETUPS]
    elif workload == "fuzz-sweep":
        spec = FuzzSpec(budget=fuzz_budget, seed=seed)
        return Cells([job for _, job in fuzz_jobs(spec)], spec)
    else:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"choose from {', '.join(NAMES)}")
    return Cells(jobs[:limit] if limit else jobs)


def new_session(cache_dir: Optional[str]) -> SimSession:
    """A serial, keep-going session; ``cache_dir`` None is memory-only."""
    return SimSession(cache_dir=cache_dir, disk_cache=cache_dir is not None,
                      max_workers=1, failure_policy="keep_going")


def execute(cells: Cells, session: SimSession) -> List[Any]:
    """Run the cells through the public call a user makes.

    Returns one entry per cell: the result, or ``None`` for a cell that
    failed.  ``run_fuzz`` reports only completed cells (in cell order),
    so its entries are matched back to the cells here.
    """
    if cells.spec is None:
        return [None if is_failure(r) else r
                for r in session.run_many(cells.jobs)]
    report = run_fuzz(cells.spec, session)
    entries = iter(report.entries)
    entry = next(entries, None)
    out: List[Any] = []
    for origin, job in fuzz_jobs(cells.spec):
        if (entry is not None and entry.origin == origin
                and entry.outcome.mitigation == job.mitigation
                and entry.outcome.label == job.pattern.label()):
            out.append(entry)
            entry = next(entries, None)
        else:
            out.append(None)
    return out


def activations(results: List[Any]) -> int:
    """Simulated ACTs: ``total_activations``, or harness ACTs for fuzz."""
    total = 0
    for r in results:
        if r is not None:
            total += r.outcome.acts if hasattr(r, "outcome") \
                else r.total_activations
    return total


def cell_stats(result: Any) -> dict:
    """The simulated statistics a cell's digest covers.

    Only simulated quantities: never the backend name, metrics
    snapshots, trace events, spans, wall times, pids or paths, all of
    which legitimately differ between identical runs or backends.
    """
    if hasattr(result, "outcome"):
        return {"origin": result.origin,
                **dataclasses.asdict(result.outcome)}
    return {
        "total_requests": result.total_requests,
        "total_activations": result.total_activations,
        "alerts": list(result.alerts),
        "rfms": list(result.rfms),
        "mitigations": result.mitigations,
        "max_unmitigated_acts": result.max_unmitigated_acts,
        "row_hit_rate": f"{result.row_hit_rate:.6f}",
        "ipc": [f"{ipc:.6f}" for ipc in result.ipc],
        "tenants": result.tenants,
        "unmitigated_by_bank": result.unmitigated_by_bank,
    }


def digests(results: List[Any]) -> List[str]:
    """One digest per cell (:data:`FAILED` for a failed cell)."""
    out = []
    for r in results:
        if r is None:
            out.append(FAILED)
            continue
        blob = json.dumps(cell_stats(r), sort_keys=True)
        out.append(hashlib.sha256(blob.encode()).hexdigest()[:16])
    return out
