"""One repetition of one workload, in a fresh interpreter.

``run.py`` launches this script once per repetition and reads the JSON
object it prints as its last stdout line.  Modes:

``setup``   import and build the jobs, then stop (a set-up sample);
``timed``   run the workload untraced;
``traced``  run it with the per-layer wrappers installed;
``oracle``  run it on the ``event`` backend in a memory-only session,
            untimed, for the digests a held-out seed is checked against.

Timestamps use ``time.monotonic``, which on Linux is the system-wide
``CLOCK_MONOTONIC``, so the parent can subtract its launch time.

Run it directly with, for example::

    PYTHONPATH=src python3 perfbench/worker.py --workload fuzz-sweep \\
        --seed 0 --mode timed --cache-dir /tmp/perfbench-cache
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced", "oracle"))
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args()

    t_import = time.monotonic()
    import repro  # noqa: F401
    import_s = time.monotonic() - t_import
    import workloads

    tracer = None
    if args.mode == "traced":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    cells = workloads.build(args.workload, args.seed)
    session = workloads.new_session(
        None if args.mode == "oracle" else args.cache_dir)

    out = {"import_s": import_s}
    cpu0 = _cpu_s()
    t_submit = time.monotonic()
    out["t_submit"] = t_submit
    if args.mode != "setup":
        results = workloads.execute(cells, session)
        wall_s = time.monotonic() - t_submit
        cpu_s = _cpu_s() - cpu0
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.layers(wall_s)
            batch = session.last_batch
            out["layers"].update({"session.computed": batch.computed,
                                  "session.failed": batch.failed,
                                  "session.retried": batch.retried})
        out.update({
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "acts": workloads.activations(results),
            "digests": workloads.digests(results),
        })
    print(json.dumps(out))


if __name__ == "__main__":
    main()
