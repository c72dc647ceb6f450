"""Measure one workload in this process; print one JSON object.

Run by ``run.py`` in a fresh subprocess with a scrubbed environment:

    python perfbench/child.py --workload NAME --seed N --seconds S
        [--trace-out PATH]

Set-up (dataset, server, execution workers and the warm-up round) runs
``SETUPS`` times; the last server then runs timed rounds until at least
``--seconds`` have passed and the workload's horizon is reached.  Every
round is checked (see ``checks.py``).  With ``--trace-out`` the last server
carries spans (see ``tracing.py``), which are reduced to per-layer metrics
and written to that path at exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List

from checks import check_round, check_run
from hostspeed import HostSpeed
from metrics import end_to_end, per_layer, simulation_figures
from tracing import Tracer, coverage, instrument, reduce_spans
from workloads import WORKLOADS

#: give up measuring after this many times ``--seconds`` (the horizon
#: must be reached by then, or the run fails its checks)
LOOP_CAP_FACTOR = 3
#: seconds between host-speed calibrations during the measured rounds
CALIBRATE_EVERY_S = 1.0
#: set-ups per run; ``setup_s`` is their median
SETUPS = 5


def _children() -> List[int]:
    pids: List[int] = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except OSError:
            pass
    return pids


def _cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def _sum_over_children(read) -> float:
    """Sum ``read(pid)`` over the child processes (the backend's workers);
    a child that exits while being read counts 0."""
    total = 0.0
    for pid in _children():
        try:
            total += read(pid)
        except OSError:
            pass
    return total


def fingerprint(seed: int) -> Dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "seed": seed,
    }


def _record(rec) -> dict:
    return {
        "round_idx": rec.round_idx,
        "down_bytes": int(rec.down_bytes),
        "up_bytes": int(rec.up_bytes),
        "download_seconds": float(rec.download_seconds),
        "wall_clock_s": rec.wall_clock_s,
        "num_candidates": int(rec.num_candidates),
        "num_participants": int(rec.num_participants),
        "accuracy": rec.accuracy,
    }


def measure(name: str, seed: int, seconds: float, trace_out) -> dict:
    from repro.fl.server import FLServer

    workload = WORKLOADS[name]
    tracer = Tracer() if trace_out else None
    speed = HostSpeed()
    factors: List[float] = []
    setup_wall: List[float] = []
    for i in range(SETUPS):
        gc.collect()
        factors.append(speed.factor())
        t0 = time.perf_counter()
        server = FLServer(workload.build(seed))
        server.backend  # noqa: B018 - starts the execution workers
        if tracer is not None and i == SETUPS - 1:
            uninstall = instrument(
                server, tracer, layers=workload.in_process_training
            )
        t1 = time.perf_counter()
        first = server.run_round()
        t2 = time.perf_counter()
        setup_wall.append(t2 - t0)
        if i < SETUPS - 1:
            server.close()
            del server, first

    # wall seconds per round, and the host-speed factor next to each
    wall = [t2 - t1]
    round_factor = [factors[-1]]
    records = [first]
    violations: Dict[str, int] = {}
    failed_rounds = set()

    def note(bad: List[str], round_idx: int) -> None:
        for v in bad:
            violations[v] = violations.get(v, 0) + 1
        if bad:
            failed_rounds.add(round_idx)

    note(check_round(first, None, server.global_params), first.round_idx)
    if tracer is not None:
        tracer.counters.clear()
    cpu0 = _sum_over_children(_cpu_s)
    start = last_calibration = time.perf_counter()
    raised = 0
    while True:
        elapsed = time.perf_counter() - start
        if (
            len(records) >= workload.horizon
            and (len(records) - 1) % workload.block == 0
            and elapsed >= seconds
        ):
            break
        if elapsed >= LOOP_CAP_FACTOR * seconds:
            note(["loop_cap"], records[-1].round_idx)
            break
        if time.perf_counter() - last_calibration >= CALIBRATE_EVERY_S:
            factors.append(speed.factor())
            last_calibration = time.perf_counter()
        t = time.perf_counter()
        try:
            rec = server.run_round()
        except Exception:  # a failing round is counted, then the run stops
            traceback.print_exc()
            raised = 1
            note(["round_raised"], server.round_idx)
            break
        wall.append(time.perf_counter() - t)
        round_factor.append(factors[-1])
        note(
            check_round(rec, records[-1].wall_clock_s, server.global_params),
            rec.round_idx,
        )
        records.append(rec)
    worker_cpu = _sum_over_children(_cpu_s) - cpu0
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    peak_rss += _sum_over_children(_peak_rss_mb)
    workers = getattr(server.backend, "workers", 1)
    server.close()

    rounds = [_record(r) for r in records]
    sim = None
    if len(rounds) >= workload.horizon:
        sim = simulation_figures(rounds, workload.horizon, workload.target_accuracy)
        bad = check_run(
            sim["final_accuracy"], workload.accuracy_floor, sim["target_round"]
        )
    else:
        bad = ["horizon_reached"]
    note(bad, rounds[-1]["round_idx"])
    run = {
        "workload": name,
        "fingerprint": fingerprint(seed),
        "setup_s": [w * f for w, f in zip(setup_wall, factors)],
        "setup_wall_s": setup_wall,
        "round_s": [w * f for w, f in zip(wall, round_factor)],
        "round_wall_s": wall,
        "speed_factors": factors,
        "rounds": rounds,
        "sim": sim,
        "peak_rss_mb": peak_rss,
        "attempted": len(rounds) + raised,
        "failed": len(failed_rounds),
        "violations": violations,
    }
    run["e2e"] = end_to_end(run) if sim is not None else None
    if tracer is not None:
        uninstall()
        measured_ids = [r["round_idx"] for r in rounds[1:]]
        spans = tracer.spans()
        reduced = reduce_spans(spans, measured_ids)
        run["layers"] = per_layer(
            reduced,
            tracer.counters,
            rounds[1:],
            has_engine=hasattr(server.scheduler, "engine"),
            workers=workers,
            worker_cpu_s=None if workload.in_process_training else worker_cpu,
        )
        run["coverage"] = coverage(spans, measured_ids)
        # span seconds in reference seconds, like the end-to-end timings
        scale = statistics.median(factors)
        for key in run["layers"]:
            if key.endswith("_s"):
                run["layers"][key] *= scale
        tracer.write(trace_out)
    return run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    run = measure(args.workload, args.seed, args.seconds, args.trace_out)
    del run["rounds"]
    print(json.dumps(run))


if __name__ == "__main__":
    sys.exit(main())
