"""The repo's benchmark: one GlueFL workload per call, measured from outside.

From the root of a checkout:

    python3 perfbench/run.py --workload table2_cnn --seed 1 --seconds 15 --trace 0

Workloads and metrics are listed in ``BENCHMARK.json`` (see also
``perfbench/README.md``).  The workload runs in a fresh subprocess
(``child.py``) with a scrubbed environment: ``PYTHONPATH`` pointing at this
checkout's ``src/``, BLAS/OpenMP threads pinned to 1 and nothing else
passed through (no ``REPRO_SANITIZE``).

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` runs the
workload twice — untraced, then traced — checks that the traced run's
simulation results equal the untraced run's exactly, and prints every
per-layer metric, including the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from child import LOOP_CAP_FACTOR
from metrics import tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: a child may measure for up to ``child.LOOP_CAP_FACTOR`` times
#: ``--seconds``; this much more covers imports and set-up
CHILD_SLACK_S = 15
#: simulation results a traced run must reproduce bit for bit
EXACT_UNDER_TRACING = ("dv_gb", "tv_gb", "sim_tt_s", "final_accuracy")
#: figures of every run whose spread across seeds is too wide to gate;
#: printed on every run, reported as metrics by ``--trace 1``
UNGATED = ("host_tta_s", "sim_dt_s", "sim_tt_s", "final_accuracy")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    """A scrubbed environment: only what the child needs, threads pinned."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def run_child(workload: str, seed: int, seconds: float, trace_out=None) -> dict:
    """Run ``child.py`` in its own process group; return its JSON result.

    On timeout the whole group (the child and its workers) is killed and
    waited for."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.Popen(
        cmd, cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=LOOP_CAP_FACTOR * seconds + CHILD_SLACK_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload}: child exceeded its time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def describe(run: dict) -> list:
    """Human-readable lines about one run: fingerprint, tail, checks."""
    _, pct, n = tail(run["round_s"][1:])
    fp = run["fingerprint"]
    wall_p50 = statistics.median(run["round_wall_s"][1:])
    speed = statistics.median(run["speed_factors"])
    return [
        f"# host: nproc={fp['nproc']} affinity={fp['affinity']} "
        f"python={fp['python']} numpy={fp['numpy']} "
        f"blas={fp['blas']['name']} {fp['blas']['version']} "
        f"threads={fp['threads']} seed={fp['seed']}",
        f"# rounds measured={n} round_tail_s=p{pct:.1f} "
        f"setups={len(run['setup_s'])} attempted={run['attempted']} "
        f"failed={run['failed']} violations={run['violations'] or 'none'}",
        f"# host speed: median factor {speed:.4f} over "
        f"{len(run['speed_factors'])} calibrations; wall round_p50 {wall_p50:.6g} s "
        f"(timings below are reference seconds = wall x factor)",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        base = run_child(args.workload, args.seed, args.seconds)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    lines = describe(base)
    attempted, failed = base["attempted"], base["failed"]
    e2e = base["e2e"] or {}
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        trace_out = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        try:
            traced = run_child(args.workload, args.seed, args.seconds, trace_out)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        lines += describe(traced)
        attempted += traced["attempted"]
        failed += traced["failed"]
        t_e2e = traced["e2e"] or {}
        drift = [
            k for k in EXACT_UNDER_TRACING if t_e2e.get(k) != e2e.get(k)
        ]
        if drift:
            lines.append(f"# tracing changed simulation results: {drift}")
            failed += 1
        untraced_p50 = e2e.get("round_p50_s", math.nan)
        traced_p50 = t_e2e.get("round_p50_s", math.nan)
        layers = dict(traced.get("layers") or {})
        layers.update({k: e2e.get(k, math.nan) for k in UNGATED})
        layers["trace.round_p50_untraced_s"] = untraced_p50
        layers["trace.round_p50_traced_s"] = traced_p50
        layers["trace.overhead_share"] = traced_p50 / untraced_p50 - 1.0
        cov = traced.get("coverage", {})
        lines.append(
            f"# coverage per round (wall): round={cov.get('round_s', math.nan):.6f}s "
            f"= children {cov.get('children_s', math.nan):.6f}s "
            f"+ self {cov.get('self_s', math.nan):.6f}s; "
            f"spans in {trace_out.relative_to(ROOT)}"
        )
        names = [m["name"] for m in spec["per_layer"]]
        values = layers
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = e2e
        for k in UNGATED:
            if k in e2e:
                lines.append(f"# {k} = {e2e[k]:.6g} {units[k]} (ungated)")

    missing = [n for n in names if not isinstance(values.get(n), (int, float))
               or not math.isfinite(values[n])]
    if missing:
        lines.append(f"# metrics not measured: {missing}")
        failed = max(failed, 1)
    metrics = {
        n: {"value": values[n], "unit": units[n]} for n in names if n not in missing
    }
    for n in names:
        if n in metrics:
            lines.append(f"{args.workload:>14} {n:<36} {metrics[n]['value']:>14.6g} {units[n]}")
    correct = failed == 0
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct, "attempted": max(attempted, 1),
        "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
