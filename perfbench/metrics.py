"""Metric arithmetic: end-to-end figures from one run's rounds, per-layer
figures from its reduced spans.  Pure functions over plain data."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from tracing import NN_LAYERS, PHASES

#: rounds that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile of ``samples`` with
    at least ``TAIL_BEYOND`` samples beyond it (the maximum when there are
    too few samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    idx = n - TAIL_BEYOND - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n


def smoothed(accuracies: Sequence[float], window: int = 5) -> List[float]:
    """Moving average over the last ``window`` evaluations (the paper's
    smoothing before the target test)."""
    out = []
    for i in range(len(accuracies)):
        part = accuracies[max(0, i - window + 1) : i + 1]
        out.append(sum(part) / len(part))
    return out


def first_reaching(values: Sequence[float], target: float) -> Optional[int]:
    """1-based position of the first value ``>= target`` (None if none)."""
    for i, v in enumerate(values):
        if v >= target:
            return i + 1
    return None


def simulation_figures(rounds: Sequence[dict], horizon: int, target: float) -> dict:
    """The paper's quantities over rounds ``1..horizon`` (Table 2 columns
    plus accuracy) and the round where the smoothed accuracy first
    reaches ``target``.  Rounds are dicts with the RoundRecord fields."""
    head = rounds[:horizon]
    down = sum(r["down_bytes"] for r in head)
    up = sum(r["up_bytes"] for r in head)
    acc = smoothed([r["accuracy"] for r in head])
    return {
        "dv_gb": down / 1e9,
        "tv_gb": (down + up) / 1e9,
        "sim_dt_s": sum(r["download_seconds"] for r in head),
        "sim_tt_s": head[-1]["wall_clock_s"],
        "final_accuracy": acc[-1],
        "target_round": first_reaching(acc, target),
    }


def end_to_end(run: dict) -> Dict[str, float]:
    """End-to-end metrics of one untraced run.

    ``run`` carries ``setup_s`` (one entry per set-up), ``round_s``
    (seconds per round; entry 0 is the warm-up round), ``rounds``
    (record dicts), ``sim`` (:func:`simulation_figures`), ``peak_rss_mb``
    and ``attempted``/``failed`` round counts.
    """
    host = run["round_s"]
    measured = host[1:]
    participants = sum(r["num_participants"] for r in run["rounds"][1:])
    tail_value, _, _ = tail(measured)
    sim = run["sim"]
    target_round = sim["target_round"]
    return {
        "round_p50_s": statistics.median(measured),
        "round_tail_s": tail_value,
        "client_updates_per_s": participants / sum(measured),
        "setup_s": statistics.median(run["setup_s"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "dv_gb": sim["dv_gb"],
        "tv_gb": sim["tv_gb"],
        "ok_round_share": (run["attempted"] - run["failed"]) / run["attempted"],
        "host_tta_s": sum(host[:target_round]) if target_round else float("nan"),
        "sim_dt_s": sim["sim_dt_s"],
        "sim_tt_s": sim["sim_tt_s"],
        "final_accuracy": sim["final_accuracy"],
    }


def per_layer(
    spans: Dict[str, Dict[str, float]],
    counters: Dict[str, float],
    rounds: Sequence[dict],
    *,
    has_engine: bool,
    workers: int,
    worker_cpu_s: Optional[float],
) -> Dict[str, float]:
    """Per-layer metrics from the reduced spans of the measured rounds
    (see :func:`tracing.reduce_spans`), per round unless named otherwise.

    ``worker_cpu_s`` is the CPU time the backend's worker processes used
    over the measured rounds (None when training runs in this process).
    """
    n = len(rounds)
    zero = {"self": 0.0, "total": 0.0, "calls": 0}

    def get(name: str) -> Dict[str, float]:
        return spans.get(name, zero)

    out: Dict[str, float] = {}
    for phase in PHASES:
        out[f"engine.{phase}_s"] = get(f"engine.{phase}")["total"] / n
    round_self = get("round")["self"] / n
    out["engine.unattributed_s"] = round_self if has_engine else 0.0
    out["schedulers.flush_overhead_s"] = 0.0 if has_engine else round_self

    nn_self = 0.0
    for layer in NN_LAYERS:
        for method in ("forward", "backward"):
            entry = get(f"train:nn.{layer}.{method}")
            out[f"nn.{layer}.{method}_s"] = entry["self"] / n
            out[f"nn.{layer}.{method}_calls"] = entry["calls"] / n
            nn_self += entry["self"]
    step = get("train:nn.optim.step")
    out["nn.optim.step_s"] = step["self"] / n
    out["nn.optim.step_calls"] = step["calls"] / n
    nn_self += step["self"]

    run_clients = get("runtime.run_clients")
    tasks = counters.get("runtime.tasks", 0.0)
    out["runtime.run_clients_s"] = run_clients["total"] / n
    out["runtime.overhead_s"] = (run_clients["total"] - nn_self) / n
    out["runtime.tasks_per_call"] = tasks / max(run_clients["calls"], 1)
    if worker_cpu_s is None:
        busy = get("train:runtime.task")["total"]
    else:
        busy = worker_cpu_s
    out["runtime.task_s"] = busy / max(tasks, 1.0)
    capacity = workers * run_clients["total"]
    out["runtime.worker_idle_share"] = 1.0 - busy / capacity if capacity else 0.0

    for attr in ("client_compress", "aggregate", "end_round"):
        out[f"compression.{attr}_s"] = get(f"compression.{attr}")["self"] / n
    participants = sum(r["num_participants"] for r in rounds)
    candidates = sum(r["num_candidates"] for r in rounds)
    out["compression.up_bytes_per_client"] = (
        sum(r["up_bytes"] for r in rounds) / max(participants, 1)
    )
    out["aggregation.apply_s"] = get("aggregation.apply")["self"] / n
    out["staleness.download_bytes_s"] = get("staleness.download_bytes")["self"] / n

    out["population.advance_s"] = get("population.advance")["self"] / n
    advances = counters.get("population.advances", 0.0)
    out["population.idle_clients"] = (
        counters.get("population.idle_clients", 0.0) / advances if advances else 0.0
    )
    out["samplers.draw_s"] = get("samplers.draw")["self"] / n
    out["samplers.candidates_per_round"] = candidates / n

    out["simulator.participant_share"] = participants / max(candidates, 1)
    out["server.evaluate_s"] = get("server.evaluate")["total"] / n
    out["schedulers.arrivals_per_flush"] = participants / n
    return out
