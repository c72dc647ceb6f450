"""Tests of the benchmark itself: metric names, span arithmetic, checks,
seeding, and that tracing leaves the simulation untouched.

Run from the repo root:  python -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from checks import check_round, check_run
from metrics import end_to_end, per_layer, simulation_figures, tail
from tracing import Tracer, coverage, instrument, reduce_spans, self_times
from workloads import WORKLOADS

from repro.fl.metrics import RoundRecord
from repro.fl.server import FLServer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: per-layer names that run.py fills from the untraced run, not the spans
FROM_RUN = {
    "host_tta_s", "sim_dt_s", "sim_tt_s", "final_accuracy",
    "trace.round_p50_untraced_s", "trace.round_p50_traced_s",
    "trace.overhead_share",
}


def _round(i, **kw):
    fields = dict(
        round_idx=i, down_bytes=1000, up_bytes=500, round_seconds=2.0,
        download_seconds=0.5, compute_seconds=1.0, upload_seconds=0.5,
        num_candidates=13, num_participants=10, mean_stale_fraction=0.1,
        train_loss=1.0, accuracy=0.1 * i, wall_clock_s=2.0 * i,
    )
    fields.update(kw)
    return fields


def _run(n=30):
    rounds = [_round(i) for i in range(1, n + 1)]
    return {
        "setup_s": [1.0, 1.2, 1.1],
        "round_s": [0.5] + [0.1 + 0.001 * i for i in range(n - 1)],
        "rounds": rounds,
        "sim": simulation_figures(rounds, horizon=20, target=0.45),
        "peak_rss_mb": 100.0,
        "attempted": n,
        "failed": 0,
    }


# -- metric names ---------------------------------------------------------------


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name), name


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


def test_computed_metrics_cover_the_spec():
    e2e = end_to_end(_run())
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(e2e)
    layers = per_layer({}, {}, _run()["rounds"][1:], has_engine=True,
                       workers=1, worker_cpu_s=None)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(layers) | FROM_RUN
    assert FROM_RUN - {n for n in FROM_RUN if n.startswith("trace.")} <= set(e2e)


def test_end_to_end_values():
    run = _run()
    e2e = end_to_end(run)
    measured = run["round_s"][1:]
    assert e2e["round_p50_s"] == pytest.approx(np.median(measured))
    assert e2e["setup_s"] == 1.1
    assert e2e["client_updates_per_s"] == pytest.approx(10 * 29 / sum(measured))
    # smoothed accuracy (window 5) first reaches 0.45 at round 7
    assert run["sim"]["target_round"] == 7
    assert e2e["host_tta_s"] == pytest.approx(sum(run["round_s"][:7]))
    assert e2e["dv_gb"] == pytest.approx(20 * 1000 / 1e9)
    assert e2e["tv_gb"] == pytest.approx(20 * 1500 / 1e9)
    assert e2e["sim_tt_s"] == 40.0
    assert e2e["ok_round_share"] == 1.0


def test_tail_keeps_ten_samples_beyond_it():
    samples = list(range(100))
    value, pct, n = tail(samples)
    assert sum(s > value for s in samples) == 10 and pct == 90.0 and n == 100
    assert tail([3.0, 1.0])[0] == 3.0


# -- span arithmetic ------------------------------------------------------------


def _tree():
    # round [0,10] -> a [1,4] -> a1 [1.5,2], a2 [2,3]
    #              -> b [5,9] -> b1 [5,7], b2 [6,8] (overlapping children)
    return [
        ["round", 0.0, 10.0, -1, 2],
        ["a", 1.0, 4.0, 0, 2],
        ["a1", 1.5, 2.0, 1, 2],
        ["a2", 2.0, 3.0, 1, 2],
        ["b", 5.0, 9.0, 0, 2],
        ["b1", 5.0, 7.0, 4, 2],
        ["b2", 6.0, 8.0, 4, 2],
    ]


def test_self_time_subtracts_the_union_of_children():
    assert self_times(_tree()) == pytest.approx([3.0, 1.5, 0.5, 1.0, 1.0, 2.0, 2.0])


def test_round_is_its_children_plus_its_self_time():
    cov = coverage(_tree(), [2])
    assert cov["round_s"] == pytest.approx(cov["children_s"] + cov["self_s"])


def test_reduce_spans_filters_rounds_and_marks_training():
    spans = [
        ["round", 0.0, 4.0, -1, 2],
        ["runtime.run_clients", 0.0, 3.0, 0, 2],
        ["runtime.task", 0.0, 3.0, 1, 2],
        ["nn.Linear.forward", 0.5, 1.5, 2, 2],
        ["server.evaluate", 3.0, 4.0, 0, 2],
        ["nn.Linear.forward", 3.0, 3.5, 4, 2],
        ["round", 5.0, 6.0, -1, 1],
    ]
    out = reduce_spans(spans, [2])
    assert out["round"]["calls"] == 1
    assert out["train:nn.Linear.forward"]["self"] == 1.0
    assert out["nn.Linear.forward"]["self"] == 0.5
    assert out["train:runtime.task"]["self"] == 2.0
    layers = per_layer(out, {"runtime.tasks": 1}, [_round(2)], has_engine=True,
                       workers=1, worker_cpu_s=None)
    assert layers["nn.Linear.forward_s"] == 1.0
    assert layers["runtime.run_clients_s"] == 3.0
    assert layers["runtime.overhead_s"] == 2.0
    assert layers["server.evaluate_s"] == 1.0
    assert layers["engine.unattributed_s"] == 0.0


def test_tracer_closes_spans_left_open_by_a_raise():
    tracer = Tracer()
    outer = tracer.open("round")
    tracer.open("engine.execution")  # its add_after never runs
    tracer.close(outer)
    assert all(span[2] >= span[1] for span in tracer.spans())


# -- checks ---------------------------------------------------------------------


def _record(**kw):
    fields = _round(3)
    fields.update(kw)
    return RoundRecord(**fields)


@pytest.mark.parametrize(
    "record, prev, params, violation",
    [
        (_record(), None, np.array([1.0, np.nan]), "params_finite"),
        (_record(), None, np.array([np.inf]), "params_finite"),
        (_record(down_bytes=-1), None, np.zeros(2), "bytes_nonnegative"),
        (_record(up_bytes=-1), None, np.zeros(2), "bytes_nonnegative"),
        (_record(wall_clock_s=5.0), 6.0, np.zeros(2), "wall_clock_monotone"),
        (_record(wall_clock_s=None), None, np.zeros(2), "wall_clock_monotone"),
        (_record(num_participants=14), None, np.zeros(2), "participants_le_candidates"),
    ],
)
def test_each_check_fires(record, prev, params, violation):
    assert check_round(record, prev, params) == [violation]


def test_good_round_passes():
    assert check_round(_record(), 5.0, np.zeros(3)) == []


def test_run_checks():
    assert check_run(0.5, 0.4, 7) == []
    assert check_run(0.3, 0.4, 7) == ["final_accuracy_floor"]
    assert check_run(float("nan"), 0.4, 7) == ["final_accuracy_floor"]
    assert check_run(0.5, 0.4, None) == ["target_accuracy_reached"]


# -- seeding and tracing against the real program --------------------------------


def _rounds(seed, n=3, trace=False):
    server = FLServer(WORKLOADS["table2_cnn"].build(seed))
    uninstall = instrument(server, Tracer(), layers=True) if trace else None
    try:
        records = [server.run_round() for _ in range(n)]
    finally:
        server.close()
        if uninstall:
            uninstall()
    return [r.__dict__ for r in records]


def test_same_seed_reproduces_dv_exactly_and_seeds_change_inputs():
    a, b = _rounds(3), _rounds(3)
    dv = [simulation_figures(r, 3, 0.0)["dv_gb"] for r in (a, b)]
    assert dv[0] == dv[1]
    x3 = WORKLOADS["table2_cnn"].build(3).dataset.clients[0].x
    x4 = WORKLOADS["table2_cnn"].build(4).dataset.clients[0].x
    assert x3.shape != x4.shape or not np.array_equal(x3, x4)


def test_tracing_leaves_the_simulation_unchanged():
    import repro.nn as nn

    forward = nn.Conv2d.forward
    plain, traced = _rounds(5), _rounds(5, trace=True)
    assert plain == traced
    assert nn.Conv2d.forward is forward  # class wrappers removed


# -- the command -----------------------------------------------------------------


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2_cnn",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_spec_bounds_and_contract_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
