"""Runtime-equivalence tests: every execution backend is bit-identical.

The per-client RNG streams (``client/{cid}/round/{t}``) are independent of
execution order and the server compresses/aggregates in task order, so for
the same seed a run must produce *exactly* the same :class:`RunResult` —
params, bytes, timings, losses — on every backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import FedAvgStrategy
from repro.core import make_gluefl
from repro.fl import RunConfig, UniformSampler
from repro.fl.server import FLServer, run_training
from repro.runtime import (
    ClientTask,
    SerialBackend,
    ThreadBackend,
    WorkerSpec,
    create_backend,
)


def _config(tiny_dataset, backend="serial", dtype="float64", **overrides):
    strategy, sampler = make_gluefl(4, q=0.3, q_shr=0.15, regen_interval=3)
    base = dict(
        dataset=tiny_dataset,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        strategy=strategy,
        sampler=sampler,
        rounds=3,
        local_steps=2,
        batch_size=8,
        seed=11,
        eval_every=2,
        execution_backend=backend,
        dtype=dtype,
    )
    base.update(overrides)
    return RunConfig(**base)


def _fingerprint(result):
    return [
        (
            r.round_idx,
            r.down_bytes,
            r.up_bytes,
            r.round_seconds,
            r.train_loss,
            r.accuracy,
            r.num_participants,
        )
        for r in result.records
    ]


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_backend_bit_identical_to_serial(tiny_dataset, backend):
    strategy, sampler = make_gluefl(4, q=0.3, q_shr=0.15, regen_interval=3)
    serial = run_training(_config(tiny_dataset, "serial"))
    other = run_training(_config(tiny_dataset, backend))
    assert _fingerprint(serial) == _fingerprint(other)


def test_backend_final_params_identical(tiny_dataset):
    """Not just the metrics: the global model itself must match exactly."""
    servers = {}
    for backend in ("serial", "process"):
        server = FLServer(_config(tiny_dataset, backend))
        try:
            for _ in range(3):
                server.run_round()
            servers[backend] = (
                server.global_params.copy(),
                server.global_buffers.copy(),
            )
        finally:
            server.close()
    np.testing.assert_array_equal(
        servers["serial"][0], servers["process"][0]
    )
    np.testing.assert_array_equal(
        servers["serial"][1], servers["process"][1]
    )


def test_backend_bit_identical_with_cnn_buffers(tiny_dataset):
    """BatchNorm buffer deltas survive the process boundary unchanged."""
    kwargs = dict(
        model_name="cnn",
        model_kwargs={"widths": (4,)},
        strategy=FedAvgStrategy(),
        sampler=UniformSampler(3),
        rounds=2,
    )
    serial = run_training(_config(tiny_dataset, "serial", **kwargs))
    kwargs["strategy"] = FedAvgStrategy()
    kwargs["sampler"] = UniformSampler(3)
    proc = run_training(_config(tiny_dataset, "process", **kwargs))
    assert _fingerprint(serial) == _fingerprint(proc)


def _spec(tiny_dataset, dtype="float64", model_name="mlp", model_kwargs=None):
    return WorkerSpec(
        model_name=model_name,
        model_kwargs=model_kwargs or {"hidden": (8,)},
        in_channels=tiny_dataset.in_channels,
        num_classes=tiny_dataset.num_classes,
        image_size=tiny_dataset.image_size,
        local_steps=2,
        batch_size=8,
        momentum=0.9,
        weight_decay=0.0,
        seed=5,
        clients=tiny_dataset.clients,
        dtype=dtype,
    )


def test_backends_preserve_task_order(tiny_dataset):
    spec = _spec(tiny_dataset)
    model, _ = spec.build_trainer()
    from repro.nn.flat import snapshot

    params, buffers = snapshot(model)
    spec.d, spec.num_buffer = len(params), len(buffers)
    tasks = [ClientTask(client_id=cid, lr=0.05, round_idx=1) for cid in (7, 3, 9)]
    serial = SerialBackend(spec)
    thread = ThreadBackend(spec, workers=2)
    try:
        r_serial = serial.run_clients(tasks, params, buffers)
        r_thread = thread.run_clients(tasks, params, buffers)
    finally:
        serial.close()
        thread.close()
    assert [r.client_id for r in r_serial] == [7, 3, 9]
    assert [r.client_id for r in r_thread] == [7, 3, 9]
    for a, b in zip(r_serial, r_thread):
        np.testing.assert_array_equal(a.delta, b.delta)
        assert a.mean_loss == b.mean_loss


@pytest.mark.parametrize(
    "backend,workers", [("serial", None), ("thread", 2), ("process", 2)]
)
def test_results_survive_the_next_dispatch(tiny_dataset, backend, workers):
    """A result held across a later run_clients call (async arrivals,
    semi-async stragglers) keeps its own deltas."""
    spec = _spec(tiny_dataset, model_name="cnn", model_kwargs={"widths": (4,)})
    model, _ = spec.build_trainer()
    from repro.nn.flat import snapshot

    params, buffers = snapshot(model)
    spec.d, spec.num_buffer = len(params), len(buffers)
    assert spec.num_buffer > 0

    def tasks(cids):
        return [ClientTask(client_id=c, lr=0.05, round_idx=1) for c in cids]

    with create_backend(backend, spec, workers=workers) as runner:
        first = runner.run_clients(tasks((1, 2)), params, buffers)
        kept = [(r.delta.copy(), r.buffer_delta.copy()) for r in first]
        second = runner.run_clients(tasks((3, 4)), params, buffers)
        assert [r.client_id for r in second] == [3, 4]
        for result, (delta, buffer_delta) in zip(first, kept):
            np.testing.assert_array_equal(result.delta, delta)
            np.testing.assert_array_equal(result.buffer_delta, buffer_delta)


def test_unknown_backend_rejected(tiny_dataset):
    spec = _spec(tiny_dataset)
    with pytest.raises(ValueError, match="unknown execution backend"):
        create_backend("gpu", spec)
    with pytest.raises(ValueError, match="execution_backend"):
        _config(tiny_dataset, backend="gpu").validate()


def test_default_workers_follow_the_affinity_mask(tiny_dataset, monkeypatch):
    """A process pinned to 2 of 64 CPUs defaults to 2 workers, not 64."""
    import os

    from repro.runtime import available_cpus

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
    assert available_cpus() == 2
    backend = ThreadBackend(_spec(tiny_dataset))
    try:
        assert backend.workers == 2
    finally:
        backend.close()
    assert SerialBackend(_spec(tiny_dataset)).workers == 1
    # platforms without an affinity mask fall back to the CPU count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert available_cpus() == 64
