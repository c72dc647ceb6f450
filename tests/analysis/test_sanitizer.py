"""Runtime-sanitizer tests: the seeded violations are caught, legal
escapes stay legal, and sanitize mode is bit-neutral."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import make_gluefl
from repro.fl import RunConfig
from repro.fl.server import run_training
from repro.nn.flat import snapshot
from repro.runtime import ClientTask, ProcessBackend, WorkerSpec
from repro.runtime.sanitize import (
    GuardedView,
    OwnershipTag,
    SanitizerError,
    checked_slot_claim,
    enabled,
    guard,
)

pytestmark = pytest.mark.analysis


# -- guard semantics -----------------------------------------------------------
class _Host:
    """A lender with the sanitize_epoch protocol (as the process backend)."""

    sanitize_epoch = 0


def _guarded(host, label="ring slot"):
    return guard(np.zeros(4), OwnershipTag(host, host.sanitize_epoch, label))


def test_views_stay_guarded_but_copies_escape():
    host = _Host()
    buf = _guarded(host)
    sliced = buf[1:]  # view: aliases the borrowed memory
    owned = buf.copy()  # copy: owns its memory
    fancy = buf[np.array([0, 2])]  # fancy indexing copies too
    computed = buf * 2.0  # ufunc results own their memory
    host.sanitize_epoch += 1
    with pytest.raises(SanitizerError):
        sliced[0]
    assert owned.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert fancy.tolist() == [0.0, 0.0]
    assert computed.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_inplace_ops_keep_the_guard():
    host = _Host()
    buf = _guarded(host)
    buf += 2.0
    assert isinstance(buf, GuardedView)
    host.sanitize_epoch += 1
    with pytest.raises(SanitizerError):
        buf[0]


def test_env_gate(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not enabled()
    for value in ("1", "true", "ON", " yes "):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not enabled()


def test_stale_epoch_tag_names_the_buffer():
    class Host:
        sanitize_epoch = 0

    host = Host()
    buf = guard(np.zeros(2), OwnershipTag(host, 0, "demo buffer"))
    host.sanitize_epoch = 3
    with pytest.raises(SanitizerError, match="demo buffer"):
        buf[0]


# -- result-ring claims --------------------------------------------------------
def test_double_slot_claim_raises():
    slot_epochs = [0, 0, 0]
    checked_slot_claim(slot_epochs, 1, epoch=7)
    assert slot_epochs[1] == 7
    with pytest.raises(SanitizerError, match="claimed twice"):
        checked_slot_claim(slot_epochs, 1, epoch=7)
    # a later dispatch reuses the slot legally
    checked_slot_claim(slot_epochs, 1, epoch=8)


def _process_spec(tiny_dataset):
    return WorkerSpec(
        model_name="mlp",
        model_kwargs={"hidden": (8,)},
        in_channels=tiny_dataset.in_channels,
        num_classes=tiny_dataset.num_classes,
        image_size=tiny_dataset.image_size,
        local_steps=2,
        batch_size=8,
        momentum=0.9,
        weight_decay=0.0,
        seed=5,
        clients=tiny_dataset.clients,
        sanitize=True,
    )


def test_ring_result_touch_after_reclaim_raises(tiny_dataset):
    spec = _process_spec(tiny_dataset)
    model, _ = spec.build_trainer()
    params, buffers = snapshot(model)
    spec.d, spec.num_buffer = len(params), len(buffers)
    tasks = [ClientTask(client_id=c, lr=0.05, round_idx=1) for c in (1, 2)]
    with ProcessBackend(spec, workers=2) as backend:
        first = backend.run_clients(tasks, params, buffers)
        stale = first[0]  # deliberately NOT detached
        kept = first[1].detach()
        kept_before = kept.delta.copy()
        float(stale.delta[0])  # same dispatch: fine
        backend.run_clients(tasks, params, buffers)  # ring reclaimed
        with pytest.raises(SanitizerError, match="result-ring"):
            stale.delta[0]
        # a detached result owns its memory and survives the reclaim
        np.testing.assert_array_equal(kept.delta, kept_before)


def test_sanitize_off_hands_out_plain_arrays(tiny_dataset, monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    spec = _process_spec(tiny_dataset)
    spec.sanitize = False
    model, _ = spec.build_trainer()
    params, buffers = snapshot(model)
    spec.d, spec.num_buffer = len(params), len(buffers)
    tasks = [ClientTask(client_id=1, lr=0.05, round_idx=1)]
    with ProcessBackend(spec, workers=1) as backend:
        (result,) = backend.run_clients(tasks, params, buffers)
        # an unguarded ring view: plain ndarray, no per-access tag check
        assert type(result.delta) is np.ndarray
        assert result.delta.base is not None


# -- bit-neutrality ------------------------------------------------------------
def _run(tiny_dataset, backend, sanitize):
    strategy, sampler = make_gluefl(4, q=0.3, q_shr=0.15, regen_interval=3)
    config = RunConfig(
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
        sanitize=sanitize,
    )
    result = run_training(config)
    return [
        (r.round_idx, r.train_loss, r.up_bytes, r.down_bytes, r.accuracy)
        for r in result.records
    ]


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_sanitize_mode_is_bit_identical(tiny_dataset, backend):
    assert _run(tiny_dataset, backend, False) == _run(
        tiny_dataset, backend, True
    )


def test_sanitize_defaults_off():
    assert RunConfig.__dataclass_fields__["sanitize"].default is False
