"""The benchmark's four workloads: what each builds from a seed, and why.

Every workload is a closed loop: the benchmark asks the server for one
round, waits for its record, then asks for the next.  The seed generates
the inputs — the federation's client data and the run seed (model init,
sampling, network and device draws) — so the same seed gives the same
inputs and records.

``horizon`` is the fixed number of rounds (round 1 is the warm-up round)
over which the simulation quantities (DV, TV, DT, TT, accuracy) are read;
it does not depend on host speed, so those figures are exact per seed.
``block`` rounds the number of measured rounds up to a whole multiple,
so a periodic workload always measures whole periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], object]  # seed -> RunConfig
    horizon: int
    #: smoothed accuracy (window 5) whose first crossing ends host_tta_s
    target_accuracy: float
    #: final smoothed accuracy at ``horizon`` must be at least this
    accuracy_floor: float
    #: local training runs in the benchmark's process (nn spans traceable)
    in_process_training: bool = True
    block: int = 1


def _gluefl(k: int):
    from repro.core import make_gluefl

    return make_gluefl(k, q=0.2, q_shr=0.16)


def _table2_config(seed: int, **extra):
    from repro.datasets import femnist_like
    from repro.fl import RunConfig

    strategy, sampler = _gluefl(10)
    options = {"execution_backend": "serial", **extra}
    return RunConfig(
        dataset=femnist_like(
            num_clients=100, num_classes=10, image_size=16,
            samples_per_client=32, seed=seed,
        ),
        model_name="cnn", strategy=strategy, sampler=sampler,
        rounds=10**6, local_steps=5, dtype="float32", eval_every=1,
        seed=seed, **options,
    )


def _wide_mask_config(seed: int):
    from repro.datasets import femnist_like
    from repro.fl import RunConfig

    strategy, sampler = _gluefl(30)
    return RunConfig(
        dataset=femnist_like(
            num_clients=200, num_classes=10, image_size=28,
            samples_per_client=32, seed=seed,
        ),
        model_name="mlp", model_kwargs={"hidden": (512,)},
        strategy=strategy, sampler=sampler, rounds=10**6, local_steps=1,
        dtype="float32", execution_backend="serial", eval_every=1, seed=seed,
    )


def _fleet_config(seed: int):
    from repro.datasets import lazy_synthetic_federation
    from repro.fl import RunConfig

    strategy, sampler = _gluefl(50)
    return RunConfig(
        dataset=lazy_synthetic_federation(
            num_clients=10**6, num_classes=4, image_size=6,
            samples_per_client=8, cache_size=256, seed=seed,
        ),
        model_name="mlp", model_kwargs={"hidden": (8,)},
        strategy=strategy, sampler=sampler, rounds=10**6, local_steps=1,
        batch_size=4, dtype="float32", execution_backend="serial",
        population_preset="diurnal", eval_every=1, seed=seed,
    )


def _async_config(seed: int):
    return _table2_config(
        seed, scheduler="async", async_buffer_size=5,
        execution_backend="process", backend_workers=2,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="table2_cnn",
            why="Table-2 loop: sync GlueFL K=10, CNN on 100 FEMNIST-like "
            "clients, serial f32; local training in repro.nn is most of the time",
            build=_table2_config,
            horizon=60, target_accuracy=0.25, accuracy_floor=0.3,
        ),
        Workload(
            name="wide_mask",
            why="paper-scale model (MLP 784-512-10, d=407k) with cheap compute: "
            "per-client O(d) masking, compression and aggregation dominate",
            build=_wide_mask_config,
            horizon=40, target_accuracy=0.95, accuracy_floor=0.9,
        ),
        Workload(
            name="fleet_diurnal",
            why="10^6-client diurnal fleet, K=50, tiny MLP: population advance "
            "and sampler draws dominate; nn and compression are near zero",
            build=_fleet_config,
            horizon=48, target_accuracy=0.5, accuracy_floor=0.5, block=48,
        ),
        Workload(
            name="async_process",
            why="table2_cnn's model and data under async buffer-5 flushes on 2 "
            "process workers: same nn work, runtime IPC through the result ring",
            build=_async_config,
            horizon=100, target_accuracy=0.25, accuracy_floor=0.4,
            in_process_training=False,
        ),
    )
}
