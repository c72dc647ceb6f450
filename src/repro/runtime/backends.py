"""Pluggable client-execution backends for the round loop.

The FL round is embarrassingly parallel on the client side: every
participant trains from the *same frozen* global parameters with its own
named RNG stream, so client results do not depend on execution order.  A
backend receives the round's :class:`ClientTask` list plus the frozen
``global_params``/``global_buffers`` and returns one :class:`ClientResult`
per task, **in task order** — the server then compresses and aggregates in
that deterministic order, which is what makes every backend bit-identical
to serial execution.

Backends
--------
``serial``
    One shared model instance in the calling process (the seed behavior).
``thread``
    A thread pool over per-worker model replicas.  numpy's BLAS/einsum
    kernels release the GIL, so wall-clock improves on multi-core hosts
    without any serialization cost.
``process``
    A ``fork``-based :class:`multiprocessing.pool.Pool`.  The frozen global
    state is written once per round into a POSIX shared-memory block;
    workers read it zero-copy, train on their own replica, and send back
    the per-client :class:`ClientResult` through the pool's pickled channel.
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import ClientDataset
from repro.nn.models import build_model
from repro.nn.module import Module
from repro.runtime.dtype import cast_model_dtype, resolve_dtype
from repro.utils.rng import RngFactory

# LocalTrainer is imported lazily inside build_trainer(): repro.fl pulls in
# this module through repro.fl.server, so a module-level import here would
# close an import cycle
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fl.client import LocalTrainer

__all__ = [
    "BACKENDS",
    "ClientTask",
    "ClientResult",
    "WorkerSpec",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "available_cpus",
    "create_backend",
    "require_fork",
]

BACKENDS = ("serial", "thread", "process")


def available_cpus() -> int:
    """CPUs this process may run on: the size of its affinity mask where
    the platform exposes one, else ``os.cpu_count()``.

    The default worker count of every pool in the repo — so a container
    pinned to 2 of a host's 64 CPUs builds 2 workers, not 64.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def require_fork(feature: str) -> None:
    """Raise unless the platform offers the ``fork`` start method.

    Both process pools in the repo — the client-training
    :class:`ProcessBackend` and the shard dispatcher in
    :mod:`repro.sharding.executor` — rely on fork semantics (workers
    inherit read-only parent state by reference instead of pickling it),
    so the capability check lives in one place.
    """
    import multiprocessing as mp

    if "fork" not in mp.get_all_start_methods():
        raise RuntimeError(
            f"{feature} requires the 'fork' start method (POSIX); "
            "use the 'thread' backend on this platform"
        )


@dataclass(frozen=True)
class ClientTask:
    """One participant's work order for the round."""

    client_id: int
    lr: float
    round_idx: int
    #: partial-work override: run this many local steps instead of the
    #: trainer's configured E (device populations with completeness < 1)
    local_steps: Optional[int] = None


@dataclass
class ClientResult:
    """One participant's training outcome, as returned by a backend.

    ``delta``/``buffer_delta`` always own their memory (every backend
    returns the trainer's fresh ``get_flat() - global_params``), so a
    result may be held across later ``run_clients`` calls.
    """

    client_id: int
    delta: np.ndarray
    buffer_delta: np.ndarray
    num_samples: int
    mean_loss: float


@dataclass
class WorkerSpec:
    """Everything a worker needs to rebuild the training context.

    The replica's initial weights are irrelevant — every task overwrites
    them from the shipped global state — so replicas are built with a fixed
    throwaway RNG.  Per-client randomness comes from
    ``RngFactory(seed)(f"client/{cid}/round/{t}")``, exactly the stream the
    serial path uses.
    """

    model_name: str
    model_kwargs: Dict[str, Any]
    in_channels: int
    num_classes: int
    image_size: int
    local_steps: int
    batch_size: int
    momentum: float
    weight_decay: float
    seed: int
    clients: List[ClientDataset]
    dtype: str = "float64"
    d: int = 0
    num_buffer: int = 0

    def build_trainer(self) -> Tuple[Module, "LocalTrainer"]:
        from repro.fl.client import LocalTrainer

        model = build_model(
            self.model_name,
            in_channels=self.in_channels,
            num_classes=self.num_classes,
            image_size=self.image_size,
            rng=np.random.default_rng(0),
            dtype=resolve_dtype(self.dtype),
            **self.model_kwargs,
        )
        cast_model_dtype(model, self.dtype)
        trainer = LocalTrainer(
            model,
            local_steps=self.local_steps,
            batch_size=self.batch_size,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )
        return model, trainer


def _run_one(
    trainer: LocalTrainer,
    rngs: RngFactory,
    clients: Sequence[ClientDataset],
    task: ClientTask,
    global_params: np.ndarray,
    global_buffers: np.ndarray,
) -> ClientResult:
    """Train one client — the shared inner step of every backend."""
    # forward the partial-work override only when set, so stubbed trainers
    # with the classic five-argument signature keep working
    kwargs = (
        {} if task.local_steps is None else {"local_steps": task.local_steps}
    )
    result = trainer.run(
        global_params,
        global_buffers,
        clients[task.client_id],
        task.lr,
        rngs(f"client/{task.client_id}/round/{task.round_idx}"),
        **kwargs,
    )
    return ClientResult(
        client_id=task.client_id,
        delta=result.delta,
        buffer_delta=result.buffer_delta,
        num_samples=result.num_samples,
        mean_loss=result.mean_loss,
    )


class ExecutionBackend:
    """Base class: lifecycle + the per-round dispatch hook."""

    name: str = "base"
    #: clients that train concurrently; schedulers size batches by it
    workers: int = 1

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.rngs = RngFactory(spec.seed)

    def run_clients(
        self,
        tasks: Sequence[ClientTask],
        global_params: np.ndarray,
        global_buffers: np.ndarray,
    ) -> List[ClientResult]:
        """Train every task's client; results are returned in task order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (pools, shared memory)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Clients trained one after another on a single shared model."""

    name = "serial"

    def __init__(
        self,
        spec: WorkerSpec,
        trainer: Optional[LocalTrainer] = None,
    ):
        super().__init__(spec)
        if trainer is None:
            _, trainer = spec.build_trainer()
        self.trainer = trainer

    def run_clients(
        self,
        tasks: Sequence[ClientTask],
        global_params: np.ndarray,
        global_buffers: np.ndarray,
    ) -> List[ClientResult]:
        return [
            _run_one(
                self.trainer, self.rngs, self.spec.clients, task,
                global_params, global_buffers,
            )
            for task in tasks
        ]


class ThreadBackend(ExecutionBackend):
    """Thread pool over a set of per-worker model replicas.

    Replicas are handed out through a queue, so at most ``workers`` clients
    train concurrently and no model instance is ever shared between two
    in-flight tasks.
    """

    name = "thread"

    def __init__(self, spec: WorkerSpec, workers: Optional[int] = None):
        super().__init__(spec)
        self.workers = max(1, workers or available_cpus())
        self._replicas: "queue.SimpleQueue[LocalTrainer]" = queue.SimpleQueue()
        for _ in range(self.workers):
            _, trainer = spec.build_trainer()
            self._replicas.put(trainer)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-client"
        )

    def _run_task(
        self,
        task: ClientTask,
        global_params: np.ndarray,
        global_buffers: np.ndarray,
    ) -> ClientResult:
        trainer = self._replicas.get()
        try:
            return _run_one(
                trainer, self.rngs, self.spec.clients, task,
                global_params, global_buffers,
            )
        finally:
            self._replicas.put(trainer)

    def run_clients(
        self,
        tasks: Sequence[ClientTask],
        global_params: np.ndarray,
        global_buffers: np.ndarray,
    ) -> List[ClientResult]:
        futures = [
            self._pool.submit(self._run_task, task, global_params, global_buffers)
            for task in tasks
        ]
        return [f.result() for f in futures]

    def close(self) -> None:
        self._pool.shutdown(wait=True)


# -- process backend ----------------------------------------------------------
# Worker-process globals, populated once by the pool initializer (the pool
# is fork-based, so the spec — including the dataset shards — is inherited
# by reference, never pickled).
_worker_ctx: Dict[str, Any] = {}


def _process_worker_init(spec: WorkerSpec, shm_name: str) -> None:
    from multiprocessing import shared_memory

    # Workers fork from the parent, so they share its resource tracker:
    # attaching here re-registers the same name in the same tracker set
    # (idempotent), and the parent's close()+unlink() cleans up once.
    shm = shared_memory.SharedMemory(name=shm_name)
    flat = np.ndarray(
        spec.d + spec.num_buffer, dtype=resolve_dtype(spec.dtype), buffer=shm.buf
    )
    _, trainer = spec.build_trainer()
    _worker_ctx.update(
        spec=spec,
        shm=shm,
        params=flat[: spec.d],
        buffers=flat[spec.d :],
        trainer=trainer,
        rngs=RngFactory(spec.seed),
    )


def _process_worker_run(task: ClientTask) -> ClientResult:
    ctx = _worker_ctx
    return _run_one(
        ctx["trainer"], ctx["rngs"], ctx["spec"].clients, task,
        ctx["params"], ctx["buffers"],
    )


class ProcessBackend(ExecutionBackend):
    """Fork-based process pool over one read-only shared-memory segment.

    Per round the server writes ``global_params``/``global_buffers`` once
    into a shared-memory block sized at setup; workers read it zero-copy.
    Each worker returns its :class:`ClientResult` through the pool's
    ordinary pickled channel, so every result owns its arrays and may be
    held across any number of later dispatches.
    """

    name = "process"

    def __init__(self, spec: WorkerSpec, workers: Optional[int] = None):
        super().__init__(spec)
        import multiprocessing as mp

        require_fork("execution_backend='process'")
        from multiprocessing import shared_memory

        self.workers = max(1, workers or available_cpus())
        dt = resolve_dtype(spec.dtype)
        stride = spec.d + spec.num_buffer
        self._shm = None
        self._pool = None
        self._closed = False
        # the pool spawn can fail after the segment exists — unlink it so
        # no segment leaks
        try:
            self._shm = shared_memory.SharedMemory(
                create=True, size=max(1, stride * dt.itemsize)
            )
            self._flat = np.ndarray(stride, dtype=dt, buffer=self._shm.buf)
            self._pool = mp.get_context("fork").Pool(
                processes=self.workers,
                initializer=_process_worker_init,
                initargs=(spec, self._shm.name),
            )
        except Exception:
            self._cleanup_shared()
            raise

    def run_clients(
        self,
        tasks: Sequence[ClientTask],
        global_params: np.ndarray,
        global_buffers: np.ndarray,
    ) -> List[ClientResult]:
        spec = self.spec
        self._flat[: spec.d] = global_params
        if spec.num_buffer:
            self._flat[spec.d :] = global_buffers
        # map() preserves task order, so aggregation order matches serial
        return self._pool.map(_process_worker_run, tasks, chunksize=1)

    def _cleanup_shared(self) -> None:
        """Close + unlink the params segment; tolerates partial state."""
        if hasattr(self, "_flat"):
            del self._flat
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double close
            pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            if self._pool is not None:
                self._pool.close()
                self._pool.join()
        finally:
            # the segments must be unlinked even if the pool teardown blows
            # up (e.g. a worker died mid-task) — leaked /dev/shm blocks
            # outlive the process
            self._cleanup_shared()

    def __del__(self):  # pragma: no cover - belt and suspenders
        try:
            self.close()
        except Exception:
            pass


def create_backend(
    name: str,
    spec: WorkerSpec,
    *,
    trainer: Optional[LocalTrainer] = None,
    workers: Optional[int] = None,
) -> ExecutionBackend:
    """Build the execution backend selected by ``RunConfig.execution_backend``.

    ``trainer`` lets the serial backend reuse the server's existing shared
    model instance instead of building a replica.
    """
    if name == "serial":
        return SerialBackend(spec, trainer=trainer)
    if name == "thread":
        return ThreadBackend(spec, workers=workers)
    if name == "process":
        return ProcessBackend(spec, workers=workers)
    raise ValueError(f"unknown execution backend {name!r}; expected {BACKENDS}")
