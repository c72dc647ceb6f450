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
    only the per-client deltas.
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
from repro.runtime import sanitize as _sanitize
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
    "create_backend",
    "require_fork",
]

BACKENDS = ("serial", "thread", "process")


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

    The process backend returns ``delta``/``buffer_delta`` as **views into
    a shared-memory result ring** that is reclaimed at the next
    ``run_clients`` call.  Consumers that hold a result across dispatches
    (the async arrival buffer, semi-async stragglers) must call
    :meth:`detach` first; same-round consumption needs no copy.
    """

    client_id: int
    delta: np.ndarray
    buffer_delta: np.ndarray
    num_samples: int
    mean_loss: float

    def detach(self) -> "ClientResult":
        """Copy any borrowed arrays so this result survives the next
        dispatch.  No-op (no copy) for results that already own their
        memory, so callers can detach unconditionally."""
        if self.delta.base is not None:
            self.delta = self.delta.copy()
        if self.buffer_delta.base is not None:
            self.buffer_delta = self.buffer_delta.copy()
        return self


@dataclass
class _SlotResult:
    """Wire format for a zero-copy worker return: everything but the
    arrays, which sit in the worker's claimed ring slot."""

    client_id: int
    slot: int
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
    #: runtime ownership sanitizer (repro.runtime.sanitize): guard the
    #: process backend's result ring; False still honors the
    #: REPRO_SANITIZE environment gate
    sanitize: bool = False
    #: cap on results a parallel backend may have outstanding at once
    #: (sizes the process backend's zero-copy result rings); 0 = derive
    #: from the task count per call
    max_in_flight: int = 0

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
        self.workers = max(1, workers or os.cpu_count() or 1)
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


def _process_worker_init(
    spec: WorkerSpec,
    shm_name: str,
    res_name: Optional[str] = None,
    res_capacity: int = 0,
    res_cursor=None,
    res_slot_epochs=None,
    res_epoch=None,
) -> None:
    from multiprocessing import shared_memory

    # Workers fork from the parent, so they share its resource tracker:
    # attaching here re-registers the same name in the same tracker set
    # (idempotent), and the parent's close()+unlink() cleans up once.
    shm = shared_memory.SharedMemory(name=shm_name)
    dt = resolve_dtype(spec.dtype)
    flat = np.ndarray(spec.d + spec.num_buffer, dtype=dt, buffer=shm.buf)
    _, trainer = spec.build_trainer()
    _worker_ctx.update(
        spec=spec,
        shm=shm,
        params=flat[: spec.d],
        buffers=flat[spec.d :],
        trainer=trainer,
        rngs=RngFactory(spec.seed),
        res_shm=None,
        res_flat=None,
        res_capacity=0,
        res_cursor=None,
        res_slot_epochs=None,
        res_epoch=None,
    )
    if res_name is not None:
        res_shm = shared_memory.SharedMemory(name=res_name)
        stride = spec.d + spec.num_buffer
        _worker_ctx.update(
            res_shm=res_shm,
            res_flat=np.ndarray(res_capacity * stride, dtype=dt, buffer=res_shm.buf),
            res_capacity=res_capacity,
            res_cursor=res_cursor,
            res_slot_epochs=res_slot_epochs,
            res_epoch=res_epoch,
        )


def _process_worker_run(task: ClientTask):
    ctx = _worker_ctx
    result = _run_one(
        ctx["trainer"], ctx["rngs"], ctx["spec"].clients, task,
        ctx["params"], ctx["buffers"],
    )
    cursor = ctx["res_cursor"]
    if cursor is None:
        return result
    # claim one ring slot; a full ring (more outstanding results than
    # max_in_flight budgeted for) degrades to the pickled return path
    with cursor.get_lock():
        slot = cursor.value
        if slot < ctx["res_capacity"]:
            cursor.value = slot + 1
        else:
            slot = -1
        if slot >= 0 and ctx["res_slot_epochs"] is not None:
            # sanitize mode: stamp the claim with the dispatch epoch (still
            # under the cursor lock, which serializes all claims) so a
            # broken cursor protocol — two workers on one slot — raises in
            # the claiming worker instead of silently aliasing deltas
            _sanitize.checked_slot_claim(
                ctx["res_slot_epochs"], slot, ctx["res_epoch"].value
            )
    if slot < 0:
        return result
    spec = ctx["spec"]
    stride = spec.d + spec.num_buffer
    base = slot * stride
    res_flat = ctx["res_flat"]
    res_flat[base : base + spec.d] = result.delta
    if spec.num_buffer:
        res_flat[base + spec.d : base + stride] = result.buffer_delta
    return _SlotResult(
        client_id=result.client_id,
        slot=slot,
        num_samples=result.num_samples,
        mean_loss=result.mean_loss,
    )


class ProcessBackend(ExecutionBackend):
    """Fork-based process pool with shared-memory shipping both ways.

    Per round the server writes ``global_params``/``global_buffers`` once
    into a shared-memory block sized at setup; workers read it zero-copy.
    Results travel the same way: a second shared-memory block holds a ring
    of ``max_in_flight`` slots of ``d + num_buffer`` elements each, workers
    claim slots through a shared cursor and write their deltas in place,
    and only a tiny slot descriptor crosses the pickle channel.  The parent
    hands back :class:`ClientResult` objects whose arrays **view** the ring.

    Ownership handoff: each ``run_clients`` call bumps the ring epoch and
    resets the cursor, reclaiming every slot of the previous dispatch —
    callers that keep results across dispatches must ``detach()`` them
    first.  When a dispatch outgrows the ring, the overflow results fall
    back to the classic pickled return (correct, just slower).
    """

    name = "process"

    def __init__(self, spec: WorkerSpec, workers: Optional[int] = None):
        super().__init__(spec)
        import multiprocessing as mp

        require_fork("execution_backend='process'")
        from multiprocessing import shared_memory

        self.workers = max(1, workers or os.cpu_count() or 1)
        dt = resolve_dtype(spec.dtype)
        self._dtype = dt
        stride = spec.d + spec.num_buffer
        self._stride = stride
        self._shm = None
        self._res_shm = None
        self._pool = None
        self._closed = False
        # everything after the first shm allocation can fail (a second
        # allocation, pool spawn) — unwind what exists so no segment leaks
        try:
            nbytes = max(1, stride * dt.itemsize)
            self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
            self._flat = np.ndarray(stride, dtype=dt, buffer=self._shm.buf)

            ctx = mp.get_context("fork")
            self._res_capacity = 0
            self._res_cursor = None
            self._epoch = 0
            self._sanitize = spec.sanitize or _sanitize.enabled()
            self._shared_epoch = None
            self._slot_epochs = None
            initargs: tuple = (spec, self._shm.name)
            if stride > 0:
                # ring sized by the scheduler's declared in-flight budget
                # (at least one slot per worker so small direct uses of the
                # backend still ride the zero-copy path)
                self._res_capacity = max(spec.max_in_flight, self.workers)
                self._res_shm = shared_memory.SharedMemory(
                    create=True,
                    size=self._res_capacity * stride * dt.itemsize,
                )
                self._res = np.ndarray(
                    self._res_capacity * stride, dtype=dt,
                    buffer=self._res_shm.buf,
                )
                self._res_cursor = ctx.Value("q", 0)
                initargs = (
                    spec, self._shm.name, self._res_shm.name,
                    self._res_capacity, self._res_cursor,
                )
                if self._sanitize:
                    # lock-free is safe: the parent writes the epoch only
                    # while the pool is idle between map() calls, and the
                    # per-slot claim stamps are serialized by the cursor's
                    # lock in the workers
                    self._shared_epoch = ctx.Value("q", 0, lock=False)
                    self._slot_epochs = ctx.Array(
                        "q", self._res_capacity, lock=False
                    )
                    initargs = initargs + (
                        self._slot_epochs, self._shared_epoch,
                    )
            self._pool = ctx.Pool(
                processes=self.workers,
                initializer=_process_worker_init,
                initargs=initargs,
            )
        except Exception:
            self._cleanup_shared()
            raise

    @property
    def sanitize_epoch(self) -> int:
        """Current ring epoch — OwnershipTags on ring views check this."""
        return self._epoch

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
        if self._res_cursor is not None:
            # new epoch: reclaim the previous dispatch's slots (the pool is
            # idle between map() calls, so no worker races this reset)
            self._epoch += 1
            self._res_cursor.value = 0
            if self._shared_epoch is not None:
                self._shared_epoch.value = self._epoch
        # map() preserves task order, so aggregation order matches serial
        raw = self._pool.map(_process_worker_run, tasks, chunksize=1)
        d, stride = spec.d, self._stride
        out: List[ClientResult] = []
        for r in raw:
            if isinstance(r, _SlotResult):
                base = r.slot * stride
                delta = self._res[base : base + d]
                buffer_delta = self._res[base + d : base + stride]
                if self._sanitize:
                    # epoch-scope the borrowed ring views: a result of this
                    # dispatch touched after the next run_clients reclaims
                    # the ring raises instead of reading the next round's
                    # deltas.  detach() copies drop the guard.
                    tag = _sanitize.OwnershipTag(
                        host=self,
                        epoch=self._epoch,
                        label=f"result-ring slot {r.slot}",
                    )
                    delta = _sanitize.guard(delta, tag)
                    buffer_delta = _sanitize.guard(buffer_delta, tag)
                out.append(
                    ClientResult(
                        client_id=r.client_id,
                        delta=delta,
                        buffer_delta=buffer_delta,
                        num_samples=r.num_samples,
                        mean_loss=r.mean_loss,
                    )
                )
            else:
                out.append(r)
        return out

    def _cleanup_shared(self) -> None:
        """Close + unlink both segments; tolerates partially-built state."""
        for attr in ("_flat", "_res"):
            if hasattr(self, attr):
                delattr(self, attr)
        first_error = None
        for shm in (self._shm, self._res_shm):
            if shm is None:
                continue
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double close
                pass
            except Exception as exc:  # pragma: no cover - defensive
                first_error = first_error or exc
        self._shm = None
        self._res_shm = None
        if first_error is not None:
            raise first_error

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
