"""Runtime policies for the simulator's hot path.

Two orthogonal knobs, both selected through
:class:`~repro.fl.config.RunConfig`:

``execution_backend`` — *how* the round's participants are trained:

* ``"serial"`` (default) — one shared model instance, clients trained one
  after another in the server process (the seed behavior);
* ``"thread"`` — a thread pool with one model replica per worker; numpy
  releases the GIL inside BLAS/einsum kernels, so heavy models overlap;
* ``"process"`` — a fork-based process pool.  The frozen global
  parameters/buffers are shipped **once per round** through POSIX shared
  memory; each worker owns its own model replica and
  :class:`~repro.fl.client.LocalTrainer`, and returns a plain pickled
  :class:`~repro.runtime.backends.ClientResult`.

All three backends produce **bit-identical** training results for the same
seed: each client's mini-batch stream comes from its own named RNG
(``RngFactory(f"client/{cid}/round/{t}")``), so per-client results are
independent of execution order, and the server compresses/aggregates the
returned deltas in the same deterministic order regardless of backend.

``dtype`` — *in what precision* the whole run executes: ``"float64"``
(default, the seed behavior) or ``"float32"``, on plain numpy
allocation.  The policy is threaded
through model construction (every ``Conv2d``/``Linear``/norm layer),
:class:`~repro.nn.flat.FlatParamView`, local training (inputs are cast once
per batch), the compression strategies and the aggregation path, so a
float32 run never silently up-casts back to float64 in the hot loop.
On memory-bandwidth-bound numpy kernels this alone is a ~1.5–2× speedup.
"""

from repro.runtime.backends import (
    BACKENDS,
    ClientResult,
    ClientTask,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    WorkerSpec,
    available_cpus,
    create_backend,
)
from repro.runtime.dtype import DTYPE_NAMES, cast_model_dtype, resolve_dtype

__all__ = [
    "BACKENDS",
    "ClientResult",
    "ClientTask",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "WorkerSpec",
    "available_cpus",
    "create_backend",
    "DTYPE_NAMES",
    "cast_model_dtype",
    "resolve_dtype",
]
