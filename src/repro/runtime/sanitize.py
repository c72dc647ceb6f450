"""Runtime ownership sanitizer for the process backend's result ring.

The process backend's zero-copy result ring relies on *epoch discipline*
instead of per-buffer reference counting: every result slot handed back
is implicitly reclaimed at the next ``run_clients`` dispatch (the ring
epoch bumps), and the caller promises not to touch it afterwards.  That
promise is cheap to break silently — an un-``detach()``-ed ring result
reads the next round's deltas and produces wrong numbers, not a crash.

This module makes the promise checkable.  With sanitize mode on
(``RunConfig.sanitize=True`` or ``REPRO_SANITIZE=1`` in the environment)
the process backend stamps each result-ring slot with the dispatch epoch
that claimed it (:func:`checked_slot_claim` — a double claim within one
epoch raises in the worker) and wraps the parent-side ring views in
:class:`GuardedView` wrappers carrying an :class:`OwnershipTag`; every
element access / ufunc application re-validates the tag, so a previous
dispatch's result touched after the ring was reclaimed raises
:class:`SanitizerError` at the faulting line.

Guards are *lifetime-scoped to the borrowed memory*: ``__array_finalize__``
propagates the tag to views (``base is not None``) but drops it from
copies, so ``ClientResult.detach()`` and any fancy-indexed or computed
result own their memory unguarded — exactly the values that may legally
outlive the epoch.

The mode is a debugging aid with measurable overhead (every ufunc pays a
tag check), so it defaults off and is asserted off in the benchmark
harness.

>>> import numpy as np
>>> class Host:
...     sanitize_epoch = 0
>>> host = Host()
>>> buf = guard(np.zeros(3), OwnershipTag(host, 0, "demo"))
>>> buf[0] = 1.0          # epoch matches: fine
>>> host.sanitize_epoch += 1
>>> buf[0]                # stale epoch: flagged
Traceback (most recent call last):
    ...
repro.runtime.sanitize.SanitizerError: demo: buffer taken in epoch 0 \
touched in epoch 1 (use after reclaim)
>>> buf2 = guard(np.zeros(3), OwnershipTag(host, 1, "demo"))
>>> owned = buf2.copy()   # copies own their memory: guard dropped
>>> host.sanitize_epoch += 1
>>> float(owned[0])
0.0
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

__all__ = [
    "SanitizerError",
    "OwnershipTag",
    "GuardedView",
    "enabled",
    "guard",
    "checked_slot_claim",
]


class SanitizerError(RuntimeError):
    """An ownership or lifetime invariant of a borrowed buffer was broken."""


def enabled() -> bool:
    """True when ``REPRO_SANITIZE`` is set truthy in the environment."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1",
        "true",
        "on",
        "yes",
    )


@dataclass(frozen=True)
class OwnershipTag:
    """Who owns a borrowed buffer, and for how long.

    Parameters
    ----------
    host:
        The lender — anything with a ``sanitize_epoch`` attribute that it
        bumps when it reclaims outstanding buffers (the process backend on
        each dispatch).
    epoch:
        ``host.sanitize_epoch`` at hand-out time.
    label:
        Human-readable buffer description for the error message.
    """

    host: Any
    epoch: int
    label: str

    def check(self) -> None:
        current = self.host.sanitize_epoch
        if current != self.epoch:
            raise SanitizerError(
                f"{self.label}: buffer taken in epoch {self.epoch} touched "
                f"in epoch {current} (use after reclaim)"
            )


class GuardedView(np.ndarray):
    """ndarray view that re-validates an :class:`OwnershipTag` on access.

    Views of a guarded array stay guarded (they alias the borrowed
    memory); copies drop the guard (they own fresh memory).  Ufuncs check
    every guarded operand, then run on the plain underlying arrays, so
    computed results come back as ordinary ndarrays.
    """

    _guard: Optional[OwnershipTag]

    def __array_finalize__(self, obj) -> None:
        if obj is None:  # pragma: no cover - explicit construction only
            self._guard = None
            return
        # a view aliases the borrowed memory and inherits its lifetime; a
        # copy owns its memory and may legally outlive the epoch
        self._guard = (
            getattr(obj, "_guard", None) if self.base is not None else None
        )

    def _check(self) -> None:
        if self._guard is not None:
            self._guard.check()

    # -- element access --------------------------------------------------------
    def __getitem__(self, idx):
        self._check()
        return super().__getitem__(idx)

    def __setitem__(self, idx, value) -> None:
        self._check()
        super().__setitem__(idx, value)

    def fill(self, value) -> None:
        self._check()
        super().fill(value)

    # -- ufunc protocol --------------------------------------------------------
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        stripped = tuple(self._strip(x) for x in inputs)
        out = kwargs.get("out")
        if out is not None:
            kwargs["out"] = tuple(self._strip(x) for x in out)
        result = getattr(ufunc, method)(*stripped, **kwargs)
        if out is None:
            return result
        # hand the original ``out`` objects back so in-place ops (+=, the
        # optimizer's np.add(..., out=param)) keep their guard attached
        if isinstance(result, tuple):
            return tuple(
                o if isinstance(o, GuardedView) else r
                for r, o in zip(result, out)
            )
        return out[0] if isinstance(out[0], GuardedView) else result

    @staticmethod
    def _strip(x):
        if isinstance(x, GuardedView):
            x._check()
            return x.view(np.ndarray)
        return x


def guard(buf: np.ndarray, tag: OwnershipTag) -> np.ndarray:
    """Wrap ``buf`` in a :class:`GuardedView` carrying ``tag``.

    The underlying memory is shared — the lender keeps (and later
    recycles) the raw array; only the borrower sees the guard.
    """
    view = buf.view(GuardedView)
    view._guard = tag
    return view


def checked_slot_claim(slot_epochs, slot: int, epoch: int) -> None:
    """Record a worker's claim of result-ring ``slot`` for dispatch ``epoch``.

    ``slot_epochs`` is the shared per-slot epoch table (one entry per ring
    slot; process backend passes a fork-shared ``multiprocessing`` array).
    Claiming a slot twice in the same epoch means two workers were handed
    the same slot — the cursor protocol is broken — so it raises rather
    than letting one worker's deltas overwrite the other's.

    Callers must invoke this under the same lock that serializes cursor
    claims (the process backend uses the cursor's own lock).
    """
    if slot_epochs[slot] == epoch:
        raise SanitizerError(
            f"result-ring slot {slot} claimed twice in dispatch epoch "
            f"{epoch} — two in-flight results would alias one buffer"
        )
    slot_epochs[slot] = epoch
