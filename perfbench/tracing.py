"""In-memory span tracing of one FL run, installed from outside the program.

Spans are recorded at the boundaries of the program's public calls — the
round engine's ``add_before``/``add_after`` hooks for the seven phases, and
thin wrappers around the layer entry points (``backend.run_clients``,
``strategy.client_compress/aggregate/end_round``, ``sampler.draw``,
``population.advance``, ``staleness.download_bytes_many``,
``server.evaluate``, ``nn`` layer ``forward``/``backward`` and the optimizer
step).  Nothing under ``src/`` changes; the wrappers only read the clock, so
tracing cannot feed back into simulation state.

A span is ``(name, start, end, parent, round_id)``.  Its *self time* is its
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import math
import os
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Sequence

#: leaf layer classes of ``repro.nn`` whose forward/backward get spans
NN_LAYERS = ("Conv2d", "BatchNorm2d", "MaxPool2d", "ReLU", "Linear", "GlobalAvgPool2d")

#: the round engine's phases, in order
PHASES = (
    "sampling", "sync", "timing", "execution",
    "compression", "aggregation", "measurement",
)

NAME, START, END, PARENT, ROUND = range(5)


class Tracer:
    """Nested spans kept in memory; the open spans form a stack.

    Spans live in flat columns of atoms, not one list per span, so the
    interpreter's cyclic garbage collector does not rescan them as they
    accumulate (that rescan would be tracing overhead growing with run
    length)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.round_ids = array("q")
        self.round_id = 0
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.round_ids.append(self.round_id)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        """Close ``idx`` and any span opened inside it that is still open
        (a phase that raised never reaches its ``add_after`` hook)."""
        now = self.clock()
        while self._stack:
            top = self._stack.pop()
            self.ends[top] = now
            if top == idx:
                return

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def spans(self) -> List[tuple]:
        """Every span as ``(name, start, end, parent, round_id)``."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.round_ids))

    def write(self, path: str) -> None:
        """Dump every span as one JSON line (name, start, end, parent, round)."""
        import json

        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Duration of each span minus the union of its children's intervals
    (clipped to the parent's interval)."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][START]):
            c_lo, c_hi = max(spans[c][START], lo), min(spans[c][END], hi)
            if c_hi <= c_lo:
                continue
            if cur_hi is None or c_lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c_lo, c_hi
            else:
                cur_hi = max(cur_hi, c_hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def reduce_spans(spans: Sequence[Sequence], rounds) -> Dict[str, Dict[str, float]]:
    """Per span name: summed ``self`` and ``total`` seconds and ``calls``,
    over the spans of the given round ids.  Spans nested (at any depth)
    inside ``runtime.run_clients`` are keyed ``train:<name>`` so that
    inference during evaluation is kept apart from local training."""
    rounds = set(rounds)
    selfs = self_times(spans)
    in_train = [False] * len(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self": 0.0, "total": 0.0, "calls": 0}
    )
    for i, span in enumerate(spans):
        parent = span[PARENT]
        in_train[i] = parent >= 0 and (
            in_train[parent] or spans[parent][NAME] == "runtime.run_clients"
        )
        if span[ROUND] not in rounds:
            continue
        key = ("train:" if in_train[i] else "") + span[NAME]
        entry = out[key]
        entry["self"] += selfs[i]
        entry["total"] += span[END] - span[START]
        entry["calls"] += 1
    return dict(out)


def coverage(spans: Sequence[Sequence], rounds) -> Dict[str, float]:
    """Mean round duration against what its direct children cover
    (phases, or a flush's calls) plus the round's own self time; the two
    sides agree when the round is fully attributed."""
    rounds = set(rounds)
    selfs = self_times(spans)
    total = attributed = own = 0.0
    for i, span in enumerate(spans):
        if span[ROUND] not in rounds:
            continue
        if span[NAME] == "round":
            total += span[END] - span[START]
            own += selfs[i]
        elif span[PARENT] >= 0 and spans[span[PARENT]][NAME] == "round":
            attributed += span[END] - span[START]
    n = max(len(rounds), 1)
    return {"round_s": total / n, "children_s": attributed / n, "self_s": own / n}


def instrument(server, tracer: Tracer, *, layers: bool) -> Callable[[], None]:
    """Install spans on ``server``; returns a function that removes the
    class-level wrappers again.

    ``layers`` adds the ``nn`` forward/backward and optimizer-step spans.
    They are class-level wrappers, so they are installed only when local
    training runs in this process (serial backend); process workers are
    opaque from outside.
    """
    import repro.engine.phases as phases
    import repro.nn as nn
    from repro.nn.optim import SGD

    def wrap_attr(obj, attr: str, name: str) -> None:
        setattr(obj, attr, tracer.wrap(name, getattr(obj, attr)))

    run_round = server.run_round

    def traced_round():
        tracer.round_id = server.round_idx + 1
        idx = tracer.open("round")
        try:
            return run_round()
        finally:
            tracer.close(idx)

    server.run_round = traced_round

    engine = getattr(server.scheduler, "engine", None)
    if engine is not None:
        opened: List[int] = []  # phases run one after another, never nested
        for phase in engine.phases:
            name = f"engine.{phase.name}"
            engine.add_before(
                phase.name, lambda s, c, _n=name: opened.append(tracer.open(_n))
            )
            engine.add_after(phase.name, lambda s, c: tracer.close(opened.pop()))

    backend = server.backend
    run_clients = backend.run_clients

    def traced_run_clients(tasks, *args, **kwargs):
        tracer.counters["runtime.tasks"] += len(tasks)
        idx = tracer.open("runtime.run_clients")
        try:
            return run_clients(tasks, *args, **kwargs)
        finally:
            tracer.close(idx)

    backend.run_clients = traced_run_clients
    if getattr(backend, "trainer", None) is not None:
        wrap_attr(backend.trainer, "run", "runtime.task")

    strategy = server.strategy
    for attr in ("client_compress", "aggregate", "end_round"):
        wrap_attr(strategy, attr, f"compression.{attr}")
    wrap_attr(server.sampler, "draw", "samplers.draw")
    wrap_attr(server.sampler, "sample_replacements", "samplers.draw")
    wrap_attr(server.staleness, "download_bytes_many", "staleness.download_bytes")
    wrap_attr(server, "evaluate", "server.evaluate")

    population = getattr(server, "population", None)
    if population is not None:
        advance = population.advance

        def traced_advance(round_idx):
            idx = tracer.open("population.advance")
            try:
                return advance(round_idx)
            finally:
                tracer.close(idx)
                tracer.counters["population.idle_clients"] += (
                    population.state_counts()["idle"]
                )
                tracer.counters["population.advances"] += 1

        population.advance = traced_advance

    restore = [(phases, "apply_update", phases.apply_update)]
    phases.apply_update = tracer.wrap("aggregation.apply", phases.apply_update)
    if layers:
        for cls_name in NN_LAYERS:
            cls = getattr(nn, cls_name)
            for method in ("forward", "backward"):
                restore.append((cls, method, cls.__dict__.get(method)))
                setattr(
                    cls, method,
                    tracer.wrap(f"nn.{cls_name}.{method}", getattr(cls, method)),
                )
        restore.append((SGD, "step", SGD.__dict__.get("step")))
        SGD.step = tracer.wrap("nn.optim.step", SGD.step)

    def uninstall() -> None:
        for owner, attr, original in reversed(restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return uninstall
