"""Pluggable round schedulers: sync, async/buffered, failure-injection,
tiered semi-async, and overlapped sync rounds.

Every scheduler runs on the shared simulated-time core
(:class:`~repro.engine.clock.SimClock`): the clock owns cumulative
simulated time and the completion-event queue, and every
:class:`~repro.fl.metrics.RoundRecord` carries the clock's reading as
``wall_clock_s`` — monotone under every round shape, so time-to-accuracy
is comparable across schedulers.

A scheduler decides what one call to ``FLServer.run_round`` means:

``sync``
    One Algorithm 1 round through the default phase pipeline — bit-identical
    to the pre-refactor monolithic loop (pinned by the engine golden test).
    The measurement phase replays the round's duration through the clock.

``async``
    FedBuff-style buffered asynchrony (Nguyen et al., 2022).  Clients train
    on their own clocks: the server keeps ``async_concurrency`` clients in
    flight, each training from the global state *at its dispatch time*.
    Finish events (download + compute + upload, via the existing
    :class:`~repro.fl.simulator.CandidateTimings` latency model) are popped
    from the clock's event queue; every ``async_buffer_size`` arrivals the
    server aggregates the buffer with staleness-discounted weights
    ``(1 + τ)^(−async_staleness_alpha)`` (normalized), where τ counts global
    updates applied since the client's dispatch.  One ``run_round`` call ==
    one buffer flush == one :class:`~repro.fl.metrics.RoundRecord`, whose
    ``mean_update_staleness`` reports the buffer's mean τ and whose
    ``wall_clock_s`` reports the event queue's current time.  Sticky-group
    rebalancing and inverse-propensity weighting are sync-only concepts and
    are not applied here; replacement dispatch goes through the sampler's
    own ``sample_replacements`` policy (uniform over the online pool by
    default; norm-proportional for
    :class:`~repro.fl.extra_samplers.OptimalClientSampler`).  Arrivals
    tied at the same finish time from the same dispatch snapshot drain as
    *one* backend batch.  On a backend with more than one worker the
    scheduler also trains *ahead*: a call for popped arrivals is filled
    up to a whole number of worker waves with queued jobs of the same
    snapshot, each trained for the flush it is predicted to land in.  A
    client's result depends only on its id, learning rate, flush index,
    dispatch snapshot and data, so a look-ahead result is used exactly
    when its job pops in the predicted flush and is retrained otherwise —
    records are bit-identical to one-at-a-time training.  Every
    ``begin_round`` is paired with ``end_round`` or — when a flush comes
    up empty — ``abort_round``, keeping stateful mask schedules honest.
    The record stream is pinned by ``tests/engine/golden_async.json``.

``failure``
    The sync pipeline over a fault-injecting device population: the server
    auto-attaches a ``"storm"`` population preset
    (:class:`~repro.population.traces.ChurnStormTrace`, parameterized by
    the ``failure_*`` knobs), so every ``failure_burst_every``-th round
    (1-based — first burst at round ``failure_burst_every``) a dropout
    burst collapses the population's connectivity column by
    ``failure_burst_dropout`` and a straggler storm multiplies
    ``failure_straggler_fraction`` of devices' responsiveness by
    ``failure_straggler_slowdown``× — plain trace-driven state
    transitions read by the unchanged timing phase.  Burst rounds are
    flagged in ``RoundRecord.injected_failure``; pair with
    ``RunConfig.skip_empty_rounds`` so a burst that wipes out every
    candidate records a zero-participant round instead of aborting.  The
    record stream is pinned by ``tests/engine/golden_failure.json``.

``semiasync``
    FLASH-style tiered rounds.  The round samples and prices candidates
    exactly like ``sync``; the **fast tier** (the first-K-per-bucket
    selection) aggregates synchronously at the round's deadline with the
    sampler's own unbiasedness weights.  The over-committed stragglers —
    candidates whose uploads would land *after* the deadline and are
    simply discarded under ``sync`` — keep training: their finish events
    go onto the clock, and when a later round's deadline passes an event,
    that stale update folds into that round's aggregation with the
    discounted weight ``(1 + τ)^(−async_staleness_alpha) / K`` (τ = rounds
    since dispatch; the ``1/K`` unit matches one fast-tier share).
    Arrivals staler than ``semiasync_max_lag`` rounds are discarded.
    Clients with an in-flight straggler task are *busy* — excluded from
    the sampler pool until their arrival folds in, so no round ever
    aggregates two updates from one client.  Candidates are priced
    through the same downstream accounting as ``sync``; straggler upload
    bytes land in the record of their *arrival* round.  Stale
    deltas are compressed under the strategy state of the arrival round —
    under GlueFL's shifting shared mask this is exactly the mask-drift
    regime ``benchmarks/bench_sticky_staleness.py`` studies.

``overlapped``
    Pipelined sync rounds: identical learning dynamics to ``sync`` (same
    RNG streams, same updates, bit-identical records apart from the clock
    fields) under an overlapped communication model — round *t+1*'s
    downloads start when round *t*'s uploads start, so the downlink leg
    hides behind the previous uplink leg.  The pipeline runs on the
    *critical participant's* legs (``ParticipantSelection.critical_*_s``,
    which sum exactly to the sync round time): with aggregation of round
    *t−1* done at ``A``, round *t* finishes at
    ``max(A, dl_start + D) + C + U`` where ``dl_start`` is round *t−1*'s
    upload start.  Per-round advance is never larger than the sync round
    time (savings up to ``min(D_t, U_{t−1})``); ``round_seconds`` reports
    the advance so cumulative time matches ``wall_clock_s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.clock import SimClock
from repro.engine.context import RoundContext
from repro.engine.engine import RoundEngine
from repro.engine.phases import (
    apply_aggregate,
    candidate_timings,
    compress_results,
    downstream_sync_bytes,
    nominal_upstream_bytes,
    scheduled_accuracy,
    sync_detail_rows,
)
from repro.fl.aggregation import staleness_discounted_weights
from repro.fl.metrics import RoundRecord
from repro.fl.samplers import SampleDraw
from repro.fl.simulator import select_participants
from repro.runtime.backends import ClientResult, ClientTask

__all__ = [
    "SCHEDULERS",
    "Scheduler",
    "SyncScheduler",
    "AsyncBufferedScheduler",
    "FailureInjectionScheduler",
    "SemiAsyncScheduler",
    "OverlappedSyncScheduler",
    "create_scheduler",
]

SCHEDULERS = ("sync", "async", "failure", "semiasync", "overlapped")


def _nan_safe_mean(values) -> Optional[float]:
    """Mean of a possibly-empty/None collection — ``None`` instead of NaN."""
    if values is None or len(values) == 0:
        return None
    return float(np.mean(values))


class Scheduler:
    """Base interface: one ``run_round`` call advances the run by one record.

    Every scheduler owns a :class:`~repro.engine.clock.SimClock`; *how* it
    advances is the scheduler's clock model, but ``clock.now`` is always
    the run's cumulative simulated time.
    """

    name: str = "base"

    def __init__(self) -> None:
        self.clock = SimClock()

    def setup(self, server) -> None:
        """Bind scheduler state to a server (called once from ``FLServer``)."""

    def run_round(self, server) -> RoundRecord:
        raise NotImplementedError


class SyncScheduler(Scheduler):
    """The default: one synchronous round through the phase engine."""

    name = "sync"

    def __init__(self, engine: Optional[RoundEngine] = None):
        super().__init__()
        self.engine = engine if engine is not None else RoundEngine()

    def run_round(self, server) -> RoundRecord:
        server.round_idx += 1
        ctx = RoundContext(round_idx=server.round_idx, clock=self.clock)
        return self.engine.run_round(server, ctx)


class FailureInjectionScheduler(SyncScheduler):
    """Sync rounds with periodic dropout bursts + straggler storms.

    The faults themselves live in the server's device population: building
    a ``failure`` server auto-attaches a ``"storm"``
    :class:`~repro.population.traces.ChurnStormTrace` (parameterized by the
    ``failure_*`` knobs) unless the config supplies its own population, so
    bursts are plain trace-driven state transitions — connectivity
    collapses and responsiveness multiplies in the population columns, and
    the unchanged timing phase reads them through the availability-trace
    protocol.  This scheduler only *flags* burst rounds
    (``RoundRecord.injected_failure``) by asking the trace's ``is_burst``.

    Round indices are 1-based, so the first burst lands at round
    ``failure_burst_every``, not round 0 (pinned by
    ``tests/engine/test_schedulers.py``).  Populations without a burst
    schedule (or legacy servers built without a population) fall back to
    the context-knob injection path the timing phase has always honored.
    """

    name = "failure"

    def __init__(self, engine: Optional[RoundEngine] = None):
        super().__init__(engine)
        self.engine.add_before("timing", self._inject)

    @staticmethod
    def _inject(server, ctx: RoundContext) -> None:
        cfg = server.config
        population = getattr(server, "population", None)
        if population is not None:
            is_burst = getattr(population.trace, "is_burst", None)
            if is_burst is not None:
                # trace-driven faults: the population columns already
                # carry the burst; just flag the record
                if is_burst(ctx.round_idx):
                    ctx.injected_failure = True
                return
        every = cfg.failure_burst_every
        if every and ctx.round_idx % every == 0:
            ctx.extra_dropout_prob = cfg.failure_burst_dropout
            ctx.straggler_fraction = cfg.failure_straggler_fraction
            ctx.straggler_slowdown = cfg.failure_straggler_slowdown
            ctx.injected_failure = True


class OverlappedSyncScheduler(SyncScheduler):
    """Sync learning dynamics under a pipelined communication clock.

    Runs the identical phase pipeline (same RNG consumption, same model
    updates as ``sync``) but advances the clock with the overlapped-round
    recurrence documented in the module docstring, overwriting the
    record's ``round_seconds`` with the pipelined advance.
    """

    name = "overlapped"

    def __init__(self, engine: Optional[RoundEngine] = None):
        super().__init__(engine)
        self._prev_upload_start: Optional[float] = None

    def run_round(self, server) -> RoundRecord:
        server.round_idx += 1
        # clock stays out of the context: this scheduler owns the advance
        ctx = RoundContext(round_idx=server.round_idx)
        record = self.engine.run_round(server, ctx)
        sel = ctx.selection
        agg_ready = self.clock.now  # previous round's aggregation time
        dl_start = (
            self._prev_upload_start
            if self._prev_upload_start is not None
            else agg_ready
        )
        dl_done = dl_start + sel.critical_download_s
        # compute needs both the prefetched payload and the fresh update
        compute_start = max(dl_done, agg_ready)
        upload_start = compute_start + sel.critical_compute_s
        done = upload_start + sel.critical_upload_s
        self._prev_upload_start = upload_start
        record.round_seconds = done - agg_ready
        self.clock.advance_to(done)
        record.wall_clock_s = self.clock.now
        return record


@dataclass
class _InFlightJob:
    """One dispatched client: where it started and how long it will take."""

    client_id: int
    lr: float
    start_version: int
    #: dispatch-time global state (references, not copies: the server
    #: replaces — never mutates — its global arrays on update)
    params: np.ndarray
    buffers: np.ndarray
    download_s: float
    compute_s: float
    upload_s: float


class AsyncBufferedScheduler(Scheduler):
    """FedBuff-style buffered-asynchronous aggregation (see module docs)."""

    name = "async"

    def __init__(self) -> None:
        super().__init__()
        self._in_flight: Dict[int, _InFlightJob] = {}
        #: look-ahead results: client id -> (job, predicted flush, result)
        self._ahead: Dict[int, Tuple[_InFlightJob, int, ClientResult]] = {}
        #: look-ahead results thrown away unused (wrong flush or dropped job)
        self.speculation_discards = 0
        self._last_flush = 0.0
        self._round_closed = False
        # accounting accumulated between flushes
        self._pending_down = 0
        self._pending_candidates = 0
        self._pending_stale_fracs: List[float] = []

    def setup(self, server) -> None:
        cfg = server.config
        self.buffer_size = cfg.async_buffer_size
        self.concurrency = cfg.async_concurrency or server.sampler.k
        self.alpha = cfg.async_staleness_alpha

    # -- dispatch ---------------------------------------------------------------
    def _dispatch(self, server, round_idx: int) -> None:
        """Top the in-flight pool back up to the concurrency target.

        With a device population bound, every dispatched client
        transitions to WORKING (``begin_work``) and every drained arrival
        returns through ``complete_work``/``drop_work`` — the continuous
        analogue of the sync round's begin/finish bracketing, so the
        population's state machine (and its O(active) event advance)
        tracks in-flight clients under asynchrony too.
        """
        want = self.concurrency - len(self._in_flight)
        if want <= 0:
            return
        population = getattr(server, "population", None)
        exclude = np.fromiter(
            self._in_flight.keys(), dtype=np.int64, count=len(self._in_flight)
        )
        if population is not None and getattr(
            population, "scalable_sampling", False
        ):
            # O(idle) path: in-flight clients are WORKING, so the pool
            # already excludes them; ``exclude`` guards the window where
            # a completed client re-idles before its next dispatch
            pool = population.idle_pool(round_idx)
            new = server.sampler.sample_replacements_pool(pool, exclude, want)
        else:
            available = server.availability.online(round_idx)
            new = server.sampler.sample_replacements(available, exclude, want)
        if len(new) == 0:
            return
        if population is not None:
            population.begin_work(new)

        _, down = downstream_sync_bytes(server, new)
        self._pending_down += int(down.sum())
        self._pending_candidates += len(new)
        self._pending_stale_fracs.extend(
            (server.staleness.stale_counts(new) / server.staleness.d).tolist()
        )
        server.staleness.mark_synced(new)

        timings = candidate_timings(
            server, new, down, nominal_upstream_bytes(server)
        )
        lr = server.lr_schedule.at_round(round_idx - 1)
        for i, cid in enumerate(new):
            cid = int(cid)
            self._in_flight[cid] = _InFlightJob(
                client_id=cid,
                lr=lr,
                start_version=server.staleness.version,
                params=server.global_params,
                buffers=server.global_buffers,
                download_s=float(timings.download_s[i]),
                compute_s=float(timings.compute_s[i]),
                upload_s=float(timings.upload_s[i]),
            )
        self.clock.schedule_timings(timings)  # finish events, payload = cid

    # -- event-queue draining ----------------------------------------------------
    def _pop_batch(self, server, limit: int) -> List[_InFlightJob]:
        """Pop every surviving job tied at the earliest finish time.

        Events with *equal* finish times and the same dispatch snapshot
        version trained from identical global state, so they form one
        batch for ``run_clients`` (which :meth:`_train` may widen with
        look-ahead jobs).  Mid-round dropouts are drawn per client in pop
        order (same RNG stream as draining one by one).
        """
        jobs: List[_InFlightJob] = []
        population = getattr(server, "population", None)
        first_finish: Optional[float] = None
        version: Optional[int] = None
        while len(self.clock) and len(jobs) < limit:
            finish, cid = self.clock.peek()
            job = self._in_flight[cid]
            if first_finish is None:
                first_finish, version = finish, job.start_version
            elif finish != first_finish or job.start_version != version:
                break
            self.clock.pop()
            del self._in_flight[cid]
            if bool(server.availability.survives_round(np.array([cid]))[0]):
                jobs.append(job)
                if population is not None:
                    population.complete_work(np.array([cid], dtype=np.int64))
            else:
                self._discard(cid)
                if population is not None:
                    # lost mid-flight: sit out the dropped cooldown
                    population.drop_work(
                        np.array([cid], dtype=np.int64), server.round_idx
                    )
        return jobs

    # -- training, with look-ahead ------------------------------------------------
    def _discard(self, cid: int) -> None:
        if self._ahead.pop(cid, None) is not None:
            self.speculation_discards += 1

    def _ahead_result(
        self, job: _InFlightJob, flush: int
    ) -> Optional[ClientResult]:
        """The look-ahead result trained for ``job`` in ``flush``, if any."""
        entry = self._ahead.get(job.client_id)
        if entry is not None and entry[0] is job and entry[1] == flush:
            return entry[2]
        return None

    def _take_ahead(
        self, job: _InFlightJob, flush: int
    ) -> Optional[ClientResult]:
        """Spend ``job``'s look-ahead entry: its result when trained for
        ``flush``, else ``None`` (a wrong guess, discarded)."""
        result = self._ahead_result(job, flush)
        if result is None:
            self._discard(job.client_id)
        else:
            del self._ahead[job.client_id]
        return result

    def _look_ahead(
        self, snapshot: np.ndarray, position: int, t: int, want: int
    ) -> List[Tuple[_InFlightJob, int]]:
        """Up to ``want`` queued jobs dispatched from ``snapshot``, as
        ``(job, predicted flush)`` in pop order, within flushes ``t`` and
        ``t + 1``.  The ``i``-th upcoming event is predicted to be arrival
        ``position + i`` of flush ``t`` (0-based); jobs already holding a
        result for their predicted flush are skipped."""
        picks: List[Tuple[_InFlightJob, int]] = []
        if want <= 0:
            return picks
        horizon = 2 * self.buffer_size - position
        for i, (_, cid) in enumerate(self.clock.upcoming(horizon)):
            job = self._in_flight[cid]
            flush = t + (position + i) // self.buffer_size
            if job.params is snapshot and self._ahead_result(job, flush) is None:
                picks.append((job, flush))
                if len(picks) == want:
                    break
        return picks

    def _train(
        self, server, t: int, batch: List[_InFlightJob], position: int
    ) -> List[ClientResult]:
        """Results for a popped ``batch`` arriving in flush ``t`` after
        ``position`` earlier arrivals (see the module docs for the
        look-ahead and why reusing its results is exact)."""
        results = [self._take_ahead(job, t) for job in batch]
        need = [job for job, res in zip(batch, results) if res is None]
        if not need:
            return results
        # one worker: nothing to fill, so serial training is unchanged
        fill = -len(need) % server.backend.workers
        ahead = self._look_ahead(need[0].params, position + len(batch), t, fill)
        train = [(job, t) for job in need] + ahead
        tasks = [
            ClientTask(client_id=job.client_id, lr=job.lr, round_idx=flush)
            for job, flush in train
        ]
        # same snapshot ⇒ same dispatch-time global arrays
        out = server.backend.run_clients(tasks, need[0].params, need[0].buffers)
        for (job, flush), res in zip(ahead, out[len(need):]):
            self._discard(job.client_id)
            self._ahead[job.client_id] = (job, flush, res)
        fresh = iter(out)
        return [res if res is not None else next(fresh) for res in results]

    # -- one buffer flush --------------------------------------------------------
    def run_round(self, server) -> RoundRecord:
        """One flush, with the strategy round-lifecycle enforced: whatever
        fails between ``begin_round`` and ``end_round`` (empty pool, a
        crashing backend, ...) the opened round is closed by
        ``abort_round`` before the error propagates."""
        server.round_idx += 1
        t = server.round_idx
        server.strategy.begin_round(t)
        self._round_closed = False
        try:
            return self._run_flush(server, t)
        except Exception:
            if not self._round_closed:
                server.strategy.abort_round(t)
            raise
        finally:
            # look-ahead results predicted for this flush are now unusable
            for cid in [c for c, e in self._ahead.items() if e[1] <= t]:
                self._discard(cid)

    def _run_flush(self, server, t: int) -> RoundRecord:
        cfg = server.config
        self._dispatch(server, t)

        arrivals: List[Tuple[_InFlightJob, object]] = []
        while len(arrivals) < self.buffer_size and len(self.clock):
            batch = self._pop_batch(server, self.buffer_size - len(arrivals))
            if not batch:
                self._dispatch(server, t)  # lost mid-round; refill and move on
                continue
            results = self._train(server, t, batch, len(arrivals))
            arrivals.extend(zip(batch, results))
            self._dispatch(server, t)

        if not arrivals:
            # pair this round's begin_round before bailing either way
            server.strategy.abort_round(t)
            self._round_closed = True
            if cfg.skip_empty_rounds:
                return self._flush_record(server, t, arrivals, None, [])
            raise RuntimeError(
                f"round {t}: no clients available to fill the buffer"
            )

        # --- staleness-discounted aggregation of the buffer ---
        taus = np.array(
            [server.staleness.version - job.start_version for job, _ in arrivals]
        )
        weights = staleness_discounted_weights(taus, self.alpha)
        payloads, buffer_deltas, losses, up_bytes_total = compress_results(
            server, [result for _, result in arrivals], weights
        )
        agg = apply_aggregate(server, payloads, buffer_deltas)
        server.strategy.end_round(agg, t)
        self._round_closed = True
        return self._flush_record(server, t, arrivals, taus, losses, up_bytes_total)

    def _flush_record(
        self, server, t, arrivals, taus, losses, up_bytes_total: int = 0
    ) -> RoundRecord:
        accuracy = scheduled_accuracy(server, t, self._pending_down)
        now = self.clock.now
        record = RoundRecord(
            round_idx=t,
            down_bytes=self._pending_down,
            up_bytes=up_bytes_total,
            round_seconds=now - self._last_flush,
            download_seconds=max(
                (job.download_s for job, _ in arrivals), default=0.0
            ),
            compute_seconds=max(
                (job.compute_s for job, _ in arrivals), default=0.0
            ),
            upload_seconds=max(
                (job.upload_s for job, _ in arrivals), default=0.0
            ),
            num_candidates=self._pending_candidates,
            num_participants=len(arrivals),
            mean_stale_fraction=(
                float(np.mean(self._pending_stale_fracs))
                if self._pending_stale_fracs
                else 0.0
            ),
            train_loss=_nan_safe_mean(losses) or 0.0,
            accuracy=accuracy,
            wall_clock_s=now,
            mean_update_staleness=_nan_safe_mean(taus),
            privacy_epsilon_spent=server.strategy.privacy_epsilon_spent(),
        )
        self._pending_down = 0
        self._pending_candidates = 0
        self._pending_stale_fracs = []
        self._last_flush = now
        return record


@dataclass
class _StaleArrival:
    """A straggler's finished update, waiting on the clock to fold in."""

    client_id: int
    dispatch_round: int
    result: object  # ClientResult trained from the dispatch-round snapshot


class SemiAsyncScheduler(Scheduler):
    """FLASH-style tiered rounds: sync fast tier + async straggler fold-in.

    See the module docstring for the full semantics.  The record stream is
    pinned by ``tests/engine/golden_semiasync.json``.
    """

    name = "semiasync"

    def __init__(self) -> None:
        super().__init__()
        self._round_closed = False
        #: clients with a scheduled, not-yet-folded straggler arrival —
        #: they are still computing, so the sampler must not re-draw them
        #: (a client contributing twice to one aggregation is a state no
        #: real device can be in; mirrors the async dispatcher's exclude)
        self._busy: set = set()

    def setup(self, server) -> None:
        cfg = server.config
        self.alpha = cfg.async_staleness_alpha
        self.max_lag = cfg.semiasync_max_lag

    def run_round(self, server) -> RoundRecord:
        server.round_idx += 1
        t = server.round_idx
        server.strategy.begin_round(t)
        self._round_closed = False
        try:
            return self._run(server, t)
        except Exception:
            if not self._round_closed:
                server.strategy.abort_round(t)
            raise

    def _run(self, server, t: int) -> RoundRecord:
        cfg = server.config

        # --- sampling + downstream accounting, through the same shared
        # slices the sync phases use (downstream_sync_bytes,
        # sync_detail_rows, candidate_timings, select_participants) —
        # minus the clients still busy with an in-flight straggler task
        population = getattr(server, "population", None)
        if population is not None and getattr(
            population, "scalable_sampling", False
        ):
            # O(idle) path: busy stragglers are WORKING in the population
            # (begin_work below), so the pool already excludes them
            pool = population.idle_pool(t)
            if len(pool) == 0 and cfg.skip_empty_rounds:
                empty = np.empty(0, dtype=np.int64)
                draw = SampleDraw(
                    sticky=empty, nonsticky=empty,
                    quota_sticky=0, quota_nonsticky=0,
                )
            else:
                draw = server.sampler.draw_pool(t, pool, cfg.overcommit)
        else:
            available = server.availability.online(t)
            if self._busy:
                available = available.copy()
                available[np.fromiter(self._busy, dtype=np.int64)] = False
            if not available.any() and cfg.skip_empty_rounds:
                # churn can empty the drawable pool outright (everyone
                # offline, dropped, or busy with a straggler task): run a
                # zero-candidate fast tier — due straggler arrivals still
                # fold in below
                empty = np.empty(0, dtype=np.int64)
                draw = SampleDraw(
                    sticky=empty, nonsticky=empty,
                    quota_sticky=0, quota_nonsticky=0,
                )
            else:
                draw = server.sampler.draw(t, available, cfg.overcommit)
        candidates = draw.candidates
        if population is not None:
            # sampled candidates leave the idle pool until they return
            # (fast tier at the deadline, stragglers when their arrival
            # folds in) or fail mid-round (drop_work below)
            population.begin_work(candidates)
        sync_bytes, down_per_client = downstream_sync_bytes(server, candidates)
        down_total = int(down_per_client.sum())
        mean_stale = server.staleness.mean_staleness_fraction(candidates)
        sync_details = (
            sync_detail_rows(server, candidates, sync_bytes)
            if cfg.collect_sync_details
            else None
        )
        server.staleness.mark_synced(candidates)

        # --- timing + fast-tier selection
        up_nominal = nominal_upstream_bytes(server)
        n_sticky = len(draw.sticky)
        sticky_t = candidate_timings(
            server, draw.sticky, down_per_client[:n_sticky], up_nominal
        )
        nonsticky_t = candidate_timings(
            server, draw.nonsticky, down_per_client[n_sticky:], up_nominal
        )
        sticky_survives = server.availability.survives_round(draw.sticky)
        nonsticky_survives = server.availability.survives_round(draw.nonsticky)
        if population is not None:
            lost = np.concatenate(
                [draw.sticky[~sticky_survives], draw.nonsticky[~nonsticky_survives]]
            )
            population.drop_work(lost, t)
        selection = select_participants(
            sticky_t,
            nonsticky_t,
            draw.quota_sticky,
            draw.quota_nonsticky,
            sticky_survives,
            nonsticky_survives,
        )

        # --- stragglers: surviving candidates the deadline leaves behind
        fast_ids = selection.participant_ids
        fast_set = {int(cid) for cid in fast_ids}
        stragglers: List[Tuple[int, float]] = []  # (client_id, finish_s)
        for timings, survives in (
            (sticky_t, sticky_survives),
            (nonsticky_t, nonsticky_survives),
        ):
            finish = timings.finish_s
            for row in np.flatnonzero(survives):
                cid = int(timings.client_ids[row])
                if cid not in fast_set:
                    stragglers.append((cid, float(finish[row])))

        # --- execution: fast tier + stragglers share one backend batch
        # (per-client RNG streams are order-independent by construction)
        lr = server.lr_schedule.at_round(t - 1)
        tasks = [
            ClientTask(client_id=int(cid), lr=lr, round_idx=t)
            for cid in fast_ids
        ] + [
            ClientTask(client_id=cid, lr=lr, round_idx=t)
            for cid, _ in stragglers
        ]
        results = server.backend.run_clients(
            tasks, server.global_params, server.global_buffers
        )
        fast_results = results[: len(fast_ids)]
        for (cid, finish_s), result in zip(stragglers, results[len(fast_ids):]):
            self.clock.schedule(
                self.clock.now + finish_s, _StaleArrival(cid, t, result)
            )
            self._busy.add(cid)

        # --- the fast tier's deadline collects due straggler arrivals
        deadline = self.clock.now + selection.round_seconds
        due = [payload for _, payload in self.clock.pop_until(deadline)]
        self.clock.advance_to(deadline)
        for arrival in due:
            self._busy.discard(arrival.client_id)
        if population is not None:
            # the fast tier returned at the deadline; due stragglers
            # returned too (even the over-lag ones whose update is
            # discarded — the device itself came back)
            population.complete_work(fast_ids)
            if due:
                population.complete_work(
                    np.array([a.client_id for a in due], dtype=np.int64)
                )
        kept = [a for a in due if t - a.dispatch_round <= self.max_lag]

        # --- weights: sampler correction for the fast tier, discounted
        # 1/K shares for stale arrivals
        nu_s, nu_r = server._weights_for(
            selection.sticky_ids, selection.nonsticky_ids
        )
        taus = np.array([t - a.dispatch_round for a in kept], dtype=np.int64)
        arrival_w = (1.0 + taus) ** (-self.alpha) / server.sampler.k
        weights = np.concatenate([nu_s, nu_r, arrival_w])

        all_results = list(fast_results) + [a.result for a in kept]
        payloads, buffer_deltas, losses, up_bytes_total = compress_results(
            server, all_results, weights
        )
        if not payloads:
            server.strategy.abort_round(t)
            self._round_closed = True
            if not cfg.skip_empty_rounds:
                raise RuntimeError(
                    f"round {t}: no participants survived"
                )
        else:
            agg = apply_aggregate(server, payloads, buffer_deltas)
            server.sampler.complete_round(
                selection.sticky_ids, selection.nonsticky_ids
            )
            server.strategy.end_round(agg, t)
            self._round_closed = True

        accuracy = scheduled_accuracy(server, t, down_total)
        return RoundRecord(
            round_idx=t,
            down_bytes=down_total,
            up_bytes=up_bytes_total,
            round_seconds=selection.round_seconds,
            download_seconds=selection.download_seconds,
            compute_seconds=selection.compute_seconds,
            upload_seconds=selection.upload_seconds,
            num_candidates=len(candidates),
            num_participants=len(payloads),
            mean_stale_fraction=mean_stale,
            train_loss=_nan_safe_mean(losses) or 0.0,
            accuracy=accuracy,
            sync_details=sync_details,
            wall_clock_s=self.clock.now,
            mean_update_staleness=_nan_safe_mean(taus),
            privacy_epsilon_spent=server.strategy.privacy_epsilon_spent(),
        )


_SCHEDULER_TYPES = {
    "sync": SyncScheduler,
    "async": AsyncBufferedScheduler,
    "failure": FailureInjectionScheduler,
    "semiasync": SemiAsyncScheduler,
    "overlapped": OverlappedSyncScheduler,
}
assert tuple(_SCHEDULER_TYPES) == SCHEDULERS


def create_scheduler(name: str) -> Scheduler:
    """Build the scheduler selected by ``RunConfig.scheduler``."""
    scheduler_type = _SCHEDULER_TYPES.get(name)
    if scheduler_type is None:
        raise ValueError(
            f"unknown scheduler {name!r}; expected {SCHEDULERS}"
        )
    return scheduler_type()
