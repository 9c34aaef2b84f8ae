"""The shard coordinator: split, dispatch, watch, reassign, merge.

One :class:`ShardCoordinator` owns a sharded campaign end to end:

1. **Plan** -- :func:`~repro.shard.planner.plan_shards` tiles the
   fleet's global die range into contiguous shards.  With
   ``autotune_target_s`` set the plan is carved *during* the campaign
   instead: each idle worker gets a slice sized from its observed die
   rate (:class:`~repro.shard.planner.ShardAutotuner`), so slow hosts
   get smaller slices and the ranges still tile ``[0, N)``.
2. **Dispatch** -- workers reach the coordinator through a
   :class:`~repro.shard.transport.Transport`: subprocesses over stdio
   pipes borrowed from a :class:`~repro.shard.pool.WorkerPool` (the
   default; an engine's pool outlives the campaign, so later
   campaigns reuse warm workers), or remote processes that dialed a
   ``listen`` TCP endpoint (``repro shard-worker --connect``).  Each
   gets an ``init`` (pickled config, the threshold resolved *once* in
   this process, the fleet description, this process's golden
   artifacts, the trace context) and then ``assign`` messages; each
   channel's reader thread funnels its protocol lines into one
   queue.  A worker that dials in mid-
   campaign -- a late rejoin -- is init-ed on accept and handed
   pending shards like any other.
3. **Watch** -- workers heartbeat every ``heartbeat/2`` seconds and
   report progress per screened chunk.  A worker whose channel closes
   (pipe EOF, process exit, socket close/reset), that goes silent
   past the heartbeat deadline, or that speaks an undecodable line
   (protocol desync) is declared lost: its channel is torn down, its
   shard goes back on the queue and -- pipe mode only -- a fresh
   worker respawns into the slot (a remote worker must redial).
   Reassignment **resumes from the shard's last checkpoint, never
   from zero**: remote workers ship checkpoint bytes home inside
   ``progress``, so the resume state survives a partition with no
   shared filesystem.
4. **Merge** -- completed shards are plain checkpoint files (remote
   ``done`` messages carry the archive bytes inline and the
   coordinator writes them);  :meth:`StreamCheckpoint.merge`
   reassembles them in global-index order, bit-identical to the
   monolithic stream (proven by ``tests/shard/`` and the CI
   ``sharded-campaign-smoke`` drill, including its loopback-TCP
   partition phase).

Lifecycle metrics land in the process-default registry
(``shard_dispatched_total`` / ``shard_completed_total`` /
``shard_reassigned_total`` / ``shard_merge_seconds``, plus
``shard_bytes_total`` per transport direction and
``shard_rtt_seconds`` -- the assign-to-done round trip per shard,
which is also what feeds the autotuner); with tracing on, the whole
campaign nests under a ``shard.campaign`` span whose
``shard.dispatch`` children carry ``(shard, worker, attempt)`` -- a
re-dispatch is visible as ``attempt > 1`` -- and worker-side spans
come home pid- and host-stamped through the ``done`` message.

The drill hook: ``REPRO_SHARD_WORKER_FAULTS`` in the coordinator's
environment is forwarded (as ``REPRO_FAULTS``) to the *first* spawned
worker only (slot 0 is spawned fresh for it, so the drill always
lands, and that worker is never handed back to the pool), and
``REPRO_FAULTS`` itself is stripped from every worker environment --
so ``shard.worker.kill`` SIGKILLs exactly one worker
and the respawned replacement cannot inherit the same death.  The
``shard.transport.*`` fault points break the channel itself
(:mod:`repro.shard.transport`).
"""

from __future__ import annotations

import base64
import math
import os
import queue
import shutil
import tempfile
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.checkpoint import StreamCheckpoint
from repro.obs.logs import log_event
from repro.obs.metrics import default_registry
from repro.obs.trace import (
    SpanRecord,
    current_trace_context,
    current_tracer,
    span,
)
from repro.shard.planner import Shard, ShardAutotuner, plan_shards
from repro.shard.pool import WorkerPool, shutdown_transports
from repro.shard.protocol import (
    assign_message,
    decode_message,
    encode_message,
    init_message,
    pack_artifact,
)
from repro.shard.transport import (
    SocketListener,
    Transport,
    TransportClosed,
)
from repro.store import atomic_write_bytes

#: Environment variable naming faults to arm in the FIRST spawned
#: worker only (the worker-loss drill).  Respawned workers never see
#: it, so an armed ``shard.worker.kill`` cannot loop forever.
WORKER_FAULTS_ENV = "REPRO_SHARD_WORKER_FAULTS"

#: Silence allowance before the first ``hello`` (interpreter start +
#: imports are much slower than a heartbeat interval).  Doubles as the
#: default grace a listening coordinator waits for its first -- or a
#: replacement -- worker to dial in.
STARTUP_GRACE = 60.0

#: Dispatch attempts per shard before the campaign fails.
_MAX_ATTEMPTS = 3


class ShardWorkerError(RuntimeError):
    """A worker reported a non-recoverable error or a shard ran out
    of reassignment attempts."""


class _Worker:
    """One worker slot (transport + bookkeeping), any carrier."""

    __slots__ = ("index", "transport", "shard", "last_seen",
                 "last_progress", "hello_seen", "generation",
                 "assigned_at", "host")

    def __init__(self, index: int, transport: Transport,
                 generation: int) -> None:
        self.index = index
        self.transport = transport
        self.shard: Optional[Shard] = None
        self.last_seen = time.monotonic()
        self.last_progress = self.last_seen
        self.hello_seen = False
        self.generation = generation
        self.assigned_at = 0.0
        self.host: Optional[str] = None

    @property
    def idle(self) -> bool:
        return self.shard is None

    @property
    def remote(self) -> bool:
        return self.transport.kind == "socket"


class ShardCoordinator:
    """Run one sharded campaign; see the module docstring.

    Parameters
    ----------
    config, threshold, fleet:
        The engine configuration, the *resolved* NDF threshold (float
        or None -- workers never calibrate), and the shardable fleet
        (:mod:`repro.shard.fleets`).
    shards, workers:
        Planning and pool sizing: split into ``shards`` near-equal
        ranges; run at most
        ``workers`` subprocesses (default: one per shard).  With
        ``listen`` set the pool is whoever dials in; an explicit
        ``workers`` is then the expected pool size and the admission
        barrier: no shard is dispatched until that many workers have
        connected or ``rejoin_grace`` seconds have passed, so a fast
        first worker cannot drain the plan before the others dial
        in.  Without it the first worker gets shards at once.
    workdir:
        Directory for shard checkpoints and worker stderr logs.  A
        temp dir (cleaned up on success) when None.
    heartbeat:
        Seconds of silence after which a worker counts as stalled.
        Workers checkpoint after every chunk (the finest resume
        granularity); a shard is dispatched at most
        :data:`_MAX_ATTEMPTS` times before the campaign fails.
    listen:
        ``(host, port)`` to accept remote workers on (port 0 binds an
        ephemeral port; read it back from :attr:`address`).  The
        coordinator then spawns nothing: ``repro shard-worker
        --connect HOST:PORT`` processes dial in, possibly late,
        possibly from other machines.  Checkpoints travel inline in
        protocol messages -- no shared filesystem is assumed.
    autotune_target_s:
        When set, ignore the static plan and carve each worker's next
        shard to ``~autotune_target_s`` seconds of its *observed*
        screening rate (:class:`ShardAutotuner`).  The first slice
        per worker is ``ceil(count / (2 * shards))`` dies, aligned to
        the fleet chunk size.
    progress_timeout:
        Optional seconds without a ``progress``/``done`` from an
        assigned worker before it counts as lost even while its
        heartbeat still arrives -- the guard against a dropped
        completion line (heartbeats prove liveness, not progress).
    rejoin_grace:
        Listening mode only: seconds the coordinator waits with work
        pending and *zero* connected workers before failing the
        campaign (default :data:`STARTUP_GRACE`).
    pool:
        Pipe mode: the :class:`~repro.shard.pool.WorkerPool` to borrow
        workers from; its live workers are reused and handed back
        when the campaign ends.  None builds a private pool that is
        closed when :meth:`run` returns.
    golden:
        The configuration's golden artifacts, shipped to every worker
        in ``init``; computed here when None.
    """

    def __init__(self, config, threshold: Optional[float], fleet,
                 shards: int = 2, workers: Optional[int] = None,
                 workdir: Optional[str] = None,
                 heartbeat: float = 5.0,
                 listen: Optional[Tuple[str, int]] = None,
                 autotune_target_s: Optional[float] = None,
                 progress_timeout: Optional[float] = None,
                 rejoin_grace: float = STARTUP_GRACE,
                 pool: Optional[WorkerPool] = None,
                 golden=None) -> None:
        self.config = config
        self.threshold = None if threshold is None else float(threshold)
        self.fleet = fleet
        self._total = len(fleet)
        self.autotuner: Optional[ShardAutotuner] = None
        if autotune_target_s is not None:
            align = max(1, int(getattr(fleet, "chunk_size", 1) or 1))
            initial = max(align, math.ceil(
                self._total / max(1, 2 * shards)))
            self.autotuner = ShardAutotuner(
                float(autotune_target_s), initial_size=initial,
                align=align, max_size=max(self._total, 1))
            self.plan: List[Shard] = []
            self._frontier = 0
        else:
            self.plan = plan_shards(self._total, shards)
            self._frontier = self._total
        self._carved: List[Shard] = list(self.plan)
        self.remote = listen is not None
        self._listener = (SocketListener(listen[0], listen[1])
                          if self.remote else None)
        if self.remote:
            self.num_workers = max(1, workers if workers is not None
                                   else shards)
        else:
            self.num_workers = max(1, min(
                workers if workers is not None else shards,
                max(1, len(self.plan) or shards)))
        self.heartbeat = float(heartbeat)
        self.progress_timeout = (None if progress_timeout is None
                                 else float(progress_timeout))
        self.rejoin_grace = float(rejoin_grace)
        self._barrier = (self.num_workers
                         if self.remote and workers is not None else 1)
        self._workdir = workdir
        self._own_workdir = workdir is None
        self._pool = pool
        self._golden = golden
        self._golden_b64: Optional[str] = None
        self._queue: "queue.Queue[Tuple[Optional[int], dict]]" = \
            queue.Queue()
        self._workers: Dict[int, _Worker] = {}
        self._next_slot = 0
        self._drill_faults = os.environ.get(WORKER_FAULTS_ENV)
        self._env: Dict[str, str] = {}
        # The one worker spawned with the drill's faults: never given
        # back, so no later campaign borrows an armed process.
        self._armed: Optional[Transport] = None
        self._trace_context = None
        self._accept_stop = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self.stats: Dict[str, float] = {
            "planned": float(len(self.plan)), "dispatched": 0.0,
            "completed": 0.0, "reassigned": 0.0,
            "workers": float(0 if self.remote else self.num_workers),
            "merge_seconds": 0.0,
        }

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """The listening ``(host, port)``; None in pipe mode."""
        return None if self._listener is None \
            else self._listener.address

    # ------------------------------------------------------------------
    # Worker channel management
    # ------------------------------------------------------------------
    def _worker_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        # Never let the coordinator's own armed faults leak into
        # workers -- a respawned worker inheriting shard.worker.kill
        # would die forever.
        env.pop("REPRO_FAULTS", None)
        env.pop(WORKER_FAULTS_ENV, None)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_root if not existing \
            else src_root + os.pathsep + existing
        return env

    def _spawn(self, slot: int, generation: int) -> _Worker:
        env = self._env
        if self._drill_faults:
            env = {**env, "REPRO_FAULTS": self._drill_faults}
        transport = self._pool.spawn(slot, env)
        if self._drill_faults:
            self._armed = transport
            self._drill_faults = None  # first spawn only
        worker = self._admit(slot, transport, generation)
        log_event("shard.worker.spawned", slot=slot,
                  generation=generation, pid=transport.proc.pid)
        return worker

    def _admit(self, slot: int, transport: Transport,
               generation: int) -> _Worker:
        """Register a channel: route its lines here, send ``init``."""
        worker = _Worker(slot, transport, generation)
        self._workers[slot] = worker
        self.stats["workers"] = max(self.stats["workers"],
                                    float(len(self._workers)))
        context = self._trace_context if self._trace_context \
            is not None else current_trace_context()
        transport.attach(self._sink(slot, generation))
        try:
            transport.send_line(encode_message(init_message(
                self.config, self.threshold, self.fleet, self.heartbeat,
                None if context is None else context.to_dict(),
                remote=worker.remote, golden_b64=self._golden_b64)))
        except TransportClosed:
            pass  # the reader's EOF will declare it lost
        return worker

    def _accept_loop(self) -> None:
        while not self._accept_stop.is_set():
            transport = self._listener.accept(timeout=0.2)
            if transport is not None:
                self._queue.put((None, {"type": "_connect",
                                        "transport": transport}))

    def _sink(self, slot: int, generation: int
              ) -> Callable[[Optional[str]], None]:
        """This campaign's receiver for one channel's lines."""
        def deliver(line: Optional[str]) -> None:
            if line is None:
                message = {"type": "_eof"}
            else:
                try:
                    message = decode_message(line)
                except ValueError:
                    # Protocol desync: nothing after an undecodable
                    # line can be trusted, so this worker is lost
                    # (the coordinator survives; the worker does not).
                    message = {"type": "_garbage", "line": line[:200]}
            self._queue.put((slot, {**message, "_gen": generation}))
        return deliver

    def _send(self, worker: _Worker,
              message: Dict[str, object]) -> bool:
        try:
            worker.transport.send_line(encode_message(message))
            return True
        except TransportClosed:
            return False

    # ------------------------------------------------------------------
    # The campaign
    # ------------------------------------------------------------------
    def run(self) -> Tuple[StreamCheckpoint, Dict[str, float]]:
        """Execute every shard and merge; returns ``(merged, stats)``."""
        golden = self._golden
        if golden is None:
            from repro.campaign.engine import CampaignEngine

            golden = CampaignEngine(self.config).golden()
        self._golden_b64 = pack_artifact(self.config.golden_key(),
                                         golden)
        if self._workdir is None:
            self._workdir = tempfile.mkdtemp(prefix="repro-shards-")
        own_pool = self._pool is None and not self.remote
        if own_pool:
            self._pool = WorkerPool()
        try:
            with span("shard.campaign",
                      shards=len(self.plan) or None,
                      workers=self.num_workers,
                      dies=self._total,
                      transport="socket" if self.remote else "pipe"):
                self._trace_context = current_trace_context()
                if self.remote:
                    self._accept_thread = threading.Thread(
                        target=self._accept_loop, daemon=True,
                        name="shard-accept")
                    self._accept_thread.start()
                parts = self._run_shards()
                merged = self._merge(parts)
            if self._own_workdir:
                shutil.rmtree(self._workdir, ignore_errors=True)
            return merged, dict(self.stats)
        finally:
            self._stop_accepting()
            self._release_workers()
            if own_pool:
                self._pool.close()
                self._pool = None

    def _stop_accepting(self) -> None:
        self._accept_stop.set()
        if self._listener is not None:
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None

    def _checkpoint_path(self, shard: Shard) -> str:
        return os.path.join(self._workdir, shard.checkpoint_name())

    def _store_checkpoint_b64(self, shard: Shard, data: str) -> None:
        """Persist checkpoint bytes a remote worker shipped home."""
        atomic_write_bytes(self._checkpoint_path(shard),
                           base64.b64decode(data))

    def _carve(self, worker: _Worker) -> Optional[Shard]:
        """Autotune mode: cut the next shard off the frontier, sized
        for this worker's observed rate."""
        if self._frontier >= self._total:
            return None
        size = self.autotuner.next_size(worker.index)
        shard = Shard(len(self._carved), self._frontier,
                      min(self._frontier + size, self._total))
        self._carved.append(shard)
        self._frontier = shard.hi
        self.stats["planned"] += 1
        log_event("shard.carved", shard=shard.index, lo=shard.lo,
                  hi=shard.hi, worker=worker.index,
                  rate=self.autotuner.rate(worker.index))
        return shard

    def _assign(self, worker: _Worker, shard: Shard,
                attempts: Dict[int, int]) -> bool:
        attempt = attempts.get(shard.index, 0) + 1
        attempts[shard.index] = attempt
        resume_b64 = None
        if worker.remote:
            path = self._checkpoint_path(shard)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    resume_b64 = base64.b64encode(
                        fh.read()).decode("ascii")
        with span("shard.dispatch", shard=shard.index, lo=shard.lo,
                  hi=shard.hi, worker=worker.index, attempt=attempt,
                  transport=worker.transport.kind):
            ok = self._send(worker, assign_message(
                shard.index, shard.lo, shard.hi,
                self._checkpoint_path(shard),
                resume_b64=resume_b64))
        if ok:
            worker.shard = shard
            now = time.monotonic()
            worker.last_seen = now
            worker.last_progress = now
            worker.assigned_at = now
            self.stats["dispatched"] += 1
            default_registry().counter("shard_dispatched_total").inc()
            log_event("shard.dispatched", shard=shard.index,
                      lo=shard.lo, hi=shard.hi, worker=worker.index,
                      attempt=attempt)
        return ok

    def _lose_worker(self, worker: _Worker, pending: "deque[Shard]",
                     attempts: Dict[int, int], reason: str) -> None:
        """Tear down a lost worker and requeue its shard.

        Pipe mode respawns the slot (the coordinator owns the
        process); listening mode discards it and waits for the
        survivors or a redial -- the coordinator cannot restart a
        process on another machine.
        """
        worker.transport.kill()
        self._workers.pop(worker.index, None)
        shard = worker.shard
        worker.shard = None
        if shard is not None:
            if attempts.get(shard.index, 0) >= _MAX_ATTEMPTS:
                raise ShardWorkerError(
                    f"shard {shard.index} dies [{shard.lo}, "
                    f"{shard.hi}) failed {_MAX_ATTEMPTS} "
                    f"dispatch attempts (last worker "
                    f"{worker.transport.describe()} {reason}); "
                    f"worker stderr tail:\n"
                    f"{worker.transport.stderr_tail()}")
            pending.appendleft(shard)
            self.stats["reassigned"] += 1
            default_registry().counter("shard_reassigned_total").inc()
            log_event("shard.reassigned", shard=shard.index,
                      worker=worker.index, reason=reason)
        else:
            log_event("shard.worker.lost", worker=worker.index,
                      reason=reason)
        if not self.remote:
            self._spawn(worker.index, worker.generation + 1)

    def _borrow_workers(self) -> None:
        """Pipe mode: borrow each slot's idle pooled worker, spawning
        where none fits.  Slot 0 of a drill is always spawned fresh,
        so the drill's faults land in a new process."""
        self._env = self._worker_env()
        for slot in range(self.num_workers):
            transport = None if slot == 0 and self._drill_faults \
                else self._pool.take(slot, self._env)
            if transport is None:
                self._spawn(slot, generation=0)
            else:
                self._admit(slot, transport, generation=0)
                log_event("shard.worker.reused", slot=slot,
                          pid=transport.proc.pid)

    def _work_remaining(self, pending: "deque[Shard]",
                        done: Dict[int, str]) -> bool:
        return (len(done) < len(self._carved)
                or self._frontier < self._total)

    def _run_shards(self) -> List[StreamCheckpoint]:
        if not self._carved and self._frontier >= self._total:
            return []
        pending: "deque[Shard]" = deque(self.plan)
        attempts: Dict[int, int] = {}
        done: Dict[int, str] = {}
        if not self.remote:
            self._borrow_workers()
        tick = max(0.05, min(0.5, self.heartbeat / 4.0))
        workerless_since: Optional[float] = (
            time.monotonic() if self.remote else None)
        # Admission barrier: dispatch waits for the expected pool or
        # the rejoin grace, whichever comes first.
        barrier_until: Optional[float] = (
            time.monotonic() + self.rejoin_grace
            if self._barrier > 1 else None)
        while self._work_remaining(pending, done):
            if barrier_until is not None and (
                    len(self._workers) >= self._barrier
                    or time.monotonic() >= barrier_until):
                barrier_until = None
                log_event("shard.barrier.open",
                          workers=len(self._workers),
                          expected=self._barrier)
            ready = (list(self._workers.values())
                     if barrier_until is None else [])
            for worker in ready:
                if not worker.idle:
                    continue
                if not pending and self.autotuner is not None:
                    carved = self._carve(worker)
                    if carved is not None:
                        pending.append(carved)
                if not pending:
                    continue
                if self._assign(worker, pending[0], attempts):
                    pending.popleft()
                else:
                    # Channel already closed: treat as lost (shard
                    # stays at the queue front for the next worker).
                    self._lose_worker(worker, pending, attempts,
                                      "channel closed at assign")
            try:
                slot, message = self._queue.get(timeout=tick)
            except queue.Empty:
                message = None
            if message is not None and slot is None:
                if message.get("type") == "_connect" \
                        and not self._accept_stop.is_set():
                    transport = message["transport"]
                    worker = self._admit(self._next_slot, transport,
                                         generation=0)
                    self._next_slot += 1
                    workerless_since = None
                    log_event("shard.worker.connected",
                              worker=worker.index,
                              peer=transport.describe())
            elif message is not None:
                worker = self._workers.get(slot)
                if worker is None or \
                        message.get("_gen") != worker.generation:
                    continue  # line from a replaced worker
                worker.last_seen = time.monotonic()
                kind = message.get("type")
                if kind == "hello":
                    worker.hello_seen = True
                    worker.host = message.get("host")
                    log_event("shard.worker.ready", worker=slot,
                              pid=message.get("pid"), host=worker.host)
                elif kind == "progress":
                    worker.last_progress = time.monotonic()
                    shard = worker.shard
                    data = message.get("checkpoint_b64")
                    if data is not None and shard is not None \
                            and int(message.get("shard", -1)) == \
                            shard.index:
                        self._store_checkpoint_b64(shard, str(data))
                elif kind == "done":
                    self._complete(worker, message, done)
                elif kind == "error":
                    raise ShardWorkerError(
                        f"worker {slot} "
                        f"({worker.transport.describe()}) failed "
                        f"shard {message.get('shard')}: "
                        f"{message.get('message')}\nstderr tail:\n"
                        f"{worker.transport.stderr_tail()}")
                elif kind == "_garbage":
                    self._lose_worker(
                        worker, pending, attempts,
                        f"sent an undecodable line "
                        f"{message.get('line')!r}")
                elif kind == "_eof":
                    worker.transport.wait()
                    if worker.shard is not None or pending \
                            or self._frontier < self._total:
                        self._lose_worker(worker, pending, attempts,
                                          "channel closed")
                    else:
                        self._workers.pop(worker.index, None)
                # ping only refreshes last_seen (above)
            # Stall detection: silent past the deadline with work
            # assigned.  Pre-hello workers get the startup grace.
            now = time.monotonic()
            for worker in list(self._workers.values()):
                if worker.shard is None:
                    continue
                deadline = self.heartbeat if worker.hello_seen \
                    else max(self.heartbeat, STARTUP_GRACE)
                if now - worker.last_seen > deadline:
                    self._lose_worker(worker, pending, attempts,
                                      "heartbeat deadline passed")
                elif self.progress_timeout is not None and \
                        now - worker.last_progress > \
                        self.progress_timeout:
                    self._lose_worker(worker, pending, attempts,
                                      "progress deadline passed")
            # Listening mode liveness: fail rather than wait forever
            # when every worker is gone and none redials.
            if self.remote:
                if self._workers:
                    workerless_since = None
                elif workerless_since is None:
                    workerless_since = now
                elif now - workerless_since > self.rejoin_grace:
                    raise ShardWorkerError(
                        f"no connected workers for "
                        f"{self.rejoin_grace:.0f}s with "
                        f"{len(pending)} shard(s) pending; workers "
                        f"dial in with: repro shard-worker "
                        f"--connect {self.address[0]}:"
                        f"{self.address[1]}")
        return [StreamCheckpoint.load(done[shard.index])
                for shard in self._carved]

    def _complete(self, worker: _Worker, message: dict,
                  done: Dict[int, str]) -> None:
        shard = worker.shard
        worker.shard = None
        index = int(message["shard"])
        data = message.get("checkpoint_b64")
        if data is None:
            done[index] = str(message["checkpoint"])
        else:
            # Remote completion: the archive travelled inline; land
            # it where the merge (and any resume) expects it.
            target = next(s for s in self._carved
                          if s.index == index)
            self._store_checkpoint_b64(target, str(data))
            done[index] = self._checkpoint_path(target)
        rtt = time.monotonic() - worker.assigned_at
        self.stats["completed"] += 1
        default_registry().counter("shard_completed_total").inc()
        default_registry().histogram(
            "shard_rtt_seconds",
            transport=worker.transport.kind).observe(rtt)
        if self.autotuner is not None and shard is not None:
            self.autotuner.observe(worker.index, shard.num_dies, rtt)
        log_event("shard.completed", shard=index,
                  worker=worker.index, host=worker.host,
                  num_dies=int(message["num_dies"]),
                  seconds=round(rtt, 3))
        rows = message.get("spans") or []
        tracer = current_tracer()
        if tracer is not None and rows:
            tracer.absorb(SpanRecord.from_dict(r) for r in rows)

    def _merge(self, parts: List[StreamCheckpoint]) -> StreamCheckpoint:
        start = time.perf_counter()
        with span("shard.merge", parts=len(parts)):
            if parts:
                merged = StreamCheckpoint.merge(parts)
            else:
                merged = StreamCheckpoint(
                    repr(self.config.golden_key()), self.threshold)
                merged.complete = True
        elapsed = time.perf_counter() - start
        self.stats["merge_seconds"] = elapsed
        default_registry().histogram(
            "shard_merge_seconds").observe(elapsed)
        return merged

    def _release_workers(self) -> None:
        """End of campaign: pipe workers that finished cleanly go back
        to the pool; busy ones (whose stale lines must never reach the
        next campaign) and the drill's armed one are killed; remote
        workers are shut down."""
        remote = []
        for worker in self._workers.values():
            transport = worker.transport
            transport.attach(None)
            if worker.remote:
                remote.append(transport)
            elif (worker.shard is None and transport.alive()
                  and transport is not self._armed):
                self._pool.give_back(worker.index, transport, self._env)
            else:
                transport.kill()
        shutdown_transports(remote)
        self._workers.clear()


__all__ = ["STARTUP_GRACE", "ShardCoordinator", "ShardWorkerError",
           "WORKER_FAULTS_ENV"]
