"""Pipe shard workers that outlive one campaign.

A :class:`WorkerPool` holds idle ``repro shard-worker`` subprocesses
by slot.  Every pipe-mode :class:`~repro.shard.coordinator.ShardCoordinator`
borrows its workers from one: it takes the idle worker of each slot out
of the pool (spawning a fresh one where the slot is empty, dead or was
spawned with another environment), sends each a fresh ``init`` and
gives the clean survivors back when the campaign ends.  Borrowing is
exclusive -- a taken worker is no longer in the pool -- so campaigns
running at once on one pool never share a process: the later one
spawns its own workers, and whichever gives back second finds the slot
filled and shuts its extra worker down.

A :class:`~repro.campaign.engine.CampaignEngine` keeps one pool for
its whole life, so its second and later sharded campaigns skip
interpreter start-up, imports and the golden build; a bare coordinator
builds a private pool and closes it when its campaign ends.

The pool only spawns, tracks and reaps processes; everything said over
the pipes is the coordinator's business.  Idle workers are reaped by
:meth:`WorkerPool.close`, when the pool is garbage-collected, at
interpreter exit, or -- when the owning process dies without any of
those -- by the worker itself, whose stdin then reads EOF.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from typing import Dict, List, Optional, Tuple

from repro.shard.protocol import encode_message, shutdown_message
from repro.shard.transport import PipeTransport, TransportClosed

#: Seconds a worker gets to exit after ``shutdown`` before it is killed.
SHUTDOWN_WAIT_S = 5.0


def shutdown_transports(transports, timeout: float = SHUTDOWN_WAIT_S
                        ) -> None:
    """Ask workers to exit, all at once; kill any that has not within
    ``timeout``."""
    asked = []
    for transport in transports:
        if not transport.alive():
            transport.kill()
            continue
        try:
            transport.send_line(encode_message(shutdown_message()))
        except TransportClosed:
            transport.kill()
            continue
        asked.append(transport)
    deadline = time.monotonic() + timeout
    for transport in asked:
        try:
            transport.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            transport.kill()
        else:
            transport.close()


def _reap(lock: threading.Lock,
          idle: Dict[int, Tuple[PipeTransport, Dict[str, str]]],
          logdirs: List[str]) -> None:
    with lock:
        transports = [transport for transport, _ in idle.values()]
        idle.clear()
    shutdown_transports(transports)
    for path in logdirs:
        shutil.rmtree(path, ignore_errors=True)
    logdirs.clear()


class WorkerPool:
    """Idle spawned pipe workers by slot, kept between campaigns."""

    def __init__(self) -> None:
        # slot -> (idle worker, the environment it was spawned with)
        self._idle: Dict[int, Tuple[PipeTransport, Dict[str, str]]] = {}
        self._logdirs: List[str] = []
        self._spawned = 0
        self._lock = threading.Lock()
        # Not bound to self, so an unreferenced pool is collectable;
        # runs on close(), on collection or at interpreter exit.
        self._finalizer = weakref.finalize(self, _reap, self._lock,
                                           self._idle, self._logdirs)

    def take(self, slot: int, env: Dict[str, str]
             ) -> Optional[PipeTransport]:
        """Borrow the idle worker of ``slot`` if it is alive and was
        spawned with ``env``; otherwise kill it and return None."""
        with self._lock:
            transport, spawn_env = self._idle.pop(slot, (None, None))
        if transport is None:
            return None
        if spawn_env != env or not transport.alive():
            transport.kill()
            return None
        return transport

    def spawn(self, slot: int, env: Dict[str, str]) -> PipeTransport:
        """Start a worker for ``slot``, lent to the caller (not idle)."""
        with self._lock:
            if not self._logdirs:
                self._logdirs.append(
                    tempfile.mkdtemp(prefix="repro-shard-pool-"))
            stderr_path = os.path.join(
                self._logdirs[0],
                f"worker_{slot}_{self._spawned}.stderr.log")
            self._spawned += 1
        with open(stderr_path, "w") as stderr_file:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "shard-worker"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=stderr_file, env=env, text=True, bufsize=1)
        return PipeTransport(proc, stderr_path)

    def give_back(self, slot: int, transport: PipeTransport,
                  env: Dict[str, str]) -> None:
        """Return a clean idle worker spawned with ``env``; shut it
        down instead when ``slot`` is already filled or the pool is
        closed."""
        with self._lock:
            keep = self._finalizer.alive and slot not in self._idle
            if keep:
                self._idle[slot] = (transport, env)
        if not keep:
            shutdown_transports([transport])

    def close(self) -> None:
        """Shut every idle worker down and remove the stderr logs."""
        self._finalizer()


__all__ = ["SHUTDOWN_WAIT_S", "WorkerPool", "shutdown_transports"]
