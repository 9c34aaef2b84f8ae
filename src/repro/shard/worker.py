"""The shard-worker loop behind ``repro shard-worker``.

A worker speaks the :mod:`repro.shard.protocol` line protocol on
stdin/stdout when the coordinator spawned it, or over a TCP socket
when it dialed in with ``repro shard-worker --connect HOST:PORT``
(the two carriers are byte-identical: the socket path simply wraps
the connection in text streams and runs the same loop).  Each
campaign opens with an ``init`` (engine config, resolved threshold,
fleet description, the coordinator's golden artifacts, trace context,
remote flag), then ``assign`` messages naming global die ranges.  A
pipe worker outlives its campaign: it idles after the last ``done``
until the next ``init``, ``shutdown`` or stdin EOF (its parent died).
Each assignment runs as an ordinary checkpointed streamed campaign
(a ``mode="stream"`` request) over ``fleet.chunks(lo, hi)``
into the shard's own checkpoint file -- which is the whole trick: a
shard worker *is* a streamed campaign whose checkpoint starts past
another's, so every crash-safety and bit-identity property of the
checkpointed stream carries over unchanged.

A *remote* worker (``init.remote`` true) assumes no shared
filesystem: it checkpoints into its own temp dir, ships the archive
bytes home base64-encoded -- in ``progress`` whenever the checkpoint
advanced, and in ``done`` -- and seeds a reassigned shard's resume
from the ``resume_b64`` bytes the coordinator kept.

Reassignment resumes, never restarts: on assign, the worker loads the
shard's checkpoint if a previous (killed) worker left one and begins
at its ``next_index``.  A daemon thread emits ``ping`` heartbeats so
the coordinator can tell a stalled worker from a slow chunk.

Fault points (the worker-loss drill):

=========================  =========================================
``shard.worker.kill``      SIGKILL this worker after a progress
                           report (armed via ``REPRO_FAULTS`` in the
                           *worker's* environment; the coordinator
                           strips the variable from respawned
                           workers so the drill kills exactly once)
``shard.worker.error``     raise inside the assignment (exercises
                           the ``error`` protocol path)
=========================  =========================================
"""

from __future__ import annotations

import argparse
import base64
import os
import shutil
import signal
import socket as socket_module
import sys
import tempfile
import threading
import traceback
from typing import Dict, List, Optional, TextIO

from repro.campaign.cache import GoldenCache
from repro.campaign.checkpoint import StreamCheckpoint
from repro.campaign.engine import CampaignEngine
from repro.campaign.request import ScreeningRequest
from repro.obs.trace import (
    TraceContext,
    context_tracer,
    install_tracer,
    span,
    stamped_records,
)
from repro.shard.protocol import (
    decode_message,
    encode_message,
    unpack_artifact,
    unpack_payload,
)
from repro.shard.transport import dial, parse_endpoint
from repro.testing.faultinject import fail_if_armed, should_fail


class _Emitter:
    """Locked line writer (the heartbeat thread shares stdout)."""

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream
        self._lock = threading.Lock()

    def send(self, message: Dict[str, object]) -> None:
        line = encode_message(message)
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()


def _heartbeat_loop(emit: _Emitter, interval: float,
                    stop: threading.Event) -> None:
    while not stop.wait(interval):
        try:
            emit.send({"type": "ping"})
        except Exception:
            return  # coordinator went away; the stdin loop will end us


def _progressing_chunks(chunks, emit: _Emitter, shard_index: int,
                        start: int,
                        checkpoint: Optional[str] = None):
    """Yield chunks, reporting progress between draws.

    The engine draws chunk ``k+1`` only after chunk ``k`` was screened
    and checkpointed, so the report between draws means "everything up
    to ``next_index`` is durably done".  A remote worker (``checkpoint``
    given) attaches the checkpoint's archive bytes whenever the file
    advanced, so the coordinator always holds the partial state a
    reassignment would resume from -- the only copy that survives a
    partition.  The kill fault point sits here too: dying right after
    a progress report is the worst case for the coordinator (it
    believes the worker healthy).
    """
    emitted = start
    last_stat = None
    for chunk in chunks:
        yield chunk
        emitted += len(chunk)
        message: Dict[str, object] = {
            "type": "progress", "shard": shard_index,
            "next_index": emitted}
        if checkpoint is not None:
            try:
                stat = os.stat(checkpoint)
                key = (stat.st_mtime_ns, stat.st_size)
            except OSError:
                key = None
            if key is not None and key != last_stat:
                last_stat = key
                with open(checkpoint, "rb") as fh:
                    message["checkpoint_b64"] = base64.b64encode(
                        fh.read()).decode("ascii")
        emit.send(message)
        if should_fail("shard.worker.kill"):
            os.kill(os.getpid(), signal.SIGKILL)


class _Campaign:
    """Everything one ``init`` sets up; the next ``init`` replaces it.

    The fleet, the resolved threshold, the tracer, the remote temp dir
    and the heartbeat interval belong to one campaign.  The shipped
    golden is seeded into the engine's cache, so no worker ever builds
    a golden of its own.
    """

    def __init__(self, init: Dict[str, object], engine: CampaignEngine,
                 emit: _Emitter) -> None:
        config = engine.config
        golden = unpack_artifact(config.golden_key(),
                                 init.get("golden_b64"))
        engine.cache.seed(config.golden_key(), golden)
        self.fleet = unpack_payload(init["fleet_b64"])
        self.threshold = init.get("threshold")
        self.remote = bool(init.get("remote", False))
        self.tracer = None
        if init.get("trace") is not None:
            self.tracer = context_tracer(
                TraceContext.from_dict(init["trace"]))
        install_tracer(self.tracer)
        self.workdir = tempfile.mkdtemp(prefix="repro-shard-worker-") \
            if self.remote else None
        heartbeat = float(init.get("heartbeat", 5.0))
        self._stop = threading.Event()
        threading.Thread(
            target=_heartbeat_loop, args=(emit, heartbeat / 2.0,
                                          self._stop),
            daemon=True, name="shard-heartbeat").start()

    def close(self) -> None:
        self._stop.set()
        install_tracer(None)
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def worker_main(stdin: Optional[TextIO] = None,
                stdout: Optional[TextIO] = None) -> int:
    """Run the worker loop until ``shutdown`` or EOF; returns exit code.

    Campaigns follow one another on the same process: each ``init``
    tears down the previous campaign's state and sets up the next,
    keeping the :class:`CampaignEngine` (and its cache) while the
    configuration stays the same.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    emit = _Emitter(stdout)
    cache = GoldenCache()
    engine: Optional[CampaignEngine] = None
    config_b64 = None
    campaign: Optional[_Campaign] = None
    try:
        for line in stdin:
            message = decode_message(line)
            kind = message.get("type")
            if kind == "shutdown":
                break
            if kind == "init":
                if campaign is not None:
                    campaign.close()
                    campaign = None
                try:
                    if message["config_b64"] != config_b64:
                        engine = CampaignEngine(unpack_payload(
                            message["config_b64"]), cache=cache)
                        config_b64 = message["config_b64"]
                    campaign = _Campaign(message, engine, emit)
                except Exception as error:
                    emit.send({"type": "error", "shard": None,
                               "message": f"refused init: {error!r}"})
                    return 1
                emit.send({"type": "hello", "pid": os.getpid(),
                           "host": socket_module.gethostname()})
                continue
            if kind != "assign" or campaign is None:
                emit.send({"type": "error", "shard": None,
                           "message": f"unexpected message {kind!r}"})
                return 1
            shard_index = int(message["shard"])
            lo, hi = int(message["lo"]), int(message["hi"])
            checkpoint = str(message["checkpoint"])
            local_path = checkpoint
            if campaign.remote:
                # No shared filesystem: checkpoint locally, seeded
                # from the bytes the coordinator kept for this shard.
                local_path = os.path.join(
                    campaign.workdir, os.path.basename(checkpoint))
                resume_b64 = message.get("resume_b64")
                if resume_b64 is not None:
                    with open(local_path, "wb") as fh:
                        fh.write(base64.b64decode(resume_b64))
            try:
                num_dies = _run_assignment(
                    engine, campaign.fleet, emit, shard_index, lo, hi,
                    local_path, campaign.threshold,
                    ship_checkpoints=campaign.remote)
            except Exception:
                emit.send({"type": "error", "shard": shard_index,
                           "message": traceback.format_exc(limit=8)})
                return 1
            tracer = campaign.tracer
            rows = [] if tracer is None else stamped_records(tracer)
            if tracer is not None:
                tracer.clear()
            done: Dict[str, object] = {
                "type": "done", "shard": shard_index,
                "num_dies": num_dies, "checkpoint": checkpoint,
                "spans": rows}
            if campaign.remote:
                with open(local_path, "rb") as fh:
                    done["checkpoint_b64"] = base64.b64encode(
                        fh.read()).decode("ascii")
            emit.send(done)
        return 0 if engine is not None else 1
    finally:
        if campaign is not None:
            campaign.close()


def _run_assignment(engine: CampaignEngine, fleet, emit: _Emitter,
                    shard_index: int, lo: int, hi: int,
                    checkpoint: str, threshold,
                    ship_checkpoints: bool = False) -> int:
    """Screen shard ``[lo, hi)`` into ``checkpoint``; returns dies done.

    Resumes from the shard's last checkpoint when one exists (a
    previous worker died mid-shard) -- never from zero; the stream
    checkpoints after every chunk.  The band
    passed down is the coordinator's *resolved* threshold, so no
    worker ever re-runs calibration.
    """
    state = StreamCheckpoint.load_if_valid(checkpoint)
    resume_at = lo
    if state is not None and lo <= state.next_index <= hi:
        resume_at = state.next_index
    with span("shard.worker.run", shard=shard_index, lo=lo, hi=hi,
              resume_at=resume_at, pid=os.getpid()):
        fail_if_armed("shard.worker.error")
        engine.submit(ScreeningRequest(
            population=_progressing_chunks(
                fleet.chunks(resume_at, hi), emit, shard_index,
                resume_at,
                checkpoint=checkpoint if ship_checkpoints else None),
            mode="stream", band=threshold, checkpoint=checkpoint,
            stream_offset=resume_at))
    return hi - lo


def connect_main(host: str, port: int, attempts: int = 40,
                 delay: float = 0.25) -> int:
    """Dial a listening coordinator and run the worker loop over TCP.

    The socket is wrapped in line-buffered text streams and handed to
    the exact :func:`worker_main` the stdio path runs -- the protocol
    and every screening semantic are carrier-independent by
    construction.
    """
    sock = dial(host, port, attempts=attempts, delay=delay)
    try:
        sock.setsockopt(socket_module.IPPROTO_TCP,
                        socket_module.TCP_NODELAY, 1)
    except OSError:
        pass
    reader = sock.makefile("r", encoding="utf-8", newline="\n")
    writer = sock.makefile("w", encoding="utf-8", newline="\n")
    try:
        return worker_main(stdin=reader, stdout=writer)
    except (BrokenPipeError, ConnectionError, OSError):
        return 1  # coordinator went away mid-campaign
    finally:
        for handle in (reader, writer):
            try:
                handle.close()
            except (OSError, ValueError):
                pass
        try:
            sock.close()
        except OSError:
            pass


def worker_cli(argv: Optional[List[str]] = None) -> int:
    """``repro shard-worker`` entry: stdio by default, TCP with
    ``--connect HOST:PORT``."""
    parser = argparse.ArgumentParser(
        prog="repro shard-worker",
        description="Run a shard worker: speaks the shard line "
                    "protocol on stdin/stdout (when spawned by a "
                    "coordinator) or dials a coordinator listening "
                    "with --listen (multi-node campaigns).")
    parser.add_argument("--connect", metavar="HOST:PORT", default=None,
                        help="dial a coordinator instead of speaking "
                             "on stdin/stdout")
    parser.add_argument("--retries", type=int, default=40,
                        help="connection attempts before giving up "
                             "(default 40)")
    parser.add_argument("--retry-delay", type=float, default=0.25,
                        help="seconds between connection attempts "
                             "(default 0.25)")
    args = parser.parse_args(argv)
    if args.connect is None:
        return worker_main()
    try:
        host, port = parse_endpoint(args.connect)
    except ValueError as error:
        parser.error(str(error))
    try:
        return connect_main(host, port, attempts=args.retries,
                            delay=args.retry_delay)
    except ConnectionError as error:
        print(f"shard-worker: {error}", file=sys.stderr)
        return 1


__all__ = ["connect_main", "worker_cli", "worker_main"]
