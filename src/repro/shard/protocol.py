"""Line protocol between the shard coordinator and its workers.

One JSON object per line -- the identical framing over a stdio pipe
(:class:`~repro.shard.transport.PipeTransport`) or a TCP socket
(:class:`~repro.shard.transport.SocketTransport`), which is why the
worker entry point is a CLI command rather than a pool function.
Binary payloads (the pickled :class:`CampaignConfig` and fleet, the
golden artifacts) ride base64-encoded inside the ``init`` message;
everything after that is plain JSON.

``init`` opens a campaign and may repeat: a pooled pipe worker idles
after its last ``done`` and the next campaign's ``init`` replaces
everything the previous one set (fleet, threshold, trace context,
remote temp dir, heartbeat).

Coordinator -> worker
---------------------
``init``      config_b64, threshold, fleet_b64, golden_b64 (the
              coordinator's golden artifacts, threshold table
              included, as :func:`repro.store.encode_artifact` bytes:
              the worker seeds its cache with them and never builds a
              golden; a damaged payload is refused with ``error``),
              heartbeat, trace (a ``TraceContext``
              dict or null), remote (true when no shared filesystem
              can be assumed: the worker must return checkpoints
              inline)
``assign``    shard (index), lo, hi, checkpoint (path); remote
              assignments add resume_b64 (base64 ``.npz`` bytes of
              the shard's last known checkpoint, or absent) so a
              reassigned shard resumes without a shared filesystem
``shutdown``  --

Worker -> coordinator
---------------------
``hello``     pid, host (after every init: ready for assignments)
``ping``      -- (heartbeat, every ``heartbeat/2`` seconds)
``progress``  shard, next_index (after each screened chunk); remote
              workers add checkpoint_b64 whenever the shard's
              checkpoint advanced, so the coordinator always holds
              the partial state a reassignment would resume from
``done``      shard, num_dies, checkpoint, spans (pid/host-stamped
              span rows when the campaign is traced); remote workers
              add checkpoint_b64 (the completed shard's ``.npz``)
``error``     shard (or null), message (the worker then exits 1)

The pickles only ever travel coordinator -> worker within one
invocation (same code, same interpreter); results come back as
checkpoint archives -- files on a shared filesystem, base64 ``.npz``
bytes over a socket -- never pickled arrays: the merge reads the same
atomic ``.npz`` format crash recovery uses.
"""

from __future__ import annotations

import base64
import json
import pickle
from typing import Dict, Optional

from repro.store import decode_artifact, encode_artifact


def encode_message(message: Dict[str, object]) -> str:
    """One wire line (no trailing newline)."""
    return json.dumps(message, separators=(",", ":"))


def decode_message(line: str) -> Dict[str, object]:
    """Parse one wire line; raises ``ValueError`` on junk."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ValueError(f"undecodable protocol line {line!r}: "
                         f"{error}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ValueError(f"protocol line without a type: {line!r}")
    return message


def pack_payload(obj: object) -> str:
    """Pickle + base64 an object for the ``init`` message."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def unpack_payload(data: str) -> object:
    """Inverse of :func:`pack_payload`."""
    return pickle.loads(base64.b64decode(data.encode("ascii")))


def pack_artifact(key, value) -> str:
    """Base64 :func:`~repro.store.encode_artifact` bytes (the golden
    shipped in ``init``)."""
    return base64.b64encode(encode_artifact(key, value)).decode("ascii")


def unpack_artifact(key, data: object):
    """Inverse of :func:`pack_artifact`; ``ValueError`` on a missing,
    undecodable or checksum-failing payload."""
    if not isinstance(data, str):
        raise ValueError("no artifact payload")
    return decode_artifact(key, base64.b64decode(data, validate=True))


def init_message(config, threshold: Optional[float], fleet,
                 heartbeat: float, trace: Optional[Dict[str, object]],
                 remote: bool = False,
                 golden_b64: Optional[str] = None) -> Dict[str, object]:
    return {"type": "init", "config_b64": pack_payload(config),
            "threshold": threshold, "fleet_b64": pack_payload(fleet),
            "golden_b64": golden_b64,
            "heartbeat": float(heartbeat), "trace": trace,
            "remote": bool(remote)}


def assign_message(shard_index: int, lo: int, hi: int,
                   checkpoint: str,
                   resume_b64: Optional[str] = None
                   ) -> Dict[str, object]:
    message: Dict[str, object] = {
        "type": "assign", "shard": int(shard_index),
        "lo": int(lo), "hi": int(hi),
        "checkpoint": str(checkpoint)}
    if resume_b64 is not None:
        message["resume_b64"] = str(resume_b64)
    return message


def shutdown_message() -> Dict[str, object]:
    return {"type": "shutdown"}


__all__ = ["assign_message", "decode_message", "encode_message",
           "init_message", "pack_artifact", "pack_payload",
           "shutdown_message", "unpack_artifact", "unpack_payload"]
