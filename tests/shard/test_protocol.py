"""The coordinator <-> worker wire: framing and payload round-trips."""

from __future__ import annotations

import json

import pytest

from repro.shard.protocol import (
    assign_message,
    decode_message,
    encode_message,
    init_message,
    pack_payload,
    shutdown_message,
    unpack_payload,
)


def test_encode_decode_roundtrip():
    message = {"type": "progress", "shard": 3, "next_index": 512}
    line = encode_message(message)
    assert "\n" not in line
    assert decode_message(line) == message


def test_decode_rejects_junk():
    with pytest.raises(ValueError):
        decode_message("not json at all {")
    with pytest.raises(ValueError):
        decode_message(json.dumps(["a", "list"]))
    with pytest.raises(ValueError):
        decode_message(json.dumps({"no": "type"}))


def test_payload_roundtrip():
    payload = {"nested": [1, 2, 3], "text": "x" * 100}
    packed = pack_payload(payload)
    assert packed.isascii()
    assert unpack_payload(packed) == payload


def test_init_message_shape():
    message = init_message({"cfg": True}, 0.05, ("fleet",), 7.5,
                           {"trace_id": "t", "parent_span_id": 9})
    line = encode_message(message)  # must be JSON-serializable
    decoded = decode_message(line)
    assert decoded["type"] == "init"
    assert decoded["threshold"] == 0.05
    assert decoded["heartbeat"] == 7.5
    assert "checkpoint_every" not in decoded  # workers save every chunk
    assert decoded["trace"]["parent_span_id"] == 9
    assert unpack_payload(decoded["config_b64"]) == {"cfg": True}
    assert unpack_payload(decoded["fleet_b64"]) == ("fleet",)


def test_init_message_without_trace():
    message = init_message({}, None, None, 5.0, None)
    decoded = decode_message(encode_message(message))
    assert decoded["trace"] is None
    assert decoded["threshold"] is None


def test_assign_and_shutdown_shapes():
    assign = decode_message(encode_message(
        assign_message(2, 100, 250, "/tmp/shard_0002.npz")))
    assert assign == {"type": "assign", "shard": 2, "lo": 100,
                      "hi": 250, "checkpoint": "/tmp/shard_0002.npz"}
    assert decode_message(encode_message(shutdown_message())) == \
        {"type": "shutdown"}
