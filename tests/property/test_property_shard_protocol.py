"""The shard-protocol fuzz wall.

The coordinator feeds every line a worker channel produces through
:func:`decode_message`; a lost TCP segment, a half-written pipe line
or a hostile client can put *anything* there.  The wall has two
bricks: (1) every encodable message survives the wire round-trip
bit-exact, and (2) junk never escapes as anything but ``ValueError``
-- the one exception type the reader loop translates into "lose this
worker" (``tests/shard/test_tcp_campaign.py`` proves the live
coordinator survives exactly that).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.shard.protocol import (
    assign_message,
    decode_message,
    encode_message,
    init_message,
    pack_payload,
    shutdown_message,
    unpack_payload,
)

json_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=12)

messages = st.dictionaries(
    st.text(min_size=1, max_size=12), json_values,
    max_size=5).map(lambda d: {**d, "type": "probe"})

payload_objects = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20)
    | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10)


@given(message=messages)
@settings(max_examples=100, deadline=None)
def test_encode_decode_round_trips_exactly(message):
    assert decode_message(encode_message(message)) == message


@given(obj=payload_objects)
@settings(max_examples=100, deadline=None)
def test_pack_unpack_payload_round_trips(obj):
    assert unpack_payload(pack_payload(obj)) == obj


@given(line=st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_junk_lines_raise_value_error_and_nothing_else(line):
    """The whole fuzz wall in one property: any text line either
    decodes to a typed message dict or raises exactly ValueError."""
    try:
        message = decode_message(line)
    except ValueError:
        return
    assert isinstance(message, dict)
    assert "type" in message


@given(blob=st.binary(max_size=100))
@settings(max_examples=100, deadline=None)
def test_binary_junk_decoded_as_text_raises_only_value_error(blob):
    line = blob.decode("utf-8", errors="replace")
    try:
        decode_message(line)
    except ValueError:
        pass


@pytest.mark.parametrize("line", [
    "", "\n", "null", "42", '"a string"', "[1,2,3]", "true",
    '{"no_type": 1}', '{"type"', "{]", "\x00\x01\x02",
    '{"type": "x"} trailing garbage',
])
def test_known_nasty_corpus_raises_value_error(line):
    with pytest.raises(ValueError):
        decode_message(line)


def test_decoded_json_non_dict_is_rejected_not_returned():
    # json.loads succeeds on these; the protocol must still reject.
    for line in ("[]", "3.14", '"type"'):
        assert json.loads(line) is not None or True
        with pytest.raises(ValueError, match="without a type|undecodable"):
            decode_message(line)


@given(shard=st.integers(min_value=0, max_value=10**6),
       lo=st.integers(min_value=0, max_value=10**9),
       size=st.integers(min_value=1, max_value=10**6),
       resume=st.none() | st.text(
           alphabet="ABCDEFabcdef0123456789+/=", max_size=64))
@settings(max_examples=100, deadline=None)
def test_assign_message_round_trips_and_omits_absent_resume(
        shard, lo, size, resume):
    message = assign_message(shard, lo, lo + size, "ck.npz",
                             resume_b64=resume)
    decoded = decode_message(encode_message(message))
    assert decoded["shard"] == shard
    assert decoded["lo"] == lo and decoded["hi"] == lo + size
    if resume is None:
        assert "resume_b64" not in decoded
    else:
        assert decoded["resume_b64"] == resume


def test_init_and_shutdown_round_trip_through_the_wire():
    config = {"tolerance": 0.05}  # any picklable stands in
    fleet = [1, 2, 3]
    message = init_message(config, 0.25, fleet, 5.0, None, remote=True)
    decoded = decode_message(encode_message(message))
    assert decoded["remote"] is True
    assert unpack_payload(decoded["config_b64"]) == config
    assert unpack_payload(decoded["fleet_b64"]) == fleet
    assert decode_message(
        encode_message(shutdown_message()))["type"] == "shutdown"
