"""Wire-protocol tests: round-trips and malformed-payload rejection.

Every message type must survive ``to_payload`` → :func:`encode` →
:func:`decode` → ``from_payload`` unchanged, and every malformed payload
must raise :class:`ProtocolError` (the server's HTTP 400) rather than leak
a bare ``KeyError``/``TypeError`` into the handler.
"""

from __future__ import annotations

import pytest

from repro.service.protocol import (
    BatchDispatchRequest,
    BatchDispatchResponse,
    DispatchRequest,
    DispatchResponse,
    ErrorResponse,
    ProtocolError,
    SnapshotResponse,
    decode,
    decode_sequence_of_requests,
    encode,
)


def roundtrip(message):
    """to_payload → bytes → from_payload, asserting byte-level JSON validity."""
    return type(message).from_payload(decode(encode(message.to_payload())))


class TestRoundTrips:
    @pytest.mark.parametrize(
        "message",
        [
            DispatchRequest(origin=0, file=0),
            DispatchRequest(origin=12, file=7, time=3.25),
            DispatchResponse(server=5, distance=2, seq=41),
            DispatchResponse(server=5, distance=0, seq=0, fallback=True, time=1.5),
            BatchDispatchRequest(origins=(1, 2, 3), files=(4, 5, 6)),
            BatchDispatchRequest(origins=(1,), files=(2,), times=(0.5,)),
            BatchDispatchResponse(
                servers=(7, 8),
                distances=(1, 0),
                fallbacks=(False, True),
                seq_start=100,
            ),
            BatchDispatchResponse(
                servers=(7,), distances=(1,), fallbacks=(False,), seq_start=0,
                times=(2.0,),
            ),
            SnapshotResponse(
                version=3,
                age_seconds=0.04,
                engine="batch",
                kind="queueing",
                state={"num_arrivals": 10, "served_until": 1.25},
            ),
            ErrorResponse(error="invalid origin", detail="origin 99 >= n=49"),
            ErrorResponse(error="not found"),
        ],
        ids=lambda m: type(m).__name__,
    )
    def test_message_survives_roundtrip(self, message):
        assert roundtrip(message) == message

    def test_encode_is_compact_utf8_json(self):
        body = encode({"origin": 1, "file": 2})
        assert body == b'{"origin":1,"file":2}'

    def test_decode_sequence_of_requests(self):
        items = [{"origin": 1, "file": 2}, {"origin": 3, "file": 4, "time": 0.5}]
        requests = decode_sequence_of_requests(items)
        assert requests == (
            DispatchRequest(1, 2),
            DispatchRequest(3, 4, time=0.5),
        )


class TestMalformedPayloads:
    @pytest.mark.parametrize(
        "body",
        [b"", b"not json", b"[1,2]", b'"string"', b"3", b"\xff\xfe"],
        ids=["empty", "garbage", "array", "string", "number", "bad-utf8"],
    )
    def test_decode_rejects_non_objects(self, body):
        with pytest.raises(ProtocolError):
            decode(body)

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"origin": 1},
            {"file": 1},
            {"origin": -1, "file": 0},
            {"origin": 0, "file": -2},
            {"origin": 1.5, "file": 0},
            {"origin": True, "file": 0},
            {"origin": "3", "file": 0},
            {"origin": 0, "file": 0, "time": "soon"},
            {"origin": 0, "file": 0, "time": True},
        ],
    )
    def test_dispatch_request_rejects(self, payload):
        with pytest.raises(ProtocolError):
            DispatchRequest.from_payload(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"origins": [1], "files": []},
            {"origins": [], "files": []},
            {"origins": [1, 2], "files": [3]},
            {"origins": [1, -2], "files": [3, 4]},
            {"origins": [1, True], "files": [3, 4]},
            {"origins": "12", "files": [3, 4]},
            {"origins": [1, 2], "files": [3, 4], "times": [0.5]},
            {"origins": [1], "files": [2], "times": ["now"]},
            {"origins": [1], "files": [2], "times": 0.5},
        ],
    )
    def test_batch_request_rejects(self, payload):
        with pytest.raises(ProtocolError):
            BatchDispatchRequest.from_payload(payload)

    @pytest.mark.parametrize(
        "body",
        [
            b'{"origin":0,"file":1,"time":1e999}',
            b'{"origin":0,"file":1,"time":-1e999}',
            b'{"origin":0,"file":1,"time":Infinity}',
            b'{"origin":0,"file":1,"time":NaN}',
            b'{"origin":0,"file":1,"time":1' + b"0" * 400 + b"}",
        ],
        ids=["1e999", "-1e999", "Infinity", "NaN", "huge-int"],
    )
    def test_non_finite_times_rejected_by_both_requests(self, body):
        # Python's JSON decoder turns each of these into an infinite or NaN
        # float (or an int no float can hold); none may reach the clock.
        single = decode(body)
        with pytest.raises(ProtocolError, match="finite"):
            DispatchRequest.from_payload(single)
        batch = {"origins": [0, 0], "files": [1, 1], "times": [0.5, single["time"]]}
        with pytest.raises(ProtocolError, match="finite"):
            BatchDispatchRequest.from_payload(batch)

    def test_finite_times_still_parse(self):
        single = DispatchRequest.from_payload({"origin": 0, "file": 1, "time": 7})
        assert single.time == 7.0
        request = BatchDispatchRequest.from_payload(
            {"origins": [0, 1], "files": [1, 2], "times": [0, 1e300]}
        )
        assert request.times == (0.0, 1e300)

    def test_batch_constructor_validates_directly(self):
        with pytest.raises(ProtocolError):
            BatchDispatchRequest(origins=(1, 2), files=(3,))
        with pytest.raises(ProtocolError):
            BatchDispatchRequest(origins=(), files=())
        with pytest.raises(ProtocolError):
            BatchDispatchRequest(origins=(1,), files=(2,), times=(0.1, 0.2))

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"server": 1, "distance": 0},
            {"server": 1, "distance": 0, "seq": 0, "fallback": "yes"},
        ],
    )
    def test_dispatch_response_rejects(self, payload):
        with pytest.raises(ProtocolError):
            DispatchResponse.from_payload(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"version": 1, "age_seconds": -0.1, "engine": "batch", "kind": "x", "state": {}},
            {"version": 1, "age_seconds": 0.0, "engine": 3, "kind": "x", "state": {}},
            {"version": 1, "age_seconds": 0.0, "engine": "batch", "kind": "x", "state": []},
        ],
    )
    def test_snapshot_response_rejects(self, payload):
        with pytest.raises(ProtocolError):
            SnapshotResponse.from_payload(payload)

    def test_protocol_error_is_a_value_error(self):
        # The server maps ProtocolError to 400; handlers may catch ValueError.
        assert issubclass(ProtocolError, ValueError)
