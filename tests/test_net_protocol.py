"""Wire protocol tests: value codec, framing, error and result frames."""

import datetime
import socket
import string
import threading
import time
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.faults import BackendCrashedError, InjectedFaultError
from repro.core.request import RequestResult
from repro.errors import (
    AuthenticationError,
    DatabaseError,
    NoMoreBackendError,
    ProtocolError,
    SQLSyntaxError,
)
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    FrameSocket,
    MessageType,
    decode_body,
    decode_error,
    decode_frame_payload,
    decode_value,
    encode_body,
    encode_error,
    encode_frame,
    encode_value,
    result_frames,
    result_from_frames,
)

# SQL values the request API can legitimately carry across the wire.
sql_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=40),
    st.datetimes(),
    st.dates(),
    st.times(),
    st.decimals(allow_nan=False, allow_infinity=False, places=6),
)
sql_values = st.recursive(
    sql_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(alphabet=string.printable, max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


def normalize(value):
    """Tuples arrive as lists; everything else must round-trip exactly."""
    if isinstance(value, tuple):
        return [normalize(item) for item in value]
    if isinstance(value, list):
        return [normalize(item) for item in value]
    if isinstance(value, dict):
        return {key: normalize(item) for key, item in value.items()}
    return value


class TestValueCodec:
    @given(value=sql_values)
    def test_round_trip_through_body(self, value):
        body = decode_body(encode_body({"v": value}))
        assert body["v"] == normalize(value)

    def test_scalar_types_preserved(self):
        moment = datetime.datetime(2004, 6, 27, 12, 30, 15, 250000)
        body = {
            "bytes": b"\x00\xffbinary",
            "dt": moment,
            "d": moment.date(),
            "t": moment.time(),
            "dec": Decimal("123.456"),
        }
        decoded = decode_body(encode_body(body))
        assert decoded == body
        for key in body:
            assert type(decoded[key]) is type(body[key])

    def test_mapping_keys_cannot_collide_with_tags(self):
        # a user mapping that *looks* like a tagged value must survive
        tricky = {"$": "b", "v": "not base64!"}
        assert decode_value(encode_value(tricky)) == tricky

    def test_unencodable_value_rejected(self):
        with pytest.raises(ProtocolError, match="cannot encode"):
            encode_value(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolError, match="unknown value tag"):
            decode_value({"$": "zz", "v": 1})


class TestFraming:
    @given(
        message_type=st.sampled_from(list(MessageType)),
        body=st.dictionaries(st.text(max_size=8), sql_scalars, max_size=5),
    )
    def test_frame_round_trip(self, message_type, body):
        frame = encode_frame(message_type, body)
        decoded_type, decoded_body = decode_frame_payload(frame[4:])
        assert decoded_type is message_type
        assert decoded_body == {key: normalize(value) for key, value in body.items()}

    def test_length_prefix_counts_type_byte_and_body(self):
        frame = encode_frame(MessageType.PING, {})
        length = int.from_bytes(frame[:4], "big")
        assert length == len(frame) - 4

    def test_empty_payload_rejected(self):
        with pytest.raises(ProtocolError, match="empty frame"):
            decode_frame_payload(b"")

    def test_unknown_type_byte_rejected(self):
        with pytest.raises(ProtocolError, match="unknown frame type"):
            decode_frame_payload(b"\x7f{}")

    def test_garbage_body_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_frame_payload(bytes([MessageType.PING]) + b"\xff\xfe")

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="must be a JSON object"):
            decode_body(b"[1,2]")

    def test_oversized_frame_rejected_on_encode(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(MessageType.EXECUTE, {"sql": "x" * (MAX_FRAME_BYTES + 1)})


class TestFrameSocket:
    def _pair(self):
        server, client = socket.socketpair()
        return FrameSocket(server), FrameSocket(client)

    def test_send_recv_accounting(self):
        left, right = self._pair()
        try:
            left.send(MessageType.EXECUTE, {"sql": "SELECT 1"})
            message_type, body = right.recv()
            assert message_type is MessageType.EXECUTE
            assert body == {"sql": "SELECT 1"}
            assert left.frames_out == 1 and right.frames_in == 1
            assert left.bytes_out == right.bytes_in > 0
        finally:
            left.close()
            right.close()

    def test_send_frames_writes_one_buffer_in_order(self):
        left, right = self._pair()
        try:
            frames = list(result_frames(RequestResult(columns=["v"], rows=[[1]])))
            left.send_frames(frames)
            received = [right.recv() for _frame in frames]
            assert [message_type for message_type, _body in received] == [
                MessageType.RESULT_HEADER,
                MessageType.RESULT_ROWS,
                MessageType.RESULT_END,
            ]
            assert left.frames_out == right.frames_in == 3
            assert left.bytes_out == right.bytes_in > 0
        finally:
            left.close()
            right.close()

    def test_concurrent_senders_lose_no_counter_updates(self):
        """A heartbeater and a request thread share one socket's counters."""

        class SlowCount(int):
            # yields the GIL inside ``+=``, between reading and storing
            def __add__(self, other):
                time.sleep(0.02)
                return SlowCount(int(self) + other)

        left, right = self._pair()
        left.bytes_out = left.frames_out = SlowCount(0)
        start = threading.Barrier(2)

        def send():
            start.wait()
            left.send(MessageType.PING, {})

        threads = [threading.Thread(target=send) for _ in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            received = [right.recv() for _thread in threads]
        finally:
            left.close()
            right.close()
        assert [message_type for message_type, _body in received] == [MessageType.PING] * 2
        assert left.frames_out == 2
        assert left.bytes_out == right.bytes_in

    def test_peer_close_raises_connection_closed(self):
        left, right = self._pair()
        left.close()
        with pytest.raises(ConnectionClosed):
            right.recv()
        right.close()

    def test_bad_length_prefix_rejected(self):
        left, right = self._pair()
        try:
            left.sock.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError, match="invalid frame length"):
                right.recv()
        finally:
            left.close()
            right.close()

    def test_idle_callback_not_fired_mid_frame(self):
        """A half-received frame waits for its remainder; idle fires only between frames."""
        left, right = self._pair()
        idle_calls = []
        try:
            right.sock.settimeout(0.05)
            frame = encode_frame(MessageType.PING, {})
            # send only half the frame, then the rest after a delay longer
            # than the poll timeout: the idle callback must never fire
            # because the frame has started
            left.sock.sendall(frame[:3])
            timer = threading.Timer(0.2, left.sock.sendall, args=(frame[3:],))
            timer.start()
            message_type, _body = right.recv(idle_callback=lambda: idle_calls.append(1))
            assert message_type is MessageType.PING
            assert idle_calls == []
            timer.join()
        finally:
            left.close()
            right.close()


class TestErrorFrames:
    @pytest.mark.parametrize(
        "error",
        [
            AuthenticationError("bad login"),
            NoMoreBackendError("no backends left"),
            SQLSyntaxError("no such table 'x'"),
            InjectedFaultError("injected"),
            BackendCrashedError("crashed"),
        ],
    )
    def test_typed_errors_round_trip(self, error):
        rebuilt = decode_error(decode_body(encode_body(encode_error(error))))
        assert type(rebuilt) is type(error)
        assert str(rebuilt) == str(error)

    def test_unknown_error_degrades_to_database_error(self):
        rebuilt = decode_error(encode_error(ValueError("surprise")))
        assert type(rebuilt) is DatabaseError
        assert "surprise" in str(rebuilt)

    def test_missing_fields_degrade_gracefully(self):
        assert type(decode_error({})) is DatabaseError


class TestResultFrames:
    def test_streams_header_chunks_end(self):
        result = RequestResult(
            columns=["id", "name"],
            rows=[[i, f"row{i}"] for i in range(10)],
            update_count=-1,
            backend_name="backend0",
            backends_executed=1,
        )
        frames = list(result_frames(result, chunk_rows=3))
        types = [frame_type for frame_type, _ in frames]
        assert types[0] is MessageType.RESULT_HEADER
        assert types[-1] is MessageType.RESULT_END
        assert types[1:-1] == [MessageType.RESULT_ROWS] * 4  # 3+3+3+1 rows

        header = frames[0][1]
        chunks = [body["rows"] for frame_type, body in frames[1:-1]]
        rebuilt = result_from_frames(header, iter(chunks))
        assert rebuilt.columns == result.columns
        assert rebuilt.rows == result.rows
        assert rebuilt.backend_name == "backend0"

    def test_empty_result_has_no_row_chunks(self):
        result = RequestResult(columns=[], rows=[], update_count=3)
        frames = list(result_frames(result))
        assert [frame_type for frame_type, _ in frames] == [
            MessageType.RESULT_HEADER,
            MessageType.RESULT_END,
        ]
        rebuilt = result_from_frames(frames[0][1], iter([]))
        assert rebuilt.update_count == 3
        assert rebuilt.rows == []
