"""Length-prefixed binary wire protocol for the TCP backend (Appendix B.3).

The paper's third library version runs "on a network of PCs ... using
TCP"; its transport moves the same combined boundary frames as the other
versions, just over a byte stream instead of pipes or shared buffers.
This module defines that stream format and nothing else — no sockets, no
event loop — so it is unit-testable against partial reads, frames split
at arbitrary byte boundaries, and corrupt or oversized headers.

One wire frame (protocol version 3) is::

    envelope | header (pickle) | buffer bytes ... | u32 crc32

where ``envelope`` is the fixed 23-byte struct
``version u8 | flags u8 | seq i64 | ack i64 | header_len u32 | echk u8``
(``echk`` is the XOR of the preceding 22 envelope bytes, so any
single-bit flip inside the envelope is caught before its fields are
trusted), and ``header`` is the pickled tuple ``(tag, run_id, step, src,
lens, meta, more)``:

* ``tag`` — frame kind (:data:`~repro.backends.frames.TAG_PKT` and its
  control siblings, plus the TCP-only tags below);
* ``run_id`` / ``step`` / ``src`` — the same addressing the process
  backend's frames carry, so stale frames from an aborted run are
  filtered identically;
* ``lens`` — sizes of the out-of-band buffers that follow the header,
  in order; the payload bytes are **not** inside the pickle stream;
* ``meta`` — the pickle-5 metadata blob produced by
  :func:`repro.backends.frames.encode_packets` (for packet frames) or a
  small pickled object (for control frames);
* ``more`` — the completion bit: 0 on the final frame of a (src, step)
  link, 1 when further frames follow.  The superstep barrier is the
  arrival of every awaited peer's final frame, so there are no separate
  barrier frames.

``seq`` is the per-link sequence number a mesh channel assigns at send
time (``-1``: unsequenced control-plane frame); ``ack`` piggybacks the
sender's cumulative receive position on the reverse direction, which is
what lets the peer trim its retransmit journal.  The trailing CRC32
(:data:`FLAG_CRC` set) covers the header bytes plus the first
:data:`CRC_PAYLOAD_CAP` payload bytes — full coverage for every control
and boundary frame the protocol itself produces, bounded cost for
multi-megabyte application payloads whose tails remain under the
TCP/link-layer checksums (the cap is a protocol constant so both ends
always agree on the covered span).

Corruption surfaces on two disjoint paths:

* **structural** — a bad version byte, an envelope checksum mismatch, an
  insane length, an unpicklable header: the stream framing itself can no
  longer be trusted, so the decoder raises
  :class:`~repro.core.errors.PacketError` and the owning link must be
  reset and replayed from the journal;
* **recoverable** — framing intact but the CRC disagrees: the decoder
  stays synchronized, swallows the damaged frame, and emits a
  :data:`TAG_CORRUPT` marker so the channel can NACK exactly one
  sequence number and keep the connection.

Packet frames reuse the exact per-destination combining and out-of-band
buffer layout of :mod:`repro.backends.frames`: the ``seq`` and ``h``
arrays ride ``meta`` byte-for-byte, which is what keeps the ``H``
accounting bit-identical to the other backends.

The decoder (:class:`FrameDecoder`) is incremental: feed it whatever
``recv`` returned and it yields every frame completed so far, keeping
partial bytes buffered.  It rejects frames whose header or total buffer
size exceeds a bound (:class:`~repro.core.errors.PacketError`) so a
corrupt or hostile length prefix cannot make a rank allocate unbounded
memory.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any, Iterable, Sequence

from ..core.errors import PacketError
from ..core.packets import Packet
from .frames import Frame, encode_packets

#: TCP-only frame tags, disjoint from the pipe fabric's 0..4 range
#: (TAG_PKT/TAG_LEFT/TAG_DEAD/TAG_FENCE/TAG_RELEASE in
#: :mod:`repro.backends.frames`).  4 and 5 are retired: they were the
#: counts and release rounds of the two-phase barrier of wire version 2.
TAG_HB = 6          #: heartbeat, rank -> supervisor
TAG_HELLO = 7       #: control-channel registration, rank -> supervisor
TAG_RESULT = 8      #: final outcome tuple, rank -> supervisor / rank 0
TAG_RUN = 9         #: persistent mode — supervisor ships one run to a rank
TAG_CLOSE = 10      #: persistent mode — supervisor shuts a rank down
TAG_NACK = 11       #: link-level "resend sequence number N" (``step`` = N)
TAG_ABORT = 12      #: supervisor -> rank: abandon the named run mid-flight
TAG_REMESH = 13     #: supervisor -> rank: rebuild the mesh at a new epoch

#: Decoder-emitted marker for a CRC-damaged but structurally intact frame.
#: Never appears on the wire.
TAG_CORRUPT = -1

#: Protocol version carried in every envelope; a mismatch is structural
#: corruption (or an old peer) and resets the link.  Version 3 is the
#: one-round boundary; a version-2 rank (two-phase barrier) cannot join.
WIRE_VERSION = 3

#: Envelope flag: the trailing CRC32 was actually computed (cleared when
#: integrity is disabled for measurement, in which case the trailer is 0
#: and the receiver skips verification).
FLAG_CRC = 0x01

#: Payload bytes covered by the CRC (header bytes are always covered in
#: full).  A protocol constant — both ends must agree on the span.
CRC_PAYLOAD_CAP = 128 << 10

#: version u8 | flags u8 | seq i64 | ack i64 | header_len u32 (then echk u8).
_ENV_BODY = struct.Struct("<BBqqI")
#: Total envelope size including the trailing XOR check byte.
ENVELOPE_BYTES = _ENV_BODY.size + 1

#: u32 little-endian CRC trailer / rendezvous length prefix.
_PREFIX = struct.Struct("<I")

#: Ceiling on one pickled header (the header carries ``meta``, which for
#: packet frames holds every payload's pickle metadata — generous, but a
#: corrupt prefix claiming gigabytes must die here, not in bytearray()).
MAX_HEADER_BYTES = 64 << 20

#: Ceiling on the out-of-band buffer bytes of a single frame.
DEFAULT_MAX_FRAME_BYTES = 1 << 30


def pack_envelope(flags: int, seq: int, ack: int, hlen: int) -> bytes:
    """The 23-byte frame envelope, XOR check byte included."""
    body = _ENV_BODY.pack(WIRE_VERSION, flags, seq, ack, hlen)
    echk = 0
    for byte in body:
        echk ^= byte
    return body + bytes((echk,))


def _crc_frame(header: bytes, buffers: Sequence[Any]) -> int:
    """CRC32 over the header plus the first CRC_PAYLOAD_CAP payload bytes."""
    crc = zlib.crc32(header)
    covered = 0
    for buf in buffers:
        if covered >= CRC_PAYLOAD_CAP:
            break
        mv = memoryview(buf)
        if mv.format != "B" or mv.ndim != 1:
            mv = mv.cast("B")
        take = min(mv.nbytes, CRC_PAYLOAD_CAP - covered)
        crc = zlib.crc32(mv[:take] if take < mv.nbytes else mv, crc)
        covered += take
    return crc


def encode_frame(tag: int, run_id: int, step: int, src: int,
                 meta: bytes | None = None,
                 buffers: Sequence[Any] = (),
                 more: int = 0, *,
                 seq: int = -1, ack: int = -1,
                 crc: bool = True) -> list[Any]:
    """Encode one frame as a list of wire chunks (no payload copies).

    The first chunk is ``envelope + header``; each out-of-band buffer
    follows as its own chunk (a memoryview straight over the source
    object), and the CRC trailer closes the frame — so callers can hand
    the list to a vectored/queued send without ever concatenating
    payload bytes.

    ``more`` is the completion bit: 0 marks the final frame from ``src``
    on this link for this superstep, 1 means more follow.
    ``seq``/``ack`` are the link-sequencing envelope fields (see module
    docstring); ``crc=False`` skips checksum computation entirely (the
    trailer is written as 0 with :data:`FLAG_CRC` cleared) for
    integrity-overhead measurement.
    """
    lens = tuple(memoryview(b).nbytes for b in buffers)
    header = pickle.dumps((tag, run_id, step, src, lens, meta, more),
                          protocol=pickle.HIGHEST_PROTOCOL)
    flags = FLAG_CRC if crc else 0
    trailer = _PREFIX.pack(_crc_frame(header, buffers) if crc else 0)
    chunks: list[Any] = [pack_envelope(flags, seq, ack, len(header)) + header]
    chunks.extend(buffers)
    chunks.append(trailer)
    return chunks


def reenvelope(chunks: Sequence[Any], seq: int, ack: int) -> list[Any]:
    """Re-address an encoded frame with fresh ``seq``/``ack`` fields.

    The CRC trailer intentionally excludes the envelope, so one encoded
    payload (an empty boundary final, a broadcast result) can be
    re-sequenced per peer by rebuilding only the small first chunk —
    header and payload bytes are shared untouched.
    """
    first = memoryview(chunks[0])
    if first.format != "B" or first.ndim != 1:
        first = first.cast("B")
    _, flags, _, _, hlen = _ENV_BODY.unpack_from(first)
    head = pack_envelope(flags, seq, ack, hlen) + bytes(
        first[ENVELOPE_BYTES:])
    return [head, *chunks[1:]]


def encode_packet_frame(run_id: int, step: int, src: int,
                        packets: Sequence[Packet],
                        more: int = 0, *,
                        seq: int = -1, ack: int = -1,
                        crc: bool = True) -> list[Any]:
    """One combined boundary frame for a per-destination packet bucket.

    Reuses :func:`repro.backends.frames.encode_packets`, so the combined
    layout (and therefore the ``seq``/``h`` accounting) is identical to
    the process backend's slab/pipe frames.
    """
    from .frames import TAG_PKT

    meta, buffers = encode_packets(packets)
    return encode_frame(TAG_PKT, run_id, step, src, meta, buffers, more,
                        seq=seq, ack=ack, crc=crc)


def encode_object_frame(tag: int, run_id: int, step: int, src: int,
                        obj: Any, *, seq: int = -1, ack: int = -1,
                        crc: bool = True) -> list[Any]:
    """A control frame carrying an arbitrary picklable object.

    Uses protocol 5 with out-of-band buffers so a large result (a NumPy
    array returned by a program, a ledger) crosses the socket without an
    extra copy into the pickle stream.
    """
    pbufs: list[pickle.PickleBuffer] = []
    meta = pickle.dumps(obj, protocol=5, buffer_callback=pbufs.append)
    buffers = []
    for pb in pbufs:
        try:
            buffers.append(pb.raw())
        except BufferError:  # non-contiguous exporter: fall back to a copy
            buffers.append(memoryview(memoryview(pb).tobytes()))
    return encode_frame(tag, run_id, step, src, meta, buffers,
                        seq=seq, ack=ack, crc=crc)


def frame_object(frame: Frame) -> Any:
    """Decode the object of a frame built by :func:`encode_object_frame`."""
    assert frame.meta is not None
    return pickle.loads(frame.meta, buffers=frame.buffers)


class FrameDecoder:
    """Incremental frame decoder over a TCP byte stream.

    Feed it arbitrary chunks (whatever ``recv`` returned); it yields the
    frames completed so far and buffers the remainder.  Partial reads,
    multiple frames per chunk, and frames split anywhere — including in
    the middle of the 23-byte envelope — are all handled.

    Corruption handling is two-tier (module docstring): structural
    damage raises :class:`~repro.core.errors.PacketError`; a CRC
    mismatch on an intact frame yields a :data:`TAG_CORRUPT` marker
    frame (carrying the envelope's ``seq``) and decoding continues with
    the next frame.
    """

    __slots__ = ("_buf", "_env", "_header", "_hbytes", "_total",
                 "_max_frame", "_ready")

    def __init__(self, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
        self._buf = bytearray()
        #: Parsed envelope awaiting header/payload: (flags, seq, ack, hlen).
        self._env: tuple | None = None
        #: Parsed header awaiting its buffer bytes, or None.
        self._header: tuple | None = None
        self._hbytes: bytes = b""
        self._total = 0  # buffer bytes the pending header announced
        self._max_frame = max_frame_bytes
        #: Completed frames :func:`recv_frame` has not yet handed out.
        self._ready: list[Frame] = []

    def feed(self, data: bytes) -> list[Frame]:
        """Consume ``data``; return every frame it completed."""
        self._buf += data
        frames: list[Frame] = []
        while True:
            frame = self._next()
            if frame is None:
                return frames
            frames.append(frame)

    def _next(self) -> Frame | None:
        buf = self._buf
        if self._env is None:
            if len(buf) < ENVELOPE_BYTES:
                return None
            version, flags, seq, ack, hlen = _ENV_BODY.unpack_from(buf)
            echk = 0
            for byte in buf[:_ENV_BODY.size]:
                echk ^= byte
            if echk != buf[_ENV_BODY.size]:
                raise PacketError(
                    "wire frame envelope checksum mismatch (corrupt stream)")
            if version != WIRE_VERSION:
                raise PacketError(
                    f"wire protocol version {version} != {WIRE_VERSION} "
                    "(corrupt stream or incompatible peer)")
            if not 0 < hlen <= MAX_HEADER_BYTES:
                raise PacketError(
                    f"wire frame header of {hlen} bytes exceeds the "
                    f"{MAX_HEADER_BYTES}-byte bound (corrupt stream?)")
            self._env = (flags, seq, ack, hlen)
        flags, seq, ack, hlen = self._env
        if self._header is None:
            if len(buf) < ENVELOPE_BYTES + hlen:
                return None
            hbytes = bytes(buf[ENVELOPE_BYTES:ENVELOPE_BYTES + hlen])
            try:
                header = pickle.loads(hbytes)
                tag, run_id, step, src, lens, meta, more = header
            except Exception as exc:
                raise PacketError(
                    f"undecodable wire frame header: {exc}") from exc
            total = sum(lens)
            if total > self._max_frame:
                raise PacketError(
                    f"wire frame of {total} payload bytes exceeds the "
                    f"{self._max_frame}-byte bound; raise max_frame_bytes "
                    "or split the payload")
            del buf[:ENVELOPE_BYTES + hlen]
            self._header, self._hbytes, self._total = header, hbytes, total
        if len(buf) < self._total + _PREFIX.size:
            return None
        tag, run_id, step, src, lens, meta, more = self._header
        buffers: list[bytearray] = []
        off = 0
        for n in lens:
            buffers.append(bytearray(buf[off:off + n]))
            off += n
        (wire_crc,) = _PREFIX.unpack_from(buf, self._total)
        del buf[:self._total + _PREFIX.size]
        hbytes = self._hbytes
        self._env, self._header, self._hbytes, self._total = (
            None, None, b"", 0)
        if flags & FLAG_CRC and _crc_frame(hbytes, buffers) != wire_crc:
            # Framing held (the envelope and header parsed, the byte
            # count matched) but the content did not: a recoverable,
            # single-frame loss.  Stay synchronized and let the channel
            # NACK the sequence number.
            return Frame(TAG_CORRUPT, -1, -1, -1, None, None, 0, seq, ack)
        return Frame(tag, run_id, step, src, meta, buffers, more, seq, ack)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet part of a completed frame."""
        return len(self._buf)

    @property
    def mid_frame(self) -> bool:
        """True while a frame is partially received (stream not at a
        frame boundary) — used to detect truncation on EOF."""
        return self._env is not None or len(self._buf) > 0


# ---------------------------------------------------------------------------
# Blocking helpers (rendezvous and control plane; the data plane uses the
# non-blocking event loop in tcp.py)
# ---------------------------------------------------------------------------


def send_chunks(sock, chunks: Iterable[Any]) -> None:
    """Write every chunk to a *blocking* socket."""
    for chunk in chunks:
        sock.sendall(chunk)


def recv_frame(sock, decoder: FrameDecoder, *, bufsize: int = 1 << 16
               ) -> Frame | None:
    """Block until the next frame on ``sock``; ``None`` on clean EOF.

    Frames already completed inside ``decoder`` are returned first, so a
    single ``recv`` that delivered several frames never loses any.
    """
    pending = decoder._ready
    while not pending:
        data = sock.recv(bufsize)
        if not data:
            return None
        pending.extend(decoder.feed(data))
    return pending.pop(0)


def send_msg(sock, obj: Any) -> None:
    """Length-prefixed pickle for the rendezvous handshake (tiny messages)."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_PREFIX.pack(len(payload)) + payload)


def recv_msg(sock) -> Any:
    """Blocking inverse of :func:`send_msg`."""
    prefix = _recv_exact(sock, _PREFIX.size)
    (length,) = _PREFIX.unpack(prefix)
    if length > MAX_HEADER_BYTES:
        raise PacketError(f"rendezvous message of {length} bytes rejected")
    return pickle.loads(_recv_exact(sock, length))


def _recv_exact(sock, nbytes: int) -> bytes:
    parts = bytearray()
    while len(parts) < nbytes:
        chunk = sock.recv(nbytes - len(parts))
        if not chunk:
            raise PacketError(
                "connection closed mid-message during rendezvous")
        parts += chunk
    return bytes(parts)
