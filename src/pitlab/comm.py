"""In-process message passing with nonblocking sends and tracing hooks.

Channels connect one sender to one receiver per direction and match
messages by an exact (level, kind, iteration) tag.  Payloads below the
rendezvous threshold are buffered eagerly, so the send completes at
post time; larger payloads complete only once the matching receive is
posted, which deliberately reproduces the Late Receiver behaviour of an
MPI library without asynchronous progress.  An optional fixed latency
delays delivery for analyzer experiments.

Each message is one record: isend returns the Message as the send's
handle and recv delivers the same object.  Every send-post/send-complete
and recv-post/recv-complete is reported to the sender's or receiver's
tracer.  A non-eager send is stamped complete when the matching receive
takes it (the hand-shake time) no matter when the sender finally calls
wait(), so overlapping local work between isend and wait is recorded
faithfully.  The receive stamps it under the channel lock and notifies
the channel's condition, on which a blocked wait() sleeps; nothing polls.

Arrays travel in the ``.npy`` v1.0 format, byte for byte what
``np.save(..., allow_pickle=False)`` writes: a 10-byte prefix (magic,
version, little-endian header length), a padded header naming the
dtype, the shape and the memory order, then the raw data.  A run sends
the same few layouts thousands of times, so the header for each
(dtype, shape, order) is built once, and each distinct header is parsed
once; both caches are small LRU caches.  Object dtypes are refused
both ways, as ``allow_pickle=False`` refuses them; unpacking also
refuses headers other than v1.0 and a payload whose length is not
exactly its header plus the data it describes.
"""

import functools
import io
import math
import threading
import time

import numpy as np

__all__ = [
    "Message",
    "Network",
    "Endpoint",
    "DeadlockError",
    "RunAborted",
    "pack_array",
    "unpack_array",
    "pack_status",
    "unpack_status",
]

DEFAULT_RENDEZVOUS_BYTES = 1 << 20


class RunAborted(RuntimeError):
    pass


class DeadlockError(RuntimeError):
    def __init__(self, msg, last_events=None):
        super().__init__(msg)
        self.last_events = last_events or {}


# the clock of every channel and trace; callers look the name up in
# this module, so a test can replace it
monotonic_seconds = time.perf_counter


class Message:
    """One message from post to delivery.  accepted_at is the post time of
    an eager send; a rendezvous send keeps None until its receive takes it."""

    __slots__ = ("source", "dest", "tag", "payload", "name", "available_at", "accepted_at", "waited")

    def __init__(self, source, dest, tag, payload, name, available_at, accepted_at):
        self.source = source
        self.dest = dest
        self.tag = tag
        self.payload = payload
        self.name = name
        self.available_at = available_at
        self.accepted_at = accepted_at
        self.waited = False


@functools.lru_cache(maxsize=1024)
def tag_name(tag):
    return "/".join(str(part) for part in tag)


class _Channel:
    def __init__(self, network):
        self.network = network
        self.cond = threading.Condition()
        self.messages = []
        self.sent = 0
        self.received = 0

    def put(self, msg):
        with self.cond:
            self.messages.append(msg)
            self.sent += 1
            self.cond.notify_all()

    def _pause(self, deadline, what, pause=None):
        """Wait, lock held, for a notify, `pause` seconds or the deadline,
        whichever comes first; the caller then checks its state again."""
        remaining = deadline - monotonic_seconds()
        if remaining <= 0:
            raise DeadlockError(what, self.network.last_events())
        self.cond.wait(remaining if pause is None else min(pause, remaining))

    def take(self, tag, timeout):
        deadline = monotonic_seconds() + timeout
        with self.cond:
            while True:
                if self.network.abort_reason is not None:
                    raise RunAborted(self.network.abort_reason)
                msg = next((m for m in self.messages if m.tag == tag), None)
                pause = None
                if msg is not None:
                    now = monotonic_seconds()
                    if msg.accepted_at is None:
                        # rendezvous hand-shake: the posted receive releases
                        # the sender; completion is stamped with this moment
                        msg.accepted_at = now
                        self.cond.notify_all()
                    if now >= msg.available_at:
                        self.messages.remove(msg)
                        self.received += 1
                        return msg
                    pause = msg.available_at - now
                self._pause(deadline, f"receive of tag {tag} made no progress for {timeout:.1f} s", pause)

    def await_acceptance(self, msg, timeout):
        deadline = monotonic_seconds() + timeout
        with self.cond:
            while msg.accepted_at is None:
                if self.network.abort_reason is not None:
                    raise RunAborted(self.network.abort_reason)
                self._pause(deadline, f"send of tag {msg.tag} not accepted after {timeout:.1f} s")


class Network:
    """Shared transport for a fixed set of worker ranks."""

    def __init__(self, num_ranks, rendezvous_bytes=DEFAULT_RENDEZVOUS_BYTES, latency=0.0, recv_timeout=60.0):
        self.num_ranks = num_ranks
        self.rendezvous_bytes = rendezvous_bytes
        self.latency = latency
        self.recv_timeout = recv_timeout
        self.abort_reason = None
        self._channels = {}
        self._tracers = {}
        for src in range(num_ranks):
            for dst in range(num_ranks):
                if src != dst:
                    self._channels[(src, dst)] = _Channel(self)

    def endpoint(self, rank, tracer=None):
        if tracer is not None:
            self._tracers[rank] = tracer
        return Endpoint(self, rank, tracer)

    def channel(self, src, dst):
        try:
            return self._channels[(src, dst)]
        except KeyError:
            raise ValueError(f"no channel {src}->{dst}") from None

    def abort(self, reason):
        self.abort_reason = reason
        for ch in self._channels.values():
            with ch.cond:
                ch.cond.notify_all()

    def last_events(self):
        return {rank: tracer.last_event_name() for rank, tracer in self._tracers.items()}

    def audit(self):
        """Per-channel send/receive counts and outstanding message count."""
        report = {}
        for (src, dst), ch in self._channels.items():
            with ch.cond:
                report[(src, dst)] = {
                    "sent": ch.sent,
                    "received": ch.received,
                    "pending": len(ch.messages),
                }
        return report


class Endpoint:
    """Per-rank communication interface; owned by exactly one worker."""

    def __init__(self, network, rank, tracer=None):
        self.network = network
        self.rank = rank
        self.tracer = tracer
        self.unwaited = 0

    def _record(self, kind, name, nbytes, peer, t=None):
        if self.tracer is not None:
            self.tracer.record_comm(kind, name, nbytes, peer, t=t)

    def isend(self, dest, tag, payload):
        """Post a send; returns its Message, which must be waited exactly once.

        Never blocks: the message is enqueued immediately.  Below the
        rendezvous threshold the transport accepts it on the spot.
        """
        payload, name, now = bytes(payload), tag_name(tag), monotonic_seconds()
        self._record("send-post", name, len(payload), dest, t=now)
        eager = len(payload) <= self.network.rendezvous_bytes
        msg = Message(self.rank, dest, tag, payload, name, now + self.network.latency, now if eager else None)
        self.network.channel(self.rank, dest).put(msg)
        if eager:
            self._record("send-complete", name, len(payload), dest, t=now)
        self.unwaited += 1
        return msg

    def wait(self, msg, timeout=None):
        """Block until the transport has accepted the payload; idempotent.

        A rendezvous send completes at the hand-shake its receive stamped,
        however late this wait comes.
        """
        if msg.waited:
            return
        if len(msg.payload) > self.network.rendezvous_bytes:
            timeout = self.network.recv_timeout if timeout is None else timeout
            self.network.channel(self.rank, msg.dest).await_acceptance(msg, timeout)
            self._record("send-complete", msg.name, len(msg.payload), msg.dest, t=msg.accepted_at)
        msg.waited = True
        self.unwaited -= 1

    def recv(self, source, tag, timeout=None):
        """Block until a message with exactly this tag arrives from source."""
        name = tag_name(tag)
        self._record("recv-post", name, 0, source)
        timeout = self.network.recv_timeout if timeout is None else timeout
        msg = self.network.channel(source, self.rank).take(tag, timeout)
        self._record("recv-complete", name, len(msg.payload), source)
        return msg


@functools.lru_cache(maxsize=64)
def _npy_header(dtype, shape, fortran_order):
    """The v1.0 header np.save writes for an array of this layout."""
    descr = np.lib.format.dtype_to_descr(dtype)
    if dtype.hasobject or descr == "|O":
        raise ValueError("arrays of Python objects cannot be packed")
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {"descr": descr, "fortran_order": fortran_order, "shape": shape})
    return buf.getvalue()


@functools.lru_cache(maxsize=64)
def _npy_layout(header):
    """(dtype, shape, fortran_order, element count, payload length) of a header."""
    fp = io.BytesIO(header)
    version = np.lib.format.read_magic(fp)
    if version != (1, 0):
        raise ValueError(f"expected an .npy v1.0 header, got version {version}")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fp)
    if dtype.hasobject:
        raise ValueError("arrays of Python objects cannot be unpacked")
    count = math.prod(shape)
    return dtype, shape, fortran_order, count, len(header) + count * dtype.itemsize


def pack_array(arr):
    """The bytes np.save(..., allow_pickle=False) writes for arr."""
    arr = np.asarray(arr)
    # np.save writes Fortran order only for an array that is not also C-contiguous
    fortran_order = arr.flags.f_contiguous and not arr.flags.c_contiguous
    return _npy_header(arr.dtype, arr.shape, fortran_order) + arr.tobytes("F" if fortran_order else "C")


def unpack_array(payload):
    """A fresh, writable array from pack_array's bytes (any bytes-like payload)."""
    # a v1.0 header starts with 6 magic bytes, 2 version bytes and its length
    end = 10 + int.from_bytes(payload[8:10], "little")
    dtype, shape, fortran_order, count, size = _npy_layout(bytes(payload[:end]))
    if len(payload) != size:
        raise ValueError(f"payload is {len(payload)} bytes, its header describes {size}")
    flat = np.frombuffer(payload, dtype, count, end).copy()
    return flat.reshape(shape[::-1]).T if fortran_order else flat.reshape(shape)


def pack_status(stopped, final_value=None):
    head = b"\x01" if stopped else b"\x00"
    if final_value is None:
        return head
    return head + pack_array(final_value)


def unpack_status(payload):
    stopped = payload[:1] == b"\x01"
    final = unpack_array(memoryview(payload)[1:]) if len(payload) > 1 else None
    return stopped, final
