import io
import itertools
import sys
import threading
import time

import numpy as np
import pytest

from pitlab import comm
from pitlab.comm import (
    DeadlockError,
    Network,
    RunAborted,
    monotonic_seconds,
    pack_array,
    pack_status,
    unpack_array,
    unpack_status,
)
from pitlab.controller import dahlquist_config, run
from pitlab.trace import Tracer


def tag(kind="value", level="fine", iteration=1):
    return (level, kind, iteration)


class TestSendRecv:
    def test_payload_roundtrip_is_bit_identical(self):
        net = Network(2)
        a, b = net.endpoint(0), net.endpoint(1)
        payload = bytes(range(256)) * 3
        b_handle = a.isend(1, tag(), payload)
        msg = b.recv(0, tag())
        a.wait(b_handle)
        assert msg.payload == payload
        assert msg.source == 0 and msg.dest == 1

    def test_array_packing_roundtrip(self):
        values = np.random.default_rng(0).standard_normal((8, 8))
        assert np.array_equal(unpack_array(pack_array(values)), values)
        stopped, final = unpack_status(pack_status(True, values))
        assert stopped and np.array_equal(final, values)
        assert unpack_status(pack_status(False)) == (False, None)

    def test_tag_matching_in_any_order(self):
        tags = [tag(iteration=i) for i in (1, 2)]
        for order in itertools.permutations(range(2)):
            net = Network(2)
            a, b = net.endpoint(0), net.endpoint(1)
            handles = [a.isend(1, t, str(i).encode()) for i, t in enumerate(tags)]
            for idx in order:
                msg = b.recv(0, tags[idx])
                assert msg.payload == str(idx).encode()
            for h in handles:
                a.wait(h)

    def test_fifo_within_one_tag(self):
        net = Network(2)
        a, b = net.endpoint(0), net.endpoint(1)
        for i in range(3):
            a.wait(a.isend(1, tag(), f"m{i}".encode()))
        got = [b.recv(0, tag()).payload for _ in range(3)]
        assert got == [b"m0", b"m1", b"m2"]

    def test_recv_timeout_raises_deadlock(self):
        net = Network(2, recv_timeout=0.05)
        b = net.endpoint(1)
        start = monotonic_seconds()
        with pytest.raises(DeadlockError):
            b.recv(0, tag())
        assert monotonic_seconds() - start < 2.0


class TestNonblocking:
    def test_isend_returns_before_receiver_posts(self):
        net = Network(2, rendezvous_bytes=1 << 20)
        a = net.endpoint(0)
        received = []

        def sleepy_receiver():
            time.sleep(0.2)
            received.append(net.endpoint(1).recv(0, tag()))

        thread = threading.Thread(target=sleepy_receiver)
        thread.start()
        t0 = monotonic_seconds()
        handle = a.isend(1, tag(), b"payload")
        post_latency = monotonic_seconds() - t0
        a.wait(handle)
        thread.join()
        assert post_latency < 0.05
        assert received[0].payload == b"payload"

    def test_wait_is_idempotent_and_fast_after_acceptance(self):
        net = Network(2)
        a, b = net.endpoint(0), net.endpoint(1)
        handle = a.isend(1, tag(), b"x")
        b.recv(0, tag())
        t0 = monotonic_seconds()
        a.wait(handle)
        a.wait(handle)
        assert monotonic_seconds() - t0 < 0.05
        assert a.unwaited == 0

    def test_leak_detector_counts_unwaited_handles(self):
        net = Network(2)
        a = net.endpoint(0)
        handle = a.isend(1, tag(), b"x")
        assert a.unwaited == 1
        net.endpoint(1).recv(0, tag())
        a.wait(handle)
        assert a.unwaited == 0


class TestBackends:
    def test_injected_latency_delays_completion(self):
        # a message becomes available at its send-post time plus the
        # latency, so that is the bound; a pause between isend and recv
        # shortens the receiver's own wait without breaking it
        net = Network(2, latency=0.003)
        a, b = net.endpoint(0, Tracer(0)), net.endpoint(1, Tracer(1))
        handle = a.isend(1, tag(), b"x")
        b.recv(0, tag())
        a.wait(handle)
        send_post = next(ev.t for ev in a.tracer.events if ev.kind == "send-post")
        recv_complete = next(ev.t for ev in b.tracer.events if ev.kind == "recv-complete")
        assert recv_complete - send_post >= 0.003

    def test_rendezvous_blocks_the_wait_until_recv_posts(self):
        net = Network(2, rendezvous_bytes=4)
        tr0 = Tracer(0)
        a = net.endpoint(0, tr0)
        blocked = {}

        def sender():
            handle = a.isend(1, tag(), b"large payload beyond threshold")
            t0 = monotonic_seconds()
            a.wait(handle)
            blocked["duration"] = monotonic_seconds() - t0

        thread = threading.Thread(target=sender)
        thread.start()
        time.sleep(0.1)
        net.endpoint(1).recv(0, tag())
        thread.join()
        assert blocked["duration"] >= 0.08
        spans = {ev.kind: ev.t for ev in tr0.events}
        # blocked-send interval recorded via the acceptance timestamp
        assert spans["send-complete"] - spans["send-post"] >= 0.08

    def test_eager_send_completes_at_post_exactly(self):
        net = Network(2, rendezvous_bytes=1 << 20)
        tr0 = Tracer(0)
        a = net.endpoint(0, tr0)
        handle = a.isend(1, tag(), b"small")
        a.wait(handle)
        post = next(ev.t for ev in tr0.events if ev.kind == "send-post")
        complete = next(ev.t for ev in tr0.events if ev.kind == "send-complete")
        assert complete == post

    def test_channel_audit_counts(self):
        net = Network(3)
        a, b = net.endpoint(0), net.endpoint(1)
        a.wait(a.isend(1, tag(), b"x"))
        b.recv(0, tag())
        audit = net.audit()
        assert audit[(0, 1)] == {"sent": 1, "received": 1, "pending": 0}
        # channels are built on first use: a pair that never talked has none
        assert (1, 2) not in audit

    def test_the_send_handle_is_the_received_message(self):
        net = Network(2, rendezvous_bytes=4, recv_timeout=1.0)
        a, b = net.endpoint(0), net.endpoint(1)
        for i, payload in enumerate((b"x", b"beyond threshold"), start=1):
            handle = a.isend(1, tag(iteration=i), payload)
            assert b.recv(0, tag(iteration=i)) is handle
            a.wait(handle)
        assert a.unwaited == 0

    def test_sends_create_no_event(self, monkeypatch):
        created = []

        class CountingEvent(threading.Event):
            def __init__(self):
                super().__init__()
                created.append(self)

        monkeypatch.setattr(threading, "Event", CountingEvent)
        net = Network(2, rendezvous_bytes=4, recv_timeout=1.0)
        a, b = net.endpoint(0), net.endpoint(1)
        handles = [a.isend(1, tag(iteration=1), b"x"), a.isend(1, tag(iteration=2), b"beyond threshold")]
        for i in (1, 2):
            b.recv(0, tag(iteration=i))
        for handle in handles:
            a.wait(handle)
        assert created == []

    def test_tag_named_once_per_message_side(self, monkeypatch):
        calls = []
        tag_name = comm.tag_name

        def counting_tag_name(t):
            calls.append(t)
            return tag_name(t)

        monkeypatch.setattr(comm, "tag_name", counting_tag_name)
        net = Network(2, rendezvous_bytes=0, recv_timeout=1.0)
        a, b = net.endpoint(0, Tracer(0)), net.endpoint(1, Tracer(1))
        handle = a.isend(1, tag(), b"x")
        b.recv(0, tag())
        a.wait(handle)
        assert len(calls) == 2
        names = [ev.name for tr in (a.tracer, b.tracer) for ev in tr.events]
        assert names == ["fine/value/1"] * 4


class TestChannelsOnFirstUse:
    def test_a_new_network_holds_no_channel(self):
        assert len(Network(10_000).audit()) == 0

    def test_serial_pfasst_run_builds_only_its_forward_channels(self):
        result = run(dahlquist_config(32, 0.1), mode="serial")
        assert set(result.comm_audit["channels"]) == {(p, p + 1) for p in range(31)}

    @pytest.mark.parametrize("src, dst", [(0, 3), (3, 0), (-1, 0), (0, -1), (1, 1), ("0", 1)])
    def test_pair_outside_the_network_is_refused(self, src, dst):
        net = Network(3)
        with pytest.raises(ValueError, match="no channel"):
            net.channel(src, dst)
        assert net.audit() == {}

    def test_racing_first_uses_share_one_channel(self, monkeypatch):
        # a slow constructor lets the other threads arrive while one builds
        class SlowChannel(comm._Channel):
            def __init__(self, network):
                time.sleep(0.002)
                super().__init__(network)

        monkeypatch.setattr(comm, "_Channel", SlowChannel)
        net = Network(6)
        pairs = [(src, dst) for src in range(6) for dst in range(6) if src != dst]
        workers = 4  # more threads than a 2-core machine has cores
        barrier, got = threading.Barrier(workers), [[] for _ in range(workers)]

        def first_uses(mine):
            for pair in pairs:
                barrier.wait(timeout=10.0)
                mine.append(net.channel(*pair))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_uses, args=(mine,)) for mine in got]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert all(len(mine) == len(pairs) for mine in got)
        for pair, *channels in zip(pairs, *got):
            assert all(ch is channels[0] for ch in channels), pair
        assert len(net.audit()) == len(pairs)

    def test_abort_reaches_a_channel_built_after_it(self):
        net = Network(2, recv_timeout=30.0)
        net.abort("worker 0 failed")
        with pytest.raises(RunAborted, match="worker 0 failed"):
            net.endpoint(1).recv(0, tag())


class TestBlockedWait:
    """A sender blocked in wait() on a rendezvous send sleeps on its
    channel until the receive, an abort or its deadline wakes it, so it
    reads the clock a few times however long it waits; polling would
    read it on every poll."""

    BLOCK_S = 0.3

    @classmethod
    def wait_blocked(cls, monkeypatch, release):
        net = Network(2, rendezvous_bytes=4, recv_timeout=cls.BLOCK_S if release is None else 30.0)
        a = net.endpoint(0)
        reads, outcome = [], {}
        clock = comm.monotonic_seconds

        def counting_clock():
            if threading.current_thread().name == "sender":
                reads.append(1)
            return clock()

        def sender():
            handle = a.isend(1, tag(), b"beyond threshold")
            reads.clear()
            try:
                a.wait(handle)
            except Exception as exc:  # checked by the test
                outcome["error"] = exc

        monkeypatch.setattr(comm, "monotonic_seconds", counting_clock)
        thread = threading.Thread(target=sender, name="sender")
        thread.start()
        if release is not None:
            time.sleep(cls.BLOCK_S)
            release(net)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert len(reads) <= 5
        return outcome.get("error")

    def test_abort_releases_a_blocked_wait(self, monkeypatch):
        error = self.wait_blocked(monkeypatch, lambda net: net.abort("worker 1 failed"))
        assert isinstance(error, RunAborted) and "worker 1 failed" in str(error)

    def test_deadline_releases_a_blocked_wait(self, monkeypatch):
        error = self.wait_blocked(monkeypatch, None)
        assert isinstance(error, DeadlockError)
        assert str(error) == f"send of tag {tag()} not accepted after {self.BLOCK_S:.1f} s"


def npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=False)
    return buf.getvalue()


def sample(dtype, shape, seed=0):
    rng = np.random.default_rng(seed)
    if dtype == np.bool_:
        return rng.standard_normal(shape) > 0
    if dtype == np.int32:
        return rng.integers(-(2**31), 2**31 - 1, size=shape, dtype=np.int32)
    if dtype == np.complex128:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape).astype(dtype)


def layouts(dtype, shape):
    c_order = sample(dtype, shape)
    strided = sample(dtype, tuple(2 * n for n in shape))[tuple(slice(None, None, 2) for _ in shape)]
    return {"C": c_order, "F": np.asfortranarray(c_order), "view": strided}


WIRE_DTYPES = [np.float64, np.float32, np.complex128, np.int32, np.bool_]
WIRE_SHAPES = [(), (1,), (32, 32), (128, 128), (3, 4, 5)]


class TestWireFormat:
    @pytest.mark.parametrize("dtype", WIRE_DTYPES, ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("shape", WIRE_SHAPES, ids=str)
    def test_payload_is_np_save_bytes_and_round_trips(self, dtype, shape):
        for layout, arr in layouts(dtype, shape).items():
            payload = pack_array(arr)
            assert payload == npy_bytes(arr), layout
            back = unpack_array(payload)
            reference = np.load(io.BytesIO(payload), allow_pickle=False)
            assert back.dtype == arr.dtype and back.shape == arr.shape
            assert np.array_equal(back, arr)
            assert back.flags.writeable
            assert back.flags.c_contiguous == reference.flags.c_contiguous
            assert back.flags.f_contiguous == reference.flags.f_contiguous
            back[...] = 0
            assert unpack_array(payload).tobytes() == np.ascontiguousarray(arr).tobytes()

    def test_status_and_memoryview_payloads_round_trip(self):
        final = sample(np.float64, (4, 4))
        stopped, back = unpack_status(pack_status(True, np.asfortranarray(final)))
        assert stopped and np.array_equal(back, final) and back.flags.f_contiguous
        assert np.array_equal(unpack_array(memoryview(pack_array(final))), final)

    def test_object_dtype_is_refused(self):
        with pytest.raises(ValueError):
            pack_array(np.array([{"a": 1}, None], dtype=object))
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(buf, {"descr": "|O", "fortran_order": False, "shape": (2,)})
        with pytest.raises(ValueError):
            unpack_array(buf.getvalue() + bytes(16))

    @pytest.mark.parametrize("cut", [1, 8, 200])
    def test_truncated_payload_is_refused(self, cut):
        payload = pack_array(sample(np.float64, (5, 5)))
        with pytest.raises(ValueError):
            unpack_array(payload[:-cut])

    @pytest.mark.parametrize("length", [0, 5, 9])
    def test_payload_shorter_than_the_prefix_is_refused(self, length):
        with pytest.raises(ValueError):
            unpack_array(pack_array(np.zeros(3))[:length])

    def test_trailing_bytes_are_refused(self):
        payload = pack_array(sample(np.float64, (5, 5)))
        with pytest.raises(ValueError):
            unpack_array(payload + b"\x00")
        with pytest.raises(ValueError):
            unpack_status(pack_status(True, np.zeros(3)) + b"\x00")

    def test_threads_packing_distinct_shapes_at_once(self):
        shapes = [(n, n + 1) for n in range(1, 5)]
        errors, done = [], []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def worker(shape):
            try:
                arr = sample(np.float64, shape, seed=shape[0])
                for i in range(300):
                    x = arr if i % 2 else np.asfortranarray(arr)
                    payload = pack_array(x)
                    assert payload == npy_bytes(x)
                    assert np.array_equal(unpack_array(payload), arr)
                done.append(shape)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in shapes]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert errors == [] and sorted(done) == shapes

    def test_caches_are_bounded(self):
        for cache in (comm._npy_header, comm._npy_layout):
            assert cache.cache_info().maxsize is not None
        for n in range(comm._npy_header.cache_info().maxsize + 10):
            unpack_array(pack_array(np.zeros(n + 1)))
        for cache in (comm._npy_header, comm._npy_layout):
            info = cache.cache_info()
            assert info.currsize <= info.maxsize
