"""Tests for the batched zero-copy exchange layer and the persistent pool.

Three layers of guarantees:

* the frame combiner is a faithful round-trip (payload kinds, ``h``/``seq``
  metadata, writability of reconstructed arrays);
* :class:`~repro.core.packets.PacketRuns` concatenation produces exactly
  the canonical ``(src, seq)`` order the old global sort did (property
  tested on random permutations);
* a :class:`~repro.backends.processes.BspPool` is reusable across runs —
  fresh ledgers every time, surviving failed runs — and the accounting the
  whole stack produces is bit-identical to the pre-frame implementation
  (golden values recorded from the seed revision).
"""

import hashlib
import multiprocessing as mp
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.frames import (
    FrameTransport,
    Slab,
    _REWIND_RESERVE,
    _RecvPool,
    decode_packets,
    encode_packets,
)
from repro.backends.processes import BspPool, ProcessBackend
from repro.core.errors import BspConfigError, BspUsageError, VirtualProcessorError
from repro.core.packets import Packet, PacketRuns, delivery_order
from repro.harness.runner import run_app


def _mk(src, dst, payload, h, seq):
    return Packet(src=src, dst=dst, payload=payload, h=h, seq=seq)


class TestCombinerRoundTrip:
    """encode_packets/decode_packets must be the identity on a bucket."""

    def _roundtrip(self, packets):
        meta, buffers = encode_packets(packets)
        # Cross the "process boundary": materialize the out-of-band
        # buffers into writable bytearrays, as the receiving side does.
        received = [bytearray(mv) for mv in buffers]
        return decode_packets(meta, received, packets[0].src if packets else 0,
                              packets[0].dst if packets else 0)

    def test_numpy_payloads(self):
        arrays = [np.arange(64, dtype=np.float64),
                  np.ones((3, 5), dtype=np.int32),
                  np.zeros(0, dtype=np.float32)]
        packets = [_mk(1, 2, a, h=4, seq=i) for i, a in enumerate(arrays)]
        out = self._roundtrip(packets)
        assert len(out) == len(packets)
        for orig, got in zip(packets, out):
            assert got.src == 1 and got.dst == 2
            assert got.h == orig.h and got.seq == orig.seq
            assert got.payload.dtype == orig.payload.dtype
            assert got.payload.shape == orig.payload.shape
            np.testing.assert_array_equal(got.payload, orig.payload)

    def test_reconstructed_arrays_are_writable(self):
        pkt = _mk(0, 1, np.arange(10, dtype=np.float64), h=1, seq=0)
        out = self._roundtrip([pkt])[0]
        out.payload[3] = -1.0  # must not raise: programs mutate received halos
        assert out.payload[3] == -1.0
        assert pkt.payload[3] == 3.0  # and the sender's array is untouched

    def test_bytes_str_and_mixed(self):
        payloads = [b"raw-bytes", "unicode-é", 12345,
                    {"k": [1, 2.5, None]}, (np.arange(4), "tail")]
        packets = [_mk(2, 0, p, h=1 + i, seq=10 + i)
                   for i, p in enumerate(payloads)]
        out = self._roundtrip(packets)
        assert [p.seq for p in out] == [10, 11, 12, 13, 14]
        assert [p.h for p in out] == [1, 2, 3, 4, 5]
        assert out[0].payload == b"raw-bytes"
        assert out[1].payload == "unicode-é"
        assert out[2].payload == 12345
        assert out[3].payload == {"k": [1, 2.5, None]}
        np.testing.assert_array_equal(out[4].payload[0], np.arange(4))
        assert out[4].payload[1] == "tail"

    def test_empty_bucket(self):
        meta, buffers = encode_packets([])
        assert decode_packets(meta, [bytearray(mv) for mv in buffers], 0, 0) == []

    def test_noncontiguous_array_falls_back_to_copy(self):
        strided = np.arange(100, dtype=np.float64)[::3]
        out = self._roundtrip([_mk(0, 1, strided, h=1, seq=0)])[0]
        np.testing.assert_array_equal(out.payload, strided)


class TestRecvPool:
    """Receive buffers recycle only once every consumer dropped them."""

    def test_busy_buffer_not_recycled(self):
        pool = _RecvPool()
        first = pool.take(1024)
        view = memoryview(first)  # a live consumer
        second = pool.take(1024)
        assert second is not first
        view.release()
        del first, second
        third = pool.take(1024)
        fourth = pool.take(1024)
        assert {id(third), id(fourth)} <= {id(b) for b in pool._bufs}

    def test_recycles_after_consumers_drop(self):
        pool = _RecvPool()
        buf = pool.take(2048)
        ident = id(buf)
        del buf
        assert id(pool.take(2048)) == ident

    def test_distinct_sizes_do_not_alias(self):
        pool = _RecvPool()
        a = pool.take(100)
        del a
        b = pool.take(200)
        assert len(b) == 200


class TestSlabRing:
    """The ring must never wedge on frames it cannot physically hold."""

    def test_unsatisfiable_alloc_raises_immediately(self):
        # Reviewer repro: on a 64 KiB slab, alloc(30016), drain fully,
        # then alloc(40064).  The second alloc needs 40064 bytes plus
        # 35520 bytes of wrap padding — more than the whole ring — so no
        # amount of receiver draining can ever satisfy it.  It must fail
        # fast, not spin out the timeout as "receiver not draining".
        slab = Slab(64 << 10, spin_timeout=5.0)
        try:
            slab.alloc(30016)
            slab.free_to(slab._ctrl[1])  # receiver consumed everything
            start = time.monotonic()
            with pytest.raises(ValueError, match="can never fit"):
                slab.alloc(40064)
            assert time.monotonic() - start < 1.0
        finally:
            slab.close()

    def test_half_capacity_frames_always_satisfiable(self):
        # Anything <= max_frame must succeed at every tail position once
        # the ring is drained, wrap padding included.
        slab = Slab(64 << 10, spin_timeout=5.0)
        try:
            for _ in range(17):  # drives the tail through several wraps
                off = slab.alloc(slab.max_frame - 24)
                slab.write(off, bytes(slab.max_frame - 24))
                slab.free_to(slab._ctrl[1])
        finally:
            slab.close()

    def test_partial_prefault_keeps_ring_usable(self):
        slab = Slab(1 << 20, spin_timeout=5.0)
        try:
            slab.prefault(4096)  # commit only the first page of data
            payload = bytes(range(256)) * 1024  # 256 KiB, beyond the prefix
            for _ in range(6):
                off = slab.alloc(len(payload))
                slab.write(off, payload)
                assert slab.read_copy(off, len(payload)) == payload
                slab.free_to(slab._ctrl[1])
        finally:
            slab.close()

    def test_drained_ring_rewinds_to_its_first_frames(self):
        # Regression: a pooled worker's ring used to walk its whole
        # capacity (keeping every touched page resident) even when each
        # frame was consumed before the next was sent.  Once drained, an
        # allocation that fits below the current position (with the
        # rewind reserve) restarts at physical 0.
        slab = Slab(4 << 20, spin_timeout=5.0)
        try:
            frame = 3000
            phys = []
            for i in range(1000):
                off = slab.alloc(frame)
                slab.write(off, bytes([i % 251]) * frame)
                assert slab.read_copy(off, frame) == bytes([i % 251]) * frame
                slab.free_to(off + frame)
                phys.append(off % slab.capacity)
            assert max(phys) < _REWIND_RESERVE + 2 * frame
            assert phys.count(0) > 5
        finally:
            slab.close()

    def test_rewind_leaves_room_for_other_senders(self):
        # The wrap padding of a rewound frame stays "used" until the
        # receiver consumes that frame; a rewind must still leave the
        # reserve free for the other senders of the same superstep.
        slab = Slab(4 << 20, spin_timeout=5.0)
        try:
            frame = 3000
            for _ in range(3):
                off = slab.alloc(frame)
                slab.free_to(off + frame)
            assert slab.alloc(frame) % slab.capacity != 0  # too early
            slab.free_to(slab._ctrl[1])
            while True:
                off = slab.alloc(frame)
                if off % slab.capacity == 0:
                    break
                slab.free_to(off + frame)
            # Not drained: the rewound frame is still unread.
            assert slab.try_alloc(_REWIND_RESERVE - frame) is not None
        finally:
            slab.close()

    def test_undrained_ring_does_not_rewind(self):
        slab = Slab(1 << 20, spin_timeout=5.0)
        try:
            first = slab.alloc(4096)
            second = slab.alloc(4096)  # first still unread: no rewind
            assert second == first + 4096
            assert slab.try_alloc(slab.capacity - 8192) is not None
            assert slab.try_alloc(64) is None  # ring full: no waiting
        finally:
            slab.close()

    def test_oversized_frame_takes_pipe_path(self):
        # A frame bigger than half the slab routes through the pipe
        # fallback and still round-trips; the slab stays untouched.
        ctx = mp.get_context("fork")
        transport = FrameTransport(2, ctx, slab_bytes=64 << 10,
                                   spin_timeout=5.0)
        try:
            slab = transport._slabs[1]
            payload = np.arange(slab.max_frame // 8 + 64, dtype=np.float64)
            pkt = _mk(0, 1, payload, h=7, seq=3)
            transport.send_packets(1, run_id=1, step=0, src=0, packets=[pkt])
            assert slab._ctrl[1] == 0  # nothing was allocated from the ring
            frame = transport.recv(1)
            (got,) = frame.packets(1)
            assert (got.h, got.seq) == (7, 3)
            np.testing.assert_array_equal(got.payload, payload)
        finally:
            transport.close()


class TestDeliveryOrderProperty:
    """PacketRuns concatenation == the old global (src, seq) sort."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_merged_equals_sorted(self, data):
        nsrc = data.draw(st.integers(0, 6))
        runs = []
        flat = []
        srcs = data.draw(st.permutations(list(range(nsrc))))
        for src in srcs:
            length = data.draw(st.integers(0, 8))
            start = data.draw(st.integers(0, 100))
            run = [_mk(src, 0, (src, k), h=1, seq=start + k)
                   for k in range(length)]
            runs.append((src, run))
            flat.extend(run)
        shuffled = data.draw(st.permutations(flat))
        expected = delivery_order(shuffled)
        got = PacketRuns(runs).merged()
        assert [(p.src, p.seq) for p in got] == \
               [(p.src, p.seq) for p in expected]
        assert [p.payload for p in got] == [p.payload for p in expected]

    def test_single_run_is_returned_as_is(self):
        run = [_mk(3, 0, k, h=1, seq=k) for k in range(4)]
        assert PacketRuns([(3, run)]).merged() == run


# ---------------------------------------------------------------------------
# Pool lifecycle (module-level programs: the pool ships them by pickle)
# ---------------------------------------------------------------------------


def ring_program(bsp, shift):
    bsp.send((bsp.pid + shift) % bsp.nprocs, bsp.pid)
    bsp.sync()
    return [p.payload for p in bsp.packets()]


def failing_program(bsp, bad_pid):
    if bsp.pid == bad_pid:
        raise RuntimeError("deliberate failure")
    bsp.send((bsp.pid + 1) % bsp.nprocs, bsp.pid)
    bsp.sync()
    return bsp.pid


def sized_exchange_program(bsp, sizes):
    """Exchange uint8 payloads of the given sizes, one per superstep."""
    peer = (bsp.pid + 1) % bsp.nprocs
    received = []
    for size in sizes:
        bsp.send(peer, np.full(size, bsp.pid, dtype=np.uint8))
        bsp.sync()
        received.append(sum(p.payload.nbytes for p in bsp.packets()))
    return received


def numpy_exchange_program(bsp, size, scale):
    for q in range(bsp.nprocs):
        if q != bsp.pid:
            bsp.send(q, np.full(size, float(bsp.pid * scale)))
    bsp.sync()
    return sum(float(p.payload[0]) for p in bsp.packets())


class TestBspPoolReuse:
    def test_many_runs_fresh_ledgers(self):
        with BspPool(3) as pool:
            for shift in (1, 2, 1):
                run = pool.run(ring_program, args=(shift,))
                assert run.results == [[(pid - shift) % 3] for pid in range(3)]
                # Fresh accounting per run: exactly the program's two
                # supersteps (sync + final), never accumulated across runs.
                assert all(ledger.nsupersteps == 2 for ledger in run.ledgers)

    def test_recycled_buffers_do_not_corrupt_payloads(self):
        with BspPool(3) as pool:
            for scale in (1, 10, 100):
                run = pool.run(numpy_exchange_program, args=(1 << 12, scale))
                for pid in range(3):
                    expected = sum(q * scale for q in range(3) if q != pid)
                    assert run.results[pid] == expected

    def test_large_frames_on_small_slab_do_not_wedge(self):
        # Regression: with a 64 KiB slab, a 30016-byte frame followed by
        # a 40064-byte frame used to leave the second alloc needing more
        # than the ring's capacity — every worker then spun out the full
        # timeout and the run died.  Such frames must take the pipe path.
        sizes = (30016, 40064, 40064)
        with BspPool(2, join_timeout=20.0, slab_bytes=64 << 10) as pool:
            start = time.monotonic()
            run = pool.run(sized_exchange_program, args=(sizes,))
            assert time.monotonic() - start < 15.0
            assert run.results == [list(sizes), list(sizes)]

    def test_survives_failed_run(self):
        with BspPool(3) as pool:
            with pytest.raises(VirtualProcessorError) as err:
                pool.run(failing_program, args=(1,))
            assert err.value.pid == 1
            # The same workers must be reusable immediately afterwards.
            run = pool.run(ring_program, args=(1,))
            assert run.results == [[2], [0], [1]]

    def test_smaller_runs_share_the_pool(self):
        with BspPool(4) as pool:
            assert pool.run(ring_program, nprocs=2, args=(1,)).results == \
                [[1], [0]]
            assert len(pool.run(ring_program, nprocs=4, args=(1,)).results) == 4

    def test_oversized_run_rejected(self):
        with BspPool(2) as pool:
            with pytest.raises(BspConfigError):
                pool.run(ring_program, nprocs=3, args=(1,))

    def test_unpicklable_program_message(self):
        with BspPool(2) as pool:
            with pytest.raises(BspUsageError, match="module-level"):
                pool.run(lambda bsp: None)

    def test_closed_pool_rejects_runs(self):
        pool = BspPool(2)
        pool.close()
        with pytest.raises(BspConfigError):
            pool.run(ring_program, args=(1,))

    def test_worker_rss_flat_over_many_ocean_runs(self):
        """Pooled workers must not grow their resident set run after run:
        the slab ring reuses its first pages once drained."""
        from repro.apps.ocean import bsp_ocean

        def rss_kib(os_pid):
            with open(f"/proc/{os_pid}/status") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1])
            raise AssertionError("no VmRSS line")

        if not os.path.exists("/proc/self/status"):
            pytest.skip("needs /proc")
        with ProcessBackend.pool(2) as backend:
            os_pids = [proc.pid for proc in backend._pool._procs]
            for _ in range(3):
                bsp_ocean(66, 2, 2, backend=backend)
            before = [rss_kib(q) for q in os_pids]
            for _ in range(50):
                bsp_ocean(66, 2, 2, backend=backend)
            after = [rss_kib(q) for q in os_pids]
        # Without the rewind each run walked ~0.25 MiB of fresh ring.
        assert all(a - b < 2048 for a, b in zip(after, before)), \
            (before, after)

    def test_backend_pool_classmethod(self):
        with ProcessBackend.pool(3) as backend:
            first = backend.run(ring_program, 3, args=(1,))
            second = backend.run(ring_program, 3, args=(2,))
        assert first.results == [[2], [0], [1]]
        assert second.results == [[1], [2], [0]]


# ---------------------------------------------------------------------------
# Golden accounting: bit-identical to the pre-frame (seed) implementation
# ---------------------------------------------------------------------------

#: (S, H, sha256-prefix of the comma-joined per-superstep h series), as
#: measured on the simulator backend at the seed revision (p=4, seed 0).
GOLDEN_SEED_ACCOUNTING = {
    ("ocean", "66"): (489, 15890, "b5882e80f3a2ab0c"),
    ("mst", "2.5k"): (7, 573, "42755087de787f56"),
    ("sp", "2.5k"): (23, 245, "78da159294fa786c"),
    ("msp", "2.5k"): (34, 3243, "5a9c0ce5981e431b"),
    ("nbody", "1k"): (7, 1511, "0faf953a2126eb31"),
    ("matmult", "144"): (3, 10368, "83b281fc68d1317b"),
}


class TestGoldenAccounting:
    """The exchange layer is transport only: W/H/S must never move."""

    @pytest.mark.parametrize("app,size", sorted(GOLDEN_SEED_ACCOUNTING))
    def test_simulator_accounting_unchanged(self, app, size):
        golden_s, golden_h, golden_digest = GOLDEN_SEED_ACCOUNTING[(app, size)]
        stats = run_app(app, size, 4)
        series = ",".join(str(ss.h) for ss in stats.supersteps)
        digest = hashlib.sha256(series.encode()).hexdigest()[:16]
        assert (stats.S, stats.H) == (golden_s, golden_h)
        assert digest == golden_digest

    @pytest.mark.parametrize("app,size", sorted(GOLDEN_SEED_ACCOUNTING))
    def test_tcp_accounting_matches_simulator_golden(self, app, size):
        # Real sockets are still transport only: the combined-frame layout
        # rides the TCP stream byte-for-byte, so the golden ledgers hold.
        golden_s, golden_h, golden_digest = GOLDEN_SEED_ACCOUNTING[(app, size)]
        stats = run_app(app, size, 4, backend="tcp")
        series = ",".join(str(ss.h) for ss in stats.supersteps)
        digest = hashlib.sha256(series.encode()).hexdigest()[:16]
        assert (stats.S, stats.H) == (golden_s, golden_h)
        assert digest == golden_digest
