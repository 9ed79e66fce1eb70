"""The TCP backend: wire protocol, sockets, supervision, calibration.

The wire tests exercise the stream decoder against everything a TCP
byte stream can do to a frame (partial reads, splits inside the length
prefix, several frames per ``recv``, hostile lengths).  The backend
tests run real programs over loopback sockets and assert the paper's
portability claim: same results, same W/H/S ledgers, same failure
taxonomy as every other backend.
"""

import hashlib
import multiprocessing as mp
import pickle
import socket
import time

import pytest

from repro import (
    BspConfigError,
    BspUsageError,
    DeadlockError,
    PacketError,
    SynchronizationError,
    VirtualProcessorError,
    WorkerCrashError,
    bsp_run,
    calibrate_backend,
)
from repro import faults
from repro.backends import tcp_wire as wire
from repro.backends.base import get_backend
from repro.backends.frames import TAG_PKT
from repro.backends.tcp import TcpBackend, TcpMesh, TcpSpmdBackend
from repro.backends.tcp_launch import parse_hostport
from repro.core.packets import Packet


# ---------------------------------------------------------------------------
# Module-level programs (the persistent mesh ships programs by pickle)
# ---------------------------------------------------------------------------


def ring_program(bsp, rounds=2):
    acc = []
    for step in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, (bsp.pid, step))
        bsp.sync()
        acc.extend(pkt.payload for pkt in bsp.packets())
    return acc


def crashy_program(bsp):
    if bsp.pid == 1:
        raise RuntimeError("kaboom on 1")
    bsp.send((bsp.pid + 1) % bsp.nprocs, 0)
    bsp.sync()
    return bsp.pid


def _spmd_main(rank, nprocs, port, q):
    backend = TcpSpmdBackend(rank, nprocs, ("127.0.0.1", port), token=1234)
    try:
        run = bsp_run(ring_program, nprocs, backend=backend)
        q.put((rank, run.results, run.stats.S, run.stats.H))
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


def _flatten(chunks):
    out = bytearray()
    for chunk in chunks:
        out += bytes(memoryview(chunk))
    return bytes(out)


def _sample_packets():
    return [
        Packet(src=0, dst=1, seq=0, payload=b"x" * 40, h=3),
        Packet(src=0, dst=1, seq=1, payload={"k": [1, 2]}, h=1),
    ]


class TestFrameDecoder:
    def test_roundtrip_packet_frame(self):
        blob = _flatten(wire.encode_packet_frame(7, 3, 0, _sample_packets()))
        (frame,) = wire.FrameDecoder().feed(blob)
        assert (frame.tag, frame.run_id, frame.step, frame.src) == (
            TAG_PKT, 7, 3, 0)
        got = frame.packets(1)
        assert [(p.src, p.dst, p.seq, p.h) for p in got] == [
            (0, 1, 0, 3), (0, 1, 1, 1)]
        assert bytes(got[0].payload) == b"x" * 40
        assert got[1].payload == {"k": [1, 2]}

    def test_byte_at_a_time(self):
        # Splits everywhere, including inside the 4-byte length prefix.
        blob = _flatten(wire.encode_packet_frame(1, 0, 2, _sample_packets()))
        dec = wire.FrameDecoder()
        frames = []
        for i in range(len(blob)):
            frames.extend(dec.feed(blob[i:i + 1]))
            if i < len(blob) - 1:
                assert frames == []  # nothing completes early
        (frame,) = frames
        assert frame.src == 2
        assert not dec.mid_frame

    def test_several_frames_in_one_chunk(self):
        blob = b"".join(
            _flatten(wire.encode_frame(wire.TAG_HB, 1, s, 0))
            for s in range(4))
        frames = wire.FrameDecoder().feed(blob)
        assert [f.step for f in frames] == [0, 1, 2, 3]

    def test_split_straddling_two_frames(self):
        a = _flatten(wire.encode_frame(wire.TAG_HB, 1, 0, 0,
                                       pickle.dumps((1, 0))))
        b = _flatten(wire.encode_packet_frame(1, 0, 0, _sample_packets()))
        dec = wire.FrameDecoder()
        cut = len(a) + 3  # mid-prefix of the second frame
        first = dec.feed((a + b)[:cut])
        assert [f.tag for f in first] == [wire.TAG_HB]
        assert dec.mid_frame
        second = dec.feed((a + b)[cut:])
        assert [f.tag for f in second] == [TAG_PKT]

    def test_oversized_header_rejected(self):
        dec = wire.FrameDecoder()
        env = wire.pack_envelope(0, -1, -1, wire.MAX_HEADER_BYTES + 1)
        with pytest.raises(PacketError, match="header"):
            dec.feed(env)

    def test_oversized_frame_rejected(self):
        chunks = wire.encode_frame(TAG_PKT, 0, 0, 0, b"", [b"y" * 64])
        dec = wire.FrameDecoder(max_frame_bytes=16)
        with pytest.raises(PacketError, match="exceeds"):
            dec.feed(_flatten(chunks))

    def test_garbage_header_rejected(self):
        blob = wire.pack_envelope(0, -1, -1, 8) + b"notapkl!"
        with pytest.raises(PacketError, match="undecodable"):
            wire.FrameDecoder().feed(blob)

    def test_wrong_version_rejected(self):
        # A consistent envelope (valid check byte) from a future protocol.
        body = wire._ENV_BODY.pack(wire.WIRE_VERSION + 1, 0, -1, -1, 8)
        echk = 0
        for byte in body:
            echk ^= byte
        with pytest.raises(PacketError, match="version"):
            wire.FrameDecoder().feed(body + bytes((echk,)))

    def test_two_phase_version_2_rejected(self):
        # A rank still running the two-phase barrier (wire version 2)
        # must never share a mesh with a one-round rank.
        assert wire.WIRE_VERSION == 3
        body = wire._ENV_BODY.pack(2, 0, -1, -1, 8)
        echk = 0
        for byte in body:
            echk ^= byte
        with pytest.raises(PacketError, match="version 2"):
            wire.FrameDecoder().feed(body + bytes((echk,)))

    def test_retired_barrier_tags_stay_unused(self):
        # 4 and 5 were the two-phase counts/release tags; TCP tags stay
        # disjoint from the pipe fabric's (frames.TAG_RELEASE is 4).
        from repro.backends import frames
        tcp_tags = {v for k, v in vars(wire).items()
                    if k.startswith("TAG_") and v >= 0}
        pipe_tags = {v for k, v in vars(frames).items()
                     if k.startswith("TAG_")}
        assert not tcp_tags & pipe_tags
        assert not tcp_tags & {4, 5}

    def test_flipped_envelope_bit_rejected(self):
        good = _flatten(wire.encode_frame(wire.TAG_HB, 1, 0, 0))
        bad = bytes([good[0] ^ 0x40]) + good[1:]
        with pytest.raises(PacketError, match="envelope"):
            wire.FrameDecoder().feed(bad)

    def test_corrupt_payload_yields_marker_not_frame(self):
        blob = bytearray(
            _flatten(wire.encode_packet_frame(1, 0, 2, _sample_packets(),
                                              seq=7)))
        blob[-1] ^= 0xFF  # smash the crc trailer
        (frame,) = wire.FrameDecoder().feed(bytes(blob))
        assert frame.tag == wire.TAG_CORRUPT
        assert frame.seq == 7

    def test_object_frame_roundtrip(self):
        obj = ("ok", 3, 1, [b"payload" * 100], None)
        blob = _flatten(wire.encode_object_frame(
            wire.TAG_RESULT, 3, 0, 1, obj))
        (frame,) = wire.FrameDecoder().feed(blob)
        assert wire.frame_object(frame) == obj


class TestLaunchHelpers:
    def test_parse_hostport(self):
        assert parse_hostport("pc1:5000", 47710) == ("pc1", 5000)
        assert parse_hostport("pc1", 47710) == ("pc1", 47710)
        with pytest.raises(BspConfigError):
            parse_hostport("pc1:fast", 47710)


# ---------------------------------------------------------------------------
# Backend behaviour over loopback
# ---------------------------------------------------------------------------


class TestTcpBackend:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_matches_simulator(self, nprocs):
        sim = bsp_run(ring_program, nprocs, backend="simulator")
        tcp = bsp_run(ring_program, nprocs, backend="tcp")
        assert tcp.results == sim.results
        assert (tcp.stats.S, tcp.stats.H) == (sim.stats.S, sim.stats.H)
        assert [s.h for s in tcp.stats.supersteps] == \
            [s.h for s in sim.stats.supersteps]

    def test_registered_by_name(self):
        assert get_backend("tcp").name == "tcp"

    def test_unknown_backend_lists_available(self):
        with pytest.raises(BspConfigError, match="tcp"):
            get_backend("udp")

    def test_closures_work_oneshot(self):
        # One-shot mode forks, so the program never crosses a pickler.
        captured = 17
        run = bsp_run(lambda bsp: bsp.pid + captured, 2, backend="tcp")
        assert run.results == [17, 18]

    def test_program_error_attributed(self):
        with pytest.raises(VirtualProcessorError) as info:
            bsp_run(crashy_program, 3, backend="tcp")
        assert info.value.pid == 1
        assert "kaboom on 1" in info.value.traceback_text


class TestTcpSupervision:
    def test_sigkill_surfaces_fast(self):
        plan = faults.FaultPlan([faults.Fault(faults.KILL, 1, 1)])
        with faults.injected(plan):
            t0 = time.monotonic()
            with pytest.raises(WorkerCrashError) as info:
                bsp_run(ring_program, 3, backend="tcp", args=(3,))
        assert time.monotonic() - t0 < 1.0
        assert info.value.pid == 1
        assert "SIGKILL" in str(info.value)

    def test_dropped_frame_is_deadlock(self):
        backend = TcpBackend(join_timeout=6.0)
        plan = faults.FaultPlan(
            [faults.Fault(faults.DROP_FRAME, 1, 1, 2)])
        with faults.injected(plan):
            with pytest.raises(DeadlockError):
                bsp_run(ring_program, 3, backend=backend, args=(3,))

    def test_injected_raise(self):
        plan = faults.FaultPlan([faults.Fault(faults.RAISE, 2, 1)])
        with faults.injected(plan):
            with pytest.raises(VirtualProcessorError) as info:
                bsp_run(ring_program, 4, backend="tcp", args=(3,))
        assert info.value.pid == 2

    def test_poison_payload_reported_not_hung(self):
        plan = faults.FaultPlan([faults.Fault(faults.POISON, 0, 1)])
        with faults.injected(plan):
            with pytest.raises(VirtualProcessorError) as info:
                bsp_run(ring_program, 3, backend="tcp", args=(3,))
        assert info.value.pid == 0

    def test_delay_completes(self):
        plan = faults.FaultPlan([faults.Fault(faults.DELAY, 1, 1, 0.2)])
        with faults.injected(plan):
            run = bsp_run(ring_program, 3, backend="tcp", args=(2,))
        assert run.results == bsp_run(
            ring_program, 3, backend="simulator", args=(2,)).results


class TestTcpMesh:
    def test_pool_reuse_and_subcapacity(self):
        with TcpBackend.pool(4) as backend:
            first = bsp_run(ring_program, 4, backend=backend)
            second = bsp_run(ring_program, 2, backend=backend)
        sim4 = bsp_run(ring_program, 4, backend="simulator")
        sim2 = bsp_run(ring_program, 2, backend="simulator")
        assert first.results == sim4.results
        assert second.results == sim2.results

    def test_failed_run_rebuilds_mesh(self):
        with TcpBackend.pool(3) as backend:
            with pytest.raises(VirtualProcessorError):
                bsp_run(crashy_program, 3, backend=backend)
            # The byte streams cannot be fenced after a failure; the mesh
            # must rebuild transparently and still produce golden results.
            run = bsp_run(ring_program, 3, backend=backend)
        assert run.results == bsp_run(
            ring_program, 3, backend="simulator").results

    def test_unpicklable_program_rejected_helpfully(self):
        with TcpBackend.pool(2) as backend:
            with pytest.raises(BspUsageError, match="module-level"):
                bsp_run(lambda bsp: bsp.pid, 2, backend=backend)

    def test_capacity_enforced(self):
        with TcpMesh(2) as mesh:
            with pytest.raises(BspConfigError):
                mesh.run(ring_program, nprocs=3)


class TestTcpSpmd:
    def test_three_rank_all_gather(self):
        lsock = socket.socket()
        lsock.bind(("127.0.0.1", 0))
        port = lsock.getsockname()[1]
        lsock.close()
        ctx = mp.get_context("fork")
        q = ctx.Queue()
        procs = [ctx.Process(target=_spmd_main, args=(r, 3, port, q))
                 for r in range(3)]
        for proc in procs:
            proc.start()
        try:
            rows = sorted(q.get(timeout=60) for _ in range(3))
        finally:
            for proc in procs:
                proc.join(10)
        golden = bsp_run(ring_program, 3, backend="simulator")
        # Every rank gathered the same complete result vector and ledgers.
        for rank, results, s, h in rows:
            assert results == golden.results
            assert (s, h) == (golden.stats.S, golden.stats.H)


class TestTcpCalibration:
    def test_calibrate_accepts_instance(self):
        with TcpBackend.pool(2) as backend:
            cal = calibrate_backend(backend, 2, latency_rounds=3,
                                    bandwidth_rounds=1, packets_each=50)
        assert cal.backend == "tcp"
        assert cal.nprocs == 2
        assert cal.L_us > 0 and cal.g_us >= 0
        profile = cal.as_profile("tcp-here")
        assert profile.L(2) == pytest.approx(cal.L_us * 1e-6)

    def test_register_machine_roundtrip(self):
        from repro import MachineProfile, get_machine, register_machine
        from repro.core.machines import MACHINES

        profile = MachineProfile(
            name="unit-test-machine", g_us={2: 1.0}, L_us={2: 10.0})
        register_machine(profile)
        try:
            assert get_machine("Unit-Test-Machine") is profile
        finally:
            MACHINES.pop("unit-test-machine", None)
