"""Three-mode synchronization equivalence and the relaxed-mode contracts.

The sync layer's promise (DESIGN "Synchronization modes"): ``relaxed``
and ``elide`` change *when a processor may pass the barrier*, never what
the program observes.  Exercised here:

* bit-identical results and (S, H, h-series, m-series) ledgers versus
  the simulator golden, for every mode on both pooled backends — on a
  ring with deliberate empty supersteps (the barrier-bound shape the
  modes exist to accelerate), and property-tested over random
  pattern-respecting programs;
* the same ledger identity for all six paper applications;
* fault handling survives the mode switch: a dropped frame stalls a
  relaxed run into :class:`DeadlockError` (a missing final is
  indistinguishable from a missing message — run-ahead must not paper
  over it), while a slow-but-beating program stays a plain
  :class:`SynchronizationError`;
* crash-mid-superstep recovery under checkpointing reproduces the
  golden run in relaxed mode (the checkpoint cut fences the next
  boundary onto every link, so a resumed run restarts from a fully
  quiesced boundary);
* the per-mode wire-frame budgets on empty supersteps, counted by a
  :class:`~repro.faults.FrameCounter` at the actual send sites: pipes
  send **zero** frames in relaxed/elide, TCP strict and relaxed send
  exactly one empty-final per live link per boundary, and TCP elide
  with a declared empty pattern sends nothing at all (full barrier
  elision);
* an out-of-pattern send under a validating declaration fails loudly at
  the next boundary instead of deadlocking the receiver.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import bsp_run
from repro import faults
from repro.backends.processes import ProcessBackend
from repro.backends.tcp import TcpBackend
from repro.core.errors import (
    DeadlockError,
    SynchronizationError,
    VirtualProcessorError,
)

MODES = ("strict", "relaxed", "elide")

# Module-level programs: pooled runs ship them by pickle.


def mixed_ring(bsp, rounds=4):
    """Ring exchange alternating with pure-barrier (empty) supersteps."""
    total = 0
    for r in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, (bsp.pid + 1) * (r + 1))
        bsp.sync()
        total += sum(pkt.payload for pkt in bsp.packets())
        bsp.sync()  # empty superstep: nothing but the barrier
    return total


def pattern_ring(bsp, rounds=4):
    """Same ring, but with its static pattern declared for elide mode."""
    p = bsp.nprocs
    bsp.pattern({(bsp.pid + 1) % p}, {(bsp.pid - 1) % p})
    return mixed_ring(bsp, rounds)


def patterned_random(bsp, edges, rounds, seed):
    """A random pattern-respecting program, deterministic in (seed, pid).

    ``edges`` is the full directed communication graph; each round every
    edge fires with probability 0.7 — so some rounds leave some (or all)
    links silent, exactly the partial-emptiness relaxed sync must handle.
    """
    bsp.pattern({d for s, d in edges if s == bsp.pid},
                {s for s, d in edges if d == bsp.pid})
    rng = random.Random(seed * 131 + bsp.pid)
    inboxes = []
    for r in range(rounds):
        for s, d in edges:
            if s == bsp.pid:
                fire = rng.random() < 0.7
                payload = rng.randrange(1_000_000)
                if fire:
                    bsp.send(d, (bsp.pid, r, payload))
        bsp.sync()
        inboxes.append(sorted(pkt.payload for pkt in bsp.packets()))
    return inboxes


def counting_ring(bsp, rounds=6):
    """Checkpointed ring: state is (next round, running total)."""
    total = 0
    start = 0
    restored = bsp.resume_state()
    if restored is not None:
        start, total = restored
    for r in range(start, rounds):
        bsp.checkpoint(lambda: (r, total))
        bsp.send((bsp.pid + 1) % bsp.nprocs, (bsp.pid + 1) * (r + 1))
        bsp.sync()
        total += sum(pkt.payload for pkt in bsp.packets())
    return total


def slow_ring(bsp, rounds, pause):
    import time
    for _ in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, bsp.pid)
        bsp.sync()
        time.sleep(pause)
    return True


def empty_steps(bsp, rounds=4):
    for _ in range(rounds):
        bsp.sync()
    return bsp.pid


def empty_pattern_steps(bsp, rounds=4):
    bsp.pattern(())  # no neighbors declared: nothing to wait for
    for _ in range(rounds):
        bsp.sync()
    return bsp.pid


def out_of_pattern(bsp):
    bsp.pattern({(bsp.pid + 1) % bsp.nprocs})
    bsp.send((bsp.pid + 2) % bsp.nprocs, "stray")
    bsp.sync()
    return True


def _ledger_key(stats):
    return (stats.S, stats.H, stats.h_series, stats.m_series)


def _snapshot(run):
    return (run.results, _ledger_key(run.stats))


def _pooled(backend_kind, nprocs, plan, **kw):
    """A pooled backend whose *initial* workers inherited ``plan``."""
    cls = {"processes": ProcessBackend, "tcp": TcpBackend}[backend_kind]
    with faults.injected(plan):
        return cls.pool(nprocs, **kw)


@pytest.fixture(scope="module", params=["processes", "tcp"])
def mode_pool(request):
    """One shared 4-worker pool per backend for the equivalence sweeps."""
    cls = {"processes": ProcessBackend, "tcp": TcpBackend}[request.param]
    with cls.pool(4) as backend:
        yield request.param, backend


class TestThreeModeEquivalence:
    def test_mixed_ring_identity(self, mode_pool):
        _, backend = mode_pool
        golden = _snapshot(bsp_run(mixed_ring, 4))
        for mode in MODES:
            run = bsp_run(mixed_ring, 4, backend=backend, sync=mode)
            assert _snapshot(run) == golden, mode

    def test_pattern_ring_identity(self, mode_pool):
        """With the pattern declared, elide prunes non-neighbor frames —
        and still reproduces the strict ledger bit-for-bit."""
        _, backend = mode_pool
        golden = _snapshot(bsp_run(pattern_ring, 4))
        for mode in MODES:
            run = bsp_run(pattern_ring, 4, backend=backend, sync=mode)
            assert _snapshot(run) == golden, mode

    def test_elide_without_pattern_is_safe(self, mode_pool):
        """No declaration: elide degrades to relaxed (wait on everyone)."""
        _, backend = mode_pool
        golden = _snapshot(bsp_run(mixed_ring, 4, args=(3,)))
        run = bsp_run(mixed_ring, 4, backend=backend, args=(3,),
                      sync="elide")
        assert _snapshot(run) == golden

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_property_random_patterned_programs(self, mode_pool, seed, data):
        """Any pattern-respecting program is mode-invariant, including
        rounds where a declared link happens to stay silent."""
        _, backend = mode_pool
        all_edges = [(s, d) for s in range(4) for d in range(4) if s != d]
        edges = tuple(sorted(data.draw(
            st.sets(st.sampled_from(all_edges), min_size=1, max_size=6))))
        rounds = data.draw(st.integers(1, 3))
        args = (edges, rounds, seed)
        golden = _snapshot(bsp_run(patterned_random, 4, args=args))
        for mode in ("relaxed", "elide"):
            run = bsp_run(patterned_random, 4, backend=backend, args=args,
                          sync=mode)
            assert _snapshot(run) == golden, (mode, edges, rounds)


class TestSixAppLedgerIdentity:
    """The acceptance sweep: every paper app, every mode, one ledger."""

    @pytest.mark.parametrize("app,size", [
        ("ocean", "66"), ("mst", "2.5k"), ("sp", "2.5k"),
        ("msp", "2.5k"), ("nbody", "1k"), ("matmult", "144"),
    ])
    def test_golden_ledgers(self, app, size, mode_pool):
        from repro.harness.runner import run_app
        _, backend = mode_pool
        golden = _ledger_key(run_app(app, size, 4))
        for mode in MODES:
            stats = run_app(app, size, 4, backend=backend, sync=mode)
            assert _ledger_key(stats) == golden, mode


class TestRelaxedFaultContracts:
    @pytest.mark.parametrize("backend_kind", ["processes", "tcp"])
    def test_dropped_frame_stalls_into_deadlock(self, backend_kind):
        """In relaxed mode a lost data frame also loses its piggybacked
        final, so the victim never passes the barrier — the supervisor
        must still call it a deadlock, with the stalled pids named."""
        plan = faults.FaultPlan(
            [faults.Fault(faults.DROP_FRAME, pid=0, step=0, arg=1)])
        cls = {"processes": ProcessBackend, "tcp": TcpBackend}[backend_kind]
        backend = cls(join_timeout=2.5)
        with faults.injected(plan):
            with pytest.raises(DeadlockError) as err:
                bsp_run(mixed_ring, 3, backend=backend, sync="relaxed")
        assert err.value.stalled
        assert "worker 0" in str(err.value)
        assert "os pid" in str(err.value)
        assert "heartbeat" in str(err.value)

    @pytest.mark.parametrize("backend_kind", ["processes", "tcp"])
    def test_slow_but_beating_is_not_deadlock(self, backend_kind):
        cls = {"processes": ProcessBackend, "tcp": TcpBackend}[backend_kind]
        backend = cls(join_timeout=2.5)
        with pytest.raises(SynchronizationError) as err:
            bsp_run(slow_ring, 2, backend=backend, args=(30, 0.3),
                    sync="relaxed")
        assert not isinstance(err.value, DeadlockError)
        assert "still advancing" in str(err.value)

    @pytest.mark.parametrize("backend_kind", ["processes", "tcp"])
    @pytest.mark.parametrize("kill_step", [0, 3])
    def test_crash_recovery_in_relaxed_mode(self, tmp_path, backend_kind,
                                            kill_step):
        """Kill a worker mid-run under checkpointing: the healed relaxed
        run must reproduce the uninterrupted golden bit-for-bit."""
        from repro import CheckpointConfig, DiskCheckpointStore
        golden = _snapshot(bsp_run(counting_ring, 2))
        plan = faults.FaultPlan(
            [faults.Fault(faults.KILL, pid=1, step=kill_step)])
        cfg = CheckpointConfig(
            store=DiskCheckpointStore(tmp_path / "ckpt"),
            run_key=f"relaxed-{backend_kind}-{kill_step}")
        with _pooled(backend_kind, 2, plan) as backend:
            run = bsp_run(counting_ring, 2, backend=backend, retries=1,
                          checkpoint=cfg, sync="relaxed")
            health = backend.health()
        assert _snapshot(run) == golden
        assert health.generation >= 1
        assert "WorkerCrashError" in health.last_fault

    def test_out_of_pattern_send_fails_loudly(self):
        """validate=True: a stray send is a program error at the next
        boundary, not a silent deadlock of the undeclared receiver."""
        with pytest.raises(VirtualProcessorError) as err:
            bsp_run(out_of_pattern, 3, backend="processes", sync="elide")
        assert "BspUsageError" in err.value.traceback_text
        assert "declared communication pattern" in err.value.traceback_text


def _count_frames(backend_kind, sync, program, nprocs=3, rounds=4):
    """Total wire frames a pooled run actually sent, via FrameCounter."""
    counter = faults.FrameCounter(nprocs)
    plan = faults.FaultPlan([], frame_counter=counter)
    try:
        with _pooled(backend_kind, nprocs, plan) as backend:
            bsp_run(program, nprocs, backend=backend, args=(rounds,),
                    sync=sync)
        return counter.total()
    finally:
        counter.close()


class TestEmptySuperstepFrameBudgets:
    """Regression: the whole point of relaxed sync is what is NOT sent.

    ``rounds`` pure-barrier supersteps at p processors must cost, in
    boundary frames on the wire (p=3, rounds=4 here):

    ========== ======================== =====
    backend    mode                     frames
    ========== ======================== =====
    processes  strict                   p·(p−1)·rounds (one per link)
    processes  relaxed / elide          0 (inline epoch publish)
    tcp        strict / relaxed         p·(p−1)·rounds (one empty-final)
    tcp        elide, empty pattern     0 (full barrier elision)
    ========== ======================== =====
    """

    P, ROUNDS = 3, 4
    LINKS = P * (P - 1) * ROUNDS

    def test_processes_strict_baseline(self):
        assert _count_frames("processes", "strict", empty_steps,
                             self.P, self.ROUNDS) == self.LINKS

    @pytest.mark.parametrize("sync", ["relaxed", "elide"])
    def test_processes_relaxed_sends_nothing(self, sync):
        assert _count_frames("processes", sync, empty_steps,
                             self.P, self.ROUNDS) == 0

    def test_tcp_strict_baseline(self):
        # One round: the empty finals are the barrier, as on pipes strict.
        assert _count_frames("tcp", "strict", empty_steps,
                             self.P, self.ROUNDS) == self.LINKS

    def test_tcp_relaxed_one_final_per_link(self):
        assert _count_frames("tcp", "relaxed", empty_steps,
                             self.P, self.ROUNDS) == self.LINKS

    def test_tcp_elide_empty_pattern_sends_nothing(self):
        assert _count_frames("tcp", "elide", empty_pattern_steps,
                             self.P, self.ROUNDS) == 0

    def test_pipes_elide_empty_pattern_sends_nothing(self):
        assert _count_frames("processes", "elide", empty_pattern_steps,
                             self.P, self.ROUNDS) == 0
