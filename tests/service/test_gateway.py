"""End-to-end gateway tests: client → protocol → scheduler → warm fleet.

The fast tests run on a ``threads`` fleet (nothing to fork); the chaos
test warms a real process pool and SIGKILLs one of its workers mid-job —
the job must finish (checkpoint-resumed retry) or fail *cleanly*, the
client's stream must reach a terminal state (never hang), and the fleet
must be back at capacity afterwards.
"""

import threading
import time

import pytest

from repro import faults
from repro.core.errors import AdmissionError, BspConfigError, BspUsageError
from repro.service import jobs
from repro.service import (
    FleetSpec,
    GatewayConfig,
    SchedulerConfig,
    ServiceClient,
    serve_in_background,
)

pytestmark = pytest.mark.timeout(300)


def threads_config(**scheduler_kwargs):
    return GatewayConfig(
        fleet=(FleetSpec(backend="threads", nprocs=4, pools=2),),
        scheduler=SchedulerConfig(**scheduler_kwargs))


@pytest.fixture()
def service():
    with serve_in_background(threads_config()) as svc:
        yield svc


@pytest.fixture()
def client(service):
    return ServiceClient(service.host, service.port)


class TestSubmitLifecycle:
    def test_submit_runs_to_done(self, client):
        job = client.submit(app="noop", size="1", nprocs=4,
                            backend="threads")
        assert job["state"] == "DONE"
        assert job["attempts"] == 1
        assert job["error"] is None
        # The result payload is the ledger summary with its digest.
        assert job["result"]["S"] == 2
        assert len(job["result"]["digest"]) == 64
        assert job["result"]["wall_seconds"] > 0

    def test_states_stream_in_order(self, client):
        seen = []
        job = client.submit(app="spin", size="3", nprocs=4,
                            backend="threads",
                            on_state=lambda s: seen.append(s["state"]))
        assert job["state"] == "DONE"
        assert seen == ["RUNNING", "DONE"]

    def test_status_and_listing(self, client):
        job = client.submit(app="noop", size="1", nprocs=4,
                            backend="threads")
        got = client.status(job["job_id"])
        assert got["state"] == "DONE"
        assert got["result"]["digest"] == job["result"]["digest"]
        listing = client.status()
        assert listing["total"] >= 1
        assert any(j["job_id"] == job["job_id"] for j in listing["jobs"])

    def test_unknown_job_id_is_typed(self, client):
        with pytest.raises(BspUsageError, match="unknown job id"):
            client.status("j999999")

    def test_invalid_spec_is_typed(self, client):
        with pytest.raises(BspConfigError, match="unknown app"):
            client.submit(app="sorting", size="1", nprocs=4,
                          backend="threads")

    def test_health_telemetry(self, client):
        client.submit(app="noop", size="1", nprocs=4, backend="threads")
        health = client.health()
        assert health["scheduler"]["completed"] >= 1
        assert health["jobs_per_second"] > 0
        slots = health["fleet"]
        assert len(slots) == 2
        assert {slot["slot"] for slot in slots} == {
            "threads-p4-0", "threads-p4-1"}

    def test_failed_job_carries_typed_error(self, client):
        """A job whose run raises FAILs with the error payload — the
        stream still terminates."""
        job = client.submit(app="spin", size="3", nprocs=4,
                            backend="threads",
                            params={"spin_seconds": "not-a-number"})
        assert job["state"] == "FAILED"
        assert job["error"]["error"] == "ValueError"

    def test_concurrent_tenants_both_finish(self, service):
        alice = ServiceClient(service.host, service.port, tenant="alice")
        bob = ServiceClient(service.host, service.port, tenant="bob")
        handles = [alice.submit(app="noop", size="1", nprocs=4,
                                backend="threads", wait=False)
                   for _ in range(3)]
        handles += [bob.submit(app="noop", size="1", nprocs=4,
                               backend="threads", wait=False)
                    for _ in range(3)]
        finals = [handle.wait() for handle in handles]
        assert all(final["state"] == "DONE" for final in finals)
        tenants = {final["tenant"] for final in finals}
        assert tenants == {"alice", "bob"}


class TestAdmissionBoundary:
    def test_unknown_fleet_key_rejected(self, client):
        with pytest.raises(AdmissionError, match="no warm pool"):
            client.submit(app="noop", size="1", nprocs=32,
                          backend="threads")
        with pytest.raises(AdmissionError, match="no warm pool"):
            client.submit(app="noop", size="1", nprocs=4,
                          backend="simulator")

    def test_queue_overflow_rejected(self, monkeypatch):
        """With both slots held by slow jobs and the queue full, the
        next submit is shed with a typed error, not queued late."""
        # The threads backend runs jobs in this process, so the "spin"
        # job can hold its slot on an event instead of a timer: it cannot
        # finish (and free a queue slot) before the overflow is checked.
        release = threading.Event()

        def gated(bsp, **kwargs):
            release.wait(60)
            return jobs.spin_program(bsp, **kwargs)

        monkeypatch.setitem(jobs._BUILTIN_PROGRAMS, "spin", gated)
        config = GatewayConfig(
            fleet=(FleetSpec(backend="threads", nprocs=4, pools=1),),
            scheduler=SchedulerConfig(max_queued=2))
        with serve_in_background(config) as svc:
            client = ServiceClient(svc.host, svc.port)
            slow = dict(app="spin", size="4", nprocs=4, backend="threads")
            try:
                running = client.submit(**slow, wait=False)
                # Wait for the single slot to lease the running job, then
                # fill the queue behind it.
                deadline = time.time() + 30
                while client.status(running.job_id)["state"] == "QUEUED":
                    assert time.time() < deadline
                    time.sleep(0.01)
                queued = [client.submit(**slow, wait=False)
                          for _ in range(2)]
                with pytest.raises(AdmissionError,
                                   match="admission queue full"):
                    client.submit(**slow)
                assert client.status(running.job_id)["state"] == "RUNNING"
            finally:
                release.set()
            for handle in [running] + queued:
                assert handle.wait()["state"] == "DONE"


class TestCancel:
    def test_cancel_queued_never_launches(self):
        config = GatewayConfig(
            fleet=(FleetSpec(backend="threads", nprocs=4, pools=1),),
            scheduler=SchedulerConfig(max_queued=8))
        with serve_in_background(config) as svc:
            client = ServiceClient(svc.host, svc.port)
            blocker = client.submit(app="spin", size="4", nprocs=4,
                                    backend="threads",
                                    params={"spin_seconds": 0.1},
                                    wait=False)
            victim = client.submit(app="noop", size="1", nprocs=4,
                                   backend="threads", wait=False)
            assert client.status(victim.job_id)["state"] == "QUEUED"
            cancelled = client.cancel(victim.job_id)
            assert cancelled["state"] == "CANCELLED"
            # The victim's stream terminates with the CANCELLED frame.
            final = victim.wait()
            assert final["state"] == "CANCELLED"
            assert blocker.wait()["state"] == "DONE"
            # It never launched: zero attempts, and cancelling again is
            # refused because it is already terminal.
            assert client.status(victim.job_id)["attempts"] == 0
            with pytest.raises(BspUsageError, match="CANCELLED"):
                client.cancel(victim.job_id)

    def test_cancel_done_job_refused(self, client):
        job = client.submit(app="noop", size="1", nprocs=4,
                            backend="threads")
        with pytest.raises(BspUsageError, match="not interruptible"):
            client.cancel(job["job_id"])


class TestShutdown:
    def test_shutdown_frame_stops_gateway(self):
        svc = serve_in_background(threads_config())
        client = ServiceClient(svc.host, svc.port)
        client.shutdown()
        deadline = time.time() + 30
        while svc._thread.is_alive():
            assert time.time() < deadline, "gateway did not stop"
            time.sleep(0.05)


class TestChaos:
    def test_sigkilled_pool_worker_mid_job(self):
        """SIGKILL a pool worker mid-job: the job is retried from its
        checkpoint (or cleanly FAILED), the stream never hangs, and the
        fleet is back at capacity for the next job."""
        config = GatewayConfig(
            fleet=(FleetSpec(backend="processes", nprocs=4, pools=1),))
        with serve_in_background(config) as svc:
            client = ServiceClient(svc.host, svc.port, timeout=120)
            handle = client.submit(
                app="spin", size="8", nprocs=4, backend="processes",
                checkpoint_every=1, retries=2,
                params={"spin_seconds": 0.05}, wait=False)
            slot = svc.gateway.fleet.slots[0]
            deadline = time.time() + 60
            while client.status(handle.job_id)["state"] != "RUNNING":
                assert time.time() < deadline, "job never started"
                time.sleep(0.01)
            time.sleep(0.1)  # let a couple of supersteps checkpoint
            faults.kill_pool_worker(slot.pool(), rank=1)
            final = handle.wait()  # must terminate, never hang
            assert final["state"] in ("DONE", "FAILED")
            if final["state"] == "DONE":
                # The retry resumed: the pool healed underneath the job.
                assert final["result"]["S"] >= 1
            else:
                assert final["error"] is not None
            # Fleet is back at capacity: the healed (or recycled) pool
            # runs the next job cleanly.
            after = client.submit(app="noop", size="1", nprocs=4,
                                  backend="processes")
            assert after["state"] == "DONE"
            health = client.health()
            pool_health = health["fleet"][0]["pool"]
            assert pool_health["alive"] == 4
            # The crash is visible in telemetry: either the pool healed
            # (restarts > 0) or the slot was recycled.
            assert (pool_health["restarts"] > 0
                    or health["fleet"][0]["recycles"] > 0)
