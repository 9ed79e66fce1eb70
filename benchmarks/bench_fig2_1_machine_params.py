"""Figure 2.1 — BSP system parameters (g and L).

The paper measures each library version's bandwidth cost ``g`` (µs per
16-byte packet, total-exchange superstep) and latency ``L`` (µs for a
single-packet superstep).  This benchmark runs the same two
microbenchmarks against *our* three backends and prints the results next
to the paper's table.

What should hold: L grows with p on every implementation; the
message-passing backend (processes, the MPI/TCP analogue) has far larger
L than the shared-memory backend (threads), which is the paper's central
SGI-vs-Cenju/PC contrast; the socket backend (tcp, the PC-LAN analogue)
pays the largest L of all — a kernel round-trip per mesh leg — echoing
the PC-LAN row's order-of-magnitude latency gap; and the simulator
(which performs no real communication) bounds below what any real
backend achieves.
"""

from __future__ import annotations

from conftest import emit

from repro import PAPER_MACHINES, calibrate_backend
from repro.backends.processes import ProcessBackend
from repro.backends.tcp import TcpBackend
from repro.util.tables import render_table

NPROCS = (1, 2, 4, 8)
BACKENDS = ("simulator", "threads", "processes", "tcp")
SYNC_NPROCS = (2, 4, 8)
SYNC_MODES = ("strict", "relaxed", "elide")


def calibrate_all():
    results = {}
    for backend in BACKENDS:
        if backend == "tcp":
            # One persistent mesh, sized to the largest count: this is the
            # measurement behind the registered "tcp-localhost" profile.
            with TcpBackend.pool(max(NPROCS)) as pooled:
                for p in NPROCS:
                    results[(backend, p)] = calibrate_backend(
                        pooled, p,
                        latency_rounds=20, bandwidth_rounds=3,
                        packets_each=200,
                    )
            continue
        for p in NPROCS:
            results[(backend, p)] = calibrate_backend(
                backend, p,
                latency_rounds=20, bandwidth_rounds=3, packets_each=200,
            )
    return results


def test_fig2_1_machine_parameters(once):
    results = once(calibrate_all)
    headers = ["nprocs"]
    for backend in BACKENDS:
        headers += [f"{backend} g", f"{backend} L"]
    for machine in PAPER_MACHINES.values():
        headers += [f"{machine.name} g*", f"{machine.name} L*"]
    rows = []
    for p in NPROCS:
        row = [p]
        for backend in BACKENDS:
            cal = results[(backend, p)]
            row += [cal.g_us, cal.L_us]
        for machine in PAPER_MACHINES.values():
            if machine.supports(p):
                row += [machine.g(p) * 1e6, machine.L(p) * 1e6]
            else:
                row += [None, None]
        rows.append(row)
    emit(
        "fig2_1_machine_params",
        render_table(
            headers, rows,
            title="Figure 2.1 — BSP parameters in microseconds "
                  "(ours measured; * = paper values)",
        ),
    )
    # Shape assertions: latency grows with p; processes slower than threads;
    # real sockets slower again than shared memory (the PC-LAN contrast).
    for backend in BACKENDS:
        assert results[(backend, 8)].L_us > results[(backend, 1)].L_us
    assert results[("processes", 4)].L_us > results[("threads", 4)].L_us
    assert results[("tcp", 8)].L_us > results[("threads", 8)].L_us


def calibrate_sync_modes():
    """L per sync mode on the two real backends (barrier-bound rounds)."""
    results = {}
    with ProcessBackend.pool(max(SYNC_NPROCS)) as proc_pool:
        for p in SYNC_NPROCS:
            for mode in SYNC_MODES:
                results[("processes", p, mode)] = calibrate_backend(
                    proc_pool, p,
                    latency_rounds=40, bandwidth_rounds=2, packets_each=50,
                    sync=mode,
                )
    with TcpBackend.pool(max(SYNC_NPROCS)) as tcp_pool:
        for p in SYNC_NPROCS:
            for mode in SYNC_MODES:
                results[("tcp", p, mode)] = calibrate_backend(
                    tcp_pool, p,
                    latency_rounds=40, bandwidth_rounds=2, packets_each=50,
                    sync=mode,
                )
    return results


def test_fig2_1_sync_mode_latency(once):
    """The relaxed-synchronization optimisation, in Figure 2.1's units.

    On pipes, relaxed sync drops the empty frames of the all-to-all and
    must shrink L — the single-packet superstep is pure barrier — while
    leaving g essentially alone.  On tcp, strict and relaxed run the
    same one-round protocol, so their L agree up to noise.
    """
    results = once(calibrate_sync_modes)
    headers = ["backend", "nprocs"] + [f"L {m}" for m in SYNC_MODES] + [
        "relaxed speedup"]
    rows = []
    for backend in ("processes", "tcp"):
        for p in SYNC_NPROCS:
            ls = [results[(backend, p, m)].L_us for m in SYNC_MODES]
            rows.append([backend, p] + ls + [ls[0] / ls[1]])
    emit(
        "fig2_1_sync_mode_latency",
        render_table(
            headers, rows,
            title="Superstep latency L (µs) by synchronization mode",
        ),
    )
    # Relaxed must never be slower than strict by more than noise; on
    # the barrier-bound microbenchmark it should be clearly faster, but
    # the hard >= 2x acceptance floor lives in bench_barrier.py.
    for backend in ("processes", "tcp"):
        strict = results[(backend, max(SYNC_NPROCS), "strict")].L_us
        relaxed = results[(backend, max(SYNC_NPROCS), "relaxed")].L_us
        assert relaxed < strict * 1.10
