"""Measure what relaxed synchronization buys per superstep boundary.

Two experiments, three sync modes each:

* **Barrier-bound microbench** — ``ROUNDS`` pure-barrier supersteps
  (no sends at all: the shape of ocean's tiny ghost-exchange steps and
  the nbody non-rebalance steps, which are almost pure L).  The
  effective per-superstep synchronization cost is ``wall / rounds``;
  best-of-``REPEATS`` to shave 1-core scheduler noise.  On pipes,
  relaxed mode publishes the boundary epoch inline and sends **zero**
  frames.  On TCP, strict and relaxed run the same one-round protocol
  (one empty-final per link: the all-to-all is the barrier), so the
  TCP rows measure parity, not a speedup.
* **Ocean end-to-end** — the full paper application (66-grid, 2 time
  steps), strict vs relaxed wall-clock.  The pipe backend's strict
  protocol already piggybacks counts on its single combined frame per
  link, so for ocean's all-links-busy collectives relaxed pipes are
  reported but not gated.

Every timed configuration is also checked for bit-identical results and
(S, H, h-series, m-series) ledgers against the strict golden — a fast
barrier that changed the answer would be worthless.

Acceptance gates (enforced, nonzero exit):

* pipes microbench ``relaxed_speedup_x >= 2.0`` (``>= 1.3`` under
  ``--quick``);
* TCP parity in both experiments: ``strict / relaxed <= 1.2``, i.e.
  strict TCP must never again cost more than relaxed TCP.

Usage::

    PYTHONPATH=src python benchmarks/bench_barrier.py --quick
    PYTHONPATH=src python benchmarks/bench_barrier.py \
        --label barrier --output BENCH_barrier.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

from repro import bsp_run
from repro.apps.ocean import bsp_ocean
from repro.backends.processes import ProcessBackend
from repro.backends.tcp import TcpBackend

NPROCS = 8
ROUNDS = 400
ROUNDS_QUICK = 120
REPEATS = 3
REPEATS_QUICK = 2
MODES = ("strict", "relaxed", "elide")

OCEAN_N, OCEAN_STEPS, OCEAN_NPROCS = 66, 2, 4

#: Ceiling on TCP ``strict / relaxed`` wall time: both modes run the
#: same one-round protocol, so anything above noise is a regression.
TCP_PARITY_MAX_X = 1.2


def barrier_rounds(bsp, rounds):
    """The microbench program: nothing but barriers."""
    for _ in range(rounds):
        bsp.sync()
    return bsp.pid


def identity_ring(bsp, rounds=3):
    """A small exchange used to pin mode-equivalence during the bench."""
    total = 0
    for r in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, (bsp.pid + 1) * (r + 1))
        bsp.sync()
        total += sum(pkt.payload for pkt in bsp.packets())
        bsp.sync()  # empty superstep
    return total


def _ledger_key(stats):
    return (stats.S, stats.H, stats.h_series, stats.m_series)


def _best_of(fn, repeats):
    return min(fn() for _ in range(repeats))


def bench_microbench(kind: str, rounds: int, repeats: int) -> dict:
    cls = {"processes": ProcessBackend, "tcp": TcpBackend}[kind]
    golden = bsp_run(identity_ring, NPROCS)
    golden_key = (golden.results, _ledger_key(golden.stats))

    row: dict = {"nprocs": NPROCS, "rounds": rounds}
    with cls.pool(NPROCS) as backend:
        bsp_run(barrier_rounds, NPROCS, args=(rounds,),
                backend=backend)  # warm the pool + fabric
        for mode in MODES:
            check = bsp_run(identity_ring, NPROCS, backend=backend,
                            sync=mode)
            if (check.results, _ledger_key(check.stats)) != golden_key:
                raise AssertionError(
                    f"{kind}/{mode}: run diverged from the strict golden")

            def timed(mode=mode):
                t0 = time.perf_counter()
                bsp_run(barrier_rounds, NPROCS, args=(rounds,),
                        backend=backend, sync=mode)
                return time.perf_counter() - t0

            wall = _best_of(timed, repeats)
            row[f"L_{mode}_us"] = round(wall / rounds * 1e6, 1)
    row["relaxed_speedup_x"] = round(
        row["L_strict_us"] / row["L_relaxed_us"], 2)
    row["elide_speedup_x"] = round(
        row["L_strict_us"] / row["L_elide_us"], 2)
    return row


def bench_ocean(kind: str, repeats: int) -> dict:
    cls = {"processes": ProcessBackend, "tcp": TcpBackend}[kind]
    golden = bsp_ocean(OCEAN_N, OCEAN_STEPS, OCEAN_NPROCS)
    row: dict = {"n": OCEAN_N, "steps": OCEAN_STEPS, "nprocs": OCEAN_NPROCS,
                 "supersteps": golden.stats.S}
    with cls.pool(OCEAN_NPROCS) as backend:
        bsp_ocean(OCEAN_N, OCEAN_STEPS, OCEAN_NPROCS,
                  backend=backend)  # warm
        for mode in ("strict", "relaxed"):
            def timed(mode=mode):
                t0 = time.perf_counter()
                run = bsp_ocean(OCEAN_N, OCEAN_STEPS, OCEAN_NPROCS,
                                backend=backend, sync=mode)
                wall = time.perf_counter() - t0
                if _ledger_key(run.stats) != _ledger_key(golden.stats):
                    raise AssertionError(
                        f"ocean {kind}/{mode}: ledger diverged from golden")
                return wall

            row[f"{mode}_s"] = round(_best_of(timed, repeats), 4)
    row["relaxed_speedup_x"] = round(row["strict_s"] / row["relaxed_s"], 2)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer rounds/repeats (CI smoke); lower floors")
    parser.add_argument("--label", default=None,
                        help="snapshot name in the output JSON")
    parser.add_argument("--output", default=None,
                        help="JSON file to merge this snapshot into")
    args = parser.parse_args(argv)

    rounds = ROUNDS_QUICK if args.quick else ROUNDS
    repeats = REPEATS_QUICK if args.quick else REPEATS
    floor = 1.3 if args.quick else 2.0

    micro = {kind: bench_microbench(kind, rounds, repeats)
             for kind in ("processes", "tcp")}
    ocean = {kind: bench_ocean(kind, repeats)
             for kind in ("processes", "tcp")}

    failed = []
    print(f"barrier-bound microbench: p={NPROCS}, {rounds} empty "
          f"supersteps, best of {repeats} (effective L per boundary)")
    for kind, row in micro.items():
        print(f"  {kind:<10} strict {row['L_strict_us']:8.1f} us   "
              f"relaxed {row['L_relaxed_us']:8.1f} us   "
              f"elide {row['L_elide_us']:8.1f} us   "
              f"-> {row['relaxed_speedup_x']}x relaxed")
    if micro["processes"]["relaxed_speedup_x"] < floor:
        failed.append(f"processes microbench "
                      f"({micro['processes']['relaxed_speedup_x']}x "
                      f"< {floor}x)")
    if micro["tcp"]["relaxed_speedup_x"] > TCP_PARITY_MAX_X:
        failed.append(f"tcp microbench strict/relaxed "
                      f"({micro['tcp']['relaxed_speedup_x']}x "
                      f"> {TCP_PARITY_MAX_X}x)")
    print(f"ocean {OCEAN_N}-grid end-to-end, p={OCEAN_NPROCS}, "
          f"{ocean['tcp']['supersteps']} supersteps")
    for kind, row in ocean.items():
        print(f"  {kind:<10} strict {row['strict_s'] * 1e3:7.1f} ms   "
              f"relaxed {row['relaxed_s'] * 1e3:7.1f} ms   "
              f"-> {row['relaxed_speedup_x']}x")
    if ocean["tcp"]["relaxed_speedup_x"] > TCP_PARITY_MAX_X:
        failed.append(f"tcp ocean strict/relaxed "
                      f"({ocean['tcp']['relaxed_speedup_x']}x "
                      f"> {TCP_PARITY_MAX_X}x)")
    if failed:
        print("FAIL: " + "; ".join(failed), file=sys.stderr)

    snapshot = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "floor_x": floor,
        "tcp_parity_max_x": TCP_PARITY_MAX_X,
        "microbench": micro,
        "ocean": ocean,
    }
    if args.output:
        label = args.label or "snapshot"
        try:
            with open(args.output) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            doc = {}
        doc[label] = snapshot
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote snapshot {label!r} to {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
