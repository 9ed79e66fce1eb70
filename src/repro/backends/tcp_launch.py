"""Rendezvous and mesh construction for the TCP backend (Appendix B.3).

The paper's PC-LAN version connects ``p`` processes — one per machine —
in a full TCP mesh before the program starts.  This module builds that
mesh.  Rank 0 is the *coordinator*: every other rank dials its well-known
address, announces the ``(host, port)`` of its own freshly bound listener,
and receives the complete peer table back.  The rendezvous connection
itself is kept as the mesh link ``0 <-> r`` (no reconnect), and the
remaining links follow one fixed rule — for every pair ``i < j``, rank
``j`` connects to rank ``i``'s listener — so each socket exists exactly
once and the handshake cannot deadlock.

Every handshake message carries a *token* chosen by whoever launched the
mesh; a mismatch means a stray client (or a stale mesh from an earlier
launch) dialed the port, and the connection is refused rather than
silently woven into the wrong machine.

Used two ways:

* :class:`~repro.backends.tcp.TcpBackend` forks ``p`` local ranks; the
  parent pre-binds the coordinator listener and rank 0 inherits it, so
  there is no window in which rank 1 can dial a port nobody owns.
* ``python -m repro.harness launch-tcp --rank r --coordinator host:port``
  starts one rank per invocation on real, separate machines; only the
  coordinator address must be known in advance.

Survivable meshes (:func:`rendezvous_fabric`) additionally keep every
listener bound for the life of the mesh and remember the peer address
table, so a link that dies mid-run can be *re-dialed* (``_RELINK``
handshake, same pair rule) instead of tearing the run down.  Each mesh
*generation* — bumped when a dead rank is replaced — folds into the
wire token (:func:`fold_token`), so sockets and handshakes from a
previous generation are refused rather than silently woven back in.
"""

from __future__ import annotations

import dataclasses
import random
import socket
import time

from ..core.errors import BspConfigError, PacketError, SynchronizationError
from .tcp_wire import recv_msg, send_msg

#: listen() backlog; must cover every peer dialing at once.
_BACKLOG = 64

#: Message kinds of the (tiny, pickled) rendezvous handshake.
_HELLO = "hello"    # rank r -> coordinator: here is my listener address
_PEERS = "peers"    # coordinator -> rank r: the full rank -> address table
_LINK = "link"      # rank j -> rank i (i < j): mesh link handshake
_RELINK = "relink"  # rank j -> rank i (i < j): resume a dropped mesh link


def fold_token(token: int, generation: int) -> int:
    """The wire token for mesh ``generation`` under launch ``token``.

    Every handshake of generation ``g`` carries ``fold_token(token, g)``,
    so a straggler from generation ``g-1`` (a rank that missed the remesh,
    a half-open socket replaying old frames) fails the token check and is
    refused instead of silently joining the wrong epoch.  The fold is a
    fixed injective-enough mix — collisions would need a stray launch
    whose token differs by exactly a multiple of the prime, which the
    random launch tokens make vanishingly unlikely.
    """
    return ((token & 0x7FFFFFFF) * 1_000_003 + generation) & 0x7FFFFFFF


def bind_listener(host: str, port: int = 0) -> socket.socket:
    """A listening TCP socket on ``(host, port)`` (``port=0``: ephemeral)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(_BACKLOG)
    return sock


def tune_mesh_socket(sock: socket.socket) -> None:
    """Apply the mesh socket options (B.3's latency/liveness knobs).

    ``TCP_NODELAY`` because boundary frames are latency-critical (Nagle
    would hold back the small empty finals); ``SO_KEEPALIVE`` so a
    peer whose *machine* vanishes — no FIN, no RST — eventually surfaces
    as a dead socket instead of an eternal stall.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)


def connect_retry(addr: tuple[str, int], deadline: float, *,
                  what: str = "rank listener") -> socket.socket:
    """Dial ``addr``, retrying refusals until ``deadline`` (monotonic).

    Ranks come up in arbitrary order, so the first dial frequently races
    the target's ``bind``; refusals inside the window are expected, not
    errors.  Backoff is exponential with full jitter — many ranks dial
    one listener at startup, and without jitter their retries stay in
    lockstep and hammer the backlog in bursts.  Past the deadline the
    failure is a :class:`SynchronizationError` naming the unreachable
    endpoint (``what``) and the budget that was spent waiting for it.
    """
    delay = 0.01
    start = time.monotonic()
    while True:
        try:
            sock = socket.create_connection(addr, timeout=max(
                0.1, deadline - time.monotonic()))
            tune_mesh_socket(sock)
            return sock
        except OSError as exc:
            if time.monotonic() + delay >= deadline:
                waited = time.monotonic() - start
                raise SynchronizationError(
                    f"could not reach {what} at {addr[0]}:{addr[1]} after "
                    f"{waited:.1f}s of retries (rendezvous budget spent; "
                    f"last error: {exc})"
                ) from exc
            time.sleep(delay * (0.5 + random.random() * 0.5))
            delay = min(delay * 2, 0.25)


def _accept_handshake(listener: socket.socket, kind: str, token: int,
                      deadline: float) -> tuple[socket.socket, tuple]:
    """Accept one connection whose first message is a valid ``kind``.

    Connections carrying the wrong token or message kind (port scanners,
    stale launches) are closed and the accept loop continues.
    """
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise SynchronizationError(
                f"rendezvous timed out waiting for a {kind!r} connection "
                f"on {listener.getsockname()}")
        listener.settimeout(remaining)
        try:
            sock, _ = listener.accept()
        except socket.timeout:
            continue
        try:
            msg = recv_msg(sock)
        except Exception:
            sock.close()
            continue
        if not (isinstance(msg, tuple) and len(msg) >= 2
                and msg[0] == kind and msg[1] == token):
            sock.close()
            continue
        tune_mesh_socket(sock)
        return sock, msg


@dataclasses.dataclass
class MeshFabric:
    """One rank's view of a live mesh, with everything needed to heal it.

    Beyond the ``peer -> socket`` map that :func:`rendezvous_mesh`
    returns, the fabric keeps the rank's listener *bound* (so dropped
    links can be re-accepted at the same address), the peer address
    table (so dropped links can be re-dialed under the pair rule), and
    the ``(token, generation)`` pair that scopes every handshake to the
    current mesh epoch.
    """

    rank: int
    nprocs: int
    socks: dict[int, socket.socket]
    listener: socket.socket | None
    table: dict[int, tuple[str, int]]
    coordinator: tuple[str, int]
    token: int
    generation: int = 0
    bind_host: str | None = None

    def wire_token(self) -> int:
        return fold_token(self.token, self.generation)

    def dials(self, peer: int) -> bool:
        """Pair rule: the higher rank of a pair re-dials the lower."""
        return peer < self.rank

    def dial_addr(self, peer: int) -> tuple[str, int]:
        if peer == 0:
            return self.coordinator
        return tuple(self.table[peer])

    def close(self) -> None:
        for sock in self.socks.values():
            try:
                sock.close()
            except OSError:
                pass
        self.socks.clear()
        if self.listener is not None:
            try:
                self.listener.close()
            except OSError:
                pass
            self.listener = None


def relink_dial(fabric: MeshFabric, peer: int, rx_next: int,
                deadline: float) -> tuple[socket.socket, int]:
    """Re-dial ``peer``'s listener to resume a dropped mesh link.

    Sends ``(_RELINK, wire_token, rank, rx_next)`` and waits for the
    mirror reply; returns ``(socket, peer_rx_next)`` so the caller can
    replay its journal from the first frame the peer has not seen.
    """
    sock = connect_retry(fabric.dial_addr(peer), deadline,
                         what=f"rank {peer} listener (relink)")
    try:
        send_msg(sock, (_RELINK, fabric.wire_token(), fabric.rank, rx_next))
        sock.settimeout(max(0.1, deadline - time.monotonic()))
        reply = recv_msg(sock)
        if not (isinstance(reply, tuple) and len(reply) == 4
                and reply[0] == _RELINK
                and reply[1] == fabric.wire_token()
                and reply[2] == peer):
            raise SynchronizationError(
                f"rank {fabric.rank}: bad relink reply from rank {peer}")
        sock.settimeout(None)
        return sock, reply[3]
    except BaseException:
        sock.close()
        raise


def relink_accept(fabric: MeshFabric, sock: socket.socket,
                  rx_next_of, *,
                  handshake_timeout: float = 2.0) -> tuple[int, int] | None:
    """Vet one connection accepted on the fabric listener mid-run.

    Reads the dialer's ``_RELINK`` handshake, answers with this rank's
    own ``rx_next`` for that link, and returns ``(peer, peer_rx_next)``.
    Anything else — wrong token (stale generation), wrong kind, garbage —
    closes the socket and returns ``None``; the mesh loop just moves on.
    """
    try:
        sock.settimeout(handshake_timeout)
        msg = recv_msg(sock)
        if not (isinstance(msg, tuple) and len(msg) == 4
                and msg[0] == _RELINK
                and msg[1] == fabric.wire_token()):
            sock.close()
            return None
        peer = msg[2]
        if not (0 <= peer < fabric.nprocs and peer != fabric.rank
                and fabric.dials(peer) is False):
            # Only a higher rank may dial us (pair rule).
            sock.close()
            return None
        send_msg(sock, (_RELINK, fabric.wire_token(), fabric.rank,
                        rx_next_of(peer)))
        sock.settimeout(None)
        tune_mesh_socket(sock)
        return peer, msg[3]
    except Exception:
        try:
            sock.close()
        except OSError:
            pass
        return None


def rendezvous_fabric(
    rank: int,
    nprocs: int,
    coordinator: tuple[str, int],
    *,
    token: int = 0,
    generation: int = 0,
    bind_host: str | None = None,
    coordinator_listener: socket.socket | None = None,
    timeout: float = 30.0,
) -> MeshFabric:
    """Build this rank's side of the full mesh, keeping the listener.

    ``coordinator`` is rank 0's well-known listener address.  Rank 0 may
    pass an already-bound ``coordinator_listener`` (the fork launcher
    pre-binds it in the parent); otherwise rank 0 binds it here.
    ``bind_host`` is the address non-coordinator listeners bind — this
    rank's own reachable interface on multi-host runs, defaulting to the
    coordinator's host (right whenever everything is one machine).

    Unlike the plain :func:`rendezvous_mesh`, the returned
    :class:`MeshFabric` keeps every listener open so links can be
    re-established mid-run, and stamps the mesh with ``generation``
    (handshakes carry :func:`fold_token`\\ ``(token, generation)``).
    """
    if not 0 <= rank < nprocs:
        raise BspConfigError(f"rank {rank} out of range({nprocs})")
    wire = fold_token(token, generation)
    deadline = time.monotonic() + timeout
    mesh: dict[int, socket.socket] = {}

    if rank == 0:
        listener = coordinator_listener or bind_listener(*coordinator)
        table: dict[int, tuple[str, int]] = {}
        try:
            # Phase 1: collect every rank's hello; the connection doubles
            # as the 0 <-> r mesh link.
            while len(mesh) < nprocs - 1:
                try:
                    sock, msg = _accept_handshake(listener, _HELLO, wire,
                                                  deadline)
                except SynchronizationError as exc:
                    missing = sorted(set(range(1, nprocs)) - set(mesh))
                    raise SynchronizationError(
                        f"rendezvous timed out after {timeout:.1f}s: "
                        f"collected {len(mesh)}/{nprocs - 1} hellos, "
                        f"missing rank(s) {missing} (expected ranks "
                        f"1..{nprocs - 1} to dial "
                        f"{coordinator[0]}:{coordinator[1]})") from exc
                _, _, peer, addr = msg
                if peer in mesh or not 0 < peer < nprocs:
                    sock.close()
                    continue
                mesh[peer] = sock
                table[peer] = tuple(addr)
            # Phase 2: broadcast the complete table.
            for peer, sock in mesh.items():
                send_msg(sock, (_PEERS, wire, table))
        except BaseException:
            for sock in mesh.values():
                sock.close()
            if coordinator_listener is None:
                listener.close()
            raise
        return MeshFabric(rank, nprocs, mesh, listener, table,
                          coordinator, token, generation, bind_host)

    # Ranks 1..p-1: own listener for higher ranks, hello to rank 0.
    listener = bind_listener(bind_host if bind_host is not None
                             else coordinator[0])
    try:
        if nprocs > 1:
            # The hello itself is retried, not just the dial: during an
            # in-run heal the coordinator's listener stays bound across
            # generations, so an early dialer reaches a rank 0 that is
            # still finishing the previous epoch — its mid-run vetting
            # accepts and immediately closes the connection.  Keep
            # re-dialing until rank 0 is in the new rendezvous.
            while True:
                coord = connect_retry(coordinator, deadline,
                                      what="coordinator (rank 0)")
                try:
                    send_msg(coord, (_HELLO, wire, rank,
                                     listener.getsockname()))
                    reply = recv_msg(coord)
                    break
                except (PacketError, OSError) as exc:
                    coord.close()
                    if time.monotonic() + 0.05 >= deadline:
                        raise SynchronizationError(
                            f"rank {rank}: coordinator at "
                            f"{coordinator[0]}:{coordinator[1]} kept "
                            f"refusing the rendezvous hello (last error: "
                            f"{exc})") from exc
                    time.sleep(0.02 + random.random() * 0.03)
            mesh[0] = coord
            if not (isinstance(reply, tuple) and reply[0] == _PEERS
                    and reply[1] == wire):
                raise SynchronizationError(
                    f"rank {rank}: malformed peer table from coordinator")
            table = {peer: tuple(addr) for peer, addr in reply[2].items()}
            # Pair rule: for i < j, j dials i.  Dial the lower ranks...
            for peer in range(1, rank):
                sock = connect_retry(table[peer], deadline,
                                     what=f"rank {peer} listener")
                send_msg(sock, (_LINK, wire, rank))
                mesh[peer] = sock
            # ...and accept the higher ones.
            while len(mesh) < nprocs - 1:
                sock, msg = _accept_handshake(listener, _LINK, wire,
                                              deadline)
                peer = msg[2]
                if peer in mesh or not rank < peer < nprocs:
                    sock.close()
                    continue
                mesh[peer] = sock
        else:
            table = {}
    except BaseException:
        for sock in mesh.values():
            sock.close()
        listener.close()
        raise
    return MeshFabric(rank, nprocs, mesh, listener, table,
                      coordinator, token, generation, bind_host)


def rendezvous_mesh(
    rank: int,
    nprocs: int,
    coordinator: tuple[str, int],
    *,
    token: int = 0,
    bind_host: str | None = None,
    coordinator_listener: socket.socket | None = None,
    timeout: float = 30.0,
) -> dict[int, socket.socket]:
    """Build this rank's side of the full mesh; returns ``peer -> socket``.

    Compatibility wrapper over :func:`rendezvous_fabric` for callers that
    only want the sockets: the listener is closed, the address table
    dropped, and the mesh cannot heal (generation 0 semantics).
    """
    fabric = rendezvous_fabric(
        rank, nprocs, coordinator, token=token, generation=0,
        bind_host=bind_host, coordinator_listener=coordinator_listener,
        timeout=timeout)
    socks = dict(fabric.socks)
    fabric.socks.clear()         # keep the sockets out of fabric.close()
    if coordinator_listener is not None and rank == 0:
        fabric.listener = None   # caller owns the pre-bound listener
    fabric.close()
    return socks


def parse_hostport(spec: str, default_port: int) -> tuple[str, int]:
    """``"host[:port]"`` -> ``(host, port)``."""
    host, sep, port = spec.rpartition(":")
    if not sep:
        return spec, default_port
    try:
        return host, int(port)
    except ValueError as exc:
        raise BspConfigError(f"bad host:port spec {spec!r}") from exc
