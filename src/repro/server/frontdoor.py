"""The async front door: one event loop, thousands of connections.

The threaded server (:mod:`repro.server.http`) spends one OS thread per
connection — fine for tens of clients, a hard ceiling for the ROADMAP's
"millions of users re-verifying the same optimizer rules".  This module
replaces that front end with a single-threaded :mod:`selectors` event
loop that

* **accepts and parses without blocking** — header reads, body framing
  (Content-Length and chunked, via the shared
  :mod:`repro.server.framing` state machines), and JSON validation all
  happen on the loop; a stalled client costs one socket, not a thread;
* **keeps proving off the accept path** — every parsed request is
  handed to the :class:`~repro.server.pool.SessionPool` dispatcher
  (:meth:`~repro.server.pool.SessionPool.submit_json`) and its future's
  done-callback wakes the loop to write the answer, so the loop never
  waits on a member;
* **routes by canonical digest** — the pool consistent-hashes each
  request's exact-text digest (:func:`repro.server.pool.request_shard_digest`)
  onto the member ring, so repeated verifications of the same pair land
  on the member whose compile LRU and verdict caches are already hot
  for that digest range;
* **admits in arrival order** — a request that cannot enter the
  :class:`~repro.server.pool.AdmissionGate` immediately parks in a FIFO
  queue on the loop (no thread blocked) and is admitted strictly in
  order when slots free; newcomers cannot barge.  Per-client fairness
  caps and token-bucket rate limits answer 429 with ``Retry-After``;
  queue overflow answers 503;
* **defends the loop** — connections idle mid-request beyond
  ``idle_timeout`` are dropped (the slow-loris defense), as are
  write-stalled readers that stop draining their responses (their
  admission slots come back); pipelined bytes buffered during an
  in-flight request are capped at :data:`MAX_HEAD_BYTES` (reads pause,
  TCP backpressure takes over); and accepts beyond ``max_connections``
  are answered with a terse 503.

Routes, wire schema, and error records are identical to the threaded
server — the differential suite holds the two front ends to the same
verdict-for-verdict contract over the full corpus.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future
from http import HTTPStatus
from typing import Deque, Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro.server import http as _http
from repro.server.framing import (
    BadChunkedBody,
    ChunkedDecoder,
    LengthDecoder,
    LineSplitter,
    TruncatedBody,
    parse_request_head,
)
from repro.server.pool import (
    AdmissionGate,
    SessionPool,
    error_record,
)
from repro.server.stats import ServerStats, jittered_retry_after, service_health
from repro.session import DEFAULT_WINDOW, PipelineConfig, Session, VerifyRequest

#: Upper bound on a request head (request line + headers).
MAX_HEAD_BYTES = 64 * 1024
#: Stop appending decided batch records to a connection's output buffer
#: past this size until the client drains it (slow-reader backpressure).
_OUTBUF_SOFT_LIMIT = 1024 * 1024

_PROVING_ROUTES = ("/verify", "/verify/batch", "/corpus", "/cluster")

# Connection states.
_READ_HEAD = "read-head"
_READ_BODY = "read-body"
_PARKED = "parked"
_DISPATCHED = "dispatched"
_CLOSING = "closing"


class _Connection:
    """One client socket's framing state and in-flight request."""

    __slots__ = (
        "sock",
        "fd",
        "addr",
        "inbuf",
        "outbuf",
        "state",
        "last_activity",
        "method",
        "target",
        "version",
        "headers",
        "decoder",
        "body",
        "client_id",
        "keep_alive",
        "serial",
        "future",
        "batch",
        "cluster",
        "admitted_client",
        "close_after_write",
        "parsing",
        "reg_events",
        "last_drain",
    )

    def __init__(self, sock: socket.socket, addr) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.addr = addr
        self.inbuf = b""
        self.outbuf = bytearray()
        self.state = _READ_HEAD
        self.last_activity = time.monotonic()
        #: Last successful drain of ``outbuf`` into the socket — the
        #: write-stall clock.  Unlike ``last_activity`` it never advances
        #: on *input*, so a client trickling bytes while refusing to read
        #: its responses still gets swept.
        self.last_drain = self.last_activity
        self.serial = 0
        self.close_after_write = False
        self.parsing = False
        self.reg_events = 0
        self._reset_request()

    def _reset_request(self) -> None:
        self.method = ""
        self.target = ""
        self.version = ""
        self.headers: Dict[str, str] = {}
        self.decoder = None
        self.body = bytearray()
        self.client_id = ""
        self.keep_alive = True
        self.future: Optional[Future] = None
        self.batch: Optional[_BatchState] = None
        self.cluster: Optional[_ClusterState] = None
        self.admitted_client: Optional[str] = None


class _BatchState:
    """An in-flight ``/verify/batch``: ordered fan-out over the pool."""

    __slots__ = ("lines", "next_line", "pending", "window", "spec", "headers_sent")

    def __init__(self, lines: List[str], window: int, spec: Optional[str]) -> None:
        self.lines = lines
        self.next_line = 0
        #: (input line number, future) in strict input order.
        self.pending: Deque[Tuple[int, Future]] = deque()
        self.window = max(1, window)
        self.spec = spec
        self.headers_sent = False


class _ClusterState:
    """An in-flight ``/cluster`` stream: records produced off-loop.

    The clustering engine serializes placements behind its own lock, so
    the stream runs on a dedicated thread (like ``/corpus``) and pushes
    each placement record through this deque; the loop drains them into
    the connection's output buffer under the soft limit.  ``lock``
    guards the deque and the ``done`` flag — the only state shared
    between the producer thread and the loop.
    """

    __slots__ = ("lock", "records", "done", "headers_sent")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.records: Deque[Mapping[str, object]] = deque()
        self.done = False
        self.headers_sent = False


class FrontDoorServer:
    """A digest-sharded session pool behind a selectors event loop.

    Constructor knobs mirror :class:`~repro.server.http.VerificationServer`
    (same pool, store, and admission parameters) plus the loop's own:
    ``max_connections`` bounds concurrently open sockets and
    ``idle_timeout`` drops clients stalled mid-request.  ``port=0``
    binds an ephemeral port; :attr:`url` reports the bound address.
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        *,
        pipeline: Optional[PipelineConfig] = None,
        host: str = _http.DEFAULT_HOST,
        port: int = 0,
        window: int = DEFAULT_WINDOW,
        quiet: bool = True,
        pool: Optional[SessionPool] = None,
        pool_size: Optional[int] = 1,
        pool_mode: str = "auto",
        pool_max: Optional[int] = None,
        member_timeout: Optional[float] = None,
        shared_store=None,
        store_path: Optional[str] = None,
        store_backend: str = "auto",
        shard_dispatch: bool = True,
        max_inflight: Optional[int] = None,
        max_queued: Optional[int] = None,
        admission_timeout: float = 0.5,
        retry_after: int = 1,
        per_client_inflight: Optional[int] = None,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[float] = None,
        max_connections: int = 1000,
        idle_timeout: float = 30.0,
        drain_timeout: float = 10.0,
    ) -> None:
        if pool is not None and (session is not None or pipeline is not None):
            raise ValueError(
                "pass either a ready-made pool or session/pipeline, not both"
            )
        if pool is not None:
            self.pool = pool
            self._owns_pool = False
        else:
            self.pool = SessionPool(
                pool_size,
                mode=pool_mode,
                session=session,
                pipeline=pipeline,
                shared_store=shared_store,
                store_path=store_path,
                store_backend=store_backend,
                member_timeout=member_timeout,
                pool_max=pool_max,
                shard_dispatch=shard_dispatch,
            )
            self._owns_pool = True
        self.window = max(1, int(window))
        self.quiet = quiet
        self.stats = ServerStats()
        if max_inflight is None:
            max_inflight = max(4, 2 * self.pool.pool_max)
        self.gate = AdmissionGate(
            max_inflight,
            max_queued,
            wait_timeout=admission_timeout,
            per_client_inflight=per_client_inflight,
            rate_limit=rate_limit,
            rate_burst=rate_burst,
        )
        self.retry_after = max(1, int(retry_after))
        self.max_connections = max(1, int(max_connections))
        self.idle_timeout = max(0.1, float(idle_timeout))
        self.drain_timeout = max(0.0, float(drain_timeout))
        self._draining = False
        self._drain_deadline: Optional[float] = None
        self._cluster_engine = None
        self._cluster_lock = threading.Lock()

        self._sel = selectors.DefaultSelector()
        self._lsock = socket.create_server(
            (host, port), backlog=min(self.max_connections, 512), reuse_port=False
        )
        # Cached: the drain path closes the listener early, and ``url``
        # must keep answering afterwards.
        self._addr = self._lsock.getsockname()
        self._lsock.setblocking(False)
        self._sel.register(self._lsock, selectors.EVENT_READ, "accept")
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._sel.register(self._wake_r, selectors.EVENT_READ, "wake")
        self.gate.add_release_listener(self._wake)

        self._conns: Dict[int, _Connection] = {}
        self._parked: Deque[_Connection] = deque()
        #: Connections with dispatched work to poll on each wake.
        self._active: Dict[int, _Connection] = {}
        self._running = False
        self._thread: Optional[threading.Thread] = None
        self._last_sweep = time.monotonic()

        # Front-door-specific counters (all touched only on the loop).
        self.accepted = 0
        self.refused_connections = 0
        self.idle_closed = 0
        self.peak_connections = 0
        self.parked_peak = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self._addr[0]

    @property
    def port(self) -> int:
        return self._addr[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Run the loop on the calling thread until :meth:`close`."""
        self._running = True
        try:
            self._run_loop()
        finally:
            self._teardown()

    def start(self) -> "FrontDoorServer":
        """Run the loop on a daemon thread; pair with :meth:`close`."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._running = True
        self._thread = threading.Thread(
            target=self._run_loop,
            name=f"udp-prove-frontdoor:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self._running = False
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._teardown()

    def request_shutdown(self) -> None:
        """Begin a graceful drain; idempotent and signal-handler-safe.

        Flips the drain flag and wakes the loop; the loop itself closes
        the listener, finishes (or time-boxes, ``drain_timeout``)
        in-flight requests, then unwinds through :meth:`_teardown` —
        flushing the store and reaping the pool.  No blocking happens
        here, so a SIGTERM handler may call it directly.
        """
        self._draining = True
        self._wake()

    def _begin_drain(self) -> None:
        """First drain pass (on the loop): stop accepting, shed idle conns."""
        if self._drain_deadline is not None:
            return
        self._drain_deadline = time.monotonic() + self.drain_timeout
        try:
            self._sel.unregister(self._lsock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            self._lsock.close()  # new connections get refused, not queued
        except OSError:
            pass
        # Keep-alive connections idle between requests hold no work —
        # shedding them now is what lets "no in-flight work" converge.
        for conn in list(self._conns.values()):
            if conn.state == _READ_HEAD and not conn.inbuf and not conn.outbuf:
                self._drop(conn)

    def _teardown(self) -> None:
        if self._sel is None:
            return
        for conn in list(self._conns.values()):
            self._drop(conn)
        try:
            self._sel.unregister(self._lsock)
        except (KeyError, ValueError):
            pass
        for sock in (self._lsock, self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass
        try:
            self._sel.close()
        except OSError:
            pass
        self._sel = None
        store = self.pool.store
        if store is not None:
            flush = getattr(store, "flush", None)
            if flush is not None:
                try:
                    flush()
                except Exception:  # noqa: BLE001 - teardown must finish
                    pass
        if self._owns_pool:
            self.pool.close()

    def __enter__(self) -> "FrontDoorServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def health(self) -> Dict[str, object]:
        status, problems = service_health(self.pool, draining=self._draining)
        payload: Dict[str, object] = {
            "status": status,
            "uptime_seconds": round(self.stats.uptime_seconds, 3),
            "version": __version__,
            "pool_size": self.pool.size,
            "pool_mode": self.pool.mode,
            "frontdoor": True,
        }
        if problems:
            payload["problems"] = problems
        return payload

    def cluster_engine(self):
        """The server's clustering engine, created on first use.

        One engine per server lifetime (group numbering is monotonic
        across requests); decisions fan out across the pool sharded by
        representative digest, and group state persists in the pool's
        store when it is group-capable.  Thread-safe: the engine is
        built under a lock because ``/cluster`` streams run on
        dedicated threads off the loop.
        """
        with self._cluster_lock:
            if self._cluster_engine is None:
                from repro.service.clustering import ClusterEngine

                self._cluster_engine = ClusterEngine(
                    pool=self.pool, store=self.pool.store
                )
            return self._cluster_engine

    def cluster_snapshot(self) -> Optional[Dict[str, object]]:
        """The ``cluster`` block of ``/stats``; ``None`` before first use."""
        with self._cluster_lock:
            engine = self._cluster_engine
        return engine.snapshot() if engine is not None else None

    def _frontdoor_stats(self) -> Dict[str, object]:
        return {
            "connections": len(self._conns),
            "peak_connections": self.peak_connections,
            "accepted": self.accepted,
            "refused_connections": self.refused_connections,
            "idle_closed": self.idle_closed,
            "parked": len(self._parked),
            "parked_peak": self.parked_peak,
            "max_connections": self.max_connections,
            "idle_timeout": self.idle_timeout,
            "draining": self._draining,
        }

    # -- the loop ----------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # wake pipe full: a wake is already pending

    def _run_loop(self) -> None:
        while self._running:
            if self._draining:
                self._begin_drain()
                if not self._conns:
                    break  # every in-flight request answered and closed
                if time.monotonic() >= self._drain_deadline:
                    break  # time-boxed: teardown drops the stragglers
            try:
                events = self._sel.select(
                    timeout=0.1 if self._draining else 0.5
                )
            except OSError:
                break
            for key, mask in events:
                if key.data == "accept":
                    self._accept()
                elif key.data == "wake":
                    try:
                        while self._wake_r.recv(4096):
                            pass
                    except (BlockingIOError, OSError):
                        pass
                else:
                    conn = key.data
                    try:
                        if mask & selectors.EVENT_READ:
                            self._on_readable(conn)
                        if (
                            self._conns.get(conn.fd) is conn
                            and mask & selectors.EVENT_WRITE
                        ):
                            self._on_writable(conn)
                    except Exception:  # noqa: BLE001 - loop must survive
                        self.stats.record_internal_error()
                        self._drop(conn)
            try:
                self._service_active()
                self._drain_parked()
                now = time.monotonic()
                if now - self._last_sweep >= 1.0:
                    self._sweep_idle(now)
                    self._last_sweep = now
            except Exception:  # noqa: BLE001 - loop must survive
                self.stats.record_internal_error()

    # -- accepting ---------------------------------------------------------

    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self._lsock.accept()
            except (BlockingIOError, OSError):
                return
            if len(self._conns) >= self.max_connections:
                # Overloaded: answer a terse 503 best-effort and close —
                # never let one accept burst wedge the loop.
                self.refused_connections += 1
                try:
                    sock.setblocking(False)
                    sock.send(
                        b"HTTP/1.1 503 Service Unavailable\r\n"
                        b"Content-Length: 0\r\nConnection: close\r\n"
                        b"Retry-After: 1\r\n\r\n"
                    )
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _Connection(sock, addr)
            self._conns[conn.fd] = conn
            self.accepted += 1
            self.peak_connections = max(self.peak_connections, len(self._conns))
            self._sel.register(sock, selectors.EVENT_READ, conn)
            conn.reg_events = selectors.EVENT_READ

    def _set_events(self, conn: _Connection) -> None:
        if self._conns.get(conn.fd) is not conn:
            return
        events = 0
        if conn.state in (_READ_HEAD, _READ_BODY):
            events |= selectors.EVENT_READ
        elif len(conn.inbuf) <= MAX_HEAD_BYTES:
            # Parked or dispatched: stay registered for reads so a client
            # disconnect is noticed promptly — until the client has a full
            # head's worth of pipelined bytes buffered, at which point
            # reads pause (TCP backpressure takes over) until the
            # in-flight request completes and parsing drains the buffer.
            events |= selectors.EVENT_READ
        if conn.outbuf:
            events |= selectors.EVENT_WRITE
        if events == conn.reg_events:
            return
        try:
            if events == 0:
                self._sel.unregister(conn.sock)
            elif conn.reg_events == 0:
                self._sel.register(conn.sock, events, conn)
            else:
                self._sel.modify(conn.sock, events, conn)
            conn.reg_events = events
        except (KeyError, ValueError, OSError):
            pass

    def _drop(self, conn: _Connection) -> None:
        # Identity check, not membership: the OS reuses fd numbers, so a
        # stale double-drop must never evict a newer connection.
        if self._conns.get(conn.fd) is not conn:
            return
        del self._conns[conn.fd]
        conn.serial += 1  # orphan any in-flight future callbacks
        if conn.admitted_client is not None:
            self.gate.leave(conn.admitted_client)
            conn.admitted_client = None
        self._active.pop(conn.fd, None)
        try:
            self._parked.remove(conn)
        except ValueError:
            pass
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    def _sweep_idle(self, now: float) -> None:
        """Drop connections stalled mid-request (the slow-loris defense).

        Reading states are swept on plain inactivity: a keep-alive
        connection idle between requests with nothing buffered is exactly
        a slot a slow-loris hoards.  Parked and dispatched connections
        are usually waiting on *us* — except when they have output the
        client has stopped draining.  ``last_activity`` advances on every
        successful send, so a dispatched/closing connection with a
        non-empty ``outbuf`` and no progress for a full ``idle_timeout``
        is a write-stalled reader; dropping it releases its admission
        slot (a ``/verify/batch`` client that never reads would otherwise
        hold a gate slot forever).
        """
        for conn in list(self._conns.values()):
            if conn.state in (_READ_HEAD, _READ_BODY):
                stalled = now - conn.last_activity >= self.idle_timeout
            elif conn.outbuf:
                stalled = now - conn.last_drain >= self.idle_timeout
            else:
                continue  # waiting on the pool, nothing owed to the client
            if stalled:
                self.idle_closed += 1
                self._drop(conn)

    # -- reading and parsing ----------------------------------------------

    def _on_readable(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop(conn)
            return
        if not data:
            # EOF.  A half-closed client may still be reading, so a
            # truncated upload gets its 400 naming the truncation (the
            # same contract as the threaded server); between requests
            # this is a normal close.
            if conn.state == _READ_BODY and conn.decoder is not None:
                try:
                    conn.decoder.finish()
                except (TruncatedBody, BadChunkedBody) as err:
                    self._answer_error(
                        conn,
                        HTTPStatus.BAD_REQUEST,
                        "bad-request",
                        str(err),
                        close=True,
                    )
                    return
            elif conn.state == _READ_HEAD and conn.inbuf:
                self._answer_error(
                    conn,
                    HTTPStatus.BAD_REQUEST,
                    "bad-request",
                    "connection ended mid request head",
                    close=True,
                )
                return
            self._drop(conn)
            return
        conn.last_activity = time.monotonic()
        if conn.state not in (_READ_HEAD, _READ_BODY):
            # Bytes while parked/dispatched (pipelining): buffer them —
            # but never without bound.  Past MAX_HEAD_BYTES _set_events
            # drops EVENT_READ, so a client streaming during a slow
            # request costs one head's worth of memory, not the heap.
            conn.inbuf += data
            self._set_events(conn)
            return
        conn.inbuf += data
        self._advance_parse(conn)

    def _advance_parse(self, conn: _Connection) -> None:
        # Reentrancy guard: answering a request inline resets the
        # connection for the next one (_answer_json -> _next_request ->
        # _advance_parse).  The while-loop below picks the next buffered
        # request up iteratively, so the nested call must be a no-op —
        # otherwise a single segment of ~200 pipelined requests recurses
        # five frames per request straight into RecursionError.
        if conn.parsing:
            return
        conn.parsing = True
        try:
            self._advance_parse_loop(conn)
        finally:
            conn.parsing = False

    def _advance_parse_loop(self, conn: _Connection) -> None:
        while self._conns.get(conn.fd) is conn:
            if conn.state == _READ_HEAD:
                end, skip = _find_head_end(conn.inbuf)
                if end < 0:
                    if len(conn.inbuf) > MAX_HEAD_BYTES:
                        self._answer_error(
                            conn,
                            HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                            "bad-request",
                            "request head too large",
                            close=True,
                        )
                    return
                head = conn.inbuf[:end]
                conn.inbuf = conn.inbuf[end + skip :]
                if not self._parse_head(conn, head):
                    return
                if conn.state == _READ_HEAD:
                    continue  # answered inline, keep-alive: next request
                if conn.state != _READ_BODY:
                    return  # answered-and-closing or parked/dispatched
            if conn.state == _READ_BODY:
                if not self._parse_body(conn):
                    return  # need more bytes
                if conn.state == _READ_HEAD:
                    continue  # answered inline, keep-alive: next request
            return

    def _parse_head(self, conn: _Connection, head: bytes) -> bool:
        try:
            method, target, version, headers = parse_request_head(head)
        except ValueError as err:
            self._answer_error(
                conn, HTTPStatus.BAD_REQUEST, "bad-request", str(err), close=True
            )
            return False
        conn.method = method
        conn.target = target
        conn.version = version
        conn.headers = headers
        conn.client_id = (headers.get("x-client-id") or "").strip()[:128] or str(
            conn.addr[0] if isinstance(conn.addr, tuple) else conn.addr
        )
        connection_header = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            conn.keep_alive = "keep-alive" in connection_header
        else:
            conn.keep_alive = "close" not in connection_header
        path = urlsplit(target).path

        # Any answer sent while announced body bytes sit unread must
        # close the connection: those bytes would otherwise be parsed as
        # the next request head, desyncing the framing into a spurious
        # 400 the client never asked for.
        encoding = (headers.get("transfer-encoding") or "").strip().lower()
        raw_length = (headers.get("content-length") or "").strip()
        body_announced = bool(encoding) or raw_length not in ("", "0")

        if method == "GET":
            self._handle_get(conn, path, close=body_announced)
            return True
        if method != "POST":
            self._answer_error(
                conn,
                HTTPStatus.METHOD_NOT_ALLOWED,
                "method-not-allowed",
                f"{method} is not supported",
                close=body_announced,
            )
            return True
        if path not in _PROVING_ROUTES:
            self._answer_error(
                conn,
                HTTPStatus.NOT_FOUND,
                "not-found",
                f"no route for {path}",
                close=body_announced,
            )
            return True

        if encoding:
            codings = [c.strip() for c in encoding.split(",") if c.strip()]
            if codings != ["chunked"]:
                self._answer_error(
                    conn,
                    HTTPStatus.BAD_REQUEST,
                    "bad-request",
                    f"unsupported Transfer-Encoding {encoding!r} "
                    "(only 'chunked' is implemented)",
                    close=True,
                )
                return True
            conn.decoder = ChunkedDecoder()
        else:
            raw = headers.get("content-length")
            if raw is None and path == "/corpus":
                raw = "0"  # corpus replay needs no body
            if raw is None:
                self._answer_error(
                    conn,
                    HTTPStatus.BAD_REQUEST,
                    "bad-request",
                    "missing Content-Length (send one, or use chunked "
                    "Transfer-Encoding to stream an unbounded body)",
                )
                return True
            try:
                length = int(raw)
                if length < 0:
                    raise ValueError(raw)
            except ValueError:
                self._answer_error(
                    conn,
                    HTTPStatus.BAD_REQUEST,
                    "bad-request",
                    f"invalid Content-Length {raw!r}",
                    close=True,
                )
                return True
            if length > _http.MAX_REQUEST_BYTES:
                self._answer_error(
                    conn,
                    HTTPStatus.REQUEST_ENTITY_TOO_LARGE,
                    "payload-too-large",
                    f"body of {length} bytes exceeds the "
                    f"{_http.MAX_REQUEST_BYTES}-byte limit",
                    close=True,
                )
                return True
            conn.decoder = LengthDecoder(length)
        if headers.get("expect", "").lower() == "100-continue":
            conn.outbuf += b"HTTP/1.1 100 Continue\r\n\r\n"
            self._set_events(conn)
        conn.body = bytearray()
        conn.state = _READ_BODY
        return True

    def _parse_body(self, conn: _Connection) -> bool:
        """Feed buffered bytes to the body decoder; True to continue."""
        decoder = conn.decoder
        data = conn.inbuf
        conn.inbuf = b""
        try:
            conn.body += decoder.feed(data)
        except BadChunkedBody as err:
            self._answer_error(
                conn,
                HTTPStatus.BAD_REQUEST,
                "bad-request",
                f"malformed chunked body: {err}",
                close=True,
            )
            return True
        if len(conn.body) > _http.MAX_REQUEST_BYTES:
            self._answer_error(
                conn,
                HTTPStatus.REQUEST_ENTITY_TOO_LARGE,
                "payload-too-large",
                f"body exceeds the {_http.MAX_REQUEST_BYTES}-byte limit",
                close=True,
            )
            return True
        if not decoder.done:
            return False
        conn.inbuf = decoder.trailing + conn.inbuf
        self._begin_request(conn)
        return True

    # -- admission and dispatch -------------------------------------------

    def _begin_request(self, conn: _Connection) -> None:
        """Body complete: admit (or park, in arrival order) then dispatch."""
        if self._parked:
            # Strict FIFO: while anyone is parked, newcomers park behind
            # them — the barging bug has no analog here by construction.
            self._park(conn)
            return
        decision = self.gate.poll_enter(conn.client_id)
        if decision:
            conn.admitted_client = conn.client_id
            self._dispatch(conn)
        elif decision.code == "rate-limited":
            self._answer_rate_limited(conn, decision)
        else:
            self._park(conn)

    def _park(self, conn: _Connection) -> None:
        if len(self._parked) >= self.gate.max_queued:
            self.gate.record_rejection(conn.client_id)
            self._answer_saturated(conn)
            return
        conn.state = _PARKED
        self._parked.append(conn)
        self.parked_peak = max(self.parked_peak, len(self._parked))
        self._set_events(conn)

    def _drain_parked(self) -> None:
        while self._parked:
            conn = self._parked[0]
            if self._conns.get(conn.fd) is not conn:
                self._parked.popleft()
                continue
            decision = self.gate.poll_enter(conn.client_id)
            if decision:
                self._parked.popleft()
                conn.admitted_client = conn.client_id
                self._dispatch(conn)
                continue
            if decision.code == "rate-limited":
                self._parked.popleft()
                self._answer_rate_limited(conn, decision)
                continue
            break  # head must wait; everyone behind keeps FIFO order

    def _dispatch(self, conn: _Connection) -> None:
        path = urlsplit(conn.target).path
        query = parse_qs(urlsplit(conn.target).query)
        body = bytes(conn.body)
        conn.body = bytearray()
        if path == "/verify":
            self._dispatch_verify(conn, body)
        elif path == "/verify/batch":
            self._dispatch_batch(conn, query, body)
        elif path == "/cluster":
            self._dispatch_cluster(conn, body)
        else:
            self._dispatch_corpus(conn, query)

    def _dispatch_verify(self, conn: _Connection, body: bytes) -> None:
        self.stats.record_endpoint("verify")
        try:
            obj = json.loads(body)
            if not isinstance(obj, dict):
                raise ValueError("request body must be a JSON object")
        except ValueError as err:
            self._answer_bad_request(conn, f"invalid JSON body: {err}")
            return
        try:
            spec = self.pool.validate_json(obj)
        except (KeyError, TypeError, ValueError) as err:
            self._answer_bad_request(conn, str(err))
            return
        conn.state = _DISPATCHED
        conn.future = self.pool.submit_json(obj, spec)
        self._watch(conn, conn.future)

    def _dispatch_batch(
        self, conn: _Connection, query: Dict[str, list], body: bytes
    ) -> None:
        self.stats.record_endpoint("verify_batch")
        spec = (query.get("pipeline") or [None])[0]
        window = (query.get("window") or [None])[0]
        try:
            window = int(window) if window is not None else self.window
            self.pool.config_for(spec)
        except ValueError as err:
            self._answer_bad_request(conn, str(err))
            return
        splitter = LineSplitter()
        lines = splitter.feed(body, _http.MAX_LINE_BYTES)
        lines += splitter.finish()
        conn.state = _DISPATCHED
        conn.batch = _BatchState(lines, max(1, window), spec)
        conn.keep_alive = False  # batch responses stream then close
        self._active[conn.fd] = conn
        self._pump_batch(conn)

    def _dispatch_cluster(self, conn: _Connection, body: bytes) -> None:
        self.stats.record_endpoint("cluster")
        splitter = LineSplitter()
        lines = splitter.feed(body, _http.MAX_LINE_BYTES)
        lines += splitter.finish()
        engine = self.cluster_engine()
        state = _ClusterState()
        conn.state = _DISPATCHED
        conn.cluster = state
        conn.keep_alive = False  # cluster responses stream then close
        self._active[conn.fd] = conn
        serial = conn.serial

        def run() -> None:
            # A dedicated thread, like /corpus: the engine serializes
            # placements behind its own lock and may block on pool
            # members, neither of which may happen on the loop.
            try:
                for record in engine.place_stream(lines):
                    with state.lock:
                        state.records.append(record)
                    self._wake()
                    if conn.serial != serial:
                        return  # client is gone: stop placing its tail
            except Exception as err:  # noqa: BLE001 - in-stream record
                with state.lock:
                    state.records.append(
                        error_record(
                            "internal-error", f"{type(err).__name__}: {err}"
                        )
                    )
            finally:
                with state.lock:
                    state.done = True
                self._wake()

        threading.Thread(
            target=run, name="udp-frontdoor-cluster", daemon=True
        ).start()
        self._pump_cluster(conn)

    def _dispatch_corpus(self, conn: _Connection, query: Dict[str, list]) -> None:
        self.stats.record_endpoint("corpus")
        dataset = (query.get("dataset") or [None])[0]
        spec = (query.get("pipeline") or [None])[0]
        future: Future = Future()

        def run() -> None:
            # A dedicated thread, not the dispatcher executor: run_corpus
            # itself fans out on that executor and must not occupy one of
            # its own slots (pool_max == 1 would deadlock).
            try:
                future.set_result(self.pool.run_corpus(dataset, spec))
            except BaseException as err:  # noqa: BLE001
                future.set_exception(err)

        conn.state = _DISPATCHED
        conn.future = future
        threading.Thread(target=run, name="udp-frontdoor-corpus", daemon=True).start()
        self._watch(conn, future)

    def _watch(self, conn: _Connection, future: Future) -> None:
        """Wake the loop when ``future`` resolves; serviced by serial."""
        self._active[conn.fd] = conn
        serial = conn.serial

        def done(_fut: Future) -> None:
            if conn.serial == serial:
                self._wake()

        future.add_done_callback(done)

    # -- completion service (runs on the loop) -----------------------------

    def _service_active(self) -> None:
        for conn in list(self._active.values()):
            if self._conns.get(conn.fd) is not conn:
                self._active.pop(conn.fd, None)
                continue
            if conn.batch is not None:
                self._pump_batch(conn)
            elif conn.cluster is not None:
                self._pump_cluster(conn)
            elif conn.future is not None and conn.future.done():
                self._active.pop(conn.fd, None)
                self._finish_single(conn)

    def _finish_single(self, conn: _Connection) -> None:
        future = conn.future
        conn.future = None
        try:
            result = future.result()
        except Exception as err:  # noqa: BLE001 - no traceback bodies
            self.stats.record_internal_error()
            self._release(conn)
            self._answer_json(
                conn,
                HTTPStatus.INTERNAL_SERVER_ERROR,
                error_record("internal-error", f"{type(err).__name__}: {err}"),
            )
            return
        path = urlsplit(conn.target).path
        if path == "/corpus":
            summary, records = result
            for record in records:
                self.stats.record_result_record(record)
            self._release(conn)
            self._answer_json(conn, HTTPStatus.OK, summary)
        else:
            self.stats.record_result_record(result)
            self._release(conn)
            self._answer_json(conn, HTTPStatus.OK, result)

    def _pump_batch(self, conn: _Connection) -> None:
        batch = conn.batch
        if batch is None:
            return
        if not batch.headers_sent:
            batch.headers_sent = True
            conn.outbuf += (
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Connection: close\r\n\r\n"
            )
        # Alternate submit/emit until neither can make progress: submit
        # up to the window in input order, emit decided records from the
        # head (order preserved), refill as the head drains.
        progressed = True
        while progressed:
            progressed = False
            while (
                len(batch.pending) < batch.window
                and batch.next_line < len(batch.lines)
            ):
                lineno = batch.next_line + 1
                text = batch.lines[batch.next_line].strip()
                batch.next_line += 1
                if not text:
                    continue
                future: Future
                try:
                    obj = json.loads(text)
                    if not isinstance(obj, dict):
                        raise ValueError("each line must be a JSON object")
                    for key in ("left", "right"):
                        if key not in obj:
                            raise ValueError(f"missing required field {key!r}")
                    VerifyRequest.from_json(obj)
                    future = self.pool.submit_json(obj, batch.spec)
                    self._watch(conn, future)
                except (KeyError, TypeError, ValueError) as err:
                    future = Future()
                    future.set_result(
                        error_record("bad-request", str(err), line=lineno)
                    )
                batch.pending.append((lineno, future))
            while (
                batch.pending
                and batch.pending[0][1].done()
                and len(conn.outbuf) < _OUTBUF_SOFT_LIMIT
            ):
                _, future = batch.pending.popleft()
                try:
                    record = future.result()
                except Exception as err:  # noqa: BLE001
                    record = error_record(
                        "internal-error", f"{type(err).__name__}: {err}"
                    )
                if "error" in record:
                    if record["error"].get("code") == "internal-error":
                        self.stats.record_internal_error()
                    else:
                        self.stats.record_bad_request()
                else:
                    self.stats.record_result_record(record)
                conn.outbuf += (
                    json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
                )
                progressed = True
        if batch.next_line >= len(batch.lines) and all(
            future.done() for _, future in batch.pending
        ):
            # Every line is decided: proving is over, so free the
            # admission slot now.  Holding it until the output fully
            # drains would let a slow (or stalled) reader pin a gate
            # slot for as long as it cares to not read.
            self._release(conn)
        if not batch.pending and batch.next_line >= len(batch.lines):
            conn.batch = None
            self._active.pop(conn.fd, None)
            conn.close_after_write = True
        if conn.outbuf:
            self._set_events(conn)
            self._on_writable(conn)

    def _pump_cluster(self, conn: _Connection) -> None:
        """Drain produced placement records into the output buffer.

        Mirrors :meth:`_pump_batch`: headers go out first, records are
        appended under the soft limit (a slow reader pauses draining,
        TCP backpressure does the rest), and the admission slot is
        released the moment the stream is fully placed and drained to
        the buffer — the producer thread is done by then.
        """
        state = conn.cluster
        if state is None:
            return
        if not state.headers_sent:
            state.headers_sent = True
            conn.outbuf += (
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Connection: close\r\n\r\n"
            )
        while len(conn.outbuf) < _OUTBUF_SOFT_LIMIT:
            with state.lock:
                record = state.records.popleft() if state.records else None
            if record is None:
                break
            # A placement whose query failed to compile carries a
            # plain-string ``error`` reason — still a successful
            # placement; only dict-shaped error records blame a party.
            error = record.get("error")
            if isinstance(error, Mapping):
                if error.get("code") == "internal-error":
                    self.stats.record_internal_error()
                else:
                    self.stats.record_bad_request()
            else:
                self.stats.record_result_record(record)
            conn.outbuf += (
                json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
            )
        with state.lock:
            finished = state.done and not state.records
        if finished:
            self._release(conn)
            conn.cluster = None
            self._active.pop(conn.fd, None)
            conn.close_after_write = True
        if conn.outbuf:
            self._set_events(conn)
            self._on_writable(conn)
        elif finished:
            # The buffer already drained before the stream ended, so no
            # write event is coming: close (EOF is the end-of-stream
            # marker under ``Connection: close``) here or never.
            self._drop(conn)

    def _release(self, conn: _Connection) -> None:
        if conn.admitted_client is not None:
            self.gate.leave(conn.admitted_client)
            conn.admitted_client = None

    # -- GET routes --------------------------------------------------------

    def _handle_get(self, conn: _Connection, path: str, close: bool = False) -> None:
        if path == "/healthz":
            self.stats.record_endpoint("healthz")
            self._answer_json(conn, HTTPStatus.OK, self.health(), close=close)
        elif path == "/stats":
            self.stats.record_endpoint("stats")
            snapshot = self.stats.snapshot(
                pool=self.pool,
                gate=self.gate,
                cluster=self.cluster_snapshot(),
            )
            # Over-capacity requests wait in the loop's parked FIFO, never
            # in the gate's own waiter queue, so the parked count is the
            # admission queue depth here.
            snapshot["admission"]["queued"] = len(self._parked)
            snapshot["frontdoor"] = self._frontdoor_stats()
            self._answer_json(conn, HTTPStatus.OK, snapshot, close=close)
        elif path in _PROVING_ROUTES:
            self._answer_error(
                conn,
                HTTPStatus.METHOD_NOT_ALLOWED,
                "method-not-allowed",
                f"{path} requires POST",
                close=close,
            )
        else:
            self._answer_error(
                conn,
                HTTPStatus.NOT_FOUND,
                "not-found",
                f"no route for {path}",
                close=close,
            )

    # -- answering ---------------------------------------------------------

    def _answer_json(
        self,
        conn: _Connection,
        status: HTTPStatus,
        payload: Mapping[str, object],
        headers: Tuple[Tuple[str, str], ...] = (),
        close: bool = False,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        # During a drain every answer closes its connection — keep-alive
        # would hold the loop open past the last in-flight request.
        closing = close or not conn.keep_alive or self._draining
        head = [
            f"HTTP/1.1 {int(status)} {status.phrase}",
            f"Server: udp-prove-frontdoor/{__version__}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        for name, value in headers:
            head.append(f"{name}: {value}")
        head.append("Connection: close" if closing else "Connection: keep-alive")
        conn.outbuf += ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        if closing:
            conn.close_after_write = True
            conn.state = _CLOSING
        else:
            self._next_request(conn)
        self._set_events(conn)
        self._on_writable(conn)

    def _next_request(self, conn: _Connection) -> None:
        conn.serial += 1
        conn._reset_request()
        conn.state = _READ_HEAD
        if conn.inbuf:
            self._advance_parse(conn)

    def _answer_error(
        self,
        conn: _Connection,
        status: HTTPStatus,
        code: str,
        reason: str,
        close: bool = False,
    ) -> None:
        if status == HTTPStatus.BAD_REQUEST:
            self.stats.record_bad_request()
        self._answer_json(conn, status, error_record(code, reason), close=close)

    def _answer_bad_request(self, conn: _Connection, reason: str) -> None:
        self._release(conn)
        self.stats.record_bad_request()
        self._answer_json(
            conn,
            HTTPStatus.BAD_REQUEST,
            error_record("bad-request", reason),
        )

    def _answer_saturated(self, conn: _Connection) -> None:
        self.stats.record_saturated()
        gate = self.gate
        retry = round(jittered_retry_after(self.retry_after), 3)
        self._answer_json(
            conn,
            HTTPStatus.SERVICE_UNAVAILABLE,
            error_record(
                "saturated",
                f"server at capacity ({gate.max_inflight} in flight, "
                f"{gate.max_queued} queued); retry after "
                f"{retry}s",
                retry_after_seconds=retry,
            ),
            headers=(("Retry-After", str(max(1, round(retry)))),),
            close=True,
        )

    def _answer_rate_limited(self, conn: _Connection, decision) -> None:
        self.stats.record_rate_limited()
        base = (
            decision.retry_after
            if decision.retry_after is not None
            else self.retry_after
        )
        retry = round(jittered_retry_after(base), 3)
        self._answer_json(
            conn,
            HTTPStatus.TOO_MANY_REQUESTS,
            error_record(
                "rate-limited",
                "this client is over its admission limit; retry after "
                f"{retry}s",
                retry_after_seconds=retry,
            ),
            headers=(("Retry-After", str(max(1, round(retry)))),),
            close=True,
        )

    # -- writing -----------------------------------------------------------

    def _on_writable(self, conn: _Connection) -> None:
        while conn.outbuf:
            try:
                sent = conn.sock.send(bytes(conn.outbuf[:262144]))
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._drop(conn)
                return
            if sent <= 0:
                break
            del conn.outbuf[:sent]
            conn.last_activity = conn.last_drain = time.monotonic()
        if (
            not conn.outbuf
            and conn.close_after_write
            and conn.batch is None
            and conn.cluster is None
        ):
            self._drop(conn)
            return
        self._set_events(conn)


def _find_head_end(buffer: bytes) -> Tuple[int, int]:
    """Locate the head/body boundary; ``(end, separator_len)`` or ``(-1, 0)``."""
    crlf = buffer.find(b"\r\n\r\n")
    lf = buffer.find(b"\n\n")
    if crlf >= 0 and (lf < 0 or crlf < lf):
        return crlf, 4
    if lf >= 0:
        return lf, 2
    return -1, 0


__all__ = ["FrontDoorServer", "MAX_HEAD_BYTES"]
