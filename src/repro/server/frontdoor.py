"""The HTTP front end: one event loop, thousands of connections.

A stdlib-only :mod:`selectors` loop over a
:class:`~repro.server.pool.SessionPool` of warm sessions::

    udp-prove serve --port 8642 --pool-size 4

Routes
------

``POST /verify``
    One :class:`~repro.session.VerifyRequest` as a JSON object
    (``{"left", "right", "program"?, "id"?, "timeout_seconds"?,
    "pipeline"?}``); answers the :class:`~repro.session.VerifyResult`
    JSON record.  ``pipeline`` is a per-request tactic override.  The
    body is buffered and capped at :data:`MAX_REQUEST_BYTES`.

``POST /verify/batch``
    JSON lines in, JSON lines out: one record per non-blank input line,
    in input order, although the pool decides lines concurrently.  The
    body streams: each line is submitted as soon as it arrives and each
    record is written as soon as it and its predecessors are decided,
    so a batch has no size cap and a client may wait for line N's
    record before sending line N+1.  ``?pipeline=`` and ``?window=``
    override per batch; the window bounds the lines in flight.

``POST /cluster``
    JSON lines of queries (a JSON string or ``{"query", "id"?}`` per
    line) into the clustering engine (:mod:`repro.service.clustering`);
    one placement record per line, in input order, streamed like
    ``/verify/batch``.  Group numbering is monotonic for the server's
    lifetime, so successive requests extend one partition.

``POST /corpus``
    Replay the built-in corpus (optionally ``?dataset=``) through the
    pool and answer a summary record.

``GET /healthz`` / ``GET /stats``
    Liveness, and the counter snapshot: per-member and rolled-up
    verdict/reason-code tallies, store, caches, admission, the loop.

Bodies may use ``Content-Length`` or chunked ``Transfer-Encoding``.

Error isolation
---------------

Envelope problems (invalid JSON, missing fields, unknown tactics,
malformed framing) answer a structured 400 ``{"error": {"code",
"reason", ...}}``, never a traceback.  Inside a stream, a malformed line
becomes an in-stream error record carrying its line number while its
siblings proceed, and a truncated upload or broken chunk framing
becomes the final in-stream record.  Anything unexpected is a
structured ``internal-error``, counted in ``/stats``.

The loop
--------

* **accepts and parses without blocking** — header reads, body framing
  (via the :mod:`repro.server.framing` state machines), and JSON
  validation all happen on the loop; a stalled client costs one
  socket, not a thread;
* **keeps proving off the accept path** — every parsed request or
  batch line is handed to
  :meth:`~repro.server.pool.SessionPool.submit_json` and its future's
  done-callback wakes the loop to write the answer;
* **answers repeats before dispatch** — with a shared store installed,
  the pool looks an exact repeat up in the store's exact-text verdict
  tier on the loop's own thread and answers it without waking a
  member; every other request goes to the least-recently-used idle
  member;
* **admits in arrival order** — a request that cannot enter the
  :class:`~repro.server.pool.AdmissionGate` parks in a FIFO queue on
  the loop and is admitted strictly in order as slots free.  Streamed
  routes are admitted when their head arrives.  Per-client caps and
  token buckets answer 429 with ``Retry-After``; queue overflow
  answers 503;
* **defends the loop** — connections idle mid-request beyond
  ``idle_timeout`` are dropped (the slow-loris defense), as are
  write-stalled readers (their admission slots come back); reads pause
  while a stream's window is full or its output is backed up, and
  while pipelined bytes past :data:`MAX_HEAD_BYTES` wait behind an
  in-flight request, so TCP backpressure bounds every client; accepts
  beyond ``max_connections`` get a terse 503.
"""

from __future__ import annotations

import json
import queue
import selectors
import socket
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future
from http import HTTPStatus
from typing import Deque, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import __version__
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

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

# The limits below are read at call time, so tests may monkeypatch them.

#: Upper bound on a buffered body (``/verify``, ``/corpus``); streamed
#: ``/verify/batch`` and ``/cluster`` bodies have no cap.
MAX_REQUEST_BYTES = 16 * 1024 * 1024
#: Upper bound on one streamed line; a longer line is clipped (and fails
#: as one structured bad-line record instead of exhausting memory) while
#: line numbering stays aligned with the client's input.
MAX_LINE_BYTES = 4 * 1024 * 1024
#: Upper bound on a request head (request line + headers).
MAX_HEAD_BYTES = 64 * 1024
#: Stop appending streamed records to a connection's output buffer past
#: this size until the client drains it (slow-reader backpressure).
_OUTBUF_SOFT_LIMIT = 1024 * 1024

_PROVING_ROUTES = ("/verify", "/verify/batch", "/corpus", "/cluster")
_STREAMING_ROUTES = ("/verify/batch", "/cluster")
_NDJSON_HEAD = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: application/x-ndjson\r\n"
    b"Connection: close\r\n\r\n"
)

# Connection states.
_READ_HEAD = "read-head"
_READ_BODY = "read-body"
_PARKED = "parked"
_DISPATCHED = "dispatched"
_STREAMING = "streaming"
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
        "stream",
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
        self.stream: Optional[_Stream] = None
        self.admitted_client: Optional[str] = None


class _Stream:
    """An in-flight ``/verify/batch`` or ``/cluster``: lines in, records out.

    The body is decoded as it arrives.  Each completed line becomes a
    future in ``pending`` (a pool dispatch for a batch line, a placement
    on the stream's own thread for a cluster line), and records leave
    strictly in input order as the futures at the head resolve.  Reads
    pause while ``pending`` holds ``window`` futures or split lines wait
    in ``lines``, so an upload of any size costs bounded memory.
    """

    __slots__ = (
        "route",
        "spec",
        "window",
        "splitter",
        "lines",
        "lineno",
        "pending",
        "eof",
        "ended",
        "tail",
        "inbox",
    )

    def __init__(self, route: str, spec: Optional[str], window: int) -> None:
        self.route = route
        self.spec = spec
        self.window = max(1, window)
        self.splitter = LineSplitter()
        #: Split lines not yet submitted (bounded by one read's worth).
        self.lines: Deque[str] = deque()
        #: Input lines consumed so far, blank ones included.
        self.lineno = 0
        self.pending: Deque[Future] = deque()
        #: The client half-closed; the decoder judges the body at EOF.
        self.eof = False
        #: The body is fully decoded, or broke: no more input lines.
        self.ended = False
        #: The final in-stream error record of a truncated or broken body.
        self.tail: Optional[Dict[str, object]] = None
        #: ``/cluster`` only: ``(line, lineno, future)`` items for the
        #: placement thread; ``None`` tells it to stop.
        self.inbox: Optional[queue.SimpleQueue] = None

    def wants_input(self) -> bool:
        """The body goes on and the window has room for another line."""
        return (
            not self.ended and not self.lines and len(self.pending) < self.window
        )


class FrontDoorServer:
    """A session pool of forked members behind a selectors event loop.

    Construct with a :class:`~repro.session.Session` (to preload a
    catalog; it becomes the pool's prototype) or a
    :class:`~repro.session.PipelineConfig`, or pass a ready-made
    ``pool`` (the server then does not close it).  The remaining knobs:

    * ``pool_size``/``pool_max``/``member_timeout`` and
      ``shared_store``/``store_path`` shape the :class:`SessionPool` of
      forked member processes;
    * ``max_inflight`` bounds admitted requests, ``max_queued`` the
      parked ones behind them, and ``per_client_inflight``,
      ``rate_limit`` and ``rate_burst`` cap each client;
      ``retry_after`` is the hint sent with 503s;
    * ``window`` bounds a stream's lines in flight;
    * ``max_connections`` bounds open sockets, ``idle_timeout`` drops
      clients stalled mid-request, and ``drain_timeout`` time-boxes a
      graceful shutdown.

    Either :meth:`serve_forever` on the calling thread (the CLI) or
    :meth:`start`/:meth:`close` a background thread (tests, embedding).
    ``port=0`` binds an ephemeral port; :attr:`url` reports the bound
    address.
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        *,
        pipeline: Optional[PipelineConfig] = None,
        host: str = DEFAULT_HOST,
        port: int = 0,
        window: int = DEFAULT_WINDOW,
        pool: Optional[SessionPool] = None,
        pool_size: Optional[int] = 1,
        pool_max: Optional[int] = None,
        member_timeout: Optional[float] = None,
        shared_store=None,
        store_path: Optional[str] = None,
        max_inflight: Optional[int] = None,
        max_queued: Optional[int] = None,
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
                session=session,
                pipeline=pipeline,
                shared_store=shared_store,
                store_path=store_path,
                member_timeout=member_timeout,
                pool_max=pool_max,
            )
            self._owns_pool = True
        self.window = max(1, int(window))
        self.stats = ServerStats()
        if max_inflight is None:
            max_inflight = max(4, 2 * self.pool.pool_max)
        self.gate = AdmissionGate(
            max_inflight,
            max_queued,
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
        across requests); decisions fan out across the pool, and group
        state persists in the pool's store when it is group-capable.
        Thread-safe: the engine is built under a lock because
        ``/cluster`` streams run on dedicated threads off the loop.
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
        stream = conn.stream
        if conn.state in (_READ_HEAD, _READ_BODY):
            events |= selectors.EVENT_READ
        elif conn.state == _STREAMING:
            # Read only what the window can take: while lines wait for
            # a slot or output is backed up, TCP backpressure holds the
            # client.  Never after the body ended — an EOF read there
            # would drop output not yet sent.
            if stream.wants_input() and len(conn.outbuf) < _OUTBUF_SOFT_LIMIT:
                events |= selectors.EVENT_READ
        elif (
            conn.state in (_PARKED, _DISPATCHED)
            and len(conn.inbuf) <= MAX_HEAD_BYTES
            and not (stream is not None and stream.eof)
        ):
            # Parked or dispatched: stay registered for reads so a client
            # disconnect is noticed promptly — until the client has a full
            # head's worth of pipelined bytes buffered, at which point
            # reads pause (TCP backpressure takes over) until the
            # in-flight request completes and parsing drains the buffer.
            # A closing connection never reads: EOF would drop its answer.
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
        stream = conn.stream
        if stream is not None:
            # The client is gone: skip its undecided lines.
            for future in stream.pending:
                future.cancel()
            if stream.inbox is not None:
                stream.inbox.put(None)
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
        a slot a slow-loris hoards, and so is a stream with every line
        answered that waits for more body.  Other connections are
        usually waiting on *us* — except when they have output the
        client has stopped draining.  ``last_drain`` advances on every
        successful send, so a connection with a non-empty ``outbuf`` and
        no progress for a full ``idle_timeout`` is a write-stalled
        reader; dropping it releases its admission slot (a
        ``/verify/batch`` client that never reads would otherwise hold a
        gate slot forever).
        """
        for conn in list(self._conns.values()):
            stream = conn.stream
            if conn.state in (_READ_HEAD, _READ_BODY) or (
                conn.state == _STREAMING
                and not stream.ended
                and not stream.pending
            ):
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
        stream = conn.stream
        if not data:
            # EOF.  A half-closed client may still be reading, so a
            # truncated upload gets an answer naming the truncation:
            # a 400 for a buffered body, the final in-stream record for
            # a streamed one (judged once the stream runs; a parked one
            # just stops reading).  Between requests this is a close.
            if stream is not None:
                stream.eof = True
                if conn.state == _STREAMING:
                    self._pump_stream(conn)
                else:
                    self._set_events(conn)
                return
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
        conn.inbuf += data
        if conn.state == _STREAMING:
            self._pump_stream(conn)
        elif conn.state in (_READ_HEAD, _READ_BODY):
            self._advance_parse(conn)
        else:
            # Bytes while parked/dispatched (pipelining, or a parked
            # stream's body): buffer them — but never without bound.
            # Past MAX_HEAD_BYTES _set_events drops EVENT_READ, so a
            # client streaming during a slow request costs one head's
            # worth of memory, not the heap.
            self._set_events(conn)

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
            if length > MAX_REQUEST_BYTES and path not in _STREAMING_ROUTES:
                self._answer_error(
                    conn,
                    HTTPStatus.REQUEST_ENTITY_TOO_LARGE,
                    "payload-too-large",
                    f"body of {length} bytes exceeds the "
                    f"{MAX_REQUEST_BYTES}-byte limit",
                    close=True,
                )
                return True
            conn.decoder = LengthDecoder(length)
        if path in _STREAMING_ROUTES:
            try:
                conn.stream = self._new_stream(path, urlsplit(target).query)
            except ValueError as err:
                self._answer_error(
                    conn, HTTPStatus.BAD_REQUEST, "bad-request", str(err),
                    close=True,
                )
                return True
        if headers.get("expect", "").lower() == "100-continue":
            conn.outbuf += b"HTTP/1.1 100 Continue\r\n\r\n"
            self._set_events(conn)
        if conn.stream is not None:
            # Streamed bodies are admitted on their head and read as the
            # window drains; their responses stream, then close.
            conn.keep_alive = False
            self._begin_request(conn)
            return True
        conn.body = bytearray()
        conn.state = _READ_BODY
        return True

    def _new_stream(self, path: str, query_string: str) -> _Stream:
        """The stream state for a ``/verify/batch`` or ``/cluster`` head.

        Raises ``ValueError`` (→ 400) on a bad ``?pipeline=`` or
        ``?window=``, before the request is admitted.
        """
        if path == "/cluster":
            return _Stream(path, None, self.window)
        query = parse_qs(query_string)
        spec = (query.get("pipeline") or [None])[0]
        window = (query.get("window") or [None])[0]
        self.pool.config_for(spec)
        return _Stream(
            path, spec, int(window) if window is not None else self.window
        )

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
        if len(conn.body) > MAX_REQUEST_BYTES:
            self._answer_error(
                conn,
                HTTPStatus.REQUEST_ENTITY_TOO_LARGE,
                "payload-too-large",
                f"body exceeds the {MAX_REQUEST_BYTES}-byte limit",
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
        """Admit (or park, in arrival order) then dispatch.

        Buffered routes arrive here with their body complete, streamed
        routes with just their head.
        """
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
        if conn.stream is not None:
            self._start_stream(conn)
            return
        parts = urlsplit(conn.target)
        body = bytes(conn.body)
        conn.body = bytearray()
        if parts.path == "/verify":
            self._dispatch_verify(conn, body)
        else:
            self._dispatch_corpus(conn, parse_qs(parts.query))

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

    def _start_stream(self, conn: _Connection) -> None:
        stream = conn.stream
        if stream.route == "/cluster":
            self.stats.record_endpoint("cluster")
            stream.inbox = queue.SimpleQueue()
            threading.Thread(
                target=_place_lines,
                args=(self.cluster_engine(), stream.inbox),
                name="udp-frontdoor-cluster",
                daemon=True,
            ).start()
        else:
            self.stats.record_endpoint("verify_batch")
        conn.state = _STREAMING
        conn.outbuf += _NDJSON_HEAD
        self._active[conn.fd] = conn
        self._pump_stream(conn)

    def _dispatch_corpus(self, conn: _Connection, query: Dict[str, list]) -> None:
        self.stats.record_endpoint("corpus")
        spec = (query.get("pipeline") or [None])[0]
        try:
            dataset = self.pool.validate_corpus(
                (query.get("dataset") or [None])[0], spec
            )
        except ValueError as err:
            self._answer_bad_request(conn, str(err))
            return
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
            if conn.state == _STREAMING:
                self._pump_stream(conn)
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

    def _pump_stream(self, conn: _Connection) -> None:
        """Move a stream along: decode input, submit lines, emit records.

        Alternates until nothing progresses: decode buffered body bytes
        into lines when none are waiting, submit lines in input order
        while the window has room, and emit decided records from the
        head (order preserved) under the output soft limit.  Once every
        line is decided the admission slot is freed; once every record
        (and the tail, if the body broke) is out, the stream closes.
        """
        stream = conn.stream
        progressed = True
        while progressed:
            progressed = False
            if not stream.lines and not stream.ended:
                self._decode_body(conn, stream)
            while stream.lines and len(stream.pending) < stream.window:
                stream.lineno += 1
                text = stream.lines.popleft()
                if text.strip():
                    stream.pending.append(self._submit_line(conn, stream, text))
                progressed = True
            while (
                stream.pending
                and stream.pending[0].done()
                and len(conn.outbuf) < _OUTBUF_SOFT_LIMIT
            ):
                self._emit(conn, _future_record(stream.pending.popleft()))
                progressed = True
        if stream.ended and not stream.lines:
            if stream.inbox is not None:
                stream.inbox.put(None)  # every line is queued: stop after them
                stream.inbox = None
            if all(future.done() for future in stream.pending):
                # Every line is decided: proving is over, so free the
                # admission slot now.  Holding it until the output fully
                # drains would let a slow (or stalled) reader pin a gate
                # slot for as long as it cares to not read.
                self._release(conn)
            if not stream.pending:
                if stream.tail is not None:
                    self._emit(conn, stream.tail)
                conn.stream = None
                self._active.pop(conn.fd, None)
                conn.state = _CLOSING
                conn.close_after_write = True
        if conn.outbuf:
            self._on_writable(conn)
        elif conn.close_after_write:
            # Everything already drained, so no write event is coming:
            # close (EOF ends the stream under ``Connection: close``).
            self._drop(conn)
        else:
            self._set_events(conn)

    def _decode_body(self, conn: _Connection, stream: _Stream) -> None:
        """Feed buffered body bytes through the decoder into lines.

        A clean end flushes the final unterminated line; a truncated
        upload or broken chunk framing ends the stream with a tail
        error record, after the lines completed before it.
        """
        decoder = conn.decoder
        data, conn.inbuf = conn.inbuf, b""
        tail = None
        try:
            payload = decoder.feed(data)
        except BadChunkedBody as err:
            payload, tail = err.partial, _broken_body_record(err)
        stream.lines.extend(stream.splitter.feed(payload, MAX_LINE_BYTES))
        if tail is None and decoder.done:
            stream.lines.extend(stream.splitter.finish())
            stream.ended = True
        elif tail is None and stream.eof:
            try:
                decoder.finish()
            except (TruncatedBody, BadChunkedBody) as err:
                tail = _broken_body_record(err)
        if tail is not None:
            stream.tail = tail
            stream.ended = True

    def _submit_line(self, conn: _Connection, stream: _Stream, text: str) -> Future:
        """One non-blank stream line as a future of its record."""
        lineno = stream.lineno
        if stream.route == "/cluster":
            future: Future = Future()
            stream.inbox.put((text, lineno, future))
        else:
            try:
                obj = json.loads(text)
                if not isinstance(obj, dict):
                    raise ValueError("each line must be a JSON object")
                for key in ("left", "right"):
                    if key not in obj:
                        raise ValueError(f"missing required field {key!r}")
                VerifyRequest.from_json(obj)
            except (KeyError, TypeError, ValueError) as err:
                future = Future()
                future.set_result(
                    error_record("bad-request", str(err), line=lineno)
                )
                return future
            future = self.pool.submit_json(obj, stream.spec)
        self._watch(conn, future)
        return future

    def _emit(self, conn: _Connection, record: Mapping[str, object]) -> None:
        """Tally one streamed record in ``/stats`` and queue it for output.

        Client-caused bad lines and server-side failures are both
        in-stream records, but ``/stats`` must blame the right party.  A
        cluster placement whose query failed to compile carries a
        plain-string ``error`` reason — still a successful placement;
        only dict-shaped error records blame a party.
        """
        error = record.get("error")
        if isinstance(error, Mapping):
            if error.get("code") == "internal-error":
                self.stats.record_internal_error()
            else:
                self.stats.record_bad_request()
        else:
            self.stats.record_result_record(record)
        conn.outbuf += json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"

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
            # The gate never queues: over-capacity requests wait in the
            # loop's parked FIFO, so its length is the admission queue.
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
        if not conn.outbuf and conn.close_after_write:
            self._drop(conn)
            return
        self._set_events(conn)


def _future_record(future: Future) -> Dict[str, object]:
    """A decided stream future's record; failures become records too.

    ``CancelledError`` is a ``BaseException``: a pool closed mid-stream
    must still answer with an in-stream record.
    """
    try:
        return future.result()
    except (Exception, CancelledError) as err:  # noqa: BLE001
        return error_record("internal-error", f"{type(err).__name__}: {err}")


def _broken_body_record(err: ValueError) -> Dict[str, object]:
    """The final in-stream record of a truncated or misframed body."""
    if isinstance(err, TruncatedBody):
        return error_record(
            "truncated-body",
            str(err),
            received_bytes=err.received,
            expected_bytes=err.expected,
        )
    return error_record("bad-request", f"malformed chunked body: {err}")


def _place_lines(engine, inbox: "queue.SimpleQueue") -> None:
    """A ``/cluster`` stream's placement thread.

    Off the loop, like ``/corpus``: the engine serializes placements
    behind its own lock and may block on pool members.  Takes
    ``(line, lineno, future)`` items until ``None``, skipping futures
    cancelled because the client went away.
    """
    while True:
        item = inbox.get()
        if item is None:
            return
        text, lineno, future = item
        if not future.set_running_or_notify_cancel():
            continue
        try:
            future.set_result(engine.place_line(text, lineno))
        except Exception as err:  # noqa: BLE001 - in-stream record
            future.set_result(
                error_record("internal-error", f"{type(err).__name__}: {err}")
            )


def _find_head_end(buffer: bytes) -> Tuple[int, int]:
    """Locate the head/body boundary; ``(end, separator_len)`` or ``(-1, 0)``."""
    crlf = buffer.find(b"\r\n\r\n")
    lf = buffer.find(b"\n\n")
    if crlf >= 0 and (lf < 0 or crlf < lf):
        return crlf, 4
    if lf >= 0:
        return lf, 2
    return -1, 0


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "FrontDoorServer",
    "MAX_HEAD_BYTES",
    "MAX_LINE_BYTES",
    "MAX_REQUEST_BYTES",
]
