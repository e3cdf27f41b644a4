"""Pluggable coordinator<->worker transports.

A transport moves opaque byte frames between the coordinator and N
workers; everything above it (tasks, summaries, retries) is encoded by
:mod:`repro.distributed.codec`, so the three implementations differ
only in where the worker runs:

* :class:`InProcessTransport` -- the worker runtime runs inline in the
  coordinator process.  Zero infrastructure, fully deterministic, and
  it still exercises the complete encode -> ship -> decode path, so
  it is the reference transport for tests.
* :class:`MultiprocessingTransport` -- one OS process per worker,
  framed over :mod:`multiprocessing` pipes.  The single-host
  production shape: builds scale with cores.
* :class:`TCPTransport` -- workers connect to the coordinator over
  TCP sockets (here: local worker processes dialing 127.0.0.1, but
  the framing and handshake are host-agnostic, so the same wire works
  across machines).
* :class:`SharedMemoryTransport` -- same-host worker processes, but
  large request frames land in :mod:`multiprocessing.shared_memory`
  segments and only a tiny ``(name, length)`` descriptor crosses the
  pipe: shard shipping is one mapped write instead of a pipe copy.

Every transport tallies its ``stats`` counter set (frames/bytes in
each direction, shared-memory bytes moved out-of-band; registry names
``wire.<field>{transport=...}``), which is how the benchmarks account
``bytes_on_wire`` per mode.

Failure model: a worker that dies (process exit, closed pipe, reset
socket) is reported dead by :meth:`BaseTransport.alive`; frames it
never answered are the coordinator's to re-dispatch.  Transports never
retry on their own.

Thread ownership: transports are *not* thread-safe.  Under the async
coordinator every :meth:`BaseTransport.send` / ``poll`` / ``alive``
call is made by the single :class:`~repro.distributed.dispatch.\
AsyncDispatcher` selector thread; callers never touch the transport
directly, they enqueue through ``submit()``.  Teardown order follows
ownership: stop the dispatcher first (it drains and parks its thread),
then ``transport.stop()``.  The dispatcher's bounded per-worker queues
also cap how many unanswered frames sit in a pipe at once, which keeps
the multiprocessing transport clear of the classic
both-directions-full pipe deadlock.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import select
import socket
import struct
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs as _obs

_LEN = struct.Struct("<I")
_U8 = struct.Struct("<B")

#: Hard cap on a single frame (guards against a corrupt length header).
MAX_FRAME_BYTES = 1 << 31


class TransportError(RuntimeError):
    """The transport cannot deliver frames (dead worker, closed pipe)."""


#: Per-transport wire counters.  ``bytes_sent``/``bytes_received``
#: count what actually crossed the serialized channel (pipe, socket, or
#: inline call); frames routed through shared memory count their
#: descriptor there and their payload under ``shm_bytes`` -- the whole
#: point of that transport is that the payload never crosses the pipe.
#: All writes come from the single dispatcher selector thread (the
#: ownership contract above).
_WIRE_FIELDS = (
    "frames_sent", "bytes_sent", "frames_received", "bytes_received",
    "shm_frames", "shm_bytes",
)


class BaseTransport:
    """Common surface: start N workers, send/poll frames, track deaths."""

    name = "?"
    #: Whether frames reach workers without a serialized copy (shared
    #: memory).  The coordinator skips array compression on such
    #: transports: raw frames decode as zero-copy views, which beats
    #: decompressing.
    zero_copy = False

    def __init__(self):
        self.stats = _obs.CounterSet(
            "wire", {"transport": self.name}, _WIRE_FIELDS
        )
        _obs.get_registry().attach(self.stats)

    def start(self, num_workers: int) -> None:
        """Spawn/attach ``num_workers`` workers (ids ``0..n-1``)."""
        raise NotImplementedError

    def send(
        self, worker_id: int, frame: bytes, *, reply_expected: bool = True
    ) -> None:
        """Ship one frame to a worker; raises :class:`TransportError`
        if the worker is already dead.  ``reply_expected`` is a routing
        hint (shared-memory segment reclamation); most transports
        ignore it."""
        raise NotImplementedError

    def poll(self, timeout: Optional[float]) -> List[Tuple[int, bytes]]:
        """Collect ``(worker_id, frame)`` replies ready within
        ``timeout`` seconds (0 = non-blocking).  Workers discovered
        dead during the poll are recorded, not raised."""
        raise NotImplementedError

    def alive(self, worker_id: int) -> bool:
        """Whether the worker is still reachable."""
        raise NotImplementedError

    @property
    def num_workers(self) -> int:
        raise NotImplementedError

    def stop(self) -> None:
        """Tear everything down (idempotent)."""
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
        return False


# ----------------------------------------------------------------------
# In-process
# ----------------------------------------------------------------------

class InProcessTransport(BaseTransport):
    """Workers run inline; frames make a full encode/decode round trip.

    ``handler_factory`` builds one frame handler per worker --
    ``handler(frame) -> reply_frame | None`` -- and defaults to a fresh
    :class:`repro.distributed.worker.WorkerRuntime` each.  Tests inject
    failing handlers here to exercise the coordinator's retry path
    without real processes.
    """

    name = "inprocess"

    def __init__(
        self,
        handler_factory: Optional[Callable[[int], Callable]] = None,
    ):
        super().__init__()
        self._handler_factory = handler_factory
        self._handlers: Dict[int, Callable] = {}
        self._inbox: deque = deque()
        self._dead: set = set()
        self._n = 0

    def _default_factory(self, worker_id: int) -> Callable:
        from repro.distributed.worker import WorkerRuntime

        runtime = WorkerRuntime()

        def handle(frame: bytes) -> Optional[bytes]:
            reply, stop = runtime.handle_frame(frame)
            if stop:
                raise TransportError("worker exited")
            return reply

        return handle

    def start(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker")
        factory = self._handler_factory or self._default_factory
        self._handlers = {k: factory(k) for k in range(num_workers)}
        self._n = num_workers

    def send(
        self, worker_id: int, frame: bytes, *, reply_expected: bool = True
    ) -> None:
        if worker_id in self._dead:
            raise TransportError(f"worker {worker_id} is dead")
        self.stats.inc("frames_sent")
        self.stats.inc("bytes_sent", len(frame))
        try:
            reply = self._handlers[worker_id](frame)
        except TransportError:
            self._dead.add(worker_id)
            return
        except Exception:
            # A handler that escapes the worker runtime's own error
            # wrapping is the in-process analogue of a crashed process.
            self._dead.add(worker_id)
            return
        if reply is not None:
            self.stats.inc("frames_received")
            self.stats.inc("bytes_received", len(reply))
            self._inbox.append((worker_id, reply))

    def poll(self, timeout: Optional[float]) -> List[Tuple[int, bytes]]:
        ready = list(self._inbox)
        self._inbox.clear()
        return ready

    def alive(self, worker_id: int) -> bool:
        return worker_id < self._n and worker_id not in self._dead

    @property
    def num_workers(self) -> int:
        return self._n

    def stop(self) -> None:
        self._handlers = {}
        self._inbox.clear()


# ----------------------------------------------------------------------
# Multiprocessing pipes
# ----------------------------------------------------------------------

def _pipe_worker_main(conn) -> None:
    """Worker process entry: frames in, frames out, exit on EOF."""
    from repro.distributed.worker import WorkerRuntime

    runtime = WorkerRuntime()
    while True:
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            break
        reply, stop = runtime.handle_frame(frame)
        if reply is not None:
            try:
                conn.send_bytes(reply)
            except (BrokenPipeError, OSError):
                break
        if stop:
            break
    conn.close()


class MultiprocessingTransport(BaseTransport):
    """One process per worker, length-framed over multiprocessing pipes."""

    name = "multiprocessing"
    #: Worker process entry point (subclass hook: the shared-memory
    #: transport swaps in a descriptor-aware loop).
    _worker_target = staticmethod(_pipe_worker_main)

    def __init__(self):
        super().__init__()
        self._conns: Dict[int, multiprocessing.connection.Connection] = {}
        self._procs: Dict[int, multiprocessing.Process] = {}
        self._dead: set = set()
        self._n = 0

    def start(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker")
        ctx = multiprocessing.get_context()
        for worker_id in range(num_workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=type(self)._worker_target, args=(child,), daemon=True
            )
            proc.start()
            child.close()
            self._conns[worker_id] = parent
            self._procs[worker_id] = proc
        self._n = num_workers

    def send(
        self, worker_id: int, frame: bytes, *, reply_expected: bool = True
    ) -> None:
        if not self.alive(worker_id):
            raise TransportError(f"worker {worker_id} is dead")
        try:
            self._conns[worker_id].send_bytes(frame)
        except (BrokenPipeError, OSError) as exc:
            self._dead.add(worker_id)
            raise TransportError(
                f"worker {worker_id} pipe broken: {exc}"
            ) from exc
        self.stats.inc("frames_sent")
        self.stats.inc("bytes_sent", len(frame))

    def poll(self, timeout: Optional[float]) -> List[Tuple[int, bytes]]:
        conns = {
            conn: worker_id
            for worker_id, conn in self._conns.items()
            if worker_id not in self._dead
        }
        if not conns:
            return []
        ready = multiprocessing.connection.wait(
            list(conns), timeout=timeout
        )
        frames: List[Tuple[int, bytes]] = []
        for conn in ready:
            worker_id = conns[conn]
            try:
                frames.append((worker_id, conn.recv_bytes()))
            except (EOFError, OSError):
                self._dead.add(worker_id)
        for _worker_id, frame in frames:
            self.stats.inc("frames_received")
            self.stats.inc("bytes_received", len(frame))
        return frames

    def alive(self, worker_id: int) -> bool:
        if worker_id in self._dead:
            return False
        proc = self._procs.get(worker_id)
        if proc is None:
            return False
        if not proc.is_alive():
            # Exited processes may still have undrained pipe data; only
            # declare death once the pipe has nothing more to give.
            conn = self._conns[worker_id]
            if not conn.poll(0):
                self._dead.add(worker_id)
                return False
        return True

    @property
    def num_workers(self) -> int:
        return self._n

    def stop(self) -> None:
        # Ask each worker to exit before hanging up: a forked worker
        # holds inherited copies of the parent pipe ends, so closing
        # ours alone never reaches it as EOF.  A full pipe (a stuck
        # worker) is skipped rather than blocked on; the join below
        # times out and terminates it.  Teardown traffic stays out of
        # the wire stats.
        from repro.distributed import codec

        shutdown = codec.encode_message({"type": "shutdown"})
        for conn in self._conns.values():
            try:
                if select.select([], [conn], [], 0)[1]:
                    conn.send_bytes(shutdown)
            except (OSError, ValueError):
                pass  # worker already gone
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs.values():
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        self._conns = {}
        self._procs = {}


# ----------------------------------------------------------------------
# Shared memory (same-host, zero-copy request payloads)
# ----------------------------------------------------------------------

#: Magic prefix of a shared-memory frame descriptor.  Inline frames
#: start with the codec magics (``RSUM``/``RMSG``), so the two are
#: unambiguous on the same pipe.
SHM_DESC_MAGIC = b"SHMD"


def _attach_segment(name: str):
    """Attach to an existing segment without resource-tracker tracking.

    ``SharedMemory(name=...)`` unconditionally registers the mapping
    with the process's resource tracker (CPython bpo-38119; the
    ``track=`` opt-out only exists from 3.13).  Segments here are
    strictly coordinator-owned, and whether a worker's tracker is its
    own or shared with the coordinator depends on start-method and
    timing -- either way a worker-side registration ends in spurious
    unlinks or double-unregister noise at exit.  Masking ``register``
    for the duration of the attach keeps every tracker out of it.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def pack_shm_descriptor(name: str, length: int) -> bytes:
    """A ``(segment name, frame length)`` descriptor frame."""
    raw = name.encode("ascii")
    return SHM_DESC_MAGIC + _U8.pack(len(raw)) + raw + _LEN.pack(length)


def unpack_shm_descriptor(frame: bytes) -> Optional[Tuple[str, int]]:
    """Parse a descriptor frame; ``None`` if ``frame`` is inline data."""
    if frame[:4] != SHM_DESC_MAGIC:
        return None
    (name_len,) = _U8.unpack_from(frame, 4)
    name = frame[5:5 + name_len].decode("ascii")
    (length,) = _LEN.unpack_from(frame, 5 + name_len)
    return name, length


def _shm_worker_main(conn) -> None:
    """Worker process entry: pipe frames plus shared-memory descriptors.

    Attached segments are cached by name (the coordinator reuses
    segments across requests).  The coordinator owns every segment and
    unlinks them at :meth:`SharedMemoryTransport.stop`; the worker
    attaches *untracked* (:func:`_attach_segment`) so no resource
    tracker -- the worker's own or one shared with the coordinator --
    ever unlinks or double-accounts an owned segment behind the
    owner's back.
    """
    from repro.distributed.worker import WorkerRuntime

    runtime = WorkerRuntime()
    attached: Dict[str, object] = {}
    try:
        while True:
            try:
                frame = conn.recv_bytes()
            except (EOFError, OSError):
                break
            descriptor = unpack_shm_descriptor(frame)
            if descriptor is not None:
                name, length = descriptor
                segment = attached.get(name)
                if segment is None:
                    segment = _attach_segment(name)
                    attached[name] = segment
                payload = segment.buf[:length]
                try:
                    # The runtime decodes zero-copy views into the
                    # segment; nothing may retain them past the reply
                    # (the coordinator reuses the segment as soon as
                    # the reply lands), which holds because build
                    # replies carry a freshly encoded summary frame.
                    reply, stop = runtime.handle_frame(payload)
                finally:
                    payload.release()
            else:
                reply, stop = runtime.handle_frame(frame)
            if reply is not None:
                try:
                    conn.send_bytes(reply)
                except (BrokenPipeError, OSError):
                    break
            if stop:
                break
    finally:
        for segment in attached.values():
            try:
                segment.close()
            except (BufferError, OSError):
                pass
        conn.close()


class _Segment:
    """One coordinator-owned shared-memory segment."""

    __slots__ = ("shm", "capacity", "in_use")

    def __init__(self, shm, capacity: int):
        self.shm = shm
        self.capacity = capacity
        self.in_use = False


class SharedMemoryTransport(MultiprocessingTransport):
    """Same-host workers; big request frames travel via shared memory.

    Extends the pipe transport: frames below ``min_shm_bytes`` (and
    all fire-and-forget frames) go inline, larger reply-expecting
    frames are written into a pooled shared-memory segment and only a
    :func:`pack_shm_descriptor` crosses the pipe.  Segment lifecycle
    is strictly coordinator-owned:

    * one pool per worker, power-of-two capacities, reused across
      requests (workers cache their mappings by name);
    * a worker handles frames sequentially, so its oldest outstanding
      reply-expecting request is the one a reply answers -- the FIFO
      ``_awaiting`` queue reclaims that request's segment when the
      reply lands;
    * a dead worker's segments simply stay unreclaimed until
      :meth:`stop`, which closes and unlinks everything -- worker
      death reports exactly as on the plain pipe transport.
    """

    name = "shared-memory"
    zero_copy = True
    _worker_target = staticmethod(_shm_worker_main)

    #: Grow-only pool floor: segments are at least 1 MiB so repeated
    #: mid-size frames never allocate.
    _MIN_SEGMENT_BYTES = 1 << 20

    def __init__(self, *, min_shm_bytes: int = 1 << 16):
        super().__init__()
        self._min_shm_bytes = int(min_shm_bytes)
        self._segments: Dict[int, List[_Segment]] = {}
        self._awaiting: Dict[int, deque] = {}

    def _take_segment(self, worker_id: int, nbytes: int) -> _Segment:
        from multiprocessing import shared_memory

        pool = self._segments.setdefault(worker_id, [])
        for segment in pool:
            if not segment.in_use and segment.capacity >= nbytes:
                segment.in_use = True
                return segment
        capacity = max(
            self._MIN_SEGMENT_BYTES, 1 << max(0, nbytes - 1).bit_length()
        )
        shm = shared_memory.SharedMemory(create=True, size=capacity)
        segment = _Segment(shm, capacity)
        segment.in_use = True
        pool.append(segment)
        return segment

    def send(
        self, worker_id: int, frame: bytes, *, reply_expected: bool = True
    ) -> None:
        if not self.alive(worker_id):
            raise TransportError(f"worker {worker_id} is dead")
        queue = self._awaiting.setdefault(worker_id, deque())
        if not reply_expected or len(frame) < self._min_shm_bytes:
            super().send(worker_id, frame, reply_expected=reply_expected)
            if reply_expected:
                queue.append(None)
            return
        segment = self._take_segment(worker_id, len(frame))
        segment.shm.buf[:len(frame)] = frame
        descriptor = pack_shm_descriptor(segment.shm.name, len(frame))
        try:
            self._conns[worker_id].send_bytes(descriptor)
        except (BrokenPipeError, OSError) as exc:
            segment.in_use = False
            self._dead.add(worker_id)
            raise TransportError(
                f"worker {worker_id} pipe broken: {exc}"
            ) from exc
        queue.append(segment)
        self.stats.inc("frames_sent")
        self.stats.inc("bytes_sent", len(descriptor))
        self.stats.inc("shm_frames")
        self.stats.inc("shm_bytes", len(frame))

    def poll(self, timeout: Optional[float]) -> List[Tuple[int, bytes]]:
        replies = super().poll(timeout)
        for worker_id, _frame in replies:
            queue = self._awaiting.get(worker_id)
            if queue:
                segment = queue.popleft()
                if segment is not None:
                    segment.in_use = False
        return replies

    def stop(self) -> None:
        # Tear the fleet down first: workers drop their mappings on
        # EOF, then the owner unlinks every segment exactly once.
        super().stop()
        for pool in self._segments.values():
            for segment in pool:
                try:
                    segment.shm.close()
                except (BufferError, OSError):
                    pass
                try:
                    segment.shm.unlink()
                except (FileNotFoundError, OSError):
                    pass
        self._segments = {}
        self._awaiting = {}


# ----------------------------------------------------------------------
# TCP sockets
# ----------------------------------------------------------------------

def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise EOFError("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> bytes:
    """Read one length-prefixed frame from a socket."""
    (length,) = _LEN.unpack(_read_exact(sock, _LEN.size))
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"frame of {length} bytes exceeds the cap")
    return _read_exact(sock, length)


def write_frame(sock: socket.socket, frame: bytes) -> None:
    """Write one length-prefixed frame to a socket."""
    sock.sendall(_LEN.pack(len(frame)) + frame)


def _tcp_worker_main(host: str, port: int) -> None:
    """Worker process entry: dial the coordinator and serve frames."""
    from repro.distributed.worker import WorkerRuntime

    sock = socket.create_connection((host, port))
    runtime = WorkerRuntime()
    try:
        while True:
            try:
                frame = read_frame(sock)
            except (EOFError, OSError):
                break
            reply, stop = runtime.handle_frame(frame)
            if reply is not None:
                try:
                    write_frame(sock, reply)
                except OSError:
                    break
            if stop:
                break
    finally:
        sock.close()


class TCPTransport(BaseTransport):
    """Workers dial the coordinator over TCP (multi-host-shaped).

    The coordinator listens on ``host:port`` (an ephemeral local port
    by default) and, when ``spawn_local`` is true, launches one local
    worker process per slot that connects back in.  With
    ``spawn_local=False`` it only listens: point real remote workers
    (:func:`serve_worker`) at the advertised address.
    """

    name = "tcp"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        spawn_local: bool = True,
        accept_timeout: float = 30.0,
    ):
        super().__init__()
        self._host = host
        self._port = port
        self._spawn_local = spawn_local
        self._accept_timeout = accept_timeout
        self._listener: Optional[socket.socket] = None
        self._socks: Dict[int, socket.socket] = {}
        self._procs: Dict[int, multiprocessing.Process] = {}
        self._dead: set = set()
        self._n = 0

    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) workers should dial."""
        if self._listener is None:
            raise TransportError("transport not started")
        return self._listener.getsockname()[:2]

    def start(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self._host, self._port))
        self._listener.listen(num_workers)
        self._listener.settimeout(self._accept_timeout)
        host, port = self.address
        if self._spawn_local:
            ctx = multiprocessing.get_context()
            for worker_id in range(num_workers):
                proc = ctx.Process(
                    target=_tcp_worker_main, args=(host, port), daemon=True
                )
                proc.start()
                self._procs[worker_id] = proc
        for worker_id in range(num_workers):
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                self.stop()
                raise TransportError(
                    f"worker {worker_id} never connected"
                ) from None
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._socks[worker_id] = sock
        self._n = num_workers

    def send(
        self, worker_id: int, frame: bytes, *, reply_expected: bool = True
    ) -> None:
        if not self.alive(worker_id):
            raise TransportError(f"worker {worker_id} is dead")
        try:
            write_frame(self._socks[worker_id], frame)
        except OSError as exc:
            self._dead.add(worker_id)
            raise TransportError(
                f"worker {worker_id} socket broken: {exc}"
            ) from exc
        self.stats.inc("frames_sent")
        self.stats.inc("bytes_sent", len(frame) + _LEN.size)

    def poll(self, timeout: Optional[float]) -> List[Tuple[int, bytes]]:
        socks = {
            sock: worker_id
            for worker_id, sock in self._socks.items()
            if worker_id not in self._dead
        }
        if not socks:
            return []
        ready, _, _ = select.select(list(socks), [], [], timeout)
        frames: List[Tuple[int, bytes]] = []
        for sock in ready:
            worker_id = socks[sock]
            try:
                frames.append((worker_id, read_frame(sock)))
            except (EOFError, OSError, TransportError):
                self._dead.add(worker_id)
        for _worker_id, frame in frames:
            self.stats.inc("frames_received")
            self.stats.inc("bytes_received", len(frame) + _LEN.size)
        return frames

    def alive(self, worker_id: int) -> bool:
        return (
            worker_id in self._socks and worker_id not in self._dead
        )

    @property
    def num_workers(self) -> int:
        return self._n

    def stop(self) -> None:
        for sock in self._socks.values():
            try:
                sock.close()
            except OSError:
                pass
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        for proc in self._procs.values():
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        self._socks = {}
        self._procs = {}


def serve_worker(host: str, port: int) -> None:
    """Run one worker against a remote coordinator (blocking).

    The multi-host entry point: start the coordinator with
    ``TCPTransport(host, port, spawn_local=False)`` and run this on
    each worker machine.
    """
    _tcp_worker_main(host, port)


#: Transport name -> factory, the coordinator's lookup table.
TRANSPORTS: Dict[str, Callable[[], BaseTransport]] = {
    "inprocess": InProcessTransport,
    "multiprocessing": MultiprocessingTransport,
    "mp": MultiprocessingTransport,
    "shared-memory": SharedMemoryTransport,
    "shm": SharedMemoryTransport,
    "tcp": TCPTransport,
}


def make_transport(spec) -> BaseTransport:
    """Resolve a transport spec (name or instance) to an instance."""
    if isinstance(spec, BaseTransport):
        return spec
    try:
        return TRANSPORTS[spec]()
    except KeyError:
        raise KeyError(
            f"unknown transport {spec!r}; have {sorted(set(TRANSPORTS))}"
        ) from None
