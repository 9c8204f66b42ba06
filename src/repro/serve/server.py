"""Asyncio JSON-lines server: warm-state reordering as a service.

``repro serve`` wraps :class:`ReproServer`, a single-process daemon that
keeps the :class:`~repro.serve.registry.TopologyRegistry` warm and
answers :mod:`repro.serve.protocol` frames over a unix socket and/or a
TCP port.  Three mechanisms turn repeat traffic into cache lookups:

* **warm fast path** — a reorder request whose result is already
  resident in the shared mapping cache skips the batching window
  entirely and is answered straight off the pipeline lane;
* **request coalescing** — identical in-flight requests (same op and
  payload: fingerprint, pattern, layout, seed, kind, options) share one
  execution and one result;
* **micro-batching** — cold heuristic reorder requests against the same
  (fingerprint, layout, seed, options) arriving within
  ``batch_window`` seconds are drained into one
  :func:`~repro.mapping.reorder.reorder_all` pass, so the free pool
  and distance ladder are set up once for all of them (the batched
  driver's amortisation, now across clients).

Every pipeline-touching op runs on a one-thread executor lane, which
serialises all cache mutation (no locks anywhere) while the event loop
stays responsive for ``health`` and for reading new requests; ``stats``
also rides the lane because its registry snapshot walks the same LRU
dicts the lane mutates.  SIGTERM/SIGINT trigger a graceful drain: listeners close,
in-flight work finishes and is answered, idle connections are torn
down, then the process exits.

Connections are handled strictly request-by-request (responses on one
connection come back in request order); concurrency across connections
is what the coalescer and batcher see.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import signal
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.mapping.reorder import HEURISTICS
from repro.serve.protocol import (
    ERROR_INTERNAL,
    ERROR_OVERSIZED,
    MAX_LINE_BYTES,
    ProtocolError,
    coalesce_key,
    decode_request,
    encode_frame,
    make_error,
    make_response,
)
from repro.serve.registry import DEFAULT_TOPOLOGY_CAP
from repro.serve.service import ReorderService

__all__ = ["ServerConfig", "ReproServer", "DEFAULT_BATCH_WINDOW"]

#: Seconds a cold heuristic reorder request waits for same-topology
#: companions before its batch drains.  Small enough to be invisible
#: next to a cold mapping run, large enough that a burst of concurrent
#: clients lands in one batch.  Warm requests never wait.
DEFAULT_BATCH_WINDOW = 0.005

_READ_CHUNK = 1 << 16


def _unix_socket_alive(path: str) -> bool:
    """True iff something accepts connections on the unix socket ``path``."""
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(0.5)
        probe.connect(path)
    except OSError:
        return False
    else:
        return True
    finally:
        probe.close()


@dataclass
class ServerConfig:
    """Knobs of one daemon instance (CLI flags map 1:1)."""

    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: Optional[int] = None
    topology_cap: int = DEFAULT_TOPOLOGY_CAP
    batch_window: float = DEFAULT_BATCH_WINDOW
    max_line_bytes: int = MAX_LINE_BYTES
    drain_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.socket_path is None and self.port is None:
            raise ValueError("server needs a unix socket path and/or a TCP port")
        if self.batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if self.max_line_bytes < 1024:
            raise ValueError("max_line_bytes must be >= 1024")


class OversizedLineError(Exception):
    """One request line exceeded the configured ceiling (line discarded)."""


class _LineReader:
    """Bounded newline framing over a raw :class:`asyncio.StreamReader`.

    ``readline`` returns one complete line (without the newline), or
    ``None`` at EOF.  A line longer than ``max_bytes`` raises
    :class:`OversizedLineError` *after* discarding through its
    terminating newline, so the connection stays usable — the stdlib
    reader's ``LimitOverrunError`` leaves the buffer unrecoverable,
    which is exactly the daemon-killing behaviour this avoids.
    """

    def __init__(self, reader: asyncio.StreamReader, max_bytes: int) -> None:
        self._reader = reader
        self._max = max_bytes
        self._buf = bytearray()
        self._eof = False

    async def readline(self) -> Optional[bytes]:
        discarding = False
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                line = bytes(self._buf[:nl])
                del self._buf[: nl + 1]
                if discarding or len(line) > self._max:
                    raise OversizedLineError()
                return line
            if discarding:
                del self._buf[:]
            elif len(self._buf) > self._max:
                discarding = True
                del self._buf[:]
            if self._eof:
                if discarding:
                    raise OversizedLineError()
                # Consume the final unterminated line so the next call
                # sees an empty buffer and returns None instead of
                # replaying the same bytes forever.
                line = bytes(self._buf)
                del self._buf[:]
                return line if line else None
            chunk = await self._reader.read(_READ_CHUNK)
            if not chunk:
                self._eof = True
            else:
                self._buf.extend(chunk)


class _Batch:
    """One pending micro-batch of cold heuristic reorder requests."""

    __slots__ = ("payloads", "futures")

    def __init__(self) -> None:
        self.payloads: List[Mapping[str, Any]] = []
        self.futures: List[asyncio.Future] = []


class ReproServer:
    """The daemon: listeners + coalescer + batcher around a ReorderService."""

    def __init__(
        self, config: ServerConfig, service: Optional[ReorderService] = None
    ) -> None:
        self.config = config
        self.service = (
            service
            if service is not None
            else ReorderService(topology_cap=config.topology_cap)
        )
        self.port: Optional[int] = None  # bound TCP port (after start)
        self.coalesced = 0   # requests answered from another's execution
        self.batched = 0     # reorder requests folded into an existing batch
        self._inflight: Dict[str, asyncio.Future] = {}
        self._batches: Dict[str, _Batch] = {}
        self._active = 0     # requests currently being dispatched
        self._servers: List[asyncio.AbstractServer] = []
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._drain_tasks: "set[asyncio.Task]" = set()
        self._stopping: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._lane = None  # one-thread executor: all pipeline work, in order

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind listeners and get ready to accept (does not block)."""
        from concurrent.futures import ThreadPoolExecutor

        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._lane = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-lane"
        )
        if self.config.socket_path is not None:
            path = Path(self.config.socket_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.exists():
                # Only clear a *stale* socket.  If another daemon still
                # answers on it, unlinking here would silently steal its
                # traffic — refuse to start instead.
                if _unix_socket_alive(str(path)):
                    raise RuntimeError(
                        f"another daemon is already listening on {path}; "
                        "stop it or pass a different --socket"
                    )
                path.unlink()
            self._servers.append(
                await asyncio.start_unix_server(self._on_connection, path=str(path))
            )
        if self.config.port is not None:
            server = await asyncio.start_server(
                self._on_connection, host=self.config.host, port=self.config.port
            )
            self.port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        self._install_signal_handlers()

    async def run(self) -> None:
        """Serve until SIGTERM/SIGINT (or :meth:`request_stop`), then drain."""
        if not self._servers:
            await self.start()
        await self._stopping.wait()
        await self._shutdown()

    def request_stop(self) -> None:
        """Thread-safe stop trigger (what the signal handlers call)."""
        if self._loop is None or self._stopping is None:
            return
        self._loop.call_soon_threadsafe(self._stopping.set)

    def _install_signal_handlers(self) -> None:
        # Only possible on the main thread of the main interpreter; the
        # embedded/test harness runs the loop on a worker thread and
        # stops via request_stop() instead.
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self._stopping.set)
            except (NotImplementedError, RuntimeError, ValueError):
                return

    async def _shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, tear down."""
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        deadline = time.monotonic() + self.config.drain_timeout
        while (self._active > 0 or self._batches) and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for task in list(self._drain_tasks):
            if not task.done():
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        asyncio.shield(task), timeout=self.config.drain_timeout
                    )
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._lane is not None:
            self._lane.shutdown(wait=True)
        if self.config.socket_path is not None:
            with contextlib.suppress(OSError):
                Path(self.config.socket_path).unlink()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        lines = _LineReader(reader, self.config.max_line_bytes)
        try:
            while not self._stopping.is_set():
                try:
                    line = await lines.readline()
                except OversizedLineError:
                    writer.write(
                        encode_frame(
                            make_error(
                                None,
                                ERROR_OVERSIZED,
                                f"request line exceeds {self.config.max_line_bytes} bytes",
                            )
                        )
                    )
                    self.service.errors += 1
                    await writer.drain()
                    continue
                if line is None:
                    break
                if not line.strip():
                    continue
                frame = await self._answer(line)
                writer.write(encode_frame(frame))
                await writer.drain()
        except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conn_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()

    async def _answer(self, line: bytes) -> Dict[str, Any]:
        """Decode, dispatch and time one request; never raises."""
        request_id: Any = None
        t0 = time.perf_counter()
        self._active += 1
        try:
            request_id, op, payload = decode_request(line)
            self.service.count_request(op)
            result = await self._dispatch(op, payload)
            return make_response(request_id, op, result, time.perf_counter() - t0)
        except ProtocolError as exc:
            self.service.errors += 1
            if request_id is None:
                request_id = exc.request_id
            return make_error(request_id, exc.code, exc.message)
        except Exception as exc:  # never let a handler bug kill the daemon
            self.service.errors += 1
            return make_error(
                request_id, ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        finally:
            self._active -= 1

    # ------------------------------------------------------------------
    # dispatch: coalescing + batching
    # ------------------------------------------------------------------
    async def _dispatch(self, op: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
        if op == "health":
            return self.service.health(self._server_extra())
        if op == "stats":
            # The registry snapshot walks the same nested LRU dicts the
            # pipeline lane mutates (move_to_end/popitem), so it must run
            # on that lane — iterating them from the event loop thread
            # can raise "mutated during iteration" under live traffic.
            extra = self._server_extra()
            return await self._loop.run_in_executor(
                self._lane, functools.partial(self.service.stats, extra)
            )
        key = coalesce_key(op, dict(payload))
        shared = self._inflight.get(key)
        if shared is not None:
            self.coalesced += 1
            return await asyncio.shield(shared)
        if op == "reorder":
            # Warm fast path: a memory-tier hit is answered inline on
            # the event loop — no batch window, no executor hop.  A
            # request that probes cold (including anything malformed)
            # falls through to the full pipeline-lane path below.
            warm = self.service.reorder_warm(payload)
            if warm is not None:
                return warm
        fut: asyncio.Future = self._loop.create_future()
        self._inflight[key] = fut
        try:
            # Cold heuristic reorders micro-batch; anything else — cache
            # races, non-heuristic mappers, price, register — runs solo
            # on the lane.  An unknown pattern goes solo too, so its
            # error never poisons a batch of valid companions.
            if (
                op == "reorder"
                and payload.get("kind", "heuristic") == "heuristic"
                and payload.get("pattern") in HEURISTICS
            ):
                self._enqueue_batch(payload, fut)
            else:
                handler = {
                    "register_topology": self.service.register_topology,
                    "reorder": self.service.reorder,
                    "price": self.service.price,
                }[op]
                self._resolve_on_lane(fut, functools.partial(handler, payload))
            return await asyncio.shield(fut)
        finally:
            self._inflight.pop(key, None)

    def _resolve_on_lane(self, fut: asyncio.Future, fn) -> None:
        """Run ``fn`` on the pipeline lane; deliver its outcome into ``fut``."""

        async def runner() -> None:
            try:
                result = await self._loop.run_in_executor(self._lane, fn)
            except Exception as exc:
                if not fut.done():
                    fut.set_exception(exc)
            else:
                if not fut.done():
                    fut.set_result(result)

        task = self._loop.create_task(runner())
        self._drain_tasks.add(task)
        task.add_done_callback(self._drain_tasks.discard)

    def _enqueue_batch(self, payload: Mapping[str, Any], fut: asyncio.Future) -> None:
        """Park a cold heuristic reorder in its (topology, layout, seed,
        options) micro-batch, opening the batch if it is the first."""
        bkey = coalesce_key(
            "reorder-batch", {k: v for k, v in payload.items() if k != "pattern"}
        )
        batch = self._batches.get(bkey)
        if batch is None:
            batch = _Batch()
            self._batches[bkey] = batch
            task = self._loop.create_task(self._drain_batch(bkey))
            self._drain_tasks.add(task)
            task.add_done_callback(self._drain_tasks.discard)
        else:
            self.batched += 1
        batch.payloads.append(payload)
        batch.futures.append(fut)

    async def _drain_batch(self, bkey: str) -> None:
        await asyncio.sleep(self.config.batch_window)
        batch = self._batches.pop(bkey, None)
        if batch is None:  # pragma: no cover - defensive
            return
        try:
            results = await self._loop.run_in_executor(
                self._lane,
                functools.partial(self.service.reorder_batch, batch.payloads),
            )
        except Exception as exc:
            for fut in batch.futures:
                if not fut.done():
                    fut.set_exception(exc)
            # Exceptions are delivered to every waiter; mark them
            # retrieved here too so an unobserved duplicate never warns.
            for fut in batch.futures:
                if fut.done() and not fut.cancelled():
                    fut.exception()
        else:
            for fut, result in zip(batch.futures, results):
                if not fut.done():
                    fut.set_result(result)

    def _server_extra(self) -> Dict[str, Any]:
        listening = []
        if self.config.socket_path is not None:
            listening.append(f"unix:{self.config.socket_path}")
        if self.port is not None:
            listening.append(f"tcp:{self.config.host}:{self.port}")
        return {
            "coalesced": self.coalesced,
            "batched": self.batched,
            "inflight": self._active,
            "batch_window": self.config.batch_window,
            "listening": listening,
        }
