"""Clients for the quantization server: one asyncio transport, one
blocking front over it.

:class:`AsyncQuantClient` is the transport. It speaks the versioned
frame protocol over one TCP connection, round-trips numpy arrays as
raw float64 payloads (or packed containers), and **pipelines**: a
reader task resolves one future per in-flight request id, in any
arrival order. :class:`QuantClient` is the same client for blocking
code: it owns a private event loop and drives it on the calling
thread for the length of each call (no extra thread), so everything
below holds for both. Its ``submit()`` returns an int request id and
``result()`` collects answers by id in any order.
``quantize(..., verify=True)`` additionally recomputes the expected
result with the local library — ``quantize_weight`` /
``quantize_activation`` under the requested dispatch mode, or
``repro.codec.encode`` for packed requests — and raises unless the
server's bytes are identical: the wire adds nothing and loses nothing.

Fault tolerance:

* **Deadlines everywhere.** ``timeout`` bounds the connect, every frame
  write and every wait for an answer; a stalled server raises the
  typed :class:`~repro.errors.RequestTimeout` (a ``TimeoutError``),
  never an indefinite hang. Per-request ``deadline_s`` overrides it
  per call. A deadline fails only its own request: the connection and
  the other requests in flight on it stay.
* **Fail fast, never hang.** When the connection dies — closed, reset,
  or answering with bytes that do not parse as a frame — every request
  in flight on it fails with the typed
  :class:`~repro.errors.ConnectionLost`, and the next call reconnects.
* **Bounded retry.** Every round trip but ``drain`` and the pipelined
  ``submit``/``result``/``quantize_batch`` retries up to ``retries``
  times with exponential backoff and (optionally seeded) jitter on
  connection loss, deadlines, connect errors, ``BUSY`` and
  ``DRAINING`` — safe because quantization requests are idempotent
  and session appends are seq-deduplicated. Transport failures and
  deadlines drop the connection before the retry; ``BUSY``/``DRAINING``
  keep it. An exhausted budget raises
  :class:`~repro.errors.RetryBudgetExceeded` with the last failure
  chained; ``retries=0`` (the default) keeps the raw typed errors.
  Typed server errors, a server-reported ``PROTOCOL_ERROR`` included,
  are deterministic and never retried.

Env knobs: ``REPRO_CLIENT_TIMEOUT_S`` (default 60),
``REPRO_CLIENT_RETRIES`` (default 0).

Example::

    from repro.server import QuantClient

    with QuantClient(port=7421, retries=4) as cli:
        out = cli.quantize(x, fmt="m2xfp", op="weight", verify=True)
        rids = [cli.submit(t, fmt="elem-em") for t in tensors]  # pipelined
        outs = [cli.result(r) for r in rids]
        cli.ping()   # {"status": "ok", "inflight": 0, ...}

    # asyncio flavour
    async with AsyncQuantClient(port=7421) as cli:
        out = await cli.quantize(x, fmt="m2xfp")
"""

from __future__ import annotations

import asyncio
import functools
import random

import numpy as np

from ..errors import ConfigError, ConnectionLost, ProtocolError, \
    RequestTimeout, RetryBudgetExceeded, ServerBusy
from . import protocol
from .server import DEFAULT_PORT, PORT_ENV, _env_float, _env_int

__all__ = ["QuantClient", "AsyncQuantClient", "local_expected",
           "CLIENT_TIMEOUT_ENV", "CLIENT_RETRIES_ENV",
           "DEFAULT_CLIENT_TIMEOUT_S", "DEFAULT_CLIENT_RETRIES"]

#: Environment knobs (documented in the README's env-knob table).
CLIENT_TIMEOUT_ENV = "REPRO_CLIENT_TIMEOUT_S"
CLIENT_RETRIES_ENV = "REPRO_CLIENT_RETRIES"

DEFAULT_CLIENT_TIMEOUT_S = 60.0
DEFAULT_CLIENT_RETRIES = 0

#: Failures a reconnecting retry may fix: explicit backpressure, a
#: draining or crashed server, a dead/garbled connection, a deadline.
#: Typed server errors (FormatError, ConfigError, ...) are
#: deterministic and never retried.
_RETRYABLE = (ServerBusy, ConnectionLost, RequestTimeout,
              ConnectionError, OSError)


def local_expected(x: np.ndarray, *, fmt: str, op: str = "activation",
                   dispatch: str = "inherit", packed: bool = False):
    """What the server must return: the local library's own answer.

    Runs ``quantize_weight`` / ``quantize_activation`` (or the codec's
    ``encode`` for packed requests) under ``dispatch`` — the function the
    bit-exactness tests and ``verify=True`` compare against.
    """
    from ..runner.formats import make_format
    from ..kernels.dispatch import pinned_kernels
    from ..serve.service import resolve_dispatch
    fmt_obj = make_format(fmt)
    with pinned_kernels(resolve_dispatch(dispatch)):
        if packed:
            from ..codec import encode
            return encode(fmt_obj, x, op=op, axis=-1)
        fn = (fmt_obj.quantize_weight if op == "weight"
              else fmt_obj.quantize_activation)
        return fn(np.asarray(x, dtype=np.float64), axis=-1)


def _verify(result, x, *, fmt, op, dispatch, packed) -> None:
    expect = local_expected(x, fmt=fmt, op=op, dispatch=dispatch,
                            packed=packed)
    if packed:
        same = result.to_bytes() == expect.to_bytes()
    else:
        same = result.tobytes() == \
            np.asarray(expect, dtype=np.float64).tobytes()
    if not same:
        raise ProtocolError(
            f"server result for {fmt}:{op} (dispatch={dispatch}, "
            f"packed={packed}) is not bit-identical to the local "
            f"quantization — wire or server corruption")


def _resolve_timeout(timeout) -> float | None:
    if timeout is not None:
        return float(timeout) if timeout else None
    value = _env_float(CLIENT_TIMEOUT_ENV, DEFAULT_CLIENT_TIMEOUT_S)
    return value or None


def _resolve_retries(retries) -> int:
    value = _env_int(CLIENT_RETRIES_ENV, DEFAULT_CLIENT_RETRIES) \
        if retries is None else int(retries)
    if value < 0:
        raise ConfigError("retries must be >= 0")
    return value


class _RetryPolicy:
    """Shared backoff/jitter schedule (deterministic when seeded)."""

    def __init__(self, retries, backoff_base_s: float,
                 backoff_max_s: float, seed) -> None:
        self.retries = _resolve_retries(retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self._rng = random.Random(seed)

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), jittered."""
        base = min(self.backoff_base_s * (2.0 ** attempt),
                   self.backoff_max_s)
        return base * (0.5 + self._rng.random())

    def budget_error(self, budget: int, label: str,
                     last: BaseException) -> RetryBudgetExceeded:
        return RetryBudgetExceeded(
            f"{label} failed after {budget + 1} attempts "
            f"(last: {type(last).__name__}: {last})")


class AsyncQuantClient:
    """asyncio client over one pipelined TCP connection.

    Parameters
    ----------
    timeout:
        Bound on the connect, every frame write and every wait for an
        answer (``None`` reads ``REPRO_CLIENT_TIMEOUT_S``, default 60;
        ``0`` disables deadlines).
    retries:
        Retry budget for each round trip (``None`` reads
        ``REPRO_CLIENT_RETRIES``, default 0 = fail on the first error).
    backoff_base_s / backoff_max_s / retry_seed:
        Exponential-backoff schedule between retries; jitter comes
        from ``random.Random(retry_seed)`` so tests can pin it.
    """

    def __init__(self, host: str = "127.0.0.1", port: int | None = None, *,
                 timeout: float | None = None, retries: int | None = None,
                 backoff_base_s: float = 0.05, backoff_max_s: float = 2.0,
                 retry_seed=None) -> None:
        self.host = host
        self.port = _env_int(PORT_ENV, DEFAULT_PORT) if port is None \
            else int(port)
        self.timeout = _resolve_timeout(timeout)
        self.retry = _RetryPolicy(retries, backoff_base_s, backoff_max_s,
                                  retry_seed)
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._connected = False     # between connect() and close()
        self._conn_gen = 0
        self._conn_lock: asyncio.Lock | None = None
        self._next_id = 1

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    async def connect(self) -> "AsyncQuantClient":
        if not self._connected:
            self._conn_lock = asyncio.Lock()
            await self._open()
            self._connected = True
        return self

    async def close(self) -> None:
        self._connected = False
        await self._teardown(ConnectionLost("client closed with the "
                                            "request in flight"))

    async def __aenter__(self) -> "AsyncQuantClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def _open(self) -> None:
        try:
            reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                self.timeout)
        except asyncio.TimeoutError:
            raise RequestTimeout(
                f"connect to {self.host}:{self.port} timed out after "
                f"{self.timeout:g}s") from None
        self._reader_task = asyncio.create_task(self._read_loop(reader))
        self._conn_gen += 1

    async def _teardown(self, error: ConnectionLost) -> None:
        """Drop the connection and fail every pending future with
        ``error``."""
        task, self._reader_task = self._reader_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._fail_pending(error)

    def _fail_pending(self, error: ConnectionLost) -> None:
        for fut in self._pending.values():
            if not fut.done():
                fut.set_exception(error)
        self._pending.clear()

    async def _connection(self) -> int:
        """The live connection's generation, reopening a dead one."""
        if not self._connected:
            raise ConfigError("client is not connected; call connect() "
                              "or use it as a context manager")
        if self._reader_task is None or self._reader_task.done():
            async with self._conn_lock:
                # Re-test under the lock: many tasks may have seen the
                # same dead connection; only the first reopens it.
                if self._reader_task is None or self._reader_task.done():
                    await self._teardown(ConnectionLost(
                        "connection lost with the request in flight"))
                    await self._open()
        return self._conn_gen

    async def _drop(self, gen: int) -> None:
        """Tear down connection ``gen`` unless it is already gone or
        replaced; the next request reconnects."""
        async with self._conn_lock:
            if self._conn_gen == gen and self._reader_task is not None:
                await self._teardown(ConnectionLost(
                    "connection dropped after a failed request"))

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        """Resolve pending futures by request id until the stream ends.

        Any failure fails every pending request with ``ConnectionLost``,
        unframeable bytes included: past them the stream position is
        lost, so they are a transport failure and retryable — unlike a
        server-reported ``PROTOCOL_ERROR`` status, which arrives in a
        well-formed frame.
        """
        try:
            while True:
                frame = await protocol.read_frame(reader)
                if frame is None:
                    raise ConnectionLost("server closed the connection")
                fut = self._pending.pop(frame.request_id, None)
                if fut is not None and not fut.done():
                    fut.set_result(frame)
        except Exception as exc:
            if not isinstance(exc, ConnectionLost):
                lost = ConnectionLost(f"connection reader failed: {exc}")
                lost.__cause__ = exc
                exc = lost
            self._fail_pending(exc)

    # ------------------------------------------------------------------
    # Pipelined primitives (fail fast, never auto-retry)
    # ------------------------------------------------------------------
    async def submit(self, x: np.ndarray, *, fmt: str,
                     op: str = "activation", dispatch: str = "inherit",
                     packed: bool = False,
                     fingerprint: str = "") -> asyncio.Future:
        """Send one request; the returned future resolves to its frame."""
        return await self._send(protocol.encode_request, x, fmt=fmt, op=op,
                                dispatch=dispatch, packed=packed,
                                fingerprint=fingerprint)

    async def _send(self, encoder, *args, **fields) -> asyncio.Future:
        gen = await self._connection()
        rid = self._next_id
        self._next_id += 1
        data = encoder(rid, *args, **fields)
        fut = asyncio.get_running_loop().create_future()
        fut._repro_request_id = rid
        self._pending[rid] = fut
        try:
            self._writer.write(data)
            await asyncio.wait_for(self._writer.drain(), self.timeout)
        except (ConnectionError, OSError) as exc:  # TimeoutError too
            # A half-written frame leaves the stream position unknown:
            # this connection is done for. The raise below reports this
            # request, so its future is retired unread (the reader may
            # already have failed it).
            self._pending.pop(rid, None)
            if not fut.cancel():
                fut.exception()
            await self._drop(gen)
            if isinstance(exc, asyncio.TimeoutError):
                raise RequestTimeout(
                    f"sending request {rid} timed out after "
                    f"{self.timeout:g}s") from None
            raise ConnectionLost(
                f"connection died sending request {rid}: {exc}") from exc
        return fut

    async def _await_frame(self, fut: asyncio.Future,
                           deadline_s: float | None) -> protocol.Frame:
        budget = self.timeout if deadline_s is None else \
            (float(deadline_s) or None)
        try:
            return await asyncio.wait_for(fut, budget)
        except asyncio.TimeoutError:
            rid = fut._repro_request_id
            self._pending.pop(rid, None)
            raise RequestTimeout(
                f"no response to request {rid} within {budget:g}s") \
                from None

    async def quantize_batch(self, tensors, *, fmt: str,
                             op: str = "activation",
                             dispatch: str = "inherit", packed: bool = False,
                             window: int = 32) -> list:
        """Pipeline many tensors over this connection, gather in order.

        At most ``window`` requests are in flight at once, so a long
        batch never trips the server's in-flight bound by itself.
        """
        if window < 1:
            raise ConfigError("window must be >= 1")
        results: list = []
        pending: list[asyncio.Future] = []
        for x in tensors:
            if len(pending) >= window:
                results.append(protocol.response_result(
                    await self._await_frame(pending.pop(0), None)))
            pending.append(await self.submit(x, fmt=fmt, op=op,
                                             dispatch=dispatch,
                                             packed=packed))
        for fut in pending:
            results.append(protocol.response_result(
                await self._await_frame(fut, None)))
        return results

    # ------------------------------------------------------------------
    # Resilient round trips
    # ------------------------------------------------------------------
    async def _round_trip(self, label: str, encoder, decoder, *args,
                          deadline_s: float | None, retries: int | None,
                          **fields):
        """Send one frame and decode its answer, retried as a unit."""
        budget = self.retry.retries if retries is None else \
            _resolve_retries(retries)
        for attempt in range(budget + 1):
            gen = self._conn_gen
            try:
                gen = await self._connection()
                fut = await self._send(encoder, *args, **fields)
                return decoder(await self._await_frame(fut, deadline_s))
            except _RETRYABLE as exc:
                if attempt >= budget:
                    if budget == 0:
                        raise
                    raise self.retry.budget_error(budget, label, exc) \
                        from exc
                # BUSY/DRAINING answers arrive on a healthy connection
                # (a draining server still owes answers for admitted
                # work); a finished drain closes it, which surfaces as
                # ConnectionLost and reconnects like any transport loss.
                if not isinstance(exc, ServerBusy):
                    await self._drop(gen)
                await asyncio.sleep(self.retry.delay_s(attempt))

    async def quantize(self, x: np.ndarray, *, fmt: str,
                       op: str = "activation", dispatch: str = "inherit",
                       packed: bool = False, fingerprint: str = "",
                       verify: bool = False,
                       deadline_s: float | None = None,
                       retries: int | None = None):
        """One round trip: send, wait, (optionally) verify bit-exactness.

        Retries (reconnecting as needed) up to the retry budget —
        idempotent by the protocol contract, so a retried request
        returns the same bits the first attempt would have.
        """
        out = await self._round_trip(
            f"{fmt}:{op} quantize", protocol.encode_request,
            protocol.response_result, x, fmt=fmt, op=op, dispatch=dispatch,
            packed=packed, fingerprint=fingerprint, deadline_s=deadline_s,
            retries=retries)
        if verify:
            _verify(out, x, fmt=fmt, op=op, dispatch=dispatch, packed=packed)
        return out

    async def ping(self, *, deadline_s: float | None = None,
                   retries: int | None = None) -> dict:
        """Liveness/health round trip: the server's health report dict."""
        return await self._round_trip("ping", protocol.encode_ping,
                                      protocol.decode_health,
                                      deadline_s=deadline_s, retries=retries)

    async def server_stats(self, *, deadline_s: float | None = None,
                           retries: int | None = None) -> dict:
        """The server-side telemetry subset of the HEALTH meta.

        ``{"stats", "services", "sessions", "metrics"}`` — the raw
        counters, the per-arm service aggregate, the KV session
        occupancy, and the full metrics-registry snapshot (empty under
        ``REPRO_NO_METRICS=1`` on the server). One PING round trip.
        """
        health = await self.ping(deadline_s=deadline_s, retries=retries)
        return {key: health.get(key, {})
                for key in ("stats", "services", "sessions", "metrics")}

    async def drain(self, *, deadline_s: float | None = None) -> dict:
        """Ask the server to drain gracefully; returns its health ack."""
        return await self._round_trip("drain", protocol.encode_drain,
                                      protocol.decode_health,
                                      deadline_s=deadline_s, retries=0)

    # ------------------------------------------------------------------
    # Streaming KV-cache sessions (protocol v3)
    # ------------------------------------------------------------------
    async def session_open(self, *, session_id: str, n_layers: int,
                           policy=None, max_tokens: int | None = None,
                           sink_tokens: int = 0,
                           dispatch: str = "inherit", verify: bool = True,
                           deadline_s: float | None = None,
                           retries: int | None = None) -> dict:
        """Open (or idempotently resume) a KV-cache session.

        The ack carries the server's session info plus ``next_seq`` —
        the sequence number the next :meth:`session_append` must use.
        Safe to retry: re-opening with the same config resumes.
        """
        return await self._round_trip(
            f"session {session_id} open", protocol.encode_session_open,
            protocol.decode_session_ack, session_id=session_id,
            n_layers=n_layers, policy=policy, max_tokens=max_tokens,
            sink_tokens=sink_tokens, dispatch=dispatch, verify=verify,
            deadline_s=deadline_s, retries=retries)

    async def session_append(self, session_id: str, layer: int, k, v, *,
                             seq: int, deadline_s: float | None = None,
                             retries: int | None = None) -> dict:
        """Append one K/V block; ``seq`` is the caller's append counter.

        Retrying with the *same* seq is safe: the server replays the
        stored ack for a duplicate. An un-reconcilable seq (state lost
        to a crash) raises the typed, non-retryable
        :class:`~repro.errors.SessionLost`.
        """
        return await self._round_trip(
            f"session {session_id} append", protocol.encode_session_append,
            protocol.decode_session_ack, session_id=session_id, layer=layer,
            seq=seq, k=k, v=v, deadline_s=deadline_s, retries=retries)

    async def session_read(self, session_id: str, layer: int, *,
                           deadline_s: float | None = None,
                           retries: int | None = None):
        """Dequantized (K, V) for one layer of a live session."""
        return await self._round_trip(
            f"session {session_id} read", protocol.encode_session_read,
            protocol.decode_session_kv, session_id=session_id, layer=layer,
            deadline_s=deadline_s, retries=retries)

    async def session_close(self, session_id: str, *,
                            deadline_s: float | None = None,
                            retries: int | None = None) -> dict:
        """Close a session; the ack carries its final stats."""
        return await self._round_trip(
            f"session {session_id} close", protocol.encode_session_close,
            protocol.decode_session_ack, session_id=session_id,
            deadline_s=deadline_s, retries=retries)


def _blocking(method):
    """``method`` of the wrapped :class:`AsyncQuantClient`, run to
    completion on the front's private loop."""
    @functools.wraps(method)
    def call(self, *args, **kwargs):
        return self._run(method(self._aio, *args, **kwargs))
    return call


class QuantClient:
    """Blocking front over :class:`AsyncQuantClient`.

    Takes the same constructor arguments and keeps the same
    fault-tolerance contract. Each call runs a private event loop on
    the calling thread until it completes, so a thread whose event loop
    is already running must use :class:`AsyncQuantClient` instead
    (this raises ``ConfigError``). One client per thread.
    """

    def __init__(self, *args, **kwargs) -> None:
        self._aio = AsyncQuantClient(*args, **kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._submitted: dict[int, asyncio.Future] = {}

    def _run(self, coro):
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass
        else:
            coro.close()
            raise ConfigError("QuantClient blocks its thread and cannot "
                              "run inside a running event loop; use "
                              "AsyncQuantClient there")
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
        return self._loop.run_until_complete(coro)

    def connect(self) -> "QuantClient":
        try:
            self._run(self._aio.connect())
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        if self._loop is not None:
            try:
                self._run(self._aio.close())
            finally:
                self._loop.close()
                self._loop = None
        self._submitted.clear()

    def __enter__(self) -> "QuantClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    def submit(self, x: np.ndarray, **request) -> int:
        """Send one request without waiting (pipelined); returns its id.

        Takes :meth:`AsyncQuantClient.submit`'s arguments.
        """
        fut = self._run(self._aio.submit(x, **request))
        self._submitted[fut._repro_request_id] = fut
        return fut._repro_request_id

    def result(self, request_id: int, *, deadline_s: float | None = None):
        """Wait for the response to ``request_id`` (any arrival order).

        Raises the typed exception an error status maps to
        (``ServerBusy``, ``FormatError``, ``ConfigError``, ...);
        ``ConnectionLost`` if the connection died with the request in
        flight; ``RequestTimeout`` past the deadline.
        """
        fut = self._submitted.pop(request_id, None)
        if fut is None:
            raise ConfigError(f"request {request_id} is not pending on "
                              f"this client")
        return protocol.response_result(
            self._run(self._aio._await_frame(fut, deadline_s)))

    quantize = _blocking(AsyncQuantClient.quantize)
    quantize_batch = _blocking(AsyncQuantClient.quantize_batch)
    ping = _blocking(AsyncQuantClient.ping)
    server_stats = _blocking(AsyncQuantClient.server_stats)
    drain = _blocking(AsyncQuantClient.drain)
    session_open = _blocking(AsyncQuantClient.session_open)
    session_append = _blocking(AsyncQuantClient.session_append)
    session_read = _blocking(AsyncQuantClient.session_read)
    session_close = _blocking(AsyncQuantClient.session_close)
