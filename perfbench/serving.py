"""The serving workloads: ``wire-mixed`` and ``kv-decode``.

The servers run in their own processes (a one-worker ``WorkerPool``, or
the ``python -m repro gateway`` CLI with one replica in the traced
wire-mixed run), so they never share the load generator's interpreter
lock. The generator is one asyncio loop in this process, closed-loop,
on at most two connections.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.codec import PackedTensor
from repro.gateway import http as ghttp
from repro.kv import KVCacheSession
from repro.plan import lookup_plan
from repro.runner.formats import make_format
from repro.server import AsyncQuantClient, WorkerPool, local_expected, protocol

from . import stats
from .schedule import (KV_LAYERS, KV_MAX_TOKENS, KV_SINK_TOKENS,
                       MIN_ROUNDS, KVPlan, KVStream, Request, WireMix)

#: Deadline on every round trip: a wedged server fails the run, never
#: hangs it.
TIMEOUT_S = 60.0
#: Requests each loaded wire connection keeps in flight.
LOADED_WINDOW = 8
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------
def _trace_env(trace_path: Path | None) -> dict:
    env = {"REPRO_TRACE": "", "REPRO_TRACE_PATH": ""}
    if trace_path is not None:
        env = {"REPRO_TRACE": "1", "REPRO_TRACE_PATH": str(trace_path)}
    return env


class WireServer:
    """A one-worker ``WorkerPool``; the worker inherits the trace env."""

    def __init__(self, trace_path: Path | None) -> None:
        saved = {k: os.environ.get(k) for k in _trace_env(None)}
        os.environ.update(_trace_env(trace_path))
        try:
            self.pool = WorkerPool(workers=1, port=0, restart=False).start()
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        self.port = self.pool.port

    def pids(self) -> list[int]:
        return stats.server_pids(os.getpid())

    def close(self) -> None:
        self.pool.close()


class GatewayServer:
    """``python -m repro gateway --replicas 1`` in its own process."""

    def __init__(self, root: Path, trace_path: Path | None) -> None:
        env = dict(os.environ)
        env.update(_trace_env(trace_path))
        env["PYTHONPATH"] = str(root / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "gateway", "--port", "0",
             "--replicas", "1"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120.0)
            line = self.proc.stdout.readline() if ready else ""
            # "gateway on 127.0.0.1:<port> over 1 replica(s): host:port"
            head, _, replicas = line.partition(" over ")
            self.port = int(head.rsplit(":", 1)[1])
            self.replica_port = int(replicas.strip().rsplit(":", 1)[1])
        except (ValueError, IndexError):
            self.close()
            raise RuntimeError(f"gateway did not report its ports: {line!r}")

    def pids(self) -> list[int]:
        return stats.server_pids(self.proc.pid, include_root=True)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()   # SIGTERM: gateway drain, replica reap
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                for pid in stats.descendants(self.proc.pid):
                    os.kill(pid, signal.SIGKILL)   # the replica too
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# Wire round trips
# ----------------------------------------------------------------------
def wire_expected(mix: WireMix) -> dict:
    """Expected response payload bytes per input, computed before timing."""
    out = {}
    for key, x in mix.tensors.items():
        fmt, packed, kind, _ = key
        op = "weight" if kind == "weight" else "activation"
        res = local_expected(x, fmt=fmt, op=op, packed=packed)
        out[key] = res.to_bytes() if packed else \
            np.asarray(res, dtype=np.float64).tobytes()
    return out


async def _wire_one(cli, req: Request, x, expected, phase: stats.Phase,
                    walls: list | None, rid: int = 0) -> None:
    phase.sent += 1
    t0 = time.perf_counter()
    try:
        fut = await cli.submit(x, fmt=req.fmt, op=req.op, packed=req.packed)
        frame = await asyncio.wait_for(fut, TIMEOUT_S)
        protocol.response_result(frame)
    except Exception as exc:   # a failed request is counted, not fatal
        phase.fail(f"{req}: {type(exc).__name__}: {exc}")
        return
    wall = time.perf_counter() - t0
    if frame.payload != expected[req.key]:
        phase.fail(f"{req}: response bytes differ from local_expected")
        return
    phase.ok += 1
    phase.latencies.append(wall)
    if walls is not None:
        walls.append((rid, req, frame, wall))
    if req.op == "activation":
        phase.rows += x.shape[0]


async def wire_serial(port: int, mix: WireMix, reqs, expected,
                      phase: stats.Phase, walls: list | None = None) -> None:
    """One connection, one request in flight. A fresh client numbers
    its requests 1..n in send order, which the trace join relies on."""
    async with AsyncQuantClient(port=port, timeout=TIMEOUT_S) as cli:
        t0 = time.perf_counter()
        for rid, req in enumerate(reqs, start=1):
            await _wire_one(cli, req, mix.tensor(req), expected, phase,
                            walls, rid)
        phase.wall_s = time.perf_counter() - t0


async def wire_loaded(port: int, mix: WireMix, reqs, expected,
                      phase: stats.Phase) -> None:
    """Two connections, each keeping LOADED_WINDOW requests in flight."""
    async def connection(share):
        async with AsyncQuantClient(port=port, timeout=TIMEOUT_S) as cli:
            slots = asyncio.Semaphore(LOADED_WINDOW)
            tasks = []

            async def one(req):
                try:
                    await _wire_one(cli, req, mix.tensor(req), expected,
                                    phase, None)
                finally:
                    slots.release()

            for req in share:
                await slots.acquire()
                tasks.append(asyncio.create_task(one(req)))
            await asyncio.gather(*tasks)

    t0 = time.perf_counter()
    await asyncio.gather(connection(reqs[0::2]), connection(reqs[1::2]))
    phase.wall_s = time.perf_counter() - t0


async def wire_warmup(port: int, mix: WireMix) -> None:
    async with AsyncQuantClient(port=port, timeout=TIMEOUT_S) as cli:
        for req, x in mix.warmup():
            await cli.quantize(x, fmt=req.fmt, op=req.op, packed=req.packed)


async def server_stats(port: int) -> dict:
    async with AsyncQuantClient(port=port, timeout=TIMEOUT_S) as cli:
        return await cli.server_stats()


# ----------------------------------------------------------------------
# HTTP round trips (a minimal keep-alive HTTP/1.1 client)
# ----------------------------------------------------------------------
def http_request_bytes(req: Request, x: np.ndarray) -> bytes:
    """``POST /v1/quantize``: base64 JSON unpacked, octet-stream packed."""
    if req.packed:
        body = np.ascontiguousarray(x, dtype="<f8").tobytes()
        shape = ",".join(str(d) for d in x.shape)
        target = (f"/v1/quantize?format={req.fmt}&op={req.op}"
                  f"&shape={shape}&packed=1")
        ctype = "application/octet-stream"
    else:
        body = json.dumps({
            "format": req.fmt, "op": req.op, "packed": False,
            "shape": list(x.shape),
            "data_b64": base64.b64encode(
                np.ascontiguousarray(x, dtype="<f8").tobytes()).decode()
        }).encode()
        target, ctype = "/v1/quantize", "application/json"
    head = (f"POST {target} HTTP/1.1\r\nhost: bench\r\n"
            f"content-type: {ctype}\r\ncontent-length: {len(body)}\r\n\r\n")
    return head.encode() + body


def http_decode(req: Request, body: bytes):
    """What a caller does with a 200 body: the tensor or the container."""
    if req.packed:
        return PackedTensor.from_bytes(body)
    doc = json.loads(body)
    return np.frombuffer(base64.b64decode(doc["data_b64"]),
                         dtype="<f8").reshape(doc["shape"])


def http_expected(mix: WireMix, wire_bytes: dict) -> dict:
    """Expected response bodies: the gateway's own response builder fed
    the local library's answer."""
    out = {}
    for key, blob in wire_bytes.items():
        fmt, packed, kind, _ = key
        op = "weight" if kind == "weight" else "activation"
        x = mix.tensors[key]
        result = blob if packed else \
            np.frombuffer(blob, dtype=np.float64).reshape(x.shape)
        out[key] = ghttp.quantize_response(
            result, fmt=fmt, op=op, packed=packed,
            fingerprint=repr(make_format(fmt))).body
    return out


class HttpConn:
    def __init__(self, port: int) -> None:
        self.port = port

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.wait_for(
            asyncio.open_connection("127.0.0.1", self.port), TIMEOUT_S)
        return self

    async def __aexit__(self, *exc):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def roundtrip(self, data: bytes) -> tuple[int, bytes]:
        async def go():
            self.writer.write(data)
            await self.writer.drain()
            head = await self.reader.readuntil(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            status = int(lines[0].split()[1])
            length = 0
            for line in lines[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            return status, await self.reader.readexactly(length)
        return await asyncio.wait_for(go(), TIMEOUT_S)


async def http_one(conn: HttpConn, mix: WireMix, req: Request, expected,
                   phase: stats.Phase) -> None:
    phase.sent += 1
    x = mix.tensor(req)
    t0 = time.perf_counter()
    try:
        status, body = await conn.roundtrip(http_request_bytes(req, x))
        if status == 200:
            http_decode(req, body)
    except Exception as exc:
        phase.fail(f"{req}: {type(exc).__name__}: {exc}")
        return
    wall = time.perf_counter() - t0
    if status != 200:
        phase.fail(f"{req}: HTTP {status}: {body[:200]!r}")
        return
    if body != expected[req.key]:
        phase.fail(f"{req}: response body differs from the expected bytes")
        return
    phase.ok += 1
    phase.latencies.append(wall)
    if req.op == "activation":
        phase.rows += x.shape[0]


async def http_serial(port: int, mix: WireMix, reqs, expected,
                      phase: stats.Phase) -> None:
    """One keep-alive connection, one request in flight."""
    async with HttpConn(port) as conn:
        t0 = time.perf_counter()
        for req in reqs:
            await http_one(conn, mix, req, expected, phase)
        phase.wall_s = time.perf_counter() - t0


async def http_get(port: int, path: str) -> str:
    async with HttpConn(port) as conn:
        status, body = await conn.roundtrip(
            f"GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n".encode())
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return body.decode()


async def http_warmup(port: int, mix: WireMix) -> None:
    async with HttpConn(port) as conn:
        for req, x in mix.warmup():
            status, body = await conn.roundtrip(http_request_bytes(req, x))
            if status != 200:
                raise RuntimeError(f"warm-up {req} answered HTTP {status}: "
                                   f"{body[:200]!r}")


def gateway_requests_total(metrics_text: str) -> int:
    """Sum of ``repro_gateway_requests_total`` over arms."""
    return sum(int(float(line.rsplit(" ", 1)[1]))
               for line in metrics_text.splitlines()
               if line.startswith("repro_gateway_requests_total{"))


# ----------------------------------------------------------------------
# Server telemetry deltas
# ----------------------------------------------------------------------
def _counters(snapshot: dict) -> dict:
    """The cumulative server counters the per-layer metrics difference."""
    metrics = snapshot.get("metrics") or {}
    services = snapshot.get("services") or {}
    plan = metrics.get("plan_cache") or {}
    codec = metrics.get("codec") or {}
    out = {"requests": services.get("requests", 0),
           "batches": services.get("batches", 0),
           "weight_hits": services.get("weight_cache_hits", 0),
           "plan_hits": plan.get("hits", 0),
           "plan_misses": plan.get("misses", 0),
           "encodes": codec.get("encodes", 0),
           "fused": codec.get("fused_encodes", 0),
           "payload_bytes": 0, "packed_elements": 0}
    for name, value in metrics.items():
        if name.startswith("serve.") and isinstance(value, dict) \
                and "payload_bytes" in value:
            out["payload_bytes"] += value["payload_bytes"]
            out["packed_elements"] += value["packed_elements"]
    return out


def delta(after: dict, before: dict) -> dict:
    a, b = _counters(after), _counters(before)
    return {key: a[key] - b[key] for key in a}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def fallback_share(mix: WireMix) -> float:
    """Share of the schedule's requests whose (format, op, shape) has no
    compiled plan — resolved with ``lookup_plan`` before timing."""
    reqs = mix.requests("serial") + mix.requests("loaded")
    planned = {}
    for req in reqs:
        sig = (req.fmt, req.op, req.kind)
        if sig not in planned:
            planned[sig] = lookup_plan(make_format(req.fmt), req.op,
                                       mix.tensor(req), -1) is not None
    return ratio(sum(not planned[(r.fmt, r.op, r.kind)] for r in reqs),
                 len(reqs))


def micro_us(fn, *args, **kwargs) -> float:
    """Best-of-three wall time of ``fn(*args, **kwargs)`` in microseconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best * 1e6


def client_codec_us(mix: WireMix, walls) -> tuple[list, list]:
    """Per-request client encode / decode times (us) for ``walls``:
    ``protocol.encode_request`` on the request's own input, and
    ``protocol.response_result`` (which runs ``PackedTensor.from_bytes``
    for packed answers) on its own response frame."""
    enc, dec = [], []
    for rid, req, frame, _ in walls:
        x = mix.tensor(req)
        enc.append(micro_us(protocol.encode_request, rid, x, fmt=req.fmt,
                            op=req.op, packed=req.packed))
        dec.append(micro_us(protocol.response_result, frame))
    return enc, dec


def serial_residuals(walls, lines, enc, dec) -> list[float]:
    """Per-request residual (ms) of a serial phase, joined on request id
    (a fresh client numbers 1..n; one connection, so no collisions)."""
    by_id = {line["request_id"]: line for line in lines}
    out = []
    for (rid, _, _, wall), e, d in zip(walls, enc, dec):
        line = by_id.get(rid)
        if line is not None:
            out.append(stats.residual_ms(wall, e * 1e-6, d * 1e-6, line))
    return out


def span_mean_ms(lines, name: str) -> float:
    vals = [stats.span_s(line, name) for line in lines
            if any(s["name"] == name for s in line.get("spans", ()))]
    return statistics.fmean(vals) * 1e3 if vals else 0.0


# ----------------------------------------------------------------------
# wire-mixed / http-gateway
# ----------------------------------------------------------------------
def _setup_loop(start, warm, repeats: int):
    """Start + warm ``repeats`` servers, keep the last; returns
    (server, [a timed Phase per set-up])."""
    setups, server = [], None

    def up():
        server = start()
        try:
            warm(server)
        except BaseException:
            server.close()
            raise
        return server

    for i in range(repeats):
        server, phase = stats.timed(f"setup.{i + 1}", up)
        setups.append(phase)
        if i < repeats - 1:
            server.close()
    return server, setups


def _run_rounds(schedule: dict, runners: dict, trace, pids,
                seconds: float) -> dict:
    """Run round ``r`` of every phase of ``schedule`` (in its order),
    then round ``r + 1``, until ``seconds`` are spent (at least
    MIN_ROUNDS rounds): every phase samples the whole span of the run.
    Round ``r`` of a phase is its pool round ``r % len(pool)``.

    ``runners[name](r, item, phase, walls)`` drives one round. Each
    round records the share of CPU time the host stole while it ran.
    Returns the per-round phases and pool items, the server CPU seconds
    per phase, and when ``trace`` is a :class:`stats.TraceFile` the
    rounds' trace lines and serial walls."""
    out = {key: {name: [] for name in schedule}
           for key in ("rounds", "items", "lines", "walls")}
    out["cpu"] = dict.fromkeys(schedule, 0.0)
    end = time.perf_counter() + seconds
    r, last = 0, 0.0
    # A round set is not started when half of it would overrun the end.
    while r < MIN_ROUNDS or time.perf_counter() + last / 2 < end:
        t0 = time.perf_counter()
        for name, pool in schedule.items():
            item = pool[r % len(pool)]
            phase = stats.Phase(f"{name}.{r + 1}")
            off = trace.offset() if trace else 0
            walls = [] if trace else None
            cpu0, ticks0 = stats.cpu_seconds(pids), stats.cpu_ticks()
            runners[name](r, item, phase, walls)
            phase.steal = stats.steal_share(ticks0, stats.cpu_ticks())
            out["cpu"][name] += stats.cpu_seconds(pids) - cpu0
            out["rounds"][name].append(phase)
            out["items"][name].append(item)
            if trace:
                out["lines"][name].append(trace.lines(off, trace.offset()))
                out["walls"][name].append(walls)
        last = time.perf_counter() - t0
        r += 1
    return out


def _wire_pass(mix: WireMix, expected, trace_path, repeats,
               seconds: float) -> dict:
    """One full pass: set up, the rounds of every phase, tear down."""
    def warm(server):
        asyncio.run(wire_warmup(server.port, mix))

    server, setups = _setup_loop(lambda: WireServer(trace_path), warm,
                                 repeats)
    trace = stats.TraceFile(trace_path) if trace_path else None
    runners = {"serial": lambda r, reqs, phase, walls: asyncio.run(
                   wire_serial(server.port, mix, reqs, expected, phase,
                               walls)),
               "loaded": lambda r, reqs, phase, walls: asyncio.run(
                   wire_loaded(server.port, mix, reqs, expected, phase))}
    try:
        if trace:
            before = asyncio.run(server_stats(server.port))
        out = _run_rounds(mix.phases, runners, trace, server.pids(),
                          seconds)
        out["setup"] = setups
        out["rss_mb"] = stats.peak_rss_mb(server.pids())
        if trace:
            out["delta"] = delta(asyncio.run(server_stats(server.port)),
                                 before)
    finally:
        server.close()
    return out


def _gateway_pass(root: Path, mix: WireMix, seconds: float) -> dict:
    """The serial rounds as HTTP through the gateway (one replica),
    alternating with the direct-serial rounds sent straight to that
    replica over the wire: ``gateway.overhead_ms`` is the difference of
    their p50. ``mix`` is an HTTP mix, so the direct rounds send weights
    the replica has not seen and meet its memo as the HTTP rounds do."""
    wire_bytes = wire_expected(mix)
    http_bytes = http_expected(mix, wire_bytes)
    server = GatewayServer(root, None)
    try:
        asyncio.run(http_warmup(server.port, mix))
        runners = {"http-serial": lambda r, reqs, phase, walls: asyncio.run(
                       http_serial(server.port, mix, reqs, http_bytes,
                                   phase)),
                   "direct-serial": lambda r, reqs, phase, walls:
                       asyncio.run(wire_serial(server.replica_port, mix,
                                               reqs, wire_bytes, phase))}
        schedule = {"http-serial": mix.phases["serial"],
                    "direct-serial": mix.phases["direct-serial"]}
        gw_before = gateway_requests_total(
            asyncio.run(http_get(server.port, "/metrics")))
        out = _run_rounds(schedule, runners, None, server.pids(), seconds)
        out["gateway_requests"] = gateway_requests_total(
            asyncio.run(http_get(server.port, "/metrics"))) - gw_before
    finally:
        server.close()
    return out


def _calm_e2e(serial, loaded) -> dict:
    """p50 and rates: the median of the calm rounds' own, so one slow
    round cannot move them; p95 over the calm rounds' samples pooled, so
    it has at least ten samples beyond it."""
    return {"serial_p50_ms": _calm_p50_ms(serial),
            "serial_p95_ms": stats.calm_quantile_ms(serial, 0.95),
            "loaded_rps": stats.calm_median(loaded, lambda p: p.rps),
            "loaded_p50_ms": _calm_p50_ms(loaded),
            "loaded_p95_ms": stats.calm_quantile_ms(loaded, 0.95),
            "tokens_per_s": stats.calm_median(
                loaded, lambda p: ratio(p.rows, p.wall_s))}


def _wire_e2e(run: dict) -> dict:
    return {"setup_s": stats.setup_s(run["setup"]),
            **_calm_e2e(run["rounds"]["serial"], run["rounds"]["loaded"]),
            "rss_mb": run["rss_mb"]}


def _calm_p50_ms(phases) -> float:
    return stats.calm_median(phases, lambda p: p.p(0.50))


def _calm_rps(phases) -> float:
    return stats.calm_median(phases, lambda p: p.rps)


def _flat(rounds) -> list:
    return [item for rnd in rounds for item in rnd]


def _wire_layers(mix: WireMix, run: dict, base_rps: float,
                 gateway: dict) -> dict:
    enc, dec, resid = [], [], []
    for walls, lines in zip(run["walls"]["serial"], run["lines"]["serial"]):
        e, d = client_codec_us(mix, walls)
        enc += e
        dec += d
        resid += serial_residuals(walls, lines, e, d)
    serial_p50 = _calm_p50_ms(run["rounds"]["serial"])
    loaded = run["rounds"]["loaded"]
    loaded_lines = _flat(run["lines"]["loaded"])
    all_lines = _flat(run["lines"]["serial"]) + loaded_lines
    d = run["delta"]
    n_weight = sum(1 for rounds in run["items"].values()
                   for rnd in rounds for r in rnd if r.op == "weight")
    layers = {
        "client.encode_us": statistics.median(enc),
        "client.decode_us": statistics.median(dec),
        "server.residual_ms": statistics.median(resid),
        "server.residual_share": ratio(statistics.median(resid), serial_p50),
        "server.busy": ratio(run["cpu"]["loaded"],
                             sum(p.wall_s for p in loaded)),
        "serve.queue_ms": span_mean_ms(loaded_lines, "queue"),
        "serve.batch_ms": span_mean_ms(_flat(run["lines"]["serial"]),
                                       "batch"),
        "serve.batch_size": ratio(d["requests"] - d["weight_hits"],
                                  d["batches"]),
        "serve.weight_hit_ratio": ratio(d["weight_hits"], n_weight),
        "plan.quantize_ms": span_mean_ms(all_lines, "quantize"),
        "plan.hit_ratio": ratio(d["plan_hits"],
                                d["plan_hits"] + d["plan_misses"]),
        "plan.fallback_share": fallback_share(mix),
        "codec.pack_ms": span_mean_ms(all_lines, "pack"),
        "codec.verify_ms": span_mean_ms(all_lines, "verify"),
        "codec.fused_share": ratio(d["fused"], d["encodes"]),
        "codec.bits_per_elem": ratio(8 * d["payload_bytes"],
                                     d["packed_elements"]),
        "obs.trace_overhead_frac": 1.0 - ratio(_calm_rps(loaded), base_rps),
        "obs.trace_id_collisions": sum(
            stats.id_collisions(lines) for lines in run["lines"]["loaded"]),
        "gateway.overhead_ms":
            _calm_p50_ms(gateway["rounds"]["http-serial"])
            - _calm_p50_ms(gateway["rounds"]["direct-serial"]),
    }
    return layers


def _calm_details(run: dict) -> dict:
    """Calm rounds per phase, and the phases whose figures carry host
    contention (fewer than ``stats.MIN_CALM`` calm rounds)."""
    rounds = run["rounds"]
    return {"calm_rounds": {
                name: f"{sum(p.steal <= stats.CALM_STEAL for p in ph)}"
                      f"/{len(ph)}" for name, ph in rounds.items()},
            "latency_samples": {
                name: sum(len(p.latencies) for p in stats.calm(ph))
                for name, ph in rounds.items()},
            "contended": [name for name, ph in rounds.items()
                          if stats.contended(ph)]}


def _span_details(run: dict) -> dict:
    spans = {}
    for name, rounds in run["lines"].items():
        spans.update(stats.aggregate_spans(_flat(rounds), name))
    return {"spans": spans, **_calm_details(run)}


def _all_phases(*runs) -> list:
    return [p for run in runs
            for rounds in (run["setup"], *run["rounds"].values())
            for p in rounds]


def wire_workload(root: Path, seed: int, seconds: float, trace: bool,
                  tmp: Path) -> stats.Outcome:
    mix = WireMix(seed)
    expected = wire_expected(mix)
    stats.settle()
    if not trace:
        run = _wire_pass(mix, expected, None, SETUP_REPEATS, seconds)
        return stats.Outcome(_all_phases(run), _wire_e2e(run),
                             details=_calm_details(run))
    # Traced run, a third of the seconds each: an untraced pass (the
    # base loaded_rps of the tracing overhead), the traced pass the
    # per-layer numbers come from, and the gateway pass.
    base = _wire_pass(mix, expected, None, 1, seconds / 3)
    run = _wire_pass(mix, expected, tmp / f"trace-{os.getpid()}.jsonl", 1,
                     seconds / 3)
    gateway = _gateway_pass(root, WireMix(seed, "http"), seconds / 3)
    layers = _wire_layers(mix, run, _calm_rps(base["rounds"]["loaded"]),
                          gateway)
    checks = []
    answered = sum(p.ok for p in gateway["rounds"]["http-serial"])
    if gateway["gateway_requests"] != answered:
        checks.append(f"gateway /metrics counted "
                      f"{gateway['gateway_requests']} quantize requests; "
                      f"the benchmark got {answered} correct answers")
    phases = _all_phases(base, run) + [
        p for rounds in gateway["rounds"].values() for p in rounds]
    return stats.Outcome(phases, _wire_e2e(run), layers,
                         {**_span_details(run),
                          "gateway_calm_rounds":
                              _calm_details(gateway)["calm_rounds"]},
                         checks)


# ----------------------------------------------------------------------
# kv-decode
# ----------------------------------------------------------------------
def kv_expected(stream: KVStream, session_id: str) -> dict:
    """Acks and final reads of a local session fed the same blocks."""
    acks = []
    with KVCacheSession(KV_LAYERS, stream.policy, max_tokens=KV_MAX_TOKENS,
                        sink_tokens=KV_SINK_TOKENS,
                        session_id=session_id) as local:
        for op in stream.ops:
            if op.action == "append":
                k, v = stream.blocks[op.index]
                acks.append(local.append(op.layer, k, v))
        reads = [local.read(layer) for layer in range(KV_LAYERS)]
        final = local.stats()
    return {"acks": acks,
            "reads": [(k.tobytes(), v.tobytes()) for k, v in reads],
            "evicted_tokens": final["evicted_tokens"]}


@dataclass
class KVRun:
    reads: list = field(default_factory=list)         # seconds
    walls: list = field(default_factory=list)    # (rid, KVOp, s, ack)
    evicted_tokens: int = 0
    payload_bytes: int = 0
    packed_elements: int = 0


async def kv_session(port: int, stream: KVStream, session_id: str,
                     expected, phase: stats.Phase, rec: KVRun) -> None:
    """One closed decode loop on its own connection. The fresh client
    numbers its frames from 1: open, then every op in order."""
    async with AsyncQuantClient(port=port, timeout=TIMEOUT_S) as cli:
        rid = 1
        phase.sent += 1
        await cli.session_open(session_id=session_id, n_layers=KV_LAYERS,
                               policy=stream.policy,
                               max_tokens=KV_MAX_TOKENS,
                               sink_tokens=KV_SINK_TOKENS)
        phase.ok += 1
        seq = 0
        for op in stream.ops:
            rid += 1
            phase.sent += 1
            t0 = time.perf_counter()
            try:
                if op.action == "append":
                    k, v = stream.blocks[op.index]
                    ack = await cli.session_append(session_id, op.layer,
                                                   k, v, seq=seq)
                else:
                    ack = None
                    k, v = await cli.session_read(session_id, op.layer)
            except Exception as exc:
                phase.fail(f"{session_id} {op}: {type(exc).__name__}: "
                           f"{exc}")
                if op.action == "append":
                    seq += 1
                continue
            wall = time.perf_counter() - t0
            if op.action == "append":
                # The expectation was built under the pooled session id.
                want = {**expected["acks"][seq], "session_id": session_id}
                seq += 1
                if any(ack.get(key) != val for key, val in want.items()):
                    phase.fail(f"{session_id} {op}: ack {ack} != {want}")
                    continue
                if op.tokens == 1:   # decode steps; prefill is not one
                    phase.latencies.append(wall)
            else:
                held = want_tokens(expected, seq, op.layer)
                if k.shape[0] != held:
                    phase.fail(f"{session_id} read layer {op.layer}: "
                               f"{k.shape[0]} tokens, expected {held}")
                    continue
                rec.reads.append(wall)
            rec.walls.append((rid, op, wall, ack))
            phase.ok += 1
        for layer in range(KV_LAYERS):
            phase.sent += 1
            k, v = await cli.session_read(session_id, layer)
            if (k.tobytes(), v.tobytes()) != expected["reads"][layer]:
                phase.fail(f"{session_id}: final read of layer {layer} "
                           f"differs from the local session")
            else:
                phase.ok += 1
        phase.sent += 1
        final = await cli.session_close(session_id)
        phase.ok += 1
        rec.evicted_tokens += final["evicted_tokens"]
        if final["evicted_tokens"] != expected["evicted_tokens"]:
            phase.fail(f"{session_id}: evicted {final['evicted_tokens']} "
                       f"tokens, local session {expected['evicted_tokens']}")
        rec.payload_bytes += final["payload_bytes"]
        rec.packed_elements += final["packed_elements"]


def want_tokens(expected, appended: int, layer: int) -> int:
    """Tokens the layer holds after ``appended`` appends of the stream."""
    for ack in reversed(expected["acks"][:appended]):
        if ack["layer"] == layer:
            return ack["tokens_held"]
    return 0


async def kv_warmup(port: int, plan: KVPlan) -> None:
    """Open, fill and read one throwaway session per policy."""
    async with AsyncQuantClient(port=port, timeout=TIMEOUT_S) as cli:
        for i, stream in enumerate(plan.phases["loaded"][0].values()):
            sid = f"warmup-{i}"
            await cli.session_open(session_id=sid, n_layers=KV_LAYERS,
                                   policy=stream.policy,
                                   max_tokens=KV_MAX_TOKENS,
                                   sink_tokens=KV_SINK_TOKENS)
            seq = 0
            for op in stream.ops[:4 * KV_LAYERS * 2]:
                if op.action == "append":
                    k, v = stream.blocks[op.index]
                    await cli.session_append(sid, op.layer, -k, -v, seq=seq)
                    seq += 1
            for layer in range(KV_LAYERS):
                await cli.session_read(sid, layer)
            await cli.session_close(sid)


def _kv_pass(plan: KVPlan, expected, trace_path, repeats,
             seconds: float) -> dict:
    def warm(server):
        asyncio.run(kv_warmup(server.port, plan))

    server, setups = _setup_loop(lambda: WireServer(trace_path), warm,
                                 repeats)
    trace = stats.TraceFile(trace_path) if trace_path else None
    recs = {name: [] for name in plan.phases}

    def runner(name):
        def run_round(r, members, phase, walls):
            rec = KVRun()
            recs[name].append(rec)
            t0 = time.perf_counter()

            async def sessions():
                await asyncio.gather(*(
                    kv_session(server.port, stream, f"{sid}.{r}",
                               expected[sid], phase, rec)
                    for sid, stream in members.items()))
            asyncio.run(sessions())
            phase.wall_s = time.perf_counter() - t0
            phase.rows = sum(s.steps for s in members.values())
        return run_round

    try:
        out = _run_rounds(plan.phases,
                          {name: runner(name) for name in plan.phases},
                          trace, server.pids(), seconds)
        out.update(setup=setups, recs=recs,
                   rss_mb=stats.peak_rss_mb(server.pids()))
    finally:
        server.close()
    return out


def _kv_e2e(run: dict) -> dict:
    """Latencies are the single-token decode appends."""
    return {"setup_s": stats.setup_s(run["setup"]),
            **_calm_e2e(run["rounds"]["serial"], run["rounds"]["loaded"]),
            "rss_mb": run["rss_mb"]}


def _kv_layers(plan: KVPlan, run: dict, base_rps: float) -> dict:
    # Client-side frame encode/decode of each serial append, timed on
    # the round's own blocks and acks, and the residual joined on the
    # request id (one session per serial round, so ids are unique).
    enc, dec, resid = [], [], []
    for rnd, rec, lines in zip(run["items"]["serial"], run["recs"]["serial"],
                               run["lines"]["serial"]):
        (sid, stream), = rnd.items()
        by_id = {line["request_id"]: line for line in lines}
        for rid, op, wall, ack in rec.walls:
            if op.action != "append" or rid not in by_id:
                continue
            k, v = stream.blocks[op.index]
            e = micro_us(protocol.encode_session_append, rid,
                         session_id=sid, layer=op.layer, seq=0, k=k, v=v)
            frame = protocol.frame_from_bytes(
                protocol.encode_session_ack(rid, ack))
            dd = micro_us(protocol.decode_session_ack, frame)
            enc.append(e)
            dec.append(dd)
            resid.append(stats.residual_ms(wall, e * 1e-6, dd * 1e-6,
                                           by_id[rid]))
    loaded_recs = run["recs"]["loaded"]
    loaded_lines = _flat(run["lines"]["loaded"])
    loaded = run["rounds"]["loaded"]
    serial_p50 = _kv_e2e(run)["serial_p50_ms"]
    return {
        "client.encode_us": statistics.median(enc),
        "client.decode_us": statistics.median(dec),
        "server.residual_ms": statistics.median(resid),
        "server.residual_share": ratio(statistics.median(resid), serial_p50),
        "server.busy": ratio(run["cpu"]["loaded"],
                             sum(p.wall_s for p in loaded)),
        "serve.queue_ms": span_mean_ms(loaded_lines, "queue"),
        "plan.quantize_ms": span_mean_ms(loaded_lines, "quantize"),
        "codec.pack_ms": span_mean_ms(loaded_lines, "pack"),
        "codec.verify_ms": span_mean_ms(loaded_lines, "verify"),
        "codec.fused_share": ratio(
            sum(1 for line in loaded_lines
                if any(s["name"] == "pack" for s in line["spans"])),
            len(loaded_lines)),
        "codec.bits_per_elem": ratio(
            8 * sum(r.payload_bytes for r in loaded_recs),
            sum(r.packed_elements for r in loaded_recs)),
        "kv.append_server_ms": statistics.fmean(
            stats.span_total_s(line) for line in loaded_lines) * 1e3,
        "kv.read_ms": stats.quantile(
            _flat(r.reads for r in loaded_recs), 0.50) * 1e3,
        "kv.evicted_tokens": sum(r.evicted_tokens for r in loaded_recs),
        "obs.trace_overhead_frac": 1.0 - ratio(_calm_rps(loaded), base_rps),
        "obs.trace_id_collisions": sum(
            stats.id_collisions(lines) for lines in run["lines"]["loaded"]),
    }


def kv_workload(root: Path, seed: int, seconds: int, trace: bool,
                tmp: Path) -> stats.Outcome:
    plan = KVPlan(seed)
    expected = {sid: kv_expected(stream, sid)
                for sid, stream in plan.streams().items()}
    stats.settle()
    if not trace:
        run = _kv_pass(plan, expected, None, SETUP_REPEATS, seconds)
        return stats.Outcome(_all_phases(run), _kv_e2e(run),
                             details=_calm_details(run))
    base = _kv_pass(plan, expected, None, 1, seconds / 2)
    run = _kv_pass(plan, expected, tmp / f"trace-{os.getpid()}.jsonl", 1,
                   seconds / 2)
    layers = _kv_layers(plan, run, _calm_rps(base["rounds"]["loaded"]))
    return stats.Outcome(_all_phases(base, run), _kv_e2e(run), layers,
                         _span_details(run))
