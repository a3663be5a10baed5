"""The asyncio HTTP job server: ``repro-sim serve``.

Stdlib only — the HTTP/1.1 surface is small enough (one request per
connection, JSON bodies, one streaming endpoint) that asyncio streams
plus ~80 lines of parsing beat dragging in a framework:

* ``POST /jobs`` — submit a :class:`~repro.engine.spec.RunSpec` or a
  batch (a ``Sweep``'s expanded specs); answers 202 with the job id.
* ``GET /jobs`` — summaries of every known job.
* ``GET /jobs/{id}`` — status, counters and (when done) per-spec stats.
* ``GET /jobs/{id}/events`` — progress lines streamed live until the
  job reaches a terminal state.
* ``GET /metrics`` — queue depth, job states, coalescing counters and
  the engines' summed lifetime :class:`~repro.engine.scheduler.Counters`.
* ``GET /healthz`` — liveness (and whether a drain is in progress).

Framing is bounded before any route runs: a request line past the
stream's 64 KiB line limit is a 400, a longer header line or more than
:data:`MAX_HEADER_LINES` header lines a 431, a ``Content-Length`` that is
not ASCII digits a 400 and a body over :data:`MAX_BODY_BYTES` a 413.

A fixed pool of worker tasks consumes the job queue; each worker owns
one :class:`~repro.engine.scheduler.Engine` and all engines share one
cache directory, so results flow between workers (and between service
restarts) through the same content-addressed store every CLI run uses.
Submissions running concurrently coalesce on ``RunSpec.key()`` via
:class:`~repro.service.coalesce.Coalescer` — N identical in-flight jobs
cost one simulation.  ``SIGTERM``/``SIGINT`` trigger a graceful drain:
stop accepting, finish in-flight jobs (persisting their results through
the spool), then exit.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from pathlib import Path

from repro.engine import Engine, ResultCache, default_cache_dir
from repro.service.coalesce import Coalescer
from repro.service.jobs import TERMINAL, Job, JobStore
from repro.service.metrics import ServiceMetrics
from repro.service.wire import (
    WireError,
    job_detail,
    job_summary,
    parse_job_request,
)

#: refuse request bodies beyond this (a 4096-spec batch is ~2 MB)
MAX_BODY_BYTES = 16 * 1024 * 1024

#: refuse header blocks of more lines than this (431)
MAX_HEADER_LINES = 100

#: idle client connections are dropped after this
REQUEST_TIMEOUT_S = 30.0

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadRequest(Exception):
    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


class SimService:
    """One long-running simulation service instance.

    ``service_workers`` bounds how many *jobs* run concurrently; each
    job's own parallelism (``engine_workers`` process-pool fan-out) is
    the engine's business.  ``cache_dir=None`` uses the default result
    cache; ``no_cache=True`` disables result persistence entirely (the
    coalescer still dedupes concurrent identical work).  The job spool
    defaults to ``<cache_dir>/jobs``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8023,
        cache_dir: str | None = None,
        no_cache: bool = False,
        spool_dir: str | None = None,
        engine_workers: int | None = None,
        service_workers: int = 2,
        fork_warmup: int | None = None,
        log=None,
    ):
        self.host = host
        self.port = port
        self.cache_dir = (
            Path(cache_dir).expanduser() if cache_dir else default_cache_dir()
        )
        self.no_cache = no_cache
        self.spool_dir = (
            Path(spool_dir).expanduser() if spool_dir else self.cache_dir / "jobs"
        )
        self.store = JobStore(self.spool_dir)
        self.engines = [
            Engine(
                workers=engine_workers,
                cache=None if no_cache else ResultCache(self.cache_dir),
                fork_warmup=fork_warmup,
            )
            for _ in range(max(1, service_workers))
        ]
        self.jobs: dict[str, Job] = {}
        self.queue: asyncio.Queue = asyncio.Queue()
        self.coalescer = Coalescer()
        self.metrics = ServiceMetrics()
        self._log = log or (
            lambda msg: print(f"[serve] {msg}", file=sys.stderr, flush=True)
        )
        self._draining = False
        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._worker_tasks: list[asyncio.Task] = []
        self._drain_task: asyncio.Task | None = None
        self._stopped: asyncio.Event | None = None

    # -- lifecycle ---------------------------------------------------------------

    async def run(self, ready=None) -> None:
        """Serve until a drain completes.  ``ready`` (any object with a
        ``set()`` method, e.g. ``threading.Event``) fires once the port
        is bound — test and embedding hook."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._recover_spool()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._worker_tasks = [
            asyncio.create_task(self._worker(i), name=f"sim-worker-{i}")
            for i in range(len(self.engines))
        ]
        self._install_signal_handlers()
        self._log(
            f"listening on http://{self.host}:{self.port} — "
            f"{len(self.engines)} service workers, cache "
            f"{'disabled' if self.no_cache else self.cache_dir}, "
            f"spool {self.spool_dir}"
        )
        if ready is not None:
            ready.set()
        await self._stopped.wait()

    def _install_signal_handlers(self) -> None:
        try:
            self._loop.add_signal_handler(signal.SIGTERM, self.request_drain)
            self._loop.add_signal_handler(signal.SIGINT, self.request_drain)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # not the main thread (embedded/tests) or unsupported

    def request_drain(self) -> None:
        """Begin a graceful drain (idempotent; loop-thread only)."""
        if self._draining:
            return
        self._draining = True
        self._log("drain requested: finishing in-flight jobs")
        self._drain_task = self._loop.create_task(self._drain())

    def request_drain_threadsafe(self) -> None:
        """Trigger a drain from any thread (the test harness's SIGTERM)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.request_drain)

    async def _drain(self) -> None:
        self._server.close()
        await self._server.wait_closed()
        for _ in self._worker_tasks:
            self.queue.put_nowait(None)
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._log("drained: all in-flight jobs finished and persisted")
        self._stopped.set()

    def _recover_spool(self) -> None:
        """Re-enqueue jobs a previous process accepted but never
        finished; finished jobs stay queryable."""
        for job in self.store.load_all():
            self.jobs[job.id] = job
            if job.state not in TERMINAL:
                job.state = "queued"
                job.emit(f"job {job.id}: recovered from spool after restart")
                self.queue.put_nowait(job)
                self._save(job)
        if self.jobs:
            self._log(f"recovered {len(self.jobs)} jobs from {self.spool_dir}")

    def _save(self, job: Job) -> None:
        try:
            self.store.save(job)
        except OSError as exc:  # pragma: no cover - disk trouble
            self._log(f"spool write failed for job {job.id}: {exc}")

    # -- the worker pool ---------------------------------------------------------

    async def _worker(self, idx: int) -> None:
        engine = self.engines[idx]
        while True:
            job = await self.queue.get()
            if job is None:
                return
            try:
                await self._run_job(job, engine)
            except Exception as exc:  # a worker must never die
                job.finish_failed(f"internal error: {exc!r}")
                self.metrics.jobs_failed += 1
                self._save(job)

    async def _run_job(self, job: Job, engine: Engine) -> None:
        loop = asyncio.get_running_loop()
        job.mark_running()
        self._save(job)
        unique = list(dict.fromkeys(job.specs))
        owned, borrowed = self.coalescer.claim(unique)
        job.counters["n_coalesced"] = len(borrowed)
        for spec in borrowed:
            job.emit(f"coalesced {spec.label()} (in flight in another job)")
        results: dict[str, dict] = {}  # spec.key() -> stats dict
        try:
            if owned:

                def progress(event, spec):
                    loop.call_soon_threadsafe(job.emit, f"{event} {spec.label()}")

                def run_map():
                    engine.progress = progress
                    try:
                        return engine.map(owned)
                    finally:
                        engine.progress = None

                # the blocking engine call runs on an executor thread so
                # the loop keeps serving requests and event streams
                sweep = await loop.run_in_executor(None, run_map)
                job.counters.update(sweep.counters.to_dict())
                for spec, stats in sweep.items():
                    stats_dict = stats.to_dict()
                    results[spec.key()] = stats_dict
                    self.coalescer.resolve(spec, stats_dict)
            for spec, fut in borrowed.items():
                results[spec.key()] = await fut
        except Exception as exc:
            for spec in owned:
                self.coalescer.fail(spec, exc)
            job.finish_failed(str(exc) or repr(exc))
            self.metrics.jobs_failed += 1
            self._save(job)
            return
        job.finish_ok([(spec, results[spec.key()]) for spec in unique])
        self.metrics.jobs_completed += 1
        self._save(job)

    # -- HTTP --------------------------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        self.metrics.requests_total += 1
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader), timeout=REQUEST_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                await self._respond(writer, 408, {"error": "request timeout"})
                return
            except _BadRequest as exc:
                await self._respond(writer, exc.status, {"error": str(exc)})
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            await self._dispatch(writer, *request)
        except ConnectionError:  # pragma: no cover - client went away
            pass
        except Exception as exc:  # pragma: no cover - belt and braces
            self._log(f"request handler error: {exc!r}")
            try:
                await self._respond(writer, 500, {"error": "internal error"})
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    async def _read_request(reader):
        """``(method, target, headers, body)`` of one request, or
        :class:`_BadRequest` for framing the server refuses."""
        try:
            line = await reader.readline()
        except ValueError:  # past the stream's buffer limit
            raise _BadRequest("request line too long") from None
        if not line:
            raise _BadRequest("empty request")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _BadRequest("malformed request line")
        method, target, _version = parts
        headers = {}
        for _ in range(MAX_HEADER_LINES + 1):
            try:
                line = await reader.readline()
            except ValueError:
                raise _BadRequest("header line too long", 431) from None
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest(f"more than {MAX_HEADER_LINES} header lines", 431)
        declared = headers.get("content-length", "0")
        # int() alone would also take "-5", "+5" and "5_0"
        if not (declared.isascii() and declared.isdigit()):
            raise _BadRequest("bad Content-Length")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _BadRequest(f"body of {length} bytes exceeds {MAX_BODY_BYTES}", 413)
        body = await reader.readexactly(length) if length > 0 else b""
        return method.upper(), target, headers, body

    async def _dispatch(self, writer, method, target, headers, body) -> None:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if path == "/jobs":
            if method == "POST":
                return await self._post_jobs(writer, body)
            if method == "GET":
                jobs = sorted(self.jobs.values(), key=lambda j: j.created)
                return await self._respond(
                    writer, 200, {"jobs": [job_summary(j) for j in jobs]}
                )
            return await self._method_not_allowed(writer)
        if path == "/metrics" and method == "GET":
            return await self._respond(
                writer,
                200,
                self.metrics.to_dict(
                    self.jobs.values(),
                    self.engines,
                    self.coalescer,
                    draining=self._draining,
                ),
            )
        if path == "/healthz" and method == "GET":
            return await self._respond(
                writer, 200, {"ok": True, "draining": self._draining}
            )
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/") :]
            want_events = rest.endswith("/events")
            job_id = rest[: -len("/events")] if want_events else rest
            job = self.jobs.get(job_id.strip("/"))
            if method != "GET":
                return await self._method_not_allowed(writer)
            if job is None:
                return await self._respond(
                    writer, 404, {"error": f"no such job {job_id!r}"}
                )
            if want_events:
                return await self._stream_events(writer, job)
            return await self._respond(writer, 200, job_detail(job))
        await self._respond(
            writer,
            404,
            {
                "error": f"no route for {method} {path}",
                "routes": [
                    "POST /jobs",
                    "GET /jobs",
                    "GET /jobs/{id}",
                    "GET /jobs/{id}/events",
                    "GET /metrics",
                    "GET /healthz",
                ],
            },
        )

    async def _post_jobs(self, writer, body: bytes) -> None:
        if self._draining:
            return await self._respond(
                writer, 503, {"error": "draining: not accepting new jobs"}
            )
        try:
            request = parse_job_request(body)
        except WireError as exc:
            return await self._respond(writer, 400, {"error": str(exc)})
        job = Job(request.specs, label=request.label)
        self.jobs[job.id] = job
        job.emit(f"job {job.id}: queued ({len(job.specs)} specs)")
        self.metrics.jobs_submitted += 1
        self._save(job)
        await self.queue.put(job)
        doc = job_summary(job)
        doc["url"] = f"/jobs/{job.id}"
        doc["events_url"] = f"/jobs/{job.id}/events"
        await self._respond(writer, 202, doc)

    async def _method_not_allowed(self, writer) -> None:
        await self._respond(writer, 405, {"error": "method not allowed"})

    async def _stream_events(self, writer, job: Job) -> None:
        """Stream progress lines until the job reaches a terminal state;
        the response has no Content-Length and ends when we close."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/plain; charset=utf-8\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        seen = 0
        while True:
            while seen < len(job.events):
                writer.write((job.events[seen] + "\n").encode("utf-8"))
                seen += 1
            await writer.drain()
            if job.state in TERMINAL and seen >= len(job.events):
                return
            await job.wait_events(seen)

    async def _respond(self, writer, status: int, doc: dict | str) -> None:
        """Answer with ``doc`` as compact JSON, which the C encoder
        writes (``indent`` would take the pure-Python one), or with
        ``doc``'s text where it is already JSON (a job's detail)."""
        text = doc if isinstance(doc, str) else json.dumps(doc, separators=(",", ":"))
        body = text.encode("utf-8") + b"\n"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("ascii")
        writer.write(head + body)
        await writer.drain()


def serve(**kwargs) -> int:
    """Blocking entry point used by ``repro-sim serve``."""
    service = SimService(**kwargs)
    try:
        asyncio.run(service.run())
    except KeyboardInterrupt:  # pragma: no cover - ^C without handler
        pass
    return 0
