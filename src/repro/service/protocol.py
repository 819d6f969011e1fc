"""JSON-lines request/response protocol for ``repro serve``.

One connection carries any number of requests; each request is a single
JSON object on one line, each response a single JSON object on one
line.  Requests name an ``op``::

    {"op": "ping"}
    {"op": "submit", "spec": {...JobSpec.to_dict()...}, "priority": 5}
    {"op": "status", "key": "<sha256>"}
    {"op": "result", "key": "<sha256>", "wait": true, "timeout": 30}
    {"op": "queue"}
    {"op": "watch", "key": "<sha256>", "interval": 1.0,
     "max_snapshots": 10}
    {"op": "events", "since": 0, "follow": true, "max_events": 100}
    {"op": "shutdown"}

Responses always carry ``"ok": true`` plus op-specific fields, or
``"ok": false`` with ``"error"``.  A malformed line gets an error
response; the connection stays open (a client bug should not drop its
neighbours' in-flight waits).

``watch`` and ``events`` are the two *streaming* verbs: instead of one
response line they emit a line per snapshot/event on the same
connection.  A watch stream ends with a frame carrying ``"done":
true`` (job reached a terminal state, or ``max_snapshots`` hit, marked
``"truncated": true``); a follow-mode events stream ends when
``max_events`` is reached or the client hangs up.  After a stream
finishes the connection is back in request/response mode — clients may
pipeline another op on the same socket.

The server listens on a unix socket (default) or localhost TCP
(``host``/``port``; port 0 picks an ephemeral port — how the tests and
the CI smoke run without colliding).  ``drain`` runs a batch of specs
through a service without any socket at all (``repro serve --drain``).
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Optional, Tuple

from .jobs import JobSpec
from .queue import ExperimentService

__all__ = ["ServiceServer", "drain"]

#: Bound on one request line; a spec is a few hundred bytes, so this is
#: generous while still containing a misbehaving client.
MAX_LINE = 1 << 20


class ServiceServer:
    """Asyncio socket frontend over an :class:`ExperimentService`."""

    def __init__(
        self,
        service: ExperimentService,
        *,
        socket_path: Optional[Path] = None,
        host: Optional[str] = None,
        port: int = 0,
    ) -> None:
        if (socket_path is None) == (host is None):
            raise ValueError("serve on exactly one of unix socket / TCP")
        self.service = service
        self.socket_path = (
            Path(socket_path).expanduser() if socket_path else None
        )
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> "ServiceServer":
        await self.service.start()
        if self.socket_path is not None:
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            if self.socket_path.exists():
                self.socket_path.unlink()
            self._server = await asyncio.start_unix_server(
                self._handle, path=str(self.socket_path)
            )
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.host, port=self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def endpoint(self) -> str:
        if self.socket_path is not None:
            return str(self.socket_path)
        return f"{self.host}:{self.port}"

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` request (or cancellation)."""
        try:
            await self._shutdown.wait()
        finally:
            await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()
        if self.socket_path is not None and self.socket_path.exists():
            self.socket_path.unlink()

    # -- request handling ------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if len(line) > MAX_LINE:
                    response = {"ok": False, "error": "request too large"}
                else:
                    try:
                        request = json.loads(line)
                    except ValueError as exc:
                        response = _error(exc)
                    else:
                        if (
                            isinstance(request, dict)
                            and request.get("op") in ("watch", "events")
                        ):
                            try:
                                await self._stream(request, writer)
                            except (
                                ConnectionResetError,
                                BrokenPipeError,
                            ):
                                break
                            continue
                        response = await self._dispatch(request)
                writer.write(
                    json.dumps(response, separators=(",", ":")).encode()
                    + b"\n"
                )
                try:
                    await writer.drain()
                except ConnectionResetError:
                    break
                if response.get("bye"):
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _send(writer, payload: dict) -> None:
        writer.write(
            json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        )
        await writer.drain()

    async def _stream(self, request: dict, writer) -> None:
        """Run one streaming verb; leaves the connection reusable."""
        try:
            if request["op"] == "watch":
                await self._stream_watch(request, writer)
            else:
                await self._stream_events(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            raise
        except Exception as exc:
            await self._send(
                writer,
                {**_error(exc), "done": True},
            )

    async def _stream_watch(self, request: dict, writer) -> None:
        """Push periodic :meth:`ExperimentService.watch_snapshot`
        frames for one job until it reaches a terminal state."""
        key = request["key"]
        interval = max(0.05, float(request.get("interval", 1.0)))
        max_snapshots = request.get("max_snapshots")
        count = 0
        while True:
            snapshot = self.service.watch_snapshot(key)
            state = snapshot["status"].get("state")
            terminal = state in ("done", "failed", "unknown")
            count += 1
            truncated = (
                not terminal
                and max_snapshots is not None
                and count >= int(max_snapshots)
            )
            frame = {
                "ok": True,
                "snapshot": snapshot,
                "done": terminal or truncated,
            }
            if truncated:
                frame["truncated"] = True
            await self._send(writer, frame)
            if frame["done"]:
                return
            await asyncio.sleep(interval)

    async def _stream_events(self, request: dict, writer) -> None:
        """Replay telemetry events past ``since``; with ``follow``,
        keep pushing live events as the service records them."""
        telemetry = self.service.telemetry
        since = int(request.get("since", 0))
        follow = bool(request.get("follow", False))
        max_events = request.get("max_events")
        if not follow:
            backlog = telemetry.events(since)
            await self._send(
                writer,
                {
                    "ok": True,
                    "events": backlog,
                    "last_seq": backlog[-1]["seq"] if backlog else since,
                    "done": True,
                },
            )
            return
        # Subscribe before reading the backlog so no event can fall in
        # the gap; the seq check below drops the overlap.
        queue = telemetry.subscribe()
        try:
            last_seq = since
            sent = 0

            async def push(event: dict) -> bool:
                nonlocal last_seq, sent
                last_seq = event["seq"]
                sent += 1
                finished = (
                    max_events is not None and sent >= int(max_events)
                )
                await self._send(
                    writer,
                    {"ok": True, "event": event, "done": finished},
                )
                return finished

            for event in telemetry.events(since):
                if await push(event):
                    return
            while True:
                event = await queue.get()
                if event["seq"] <= last_seq:
                    continue
                if await push(event):
                    return
        finally:
            telemetry.unsubscribe(queue)

    async def _dispatch(self, request) -> dict:
        """Answer one decoded request line."""
        try:
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            op = request.get("op")
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "submit":
                spec = JobSpec.from_dict(request["spec"])
                out = self.service.submit(
                    spec, priority=int(request.get("priority", 0))
                )
                return {"ok": True, **out}
            if op == "status":
                return {"ok": True, **self.service.status(request["key"])}
            if op == "result":
                out = await self.service.result(
                    request["key"],
                    wait=bool(request.get("wait", False)),
                    timeout=request.get("timeout"),
                )
                return {"ok": True, **out}
            if op == "queue":
                return {"ok": True, **self.service.queue_snapshot()}
            if op == "shutdown":
                self._shutdown.set()
                return {"ok": True, "bye": True}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as exc:
            return _error(exc)


def _error(exc: Exception) -> dict:
    """The response to a request that raised ``exc``."""
    return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


async def drain(
    service: ExperimentService, specs, priorities=None
) -> Tuple[list, dict]:
    """Run a batch of specs to completion (``repro serve --drain``).

    Returns ``(results, counters)`` where ``results[i]`` is the store
    record for ``specs[i]`` (every spec resolves to a record — cached,
    deduped, or freshly run) or an error dict for a failed job.
    """
    await service.start()
    try:
        keys = []
        for i, spec in enumerate(specs):
            priority = priorities[i] if priorities else 0
            out = service.submit(spec, priority=priority)
            if out["status"] == "shed":
                raise RuntimeError(
                    "drain overflowed its own queue; raise queue_limit"
                )
            keys.append(out["key"])
        results = []
        for key in keys:
            out = await service.result(key, wait=True)
            if out["status"] == "done":
                results.append(out["record"])
            else:
                results.append(
                    {"key": key, "error": out.get("error", out["status"])}
                )
        return results, dict(service.counters)
    finally:
        await service.close()
