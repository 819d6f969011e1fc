"""The async job queue: single-flight dedupe, caching, backpressure,
priorities, and the socket protocol.

The acceptance property pinned here: a duplicate submission — whether
it lands while the original is in flight or after it finished — causes
**zero additional simulation work** (asserted through the service's
``seed_units_run`` counter, which counts actual worker executions).

No pytest-asyncio in the toolchain: every async test body runs under a
plain ``asyncio.run`` wrapper.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import sys

import pytest

from repro.harness.experiment import ExperimentRunner
from repro.network.config import Design, NetworkConfig
from repro.service import (
    ExperimentService,
    JobSpec,
    ResultStore,
    ServiceClient,
    ServiceServer,
    drain,
    result_from_dict,
    result_to_dict,
    sample_to_dict,
)

FAST = dict(warmup_cycles=100, measure_cycles=300)


def fast_spec(**overrides) -> JobSpec:
    base = dict(kind="open_loop", rate=0.2, seeds=2, **FAST)
    base.update(overrides)
    return JobSpec(**base)


# -- drain + bit-identity --------------------------------------------------


def test_drain_matches_foreground_runner_bit_for_bit(tmp_path):
    spec = fast_spec()
    service = ExperimentService(ResultStore(tmp_path), jobs=2)
    results, counters = asyncio.run(drain(service, [spec]))
    assert counters["jobs_completed"] == 1

    runner = ExperimentRunner(
        NetworkConfig(3, 3), jobs=1, seeds=2, **FAST
    )
    fresh = runner.run_open_loop(Design.AFC, rate=0.2)
    assert results[0]["result"] == result_to_dict(fresh)
    assert result_from_dict(results[0]["result"]) == fresh


def test_concurrent_duplicates_run_the_simulation_once(tmp_path):
    """Five concurrent submitters of one spec: single-flight means one
    job, ``seeds`` worker executions, and five identical answers."""
    spec = fast_spec()

    async def scenario():
        service = ExperimentService(ResultStore(tmp_path), jobs=2)
        await service.start()
        try:
            outs = [service.submit(spec) for _ in range(5)]
            keys = {o["key"] for o in outs}
            assert len(keys) == 1
            assert sum(1 for o in outs if not o.get("deduped")) == 1
            answers = await asyncio.gather(
                *(service.result(spec.key(), wait=True) for _ in range(5))
            )
            return outs, answers, dict(service.counters)
        finally:
            await service.close()

    outs, answers, counters = asyncio.run(scenario())
    assert counters["deduped"] == 4
    assert counters["seed_units_run"] == spec.seeds  # zero extra work
    assert all(a["status"] == "done" for a in answers)
    records = [a["record"] for a in answers]
    assert all(r == records[0] for r in records)


def test_resubmission_after_completion_is_a_cache_hit(tmp_path):
    spec = fast_spec()
    store = ResultStore(tmp_path)

    async def scenario():
        service = ExperimentService(store, jobs=2)
        await service.start()
        try:
            service.submit(spec)
            await service.result(spec.key(), wait=True)
            second = service.submit(spec)
            return second, dict(service.counters)
        finally:
            await service.close()

    second, counters = asyncio.run(scenario())
    assert second["status"] == "cached"
    assert counters["cache_hits"] == 1
    assert counters["seed_units_run"] == spec.seeds

    # A separate service over the same store: still zero work.
    results, counters2 = asyncio.run(
        drain(ExperimentService(store, jobs=2), [spec])
    )
    assert counters2["cache_hits"] == 1
    assert counters2["seed_units_run"] == 0
    assert results[0] == store.get(spec.key())


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda text: text[: len(text) // 2], id="truncated"),
        pytest.param(
            lambda text: text.replace('"key":"', '"key":"0', 1),
            id="other-key",
        ),
    ],
)
def test_damaged_store_object_is_recomputed_and_replaced(tmp_path, damage):
    """An object that does not decode, or names another key, is a cache
    miss: draining the spec again recomputes it and replaces the file."""
    spec = fast_spec(seeds=1)
    store = ResultStore(tmp_path)
    (original,), _ = asyncio.run(drain(ExperimentService(store), [spec]))
    path = tmp_path / "objects" / spec.key()[:2] / f"{spec.key()}.json"
    path.write_text(damage(path.read_text()))
    assert store.get(spec.key()) is None
    assert spec.key() not in store

    (again,), counters = asyncio.run(drain(ExperimentService(store), [spec]))
    assert counters["cache_hits"] == 0
    assert counters["seed_units_run"] == spec.seeds
    assert again == original
    assert store.get(spec.key()) == original


def test_engine_variants_share_one_cache_entry(tmp_path):
    """An active-engine result answers a vector-engine request — the
    key excludes the engine because engines are bit-identical."""
    store = ResultStore(tmp_path)
    active = fast_spec(engine="active")
    vector = fast_spec(engine="vector")
    asyncio.run(drain(ExperimentService(store, jobs=2), [active]))
    results, counters = asyncio.run(
        drain(ExperimentService(store, jobs=2), [vector])
    )
    assert counters["seed_units_run"] == 0
    assert results[0] == store.get(active.key())


def test_full_queue_sheds_with_backpressure_hint(tmp_path):
    specs = [fast_spec(base_seed=i) for i in range(3)]

    async def scenario():
        # max_active=0: nothing dispatches, so the queue stays full.
        service = ExperimentService(
            ResultStore(tmp_path), jobs=1, queue_limit=2, max_active=0
        )
        await service.start()
        try:
            outs = [service.submit(s) for s in specs]
            return outs, dict(service.counters)
        finally:
            await service.close()

    outs, counters = asyncio.run(scenario())
    assert [o["status"] for o in outs] == ["queued", "queued", "shed"]
    assert outs[2]["retry_after"] > 0
    assert "queue full" in outs[2]["reason"]
    assert counters["shed"] == 1


def test_priorities_order_dispatch(tmp_path):
    """With one active slot, a higher-priority later submission runs
    before earlier low-priority ones; equal priorities stay FIFO."""
    order = []
    specs = {i: fast_spec(base_seed=10 + i, seeds=1) for i in range(3)}

    async def scenario():
        service = ExperimentService(
            ResultStore(tmp_path), jobs=1, max_active=1
        )
        real_run = ExperimentService._run_job

        async def tracking_run(self, state):
            order.append(state.spec.base_seed)
            await real_run(self, state)

        ExperimentService._run_job = tracking_run
        try:
            await service.start()
            service.submit(specs[0], priority=0)
            service.submit(specs[1], priority=0)
            service.submit(specs[2], priority=5)
            await asyncio.gather(
                *(
                    service.result(s.key(), wait=True)
                    for s in specs.values()
                )
            )
        finally:
            ExperimentService._run_job = real_run
            await service.close()

    asyncio.run(scenario())
    # All three submissions land before the dispatcher wakes (submit
    # never yields), so priority decides first and FIFO breaks the tie.
    assert order == [12, 10, 11]


@pytest.mark.parametrize("field", ["heartbeat_timeout", "seed_timeout"])
@pytest.mark.parametrize(
    "value", [0.0, -1.0, math.nan, math.inf], ids=["0", "-1", "nan", "inf"]
)
def test_bad_timeouts_are_rejected_naming_the_field(tmp_path, field, value):
    """A zero timeout stalls every worker at once; ``nan`` makes every
    comparison false and so turns stall and deadline detection off."""
    with pytest.raises(ValueError, match=field):
        ExperimentService(ResultStore(tmp_path), **{field: value})


def test_no_seed_timeout_means_no_deadline(tmp_path):
    service = ExperimentService(ResultStore(tmp_path), seed_timeout=None)
    assert service.seed_timeout is None


def test_concurrent_beats_are_never_lost(tmp_path, monkeypatch):
    """Seed supervisors write ``JobState.live`` from their own threads
    while the event loop folds it for ``status``.  With more
    supervisors than cores and a tiny switch interval, every seed's
    latest beat is the one the service holds, no fold trips over a
    writer, and nothing is left once the job ends."""
    from repro.service import queue as queue_mod
    from repro.service.workers import SeedOutcome

    spec = fast_spec(seeds=4)
    key = spec.key()
    samples = [sample_to_dict(spec.run_seed(i)) for i in range(spec.seeds)]
    service = ExperimentService(ResultStore(tmp_path), jobs=spec.seeds)
    lost = []

    def beating_unit(spec_dict, index, *, on_spawn, on_beat, **kwargs):
        on_spawn(1000 + index, 1)
        state = service._states[key]
        for cycle in range(1, 2001):
            on_beat(1000 + index, {"cycle": cycle, "throughput": 0.1})
            if state.live.get(index, {}).get("cycle") != cycle:
                lost.append((index, cycle))
        return SeedOutcome(status="ok", sample=samples[index], attempts=1)

    monkeypatch.setattr(queue_mod, "run_seed_unit", beating_unit)

    async def scenario():
        await service.start()
        try:
            service.submit(spec)
            folds = 0
            while service.status(key)["state"] in ("queued", "running"):
                folds += 1
                await asyncio.sleep(0)
            return folds
        finally:
            await service.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        folds = asyncio.run(asyncio.wait_for(scenario(), 60))
    finally:
        sys.setswitchinterval(interval)
    assert folds > 0 and lost == []
    assert service.status(key)["state"] == "done"
    assert service._states[key].live == {}


def test_status_reports_lifecycle(tmp_path):
    spec = fast_spec(seeds=1)

    async def scenario():
        service = ExperimentService(ResultStore(tmp_path), jobs=1)
        await service.start()
        try:
            assert service.status(spec.key())["state"] == "unknown"
            service.submit(spec)
            await service.result(spec.key(), wait=True)
            return service.status(spec.key())
        finally:
            await service.close()

    done = asyncio.run(scenario())
    assert done["state"] == "done"


def test_failed_job_reports_error_not_hang(tmp_path):
    """A spec whose workload disappears between submit and run fails
    cleanly: result(wait=True) resolves with the error."""
    spec = fast_spec(seeds=1)

    async def scenario():
        service = ExperimentService(ResultStore(tmp_path), jobs=1)
        # Sabotage: make every seed unit report a deterministic error.
        from repro.service import queue as queue_mod

        real = queue_mod.run_seed_unit

        def broken(spec_dict, index, **kwargs):
            from repro.service.workers import SeedOutcome

            return SeedOutcome(
                status="error", error="boom", attempts=1
            )

        queue_mod.run_seed_unit = broken
        try:
            await service.start()
            service.submit(spec)
            out = await service.result(spec.key(), wait=True)
            return out, dict(service.counters)
        finally:
            queue_mod.run_seed_unit = real
            await service.close()

    out, counters = asyncio.run(scenario())
    assert out["status"] == "failed"
    assert "boom" in out["error"]
    assert counters["jobs_failed"] == 1


# -- the socket protocol ---------------------------------------------------


def test_protocol_over_tcp_socket(tmp_path):
    """submit/status/result/queue/ping/shutdown over a real socket,
    ephemeral port, blocking client in a worker thread."""
    spec = fast_spec(seeds=1)

    async def scenario():
        service = ExperimentService(ResultStore(tmp_path), jobs=1)
        server = ServiceServer(service, host="127.0.0.1", port=0)
        await server.start()
        port = server.port

        def client_side():
            with ServiceClient(host="127.0.0.1", port=port) as client:
                assert client.ping()["pong"] is True
                out = client.submit(spec.to_dict(), priority=1)
                assert out["status"] in ("queued", "running")
                key = out["key"]
                got = client.result(key, wait=True, timeout=60)
                assert got["status"] == "done"
                assert client.status(key)["state"] == "done"
                snapshot = client.queue()
                assert snapshot["counters"]["jobs_completed"] == 1
                client.shutdown()
                return got["record"]

        record = await asyncio.wait_for(
            asyncio.to_thread(client_side), timeout=120
        )
        await asyncio.wait_for(server.serve_until_shutdown(), timeout=10)
        return record

    record = asyncio.run(scenario())
    fresh = ExperimentRunner(
        NetworkConfig(3, 3), jobs=1, seeds=1, **FAST
    ).run_open_loop(Design.AFC, rate=0.2)
    assert record["result"] == result_to_dict(fresh)


def test_protocol_rejects_malformed_requests_and_stays_up(tmp_path):
    async def scenario():
        service = ExperimentService(ResultStore(tmp_path), jobs=1)
        server = ServiceServer(service, host="127.0.0.1", port=0)
        await server.start()
        port = server.port

        def client_side():
            with socket.create_connection(
                ("127.0.0.1", port), timeout=10
            ) as sock:
                handle = sock.makefile("rwb")
                for bad in (b"not json\n", b'{"op": "nope"}\n', b"[]\n"):
                    handle.write(bad)
                    handle.flush()
                    response = json.loads(handle.readline())
                    assert response["ok"] is False
                # The connection survived three bad requests.
                handle.write(b'{"op": "ping"}\n')
                handle.flush()
                assert json.loads(handle.readline())["pong"] is True

        await asyncio.wait_for(asyncio.to_thread(client_side), timeout=30)
        await server.stop()

    asyncio.run(scenario())


def test_protocol_answers_json_that_is_not_an_object(tmp_path):
    """Every JSON value decodes; only an object is a request.  ``null``,
    scalars and arrays each get ``ok: false`` on a connection that
    stays usable."""

    async def scenario():
        service = ExperimentService(ResultStore(tmp_path), jobs=1)
        server = ServiceServer(service, host="127.0.0.1", port=0)
        await server.start()

        def client_side():
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                handle = sock.makefile("rwb")
                for value in (b"null", b"42", b'"ping"', b"[1]", b"\xff"):
                    handle.write(value + b"\n")
                    handle.flush()
                    response = json.loads(handle.readline())
                    assert response["ok"] is False, value
                handle.write(b'{"op": "ping"}\n')
                handle.flush()
                assert json.loads(handle.readline())["pong"] is True

        await asyncio.wait_for(asyncio.to_thread(client_side), timeout=30)
        await server.stop()

    asyncio.run(scenario())


def test_protocol_over_unix_socket(tmp_path):
    async def scenario():
        service = ExperimentService(ResultStore(tmp_path / "store"), jobs=1)
        path = tmp_path / "serve.sock"
        server = ServiceServer(service, socket_path=path)
        await server.start()
        assert path.exists()

        def client_side():
            with ServiceClient(socket_path=path) as client:
                return client.ping()

        out = await asyncio.wait_for(
            asyncio.to_thread(client_side), timeout=30
        )
        assert out["pong"] is True
        await server.stop()
        assert not path.exists()

    asyncio.run(scenario())
