"""CI smoke for the experiment service (docs/SERVICE.md).

Exercises the full lifecycle against a real ``repro serve`` child
process:

1. start the server on an ephemeral localhost port;
2. submit a job and a concurrent duplicate — the duplicate must attach
   to the in-flight job (single-flight), not run again;
3. SIGKILL a worker process mid-run — the service must retry the lost
   seed and still finish the job;
4. resubmit after completion — a cache hit, zero extra seed units;
5. watch one running job — a seed's heartbeat snapshot must reach the
   stream (a non-terminal frame with a live seed past cycle 0) before
   the terminal frame;
6. drain one small job of every other experiment kind, so that every
   kind runs in a forked worker of a real server;
7. restart the server over the same store — the result survives and
   still answers as a cache hit;
8. shut down cleanly.

Exit 0 = every property held.  Uses wall-clock timeouts only to bound
the smoke itself; every simulation result is deterministic.
"""

# Wall-clock timing is this file's *purpose* (bench harness, not
# simulation state): server startup polling and timeouts need real time.
# simlint: disable-file=wallclock

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.service import KINDS, ServiceClient  # noqa: E402

#: Big enough that a worker is observably mid-run when we kill it.
SPEC = {
    "kind": "open_loop",
    "design": "afc",
    "width": 4,
    "height": 4,
    "warmup_cycles": 500,
    "measure_cycles": 6000,
    "seeds": 2,
    "rate": 0.25,
}
#: One small job of each kind ``SPEC`` is not.
OTHER_KINDS = (
    {
        "kind": "closed_loop",
        "design": "afc",
        "workload": "apache",
        "warmup_cycles": 100,
        "measure_cycles": 300,
    },
    {
        "kind": "faulted",
        "design": "afc",
        "rate": 0.2,
        "warmup_cycles": 100,
        "measure_cycles": 300,
        "fault": {"link_flap_rate": 4.0, "bit_error_rate": 2.0},
    },
)
#: Long enough (~1.5 s a seed) for several 0.5 s worker beats.
WATCH_SPEC = {**SPEC, "seeds": 1, "measure_cycles": 15000}
DEADLINE = 300.0


def log(message: str) -> None:
    print(f"smoke: {message}", flush=True)


def start_server(store: str) -> tuple:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--store", store, "--jobs", "2",
        ],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline().strip()  # "serving on 127.0.0.1:PORT"
    assert line.startswith("serving on "), line
    port = int(line.rsplit(":", 1)[1])
    log(f"server pid {proc.pid} on port {port}")
    return proc, port


def wait_for(predicate, timeout: float, what: str):
    start = time.monotonic()
    while time.monotonic() - start < timeout:
        value = predicate()
        if value:
            return value
        time.sleep(0.1)
    raise TimeoutError(f"timed out waiting for {what}")


def main() -> int:
    store = tempfile.mkdtemp(prefix="repro-smoke-store-")
    server, port = start_server(store)
    try:
        with ServiceClient(host="127.0.0.1", port=port) as client:
            assert client.ping()["pong"] is True

            # -- submit + concurrent duplicate (single-flight) -------
            first = client.submit(SPEC)
            assert first["status"] == "queued", first
            key = first["key"]
            duplicate = client.submit(SPEC)
            assert duplicate.get("deduped"), duplicate
            log(f"submitted {key[:12]}, duplicate attached in flight")

            # -- SIGKILL a worker mid-run ----------------------------
            def live_worker():
                workers = client.status(key).get("workers") or {}
                return next(iter(workers.values()), None)

            victim = wait_for(live_worker, DEADLINE, "a worker pid")
            os.kill(victim, signal.SIGKILL)
            log(f"SIGKILLed worker {victim} mid-run")

            outcome = client.result(key, wait=True, timeout=DEADLINE)
            assert outcome["status"] == "done", outcome
            record = outcome["record"]
            counters = client.queue()["counters"]
            assert counters["worker_crashes"] >= 1, counters
            assert counters["deduped"] == 1, counters
            units_after_first = counters["seed_units_run"]
            log(
                f"job finished despite the kill "
                f"(crashes={counters['worker_crashes']}, "
                f"seed_units={units_after_first})"
            )

            # -- resubmit: cache hit, zero extra work ----------------
            again = client.submit(SPEC)
            assert again["status"] == "cached", again
            counters = client.queue()["counters"]
            assert counters["cache_hits"] == 1, counters
            assert counters["seed_units_run"] == units_after_first
            log("resubmission answered from the store, zero extra work")

            # -- watch a running job: live progress before the end ---
            watched = client.submit(WATCH_SPEC)["key"]
            frames = [
                frame["snapshot"]
                for frame in client.watch(watched, interval=0.1)
            ]
            assert frames[-1]["status"]["state"] == "done", frames[-1]
            live = [
                seed["cycle"]
                for snapshot in frames[:-1]
                for seed in (snapshot["status"].get("live") or {}).values()
            ]
            assert any(cycle > 0 for cycle in live), (
                f"no live seed in {len(frames)} frames"
            )
            log(
                f"watched {watched[:12]}: {len(frames)} frames, live "
                f"seed reached cycle {max(live)} before the end"
            )

            # -- every other kind drains through a forked worker -----
            kinds = [SPEC["kind"]] + [spec["kind"] for spec in OTHER_KINDS]
            assert sorted(kinds) == sorted(KINDS), kinds
            for spec in OTHER_KINDS:
                submitted = client.submit(spec)
                done = client.result(
                    submitted["key"], wait=True, timeout=DEADLINE
                )
                assert done["status"] == "done", done
            log(f"drained one job of each kind: {', '.join(kinds)}")

            client.shutdown()
        server.wait(timeout=30)
        log("server shut down cleanly")

        # -- restart over the same store: the result survived --------
        server, port = start_server(store)
        with ServiceClient(host="127.0.0.1", port=port) as client:
            revived = client.submit(SPEC)
            assert revived["status"] == "cached", revived
            stored = client.result(key)
            assert stored["status"] == "done"
            assert stored["record"] == record, (
                "restarted server returned a different record"
            )
            counters = client.queue()["counters"]
            assert counters["seed_units_run"] == 0, counters
            log("restarted server serves the same record from the store")
            client.shutdown()
        server.wait(timeout=30)

        log("OK: single-flight, crash recovery, cache, restart all hold")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)


if __name__ == "__main__":
    raise SystemExit(main())
