"""Experiment service: content-addressed result store, async job
queue, and crash-safe worker fleet behind ``repro serve``.

The pieces, bottom-up:

* :mod:`repro.service.canonical` — stable JSON canonicalization and
  the sha256 content key;
* :mod:`repro.service.jobs` — :class:`JobSpec`, the cacheable unit of
  request, and its key discipline;
* :mod:`repro.service.serialize` — exact dict codecs for samples and
  results (the bit-identity layer);
* :mod:`repro.service.store` — the persistent store (atomic result
  objects + append-only seed checkpoints);
* :mod:`repro.service.workers` — heartbeat-supervised forked seed
  workers with crash/stall/timeout retry;
* :mod:`repro.service.queue` — :class:`ExperimentService`: admission,
  priorities, single-flight dedupe, dispatch, recovery, aggregation;
* :mod:`repro.service.protocol` / :mod:`repro.service.client` — the
  JSON-lines socket server and its blocking client.

See ``docs/SERVICE.md`` for the protocol, the store layout, and the
cache-correctness contract.

Every name resolves lazily: a simulation process that only needs
``result_to_dict`` must not import asyncio and the server with it.
"""

from .._lazy import lazy_exports

__all__ = [
    "DEFAULT_STORE_PATH",
    "ExperimentService",
    "JobSpec",
    "JobState",
    "KINDS",
    "ResultStore",
    "SeedOutcome",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "canonical_json",
    "canonicalize",
    "content_key",
    "drain",
    "result_from_dict",
    "result_to_dict",
    "run_seed_unit",
    "sample_from_dict",
    "sample_to_dict",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "canonical_json": "canonical",
        "canonicalize": "canonical",
        "content_key": "canonical",
        "ServiceClient": "client",
        "ServiceError": "client",
        "KINDS": "jobs",
        "JobSpec": "jobs",
        "ServiceServer": "protocol",
        "drain": "protocol",
        "ExperimentService": "queue",
        "JobState": "queue",
        "result_from_dict": "serialize",
        "result_to_dict": "serialize",
        "sample_from_dict": "serialize",
        "sample_to_dict": "serialize",
        "DEFAULT_STORE_PATH": "store",
        "ResultStore": "store",
        "SeedOutcome": "workers",
        "run_seed_unit": "workers",
    },
)
