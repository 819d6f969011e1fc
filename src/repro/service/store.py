"""Persistent content-addressed result store with seed checkpoints.

Layout (under ``~/.repro/store`` by default, or any ``--store PATH``)::

    store/
      objects/<key[:2]>/<key>.json   # one finished result per job key
      partials/<key>.jsonl           # per-seed checkpoints of a job
                                     # that is (or was) in flight
      series/<key>.jsonl             # per-job progress time series,
                                     # kept alongside the result

Objects are written atomically (temp file + ``os.replace``) so a crash
mid-write can never leave a truncated record where a reader expects a
result.  Partials are append-only JSON lines flushed+fsynced per seed;
a worker crash can at worst leave a truncated *final* line, which the
reader detects and drops — every intact line is a completed seed that
is never recomputed.  Series rows share the partials' append +
torn-tail discipline but are *not* cleared on completion — they are
the job's persistent progress record (``repro dash`` reads them).

A record is ``{"key", "kind", "version", "spec", "result"}``:
``spec`` the submitted job description, ``result`` the exact payload of
:func:`repro.service.serialize.result_to_dict`, and ``version`` the
package version that computed it (attribution, not identity — the key
already pins every result-determining parameter).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from .. import __version__

__all__ = ["ResultStore", "DEFAULT_STORE_PATH"]

DEFAULT_STORE_PATH = Path("~/.repro/store")


class ResultStore:
    """Content-addressed result + checkpoint store on one directory."""

    def __init__(self, root=DEFAULT_STORE_PATH) -> None:
        self.root = Path(root).expanduser()
        self._objects = self.root / "objects"
        self._partials = self.root / "partials"
        self._series = self.root / "series"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._partials.mkdir(parents=True, exist_ok=True)
        self._series.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _check_key(key: str) -> str:
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"not a job key: {key!r}")
        return key

    # -- result objects --------------------------------------------------
    def _object_path(self, key: str) -> Path:
        return self._objects / key[:2] / f"{self._check_key(key)}.json"

    def get(self, key: str) -> Optional[dict]:
        """The stored record for ``key``, or None.

        An object that does not decode, or that records another key,
        is a miss too: the job is recomputed and :meth:`put` replaces
        the object atomically, so one damaged file never pins an error
        to its key."""
        path = self._object_path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                record = json.load(handle)
        except (FileNotFoundError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("key") != key:
            return None
        return record

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def put(
        self, key: str, kind: str, spec: dict, result: dict
    ) -> dict:
        """Atomically persist a finished result; returns the record.

        Last-write-wins on a racing duplicate is harmless by
        construction: two writers for one key hold bit-identical
        payloads (the cache-correctness contract).
        """
        record = {
            "key": key,
            "kind": kind,
            "version": __version__,
            "spec": spec,
            "result": result,
        }
        path = self._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle, separators=(",", ":"))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
        return record

    def keys(self) -> Iterator[str]:
        for shard in sorted(self._objects.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # -- seed checkpoints ------------------------------------------------
    def _partial_path(self, key: str) -> Path:
        return self._partials / f"{key}.jsonl"

    def checkpoint_seed(self, key: str, index: int, sample: dict) -> None:
        """Append one completed seed's sample (durable per line)."""
        line = json.dumps(
            {"seed_index": index, "sample": sample},
            separators=(",", ":"),
        )
        with open(
            self._partial_path(key), "a", encoding="utf-8"
        ) as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def partial_seeds(self, key: str) -> Dict[int, dict]:
        """Completed seed samples by index (drops any torn tail line).

        A later checkpoint for the same index wins, which only happens
        if a crash landed between a checkpoint write and the service's
        bookkeeping — the payloads are identical either way."""
        out: Dict[int, dict] = {}
        try:
            with open(
                self._partial_path(key), encoding="utf-8"
            ) as handle:
                for line in handle:
                    try:
                        entry = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    out[int(entry["seed_index"])] = entry["sample"]
        except FileNotFoundError:
            pass
        return out

    def clear_partials(self, key: str) -> None:
        try:
            os.unlink(self._partial_path(key))
        except FileNotFoundError:
            pass

    # -- per-job progress series -----------------------------------------
    def _series_path(self, key: str) -> Path:
        return self._series / f"{self._check_key(key)}.jsonl"

    def append_series(self, key: str, row: dict) -> None:
        """Append one progress row (durable per line, like partials)."""
        line = json.dumps(row, separators=(",", ":"))
        with open(
            self._series_path(key), "a", encoding="utf-8"
        ) as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def series(self, key: str) -> List[dict]:
        """The job's progress rows in append order (torn tail dropped).

        Series persist alongside results — they are not cleared when a
        job completes, so ``repro dash`` can plot the trajectory of a
        long-finished run."""
        out: List[dict] = []
        try:
            with open(
                self._series_path(key), encoding="utf-8"
            ) as handle:
                for line in handle:
                    try:
                        out.append(json.loads(line))
                    except json.JSONDecodeError:
                        continue
        except FileNotFoundError:
            pass
        return out

    def series_keys(self) -> List[str]:
        """Keys that have a recorded progress series."""
        return sorted(
            path.stem for path in self._series.glob("*.jsonl")
        )
