"""Durable storage for traffic records.

Persistent-traffic queries span days to months of records (Section
II-A: "all days in a month"), so a real central server must keep
records on disk between measurement periods.  :class:`RecordArchive`
stores each record as its compact upload payload in a directory, with
a JSON manifest carrying SHA-256 checksums so corruption is detected
at load time rather than silently skewing estimates.

Layout::

    archive/
      manifest.json                 {"records": {"10/3": {...}}, ...}
      loc00010_per00003.record      <- TrafficRecord.to_payload() bytes

The archive is append-only in spirit (one record per location/period,
like the in-memory store) and loads back into a
:class:`~repro.server.store.RecordStore` for querying.

Durability: every file — record payloads and the manifest — is written
to a temporary sibling, fsynced, and atomically renamed into place
(``os.replace``), so a crash mid-write can never leave a truncated
manifest or half a record on disk.  A crash *between* the two writes
leaves an orphaned ``.record`` file the manifest doesn't know about;
:meth:`RecordArchive.repair` reconciles those (adopting parseable
orphans, quarantining corrupt ones, dropping entries whose files
vanished), and :meth:`RecordArchive.recover` constructs an archive
from a directory even when the manifest itself is unreadable.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.exceptions import DataError, ReproError
from repro.obs import runtime as obs
from repro.rsu.record import TrafficRecord
from repro.server.store import RecordStore

_MANIFEST_NAME = "manifest.json"
_FORMAT_VERSION = 1


def record_filename(location: int, period: int) -> str:
    """The canonical on-disk name of one record's payload file.

    Public because the sharded tier's write-ahead-log replay
    (:mod:`repro.server.sharded.wal`) materializes recovered payloads
    under exactly this name so :meth:`RecordArchive.repair` adopts
    them as ordinary orphans.
    """
    return f"loc{location:05d}_per{period:05d}.record"


_record_filename = record_filename


def _checksum(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` durably: tmp sibling, fsync, atomic rename."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    # Persist the rename itself where the platform allows it.
    try:
        dir_fd = os.open(str(path.parent), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(dir_fd)


@dataclass(frozen=True)
class RepairReport:
    """What :meth:`RecordArchive.repair` found and fixed.

    Attributes
    ----------
    recovered:
        ``(location, period)`` pairs adopted from orphaned ``.record``
        files the manifest had no entry for (the crash-between-writes
        case — the record data was durable, only the index was stale).
    dropped:
        Manifest keys whose record files have vanished; their entries
        were removed so loads stop failing.
    quarantined:
        Orphan filenames that could not be parsed as traffic records;
        renamed to ``<name>.corrupt`` and left for forensics.
    """

    recovered: Tuple[Tuple[int, int], ...]
    dropped: Tuple[str, ...]
    quarantined: Tuple[str, ...]

    @property
    def clean(self) -> bool:
        """True when the archive needed no reconciliation at all."""
        return not (self.recovered or self.dropped or self.quarantined)


class RecordArchive:
    """A directory-backed store of traffic-record payloads.

    Parameters
    ----------
    directory:
        Where records live.  Created (with parents) if missing.
    """

    def __init__(self, directory):
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self._directory / _MANIFEST_NAME
        self._manifest = self._load_manifest()
        self._repair_listeners: List = []

    def add_repair_listener(self, listener) -> None:
        """Subscribe ``listener(report)`` to every :meth:`repair` pass.

        The central server uses this to flush its query-plan cache:
        a repair may change which records exist, so every memoized
        join is suspect afterwards.
        """
        self._repair_listeners.append(listener)

    # ------------------------------------------------------------------
    # Manifest handling
    # ------------------------------------------------------------------

    def _load_manifest(self) -> Dict:
        if not self._manifest_path.exists():
            return {"version": _FORMAT_VERSION, "records": {}}
        try:
            manifest = json.loads(self._manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"unreadable archive manifest: {exc}") from exc
        if manifest.get("version") != _FORMAT_VERSION:
            raise DataError(
                f"archive format version {manifest.get('version')!r} is not "
                f"supported (expected {_FORMAT_VERSION})"
            )
        if not isinstance(manifest.get("records"), dict):
            raise DataError("archive manifest lacks a records table")
        return manifest

    def _write_manifest(self) -> None:
        serialized = json.dumps(self._manifest, indent=2, sort_keys=True)
        _write_atomic(self._manifest_path, serialized.encode("utf-8"))

    @staticmethod
    def _key(location: int, period: int) -> str:
        return f"{int(location)}/{int(period)}"

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def save(self, record: TrafficRecord) -> Path:
        """Persist one record durably; returns the record file path.

        A byte-identical re-save of an archived record is an
        idempotent no-op (matching the in-memory store); a
        *conflicting* record for the same ``(location, period)``
        raises :class:`DataError`.  The record payload lands on disk
        (atomically, fsynced) before the manifest references it, so a
        crash between the two writes leaves an orphan that
        :meth:`repair` adopts — never a manifest entry pointing at
        missing or partial data.
        """
        key = self._key(record.location, record.period)
        payload = record.to_payload()
        digest = _checksum(payload)
        existing = self._manifest["records"].get(key)
        if existing is not None:
            if existing["sha256"] == digest:
                return self._directory / existing["file"]
            raise DataError(
                f"the archive already holds a conflicting record for "
                f"location {record.location}, period {record.period}"
            )
        filename = _record_filename(record.location, record.period)
        path = self._directory / filename
        _write_atomic(path, payload)
        self._manifest["records"][key] = {
            "file": filename,
            "sha256": digest,
            "bits": record.size,
        }
        self._write_manifest()
        return path

    def save_all(self, records) -> int:
        """Persist many records; returns how many were written."""
        count = 0
        for record in records:
            self.save(record)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._manifest["records"])

    def entries(self) -> List[Tuple[int, int]]:
        """Sorted (location, period) pairs the archive holds."""
        pairs = []
        for key in self._manifest["records"]:
            location, period = key.split("/")
            pairs.append((int(location), int(period)))
        return sorted(pairs)

    def _load_payload(self, key: str) -> bytes:
        entry = self._manifest["records"].get(key)
        if entry is None:
            raise DataError(f"archive has no record for {key}")
        path = self._directory / entry["file"]
        try:
            payload = path.read_bytes()
        except OSError as exc:
            raise DataError(f"missing archive file {entry['file']}: {exc}") from exc
        if _checksum(payload) != entry["sha256"]:
            raise DataError(
                f"archive file {entry['file']} failed its checksum — "
                "the record is corrupt"
            )
        return payload

    def load(self, location: int, period: int) -> TrafficRecord:
        """Load and verify one record."""
        payload = self._load_payload(self._key(location, period))
        record = TrafficRecord.from_payload(payload)
        if record.location != int(location) or record.period != int(period):
            raise DataError(
                f"archive file for {location}/{period} contains a record "
                f"for {record.location}/{record.period}"
            )
        return record

    def load_all(self) -> Iterator[TrafficRecord]:
        """Iterate every archived record (verified)."""
        for location, period in self.entries():
            yield self.load(location, period)

    def load_store(self) -> RecordStore:
        """Materialize the archive into an in-memory record store."""
        store = RecordStore()
        for record in self.load_all():
            store.add(record)
        return store

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def repair(self) -> RepairReport:
        """Reconcile the manifest with the ``.record`` files on disk.

        Three kinds of damage are healed:

        * orphaned record files (written by a :meth:`save` that
          crashed before the manifest update) are parsed, validated
          against their filename, and adopted into the manifest — the
          kill-mid-save case recovers with no record loss;
        * orphans that fail to parse are renamed to ``<name>.corrupt``
          so they stop shadowing future saves but stay inspectable;
        * manifest entries whose record file has vanished are dropped,
          so loads fail fast at repair time instead of mid-query.

        The rewritten manifest is only persisted when something
        changed.  Returns a :class:`RepairReport`.
        """
        known_files = {
            entry["file"] for entry in self._manifest["records"].values()
        }
        recovered: List[Tuple[int, int]] = []
        dropped: List[str] = []
        quarantined: List[str] = []

        for key, entry in sorted(self._manifest["records"].items()):
            if not (self._directory / entry["file"]).exists():
                dropped.append(key)
        for key in dropped:
            del self._manifest["records"][key]

        for path in sorted(self._directory.glob("*.record")):
            if path.name in known_files:
                continue
            adopted = self._adopt_orphan(path)
            if adopted is not None:
                recovered.append(adopted)
            else:
                path.rename(path.with_name(path.name + ".corrupt"))
                quarantined.append(path.name)

        report = RepairReport(
            recovered=tuple(recovered),
            dropped=tuple(dropped),
            quarantined=tuple(quarantined),
        )
        if not report.clean:
            self._write_manifest()
            if obs.ACTIVE:
                obs.counter(
                    "repro_archive_repairs_total",
                    "Archive repair passes that changed the manifest.",
                ).inc()
        for listener in self._repair_listeners:
            listener(report)
        return report

    def _adopt_orphan(self, path: Path) -> "Tuple[int, int] | None":
        """Validate one orphaned record file and index it, or None."""
        try:
            payload = path.read_bytes()
            record = TrafficRecord.from_payload(payload)
        except (OSError, ReproError, ValueError):
            return None
        if _record_filename(record.location, record.period) != path.name:
            # The payload decodes but belongs to a different
            # (location, period) than its filename claims: corrupt.
            return None
        key = self._key(record.location, record.period)
        if key in self._manifest["records"]:
            return None
        self._manifest["records"][key] = {
            "file": path.name,
            "sha256": _checksum(payload),
            "bits": record.size,
        }
        return (record.location, record.period)

    @classmethod
    def recover(cls, directory) -> Tuple["RecordArchive", RepairReport]:
        """Open an archive tolerating a corrupt or missing manifest.

        Where the ordinary constructor raises on an unreadable
        manifest, this rebuilds the index from scratch (every record
        file on disk becomes an orphan and is adopted by
        :meth:`repair`).  Returns the archive and the repair report.
        """
        directory = Path(directory)
        archive = cls.__new__(cls)
        archive._directory = directory
        archive._directory.mkdir(parents=True, exist_ok=True)
        archive._manifest_path = directory / _MANIFEST_NAME
        archive._repair_listeners = []
        try:
            archive._manifest = archive._load_manifest()
        except DataError:
            archive._manifest = {"version": _FORMAT_VERSION, "records": {}}
        return archive, archive.repair()

    def verify(self) -> int:
        """Check every record's checksum; returns the verified count.

        Raises :class:`DataError` on the first corrupt or missing
        file, naming it.
        """
        count = 0
        for key in sorted(self._manifest["records"]):
            self._load_payload(key)
            count += 1
        return count
