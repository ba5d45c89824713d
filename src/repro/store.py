"""repro.store — a disk-backed, content-addressed campaign result store.

Every entry is keyed by the SHA-256 of a *key document*: the campaign
spec's :func:`repro.serialize.canonical_json` form plus the store schema
version and the engine/workload identity (their revision counters).  Two
processes — or two CI jobs days apart — that ask for the same spec under
the same code identity therefore address the same entry, which is what
lets :meth:`repro.api.campaign.Campaign.sweep` resume a half-finished
grid and lets CI stop re-verifying unchanged grid points.

Durability contract:

- **atomic writes** — every entry is written to a same-directory
  temporary file and ``os.replace``'d into place, so readers never see a
  half-written entry and concurrent writers of the *same* key settle on
  one complete envelope;
- **corruption-tolerant reads** — an unreadable, truncated or
  schema-mismatched entry file is treated as a miss (and counted in
  :attr:`CampaignStore.corrupt`), never an exception: a crashed writer
  or a bad disk degrades the store to a cache miss, not a failed sweep;
- **failure envelopes** — a grid point that *raises* is recorded with
  ``status="error"`` and the error's type/message, so a resumed sweep
  can retry exactly the failed points and never the completed ones.

Layout scales in two steps.  Live writes land as one *loose* file per
entry under a two-hex-digit shard directory (``entries/<kk>/<key>.json``
— 256-way fan-out, so no directory ever holds the whole store), and
:meth:`~CampaignStore.pack` folds the loose files into an append-only
*pack* (``packs/<name>.pack``: the entry files' raw bytes concatenated,
plus a ``<name>.idx.json`` offset/length index), so millions of entries
don't mean millions of inodes.  Reads are transparent across both
generations, with loose always winning over packed so a retry written
after packing shadows the stale copy.  A store from before sharding
(*flat* ``entries/<key>.json`` files) is moved into its shards the
first time a handle opens it; keys do not change.

The maintenance surface (:meth:`~CampaignStore.ls`,
:meth:`~CampaignStore.show`, :meth:`~CampaignStore.gc`,
:meth:`~CampaignStore.pack`) is exposed by the ``repro store`` CLI
subcommand.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover (no flock on platform)
    fcntl = None

from repro.records import ENTRY_SCHEMA, StoreEntry
from repro.serialize import canonical_json, json_safe
from repro.swir import engine as _engine
from repro.telemetry import metrics as _metrics

# Process-wide twins of the per-handle hits/misses/writes counters.
_READS = _metrics.counter("repro_store_reads_total",
                          "Store entry reads by outcome (hit/miss)")
_WRITES = _metrics.counter("repro_store_writes_total",
                           "Store entry writes")
_PACK_READS = _metrics.counter("repro_store_pack_reads_total",
                               "Entry reads served from pack files")

#: Schema tag of the store manifest (``store.json`` at the root).
STORE_SCHEMA = "repro.store/v1"
#: Version baked into every content address; bump to invalidate every
#: existing entry when the envelope layout or keying rules change.
STORE_VERSION = 1
#: Schema tag of a pack's offset/length index document.
PACK_SCHEMA = "repro.store_pack/v1"

#: Age (seconds) past which an atomic-write temp file is considered
#: orphaned by a crashed writer.  ``gc`` never touches younger temps:
#: they may belong to a concurrent writer between create and rename.
STALE_TMP_SECONDS = 15 * 60


def write_json_atomic(path: Path, document: dict) -> None:
    """Atomic write: same-directory temp file + ``os.replace``.

    The one write discipline every durable file in the system uses —
    store entries, manifests and :mod:`repro.service.queue` job records
    alike — so readers never observe a torn document.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as stream:
        # json.dumps, not json.dump: handed a stream, json always encodes
        # in pure Python (~5x slower on a campaign entry), while the text
        # is the same.
        stream.write(json.dumps(document, sort_keys=True))
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp, path)


def read_json_document(path: Path) -> Optional[dict]:
    """The file's JSON object, or None if missing/corrupt/non-object."""
    try:
        with open(path, encoding="utf-8") as stream:
            document = json.load(stream)
    except (OSError, ValueError, UnicodeDecodeError):
        return None
    return document if isinstance(document, dict) else None


def workload_identity(name: str) -> dict:
    """The workload part of an entry's content address.

    Includes the workload's ``revision`` counter (default 1): a workload
    implementation that changes its results bumps it, retiring every
    stored entry computed by the old implementation.
    """
    from repro.workloads import get_workload

    workload = get_workload(name)
    return {"workload": workload.name,
            "workload_revision": int(getattr(workload, "revision", 1))}


def campaign_identity(spec) -> dict:
    """Everything besides the spec itself that shapes a campaign result.

    The engine name is a constant: production runs one SWIR engine.  It
    stays in the address so every stored entry keeps its key, and
    entries stored under the retired ``ast`` selector keep an identity
    of their own (the ledger's ``engine`` column).
    """
    return {
        "store_version": STORE_VERSION,
        "engine": "batched",
        "engine_revision": _engine.ENGINE_REVISION,
        **workload_identity(spec.workload),
    }


def content_key(document: Any) -> str:
    """SHA-256 hex digest of the document's canonical JSON form."""
    return hashlib.sha256(
        canonical_json(document).encode("utf-8")).hexdigest()


def campaign_key(spec) -> str:
    """The content address of one campaign spec's result entry."""
    return content_key({
        "kind": "campaign",
        "identity": campaign_identity(spec),
        "spec": spec.to_dict(),
    })


def stage_key(identity: dict) -> str:
    """The content address of a persisted stage artifact.

    ``identity`` is the stage's own key material (see
    :meth:`repro.api.stages.FlowStage.store_identity`); the store schema
    version rides along so a version bump retires stage entries too.
    """
    return content_key({
        "kind": "stage",
        "identity": {"store_version": STORE_VERSION, **identity},
    })


class StoredLevel4Result:
    """A level-4 verification result rehydrated from its stored document.

    Quacks like :class:`repro.flow.level4.Level4Result` for everything
    downstream of the stage cache — the level-4 pass gate
    (:attr:`verified`), serialization (:meth:`to_dict` returns the
    stored document verbatim, so reports built from a store hit are
    byte-identical to the original run) and :meth:`describe` — without
    the live netlists, which are not round-trippable.
    """

    def __init__(self, payload: dict):
        self._payload = payload

    @property
    def verified(self) -> bool:
        return bool(self._payload.get("verified", False))

    @property
    def modules(self) -> dict:
        """Per-module summary documents (not live :class:`ModuleRtl`)."""
        return self._payload.get("modules", {})

    def to_dict(self) -> dict:
        return copy.deepcopy(self._payload)

    def describe(self) -> str:
        from repro.flow.level4 import describe_level4

        return describe_level4(self._payload)


class CampaignStore:
    """One on-disk store rooted at a directory.

    Layout::

        <root>/store.json              manifest (schema + version)
        <root>/entries/<kk>/<key>.json one envelope per content address
        <root>/locks/<key>.lock        stage compute locks (stage_lock)

    where ``<kk>`` is the first two hex digits of the key (fan-out so
    ``ls`` over large stores never lists one huge directory).
    """

    def __init__(self, root, create: bool = True):
        self.root = Path(root)
        self.entries_dir = self.root / "entries"
        self.packs_dir = self.root / "packs"
        #: cache-efficiency counters for this handle (not persisted)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: keys written through this handle, in write order — the fleet
        #: runner uploads exactly these (plus the job's campaign keys)
        #: back to its coordinator after a job.
        self.written_keys: list[str] = []
        #: corrupt entry files seen by reads (candidates for ``gc``)
        self.corrupt: list[str] = []
        #: lazy key -> (pack_path, offset, length) index over ``packs/``
        self._pack_index: Optional[dict[str, tuple[Path, int, int]]] = None
        manifest_path = self.root / "store.json"
        if create:
            self.entries_dir.mkdir(parents=True, exist_ok=True)
            if not manifest_path.exists():
                self._write_json(manifest_path, {
                    "schema": STORE_SCHEMA,
                    "version": STORE_VERSION,
                })
        elif not manifest_path.exists():
            raise FileNotFoundError(
                f"no campaign store at {self.root} (missing store.json); "
                f"check the path — stores are only created by writers")
        manifest = self._read_json(manifest_path)
        if manifest is None and create and manifest_path.exists():
            # Torn/corrupt manifest: rewrite it so the version guard
            # comes back for every later open (entries are untouched —
            # their content addresses embed the version anyway).
            manifest = {"schema": STORE_SCHEMA, "version": STORE_VERSION}
            self._write_json(manifest_path, manifest)
        if manifest is not None:
            version = manifest.get("version")
            if version != STORE_VERSION:
                raise ValueError(
                    f"store at {self.root} has version {version!r}; this "
                    f"build reads/writes version {STORE_VERSION} — point at "
                    f"a fresh directory (entries never collide: the version "
                    f"is part of every content address)"
                )
        if self.entries_dir.is_dir():
            self._shard_flat_entries()

    # -- low-level file handling --------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        return self.entries_dir / key[:2] / f"{key}.json"

    def _shard_flat_entries(self) -> None:
        """Move each pre-shard ``entries/<key>.json`` into its shard (one
        listing of ``entries/`` per open).  A flat twin of a sharded
        entry is the stale copy — sharded always won reads — and is
        dropped; a file another handle moved first is skipped."""
        for name in os.listdir(self.entries_dir):
            if not name.endswith(".json") or name.startswith("."):
                continue  # a shard directory or an atomic-write temp
            flat = self.entries_dir / name
            target = self._entry_path(name.removesuffix(".json"))
            with contextlib.suppress(FileNotFoundError):
                if target.exists():
                    flat.unlink()
                else:
                    target.parent.mkdir(exist_ok=True)
                    os.replace(flat, target)

    _write_json = staticmethod(write_json_atomic)
    _read_json = staticmethod(read_json_document)

    # -- pack plumbing ------------------------------------------------------------

    def _index_paths(self) -> list[Path]:
        if not self.packs_dir.is_dir():
            return []
        return sorted(self.packs_dir.glob("*.idx.json"))

    def _packs(self) -> dict[str, tuple[Path, int, int]]:
        """The merged key -> (pack file, offset, length) index, lazily
        loaded once per handle; later packs shadow earlier ones.
        Unreadable or mismatched index files are skipped — the worst a
        corrupt index costs is cache misses, never an exception."""
        if self._pack_index is not None:
            return self._pack_index
        index: dict[str, tuple[Path, int, int]] = {}
        for idx_path in self._index_paths():
            document = self._read_json(idx_path)
            if (document is None or document.get("schema") != PACK_SCHEMA
                    or not isinstance(document.get("entries"), dict)):
                self.corrupt.append(str(idx_path))
                continue
            pack_path = self.packs_dir / document.get("pack", "")
            if not pack_path.is_file():
                self.corrupt.append(str(idx_path))
                continue
            for key, span in document["entries"].items():
                try:
                    offset, length = int(span[0]), int(span[1])
                except (TypeError, ValueError, IndexError):
                    continue
                index[key] = (pack_path, offset, length)
        self._pack_index = index
        return index

    def _read_packed(self, key: str) -> Optional[dict]:
        """The parsed envelope for a packed key, or None (not packed or
        unreadable bytes — the latter is remembered as corrupt)."""
        span = self._packs().get(key)
        if span is None:
            return None
        pack_path, offset, length = span
        try:
            with open(pack_path, "rb") as stream:
                stream.seek(offset)
                raw = stream.read(length)
            document = json.loads(raw.decode("utf-8"))
        except (OSError, ValueError, UnicodeDecodeError):
            self.corrupt.append(f"{pack_path}@{offset}+{length}")
            return None
        return document if isinstance(document, dict) else None

    # -- keys ---------------------------------------------------------------------

    def campaign_key(self, spec) -> str:
        return campaign_key(spec)

    def stage_key(self, identity: dict) -> str:
        return stage_key(identity)

    def resolve(self, prefix: str) -> str:
        """The unique stored key starting with ``prefix``.

        Raises ``KeyError`` when no entry matches and ``ValueError``
        when the prefix is ambiguous.
        """
        matches = [key for key in self.keys() if key.startswith(prefix)]
        if not matches:
            raise KeyError(f"no store entry matches {prefix!r}")
        if len(matches) > 1:
            raise ValueError(
                f"key prefix {prefix!r} is ambiguous "
                f"({len(matches)} matches)")
        return matches[0]

    # -- reads --------------------------------------------------------------------

    #: One acceptance test for every generation's read path, owned by
    #: the typed record layer (:class:`repro.records.StoreEntry`).
    _valid_envelope = staticmethod(StoreEntry.is_valid)

    def get(self, key: str) -> Optional[dict]:
        """The entry envelope for ``key``, or None (miss *or* corrupt).

        Looks through the layout's generations in precedence order:
        loose, then packed — so an entry re-written after packing (a
        retried failure) shadows its stale packed copy.
        """
        path = self._entry_path(key)
        if not path.is_file():
            envelope = self._read_packed(key)
            if not self._valid_envelope(envelope, key):
                self.misses += 1
                _READS.inc(outcome="miss")
                return None
            self.hits += 1
            _READS.inc(outcome="hit")
            _PACK_READS.inc()
            return envelope
        envelope = self._read_json(path)
        if not self._valid_envelope(envelope, key):
            # Truncated write, bad disk, or a foreign file: a miss, not
            # an error.  Remember it so gc can reclaim the file.
            self.corrupt.append(str(path))
            self.misses += 1
            _READS.inc(outcome="miss")
            return None
        self.hits += 1
        _READS.inc(outcome="hit")
        return envelope

    def get_campaign(self, spec) -> Optional[dict]:
        """The stored envelope for one campaign spec (any status)."""
        return self.get(self.campaign_key(spec))

    def get_stage(self, identity: dict) -> Optional[dict]:
        """The stored *payload* of a persisted stage artifact, or None."""
        envelope = self.get(self.stage_key(identity))
        if envelope is None or envelope["status"] != "ok":
            return None
        return envelope["payload"]

    @contextlib.contextmanager
    def stage_lock(self, identity: dict):
        """Hold the exclusive lock of one stage artifact on this store.

        Sessions that miss the same artifact at once (two service jobs
        of one workload, two sweep workers) then compute it once: the
        later one waits here and reads the earlier one's entry.  It is
        an advisory ``flock`` on ``locks/<key>.lock``, released however
        its holder exits.
        """
        path = self.root / "locks" / f"{self.stage_key(identity)}.lock"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as stream:
            if fcntl is not None:
                fcntl.flock(stream, fcntl.LOCK_EX)
            yield

    # -- writes -------------------------------------------------------------------

    def _put(self, key: str, envelope: dict) -> str:
        self._write_json(self._entry_path(key), envelope)
        self.writes += 1
        _WRITES.inc()
        self.written_keys.append(key)
        return key

    def adopt(self, key: str, envelope: dict) -> bool:
        """Merge one foreign entry envelope under its content address.

        The fleet upload path: a coordinator adopting entries computed
        by a remote runner.  Content addressing makes the merge
        idempotent — an entry we already hold (loose or packed) is left
        alone and the call returns False; a ``status == "error"`` entry
        never shadows an existing one (a local ``ok`` must win).  The
        envelope must be internally consistent (schema, key, status)
        or ValueError is raised: never trust wire bytes into the store.
        """
        if not self._valid_envelope(envelope, key):
            raise ValueError(
                f"refusing to adopt malformed envelope for {key[:12]}")
        existing = self.get(key)
        if existing is not None and (existing["status"] == "ok"
                                     or envelope["status"] == "error"):
            return False
        self._put(key, envelope)
        return True

    def _attempts_before(self, key: str) -> int:
        path = self._entry_path(key)
        previous = (self._read_json(path) if path.is_file()
                    else self._read_packed(key))
        if previous is None:
            return 0
        return int(previous.get("attempts", 0) or 0)

    def put_campaign(self, spec, payload: dict) -> str:
        """Record one completed campaign outcome document; returns key."""
        key = self.campaign_key(spec)
        return self._put(key, StoreEntry(
            key=key,
            kind="campaign",
            status="ok",
            identity=campaign_identity(spec),
            spec=spec.to_dict(),
            payload=json_safe(payload),
            error=None,
            attempts=self._attempts_before(key) + 1,
            created_at=time.time(),
        ).to_dict())

    def put_campaign_failure(self, spec, exc: BaseException) -> str:
        """Record one *failed* campaign point with its error envelope."""
        key = self.campaign_key(spec)
        return self._put(key, StoreEntry(
            key=key,
            kind="campaign",
            status="error",
            identity=campaign_identity(spec),
            spec=spec.to_dict(),
            payload=None,
            error={
                "type": type(exc).__name__,
                "message": str(exc),
            },
            attempts=self._attempts_before(key) + 1,
            created_at=time.time(),
        ).to_dict())

    def put_stage(self, identity: dict, payload: dict) -> str:
        """Persist one stage artifact document under its identity."""
        key = self.stage_key(identity)
        return self._put(key, StoreEntry(
            key=key,
            kind="stage",
            status="ok",
            identity={"store_version": STORE_VERSION, **identity},
            spec=None,
            payload=json_safe(payload),
            error=None,
            attempts=self._attempts_before(key) + 1,
            created_at=time.time(),
        ).to_dict())

    def delete(self, key: str) -> bool:
        """Remove one entry; returns whether it existed.

        A packed entry is dropped from its index (its dead bytes stay
        in the pack file until a future repack); a loose copy is
        unlinked.
        """
        existed = False
        try:
            os.unlink(self._entry_path(key))
            existed = True
        except FileNotFoundError:
            pass
        if key in self._packs():
            self._drop_packed(key)
            existed = True
        return existed

    def _drop_packed(self, key: str) -> None:
        """Rewrite every pack index that lists ``key`` without it."""
        for idx_path in self._index_paths():
            document = self._read_json(idx_path)
            if (document is None or document.get("schema") != PACK_SCHEMA
                    or key not in (document.get("entries") or {})):
                continue
            del document["entries"][key]
            self._write_json(idx_path, document)
        self._pack_index = None  # reload lazily

    # -- maintenance --------------------------------------------------------------

    def _entry_files(self) -> list[Path]:
        """Every *loose* entry file."""
        if not self.entries_dir.is_dir():
            return []
        return sorted(self.entries_dir.glob("*/*.json"))

    def keys(self) -> list[str]:
        """Every entry key — loose and packed — sorted."""
        out = {path.stem for path in self._entry_files()
               if not path.name.startswith(".")}
        out.update(self._packs())
        return sorted(out)

    def ls(self) -> list[dict]:
        """One summary row per readable entry (corrupt files skipped).

        Covers loose and packed entries; a key present in both is
        listed once, from its loose (authoritative) copy.
        """
        rows = []
        seen: set[str] = set()
        for path in self._entry_files():
            if path.name.startswith("."):
                continue
            envelope = self._read_json(path)
            if (envelope is None or envelope.get("schema") != ENTRY_SCHEMA
                    or envelope.get("key") != path.stem):
                continue
            seen.add(path.stem)
            rows.append(self._ls_row(envelope, path.stat().st_size))
        for key, (_pack, _offset, length) in sorted(self._packs().items()):
            if key in seen:
                continue
            envelope = self._read_packed(key)
            if not self._valid_envelope(envelope, key):
                continue
            rows.append(self._ls_row(envelope, length, packed=True))
        rows.sort(key=lambda row: (row["kind"], row["name"], row["key"]))
        return rows

    @staticmethod
    def _ls_row(envelope: dict, size: int, packed: bool = False) -> dict:
        spec = envelope.get("spec") or {}
        identity = envelope.get("identity") or {}
        return {
            "key": envelope["key"],
            "kind": envelope.get("kind", "?"),
            "status": envelope.get("status", "?"),
            "name": spec.get("name") or identity.get("stage") or "",
            "workload": (spec.get("workload")
                         or identity.get("workload") or ""),
            "attempts": envelope.get("attempts", 1),
            "created_at": envelope.get("created_at"),
            "bytes": size,
            "packed": packed,
        }

    def show(self, key_or_prefix: str) -> dict:
        """The full envelope for a key (unique prefixes accepted)."""
        key = self.resolve(key_or_prefix)
        envelope = self.get(key)
        if envelope is None:
            raise KeyError(f"store entry {key} is unreadable (corrupt?); "
                           f"run gc to reclaim it")
        return envelope

    def gc(self, failed: bool = False, dry_run: bool = False,
           protect: frozenset = frozenset(),
           drop: frozenset = frozenset()) -> dict:
        """Reclaim temp litter and corrupt entries; optionally failures.

        Always removes *stale* atomic-write temp files (older than
        :data:`STALE_TMP_SECONDS` — younger ones may belong to a
        concurrent writer mid-rename) and entry files that do not parse
        as valid envelopes; with ``failed=True`` also removes
        ``status="error"`` entries (forcing a resumed sweep to retry
        those points even if their retry budget concerned you) — both
        loose and packed.  ``drop`` is an explicit set of keys to
        delete regardless of status — the ledger-driven policy path
        (``repro store gc --policy '<query>'``), counted separately as
        ``removed_policy``.  Packed victims are reclaimed by
        **rewriting their packs**: the surviving entries' bytes are
        copied into a fresh pack + index pair (the same crash-safe
        temp+rename discipline as :meth:`pack`) and the old pair is
        unlinked, so dead bytes don't accumulate on disk.  ``protect``
        is a set of keys gc must never delete — the CLI threads the
        keys of every queued/running service job through it
        (:func:`repro.service.queue.active_store_keys`), so a
        maintenance pass can't yank an entry out from under a job;
        protected would-be victims are counted and, like everything
        else, listed by ``dry_run``.  ``dry_run=True`` computes the
        same counts (returning would-be victims under ``"candidates"``
        and protected survivors under ``"protected_keys"``) but deletes
        nothing.  Returns removal/kept counts.
        """
        stats: dict = {"removed_tmp": 0, "removed_corrupt": 0,
                       "removed_failed": 0, "removed_policy": 0,
                       "kept": 0, "protected": 0, "dry_run": dry_run}
        candidates: list[str] = []
        protected_keys: list[str] = []
        stats["candidates"] = candidates
        stats["protected_keys"] = protected_keys

        def reclaim(path: Path, counter: str) -> None:
            if dry_run:
                candidates.append(str(path))
            else:
                path.unlink(missing_ok=True)
            stats[counter] += 1

        def spare(key: str) -> None:
            protected_keys.append(key)
            stats["protected"] += 1
            stats["kept"] += 1

        if not self.entries_dir.is_dir():
            return stats
        now = time.time()
        tmp_files = list(self.entries_dir.glob("*/.*"))
        tmp_files += [path for path in self.root.glob(".*.tmp.*")
                      if path.is_file()]  # orphaned manifest temps
        for path in sorted(tmp_files):
            try:
                if now - path.stat().st_mtime < STALE_TMP_SECONDS:
                    continue
            except OSError:
                continue  # raced with its writer's os.replace: in use
            reclaim(path, "removed_tmp")
        loose_keys: set[str] = set()
        for path in self._entry_files():
            envelope = self._read_json(path)
            if not self._valid_envelope(envelope, path.stem):
                reclaim(path, "removed_corrupt")
                continue
            loose_keys.add(path.stem)
            if path.stem in drop:
                if path.stem in protect:
                    spare(path.stem)
                else:
                    reclaim(path, "removed_policy")
            elif failed and envelope["status"] == "error":
                if path.stem in protect:
                    spare(path.stem)
                else:
                    reclaim(path, "removed_failed")
            else:
                stats["kept"] += 1
        packed_dead: set[str] = set()

        def reclaim_packed(key: str, counter: str) -> None:
            if dry_run:
                candidates.append(f"packed:{key}")
            else:
                packed_dead.add(key)
            stats[counter] += 1

        for key in sorted(set(self._packs()) - loose_keys):
            envelope = self._read_packed(key)
            if not self._valid_envelope(envelope, key):
                # Unreadable packed bytes: repack without the dead row.
                reclaim_packed(key, "removed_corrupt")
            elif key in drop:
                if key in protect:
                    spare(key)
                else:
                    reclaim_packed(key, "removed_policy")
            elif failed and envelope["status"] == "error":
                if key in protect:
                    spare(key)
                else:
                    reclaim_packed(key, "removed_failed")
            else:
                stats["kept"] += 1
        if packed_dead:
            self._rewrite_packs(packed_dead)
        if not dry_run:
            self.corrupt = []
        return stats

    def _rewrite_packs(self, dead: set[str]) -> None:
        """Rewrite every pack holding a ``dead`` key without it.

        Crash-safe at every step: (1) the *old* index is atomically
        rewritten without the dead keys first, so from that point on
        the dead entries are unreachable no matter where a crash lands;
        (2) the survivors' raw bytes are copied into a fresh pack +
        index pair (temp + rename + fsync, like :meth:`pack`); (3) only
        then are the old index and pack unlinked.  A crash between (2)
        and (3) at worst leaves the survivors reachable through two
        equivalent packs — reads pick one, ``gc`` converges the next
        time around.
        """
        for idx_path in self._index_paths():
            document = self._read_json(idx_path)
            if (document is None or document.get("schema") != PACK_SCHEMA
                    or not isinstance(document.get("entries"), dict)):
                continue
            doomed = dead & set(document["entries"])
            if not doomed:
                continue
            pack_path = self.packs_dir / document.get("pack", "")
            survivors = {key: span
                         for key, span in document["entries"].items()
                         if key not in dead}
            # Step 1: the dead keys stop being addressable *now*.
            document["entries"] = survivors
            self._write_json(idx_path, document)
            if not survivors or not pack_path.is_file():
                idx_path.unlink(missing_ok=True)
                pack_path.unlink(missing_ok=True)
                continue
            # Step 2: copy the surviving bytes into a fresh pair.
            name = hashlib.sha256(
                "".join(sorted(survivors)).encode("ascii")).hexdigest()[:16]
            entries: dict[str, list[int]] = {}
            tmp = self.packs_dir / f".{name}.pack.tmp.{os.getpid()}"
            try:
                with open(pack_path, "rb") as source, \
                        open(tmp, "wb") as stream:
                    offset = 0
                    for key in sorted(survivors):
                        span = survivors[key]
                        source.seek(int(span[0]))
                        raw = source.read(int(span[1]))
                        stream.write(raw)
                        entries[key] = [offset, len(raw)]
                        offset += len(raw)
                    stream.flush()
                    os.fsync(stream.fileno())
            except OSError:
                # Can't read the survivors: keep the (already-pruned)
                # old pair rather than lose live entries.
                tmp.unlink(missing_ok=True)
                continue
            os.replace(tmp, self.packs_dir / f"{name}.pack")
            self._write_json(self.packs_dir / f"{name}.idx.json", {
                "schema": PACK_SCHEMA,
                "version": STORE_VERSION,
                "pack": f"{name}.pack",
                "entries": entries,
            })
            # Step 3: retire the old pair (unless the rewrite landed on
            # the very same name, i.e. an identical survivor set).
            if idx_path.name != f"{name}.idx.json":
                idx_path.unlink(missing_ok=True)
            if pack_path.name != f"{name}.pack":
                pack_path.unlink(missing_ok=True)
        self._pack_index = None  # reload lazily

    def pack(self, dry_run: bool = False) -> dict:
        """Fold every loose entry into one new pack; returns stats.

        The pack is two files under ``packs/``: ``<name>.pack`` — the
        loose entry files' raw bytes, concatenated, so packed reads are
        byte-identical to the loose reads they replace — and
        ``<name>.idx.json`` mapping each key to its ``[offset, length]``
        span.  Both are written (and fsync'd) *before* any loose file
        is unlinked, so a crash mid-pack leaves the store readable at
        every step — at worst a key exists both loose and packed, and
        loose wins.  Corrupt loose files are left for ``gc``.
        ``dry_run`` reports what would be packed without writing.
        """
        victims: list[tuple[str, Path, bytes]] = []
        for path in self._entry_files():
            if path.name.startswith("."):
                continue
            envelope = self._read_json(path)
            if not self._valid_envelope(envelope, path.stem):
                continue
            victims.append((path.stem, path, path.read_bytes()))
        stats = {"packed": len(victims),
                 "bytes": sum(len(raw) for _, _, raw in victims),
                 "packs": len(self._index_paths()),
                 "dry_run": dry_run, "pack": None}
        if dry_run and victims:
            # Predict the post-pack count, matching what a real run
            # reports, instead of the untouched pre-existing count.
            stats["packs"] += 1
        if dry_run or not victims:
            return stats
        victims.sort(key=lambda item: item[0])
        name = hashlib.sha256(
            "".join(key for key, _, _ in victims).encode("ascii")
        ).hexdigest()[:16]
        entries: dict[str, list[int]] = {}
        offset = 0
        pack_path = self.packs_dir / f"{name}.pack"
        tmp = self.packs_dir / f".{name}.pack.tmp.{os.getpid()}"
        self.packs_dir.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as stream:
            for key, _path, raw in victims:
                stream.write(raw)
                entries[key] = [offset, len(raw)]
                offset += len(raw)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, pack_path)
        self._write_json(self.packs_dir / f"{name}.idx.json", {
            "schema": PACK_SCHEMA,
            "version": STORE_VERSION,
            "pack": pack_path.name,
            "entries": entries,
        })
        self._pack_index = None  # pick the new pack up on next read
        for _key, path, _raw in victims:
            path.unlink(missing_ok=True)
        stats["pack"] = pack_path.name
        stats["packs"] = len(self._index_paths())
        return stats

    def describe(self, rows: Optional[list[dict]] = None) -> str:
        rows = self.ls() if rows is None else rows
        ok = sum(1 for row in rows if row["status"] == "ok")
        failed = sum(1 for row in rows if row["status"] == "error")
        lines = [f"store {self.root} (schema {STORE_SCHEMA}): "
                 f"{len(rows)} entries ({ok} ok, {failed} failed)"]
        for row in rows:
            status = "ok    " if row["status"] == "ok" else "FAILED"
            label = row["name"] or row["kind"]
            lines.append(f"  {row['key'][:12]}  {status} {row['kind']:<8} "
                         f"{label} ({row['bytes']} bytes)")
        return "\n".join(lines)
