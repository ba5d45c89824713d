"""Signed archival export bundles for verified campaign results.

``repro ledger export`` (ClawXiv-style portable artifacts) writes one
self-contained bundle directory::

    <bundle>/manifest.json      spec + sweep + revision pins + keys +
                                per-file sha256 manifest
    <bundle>/manifest.sig       hmac-sha256 over manifest.json's bytes
    <bundle>/entries/<key>.json the campaign entries, envelope-verbatim

Every path in the manifest is bundle-relative, so the bundle verifies
after being moved, copied or unpacked anywhere.  The signature is an
HMAC-SHA256 keyed by ``--key``/``--key-file`` (:data:`DEFAULT_KEY`
when neither is given — that default makes the signature an
*integrity* seal only; pass a private key for authenticity).

:func:`verify_bundle` re-checks, without needing any store or the
producing code revision:

- the manifest signature (byte-exact HMAC over ``manifest.json``);
- every listed file's sha256;
- every entry envelope's internal consistency (schema, key echo,
  ``status == "ok"``) **and its content address** — the key is
  recomputed from the envelope's own kind/identity/spec material, so a
  tampered spec or identity pin cannot hide behind a re-hashed file.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import time
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.store import (
    ENTRY_SCHEMA,
    ENTRY_STATUSES,
    content_key,
    write_json_atomic,
)

#: Schema tags of the bundle documents.
EXPORT_SCHEMA = "repro.export_manifest/v1"
REPORT_SCHEMA = "repro.export_report/v1"
VERIFY_SCHEMA = "repro.export_verify/v1"

#: The signing key used when the caller provides none.  Public by
#: definition — it turns the signature into a tamper-evident integrity
#: seal, not proof of origin.  Pass ``key=`` for authenticity.
DEFAULT_KEY = b"repro-export/v1"

#: Signature file format: ``<algorithm>:<hex digest>``.
_SIG_ALGORITHM = "hmac-sha256"


class ExportError(ValueError):
    """A bundle that cannot be exported or does not verify."""


def _sign(manifest_bytes: bytes, key: bytes) -> str:
    digest = hmac.new(key, manifest_bytes, hashlib.sha256).hexdigest()
    return f"{_SIG_ALGORITHM}:{digest}"


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _entry_content_key(envelope: Mapping[str, Any]) -> str:
    """Recompute an envelope's content address from its own material —
    the same key documents :func:`repro.store.campaign_key` and
    :func:`repro.store.stage_key` hash, but built from the *envelope*,
    so verification is independent of the verifier's code revisions."""
    kind = envelope.get("kind", "?")
    identity = envelope.get("identity") or {}
    if kind == "campaign":
        return content_key({"kind": "campaign", "identity": identity,
                            "spec": envelope.get("spec")})
    return content_key({"kind": kind, "identity": identity})


def export_bundle(store, spec_doc: Mapping[str, Any],
                  out_dir,
                  sweep: Optional[Mapping[str, list]] = None,
                  key: bytes = DEFAULT_KEY) -> dict:
    """Write one signed bundle for a spec (or sweep) into ``out_dir``.

    Every grid point must already be stored ``ok`` — export refuses to
    archive failures or holes (:class:`ExportError` names the missing
    point).  Returns the export report document.
    """
    from repro.api.campaign import Campaign
    from repro.api.spec import CampaignSpec

    try:
        spec = CampaignSpec.from_dict(spec_doc)
        points = Campaign.sweep_specs(spec, sweep or {})
    except (ValueError, KeyError, TypeError) as exc:
        raise ExportError(f"invalid export spec: {exc}") from exc
    out_dir = Path(out_dir)
    entries_dir = out_dir / "entries"
    keys: list[str] = []
    files: dict[str, str] = {}
    for point in points:
        point_key = store.campaign_key(point)
        envelope = store.get(point_key)
        if envelope is None or envelope.get("status") != "ok":
            state = ("missing" if envelope is None
                     else f"status {envelope['status']!r}")
            raise ExportError(
                f"point {point.name!r} ({point_key[:12]}) is {state} in "
                f"the store; export archives verified results only — "
                f"run the campaign first")
        relpath = f"entries/{point_key}.json"
        write_json_atomic(entries_dir / f"{point_key}.json", envelope)
        files[relpath] = _sha256_file(entries_dir / f"{point_key}.json")
        keys.append(point_key)
    from repro.store import campaign_identity

    manifest = {
        "schema": EXPORT_SCHEMA,
        "name": spec.name,
        "spec": spec.to_dict(),
        "sweep": ({field: list(values) for field, values in sweep.items()}
                  if sweep else None),
        "identity": campaign_identity(spec),
        "keys": sorted(keys),
        "files": files,
        "created_at": time.time(),
    }
    manifest_path = out_dir / "manifest.json"
    write_json_atomic(manifest_path, manifest)
    signature = _sign(manifest_path.read_bytes(), key)
    sig_tmp = out_dir / ".manifest.sig.tmp"
    sig_tmp.write_text(signature + "\n", encoding="ascii")
    sig_tmp.replace(out_dir / "manifest.sig")
    return {
        "schema": REPORT_SCHEMA,
        "bundle": str(out_dir),
        "name": spec.name,
        "keys": len(keys),
        "bytes": sum((entries_dir / f"{k}.json").stat().st_size
                     for k in keys),
        "signature": signature,
    }


def verify_bundle(bundle_dir, key: bytes = DEFAULT_KEY) -> dict:
    """Re-check one bundle end to end; returns the verify report.

    The report's ``ok`` is True only when every check passed; each
    failed check contributes one human-readable line to ``errors``.
    Never raises on a *bad* bundle — only on an unreadable one
    (:class:`ExportError`), so callers can distinguish "tampered" from
    "that's not a bundle".
    """
    bundle_dir = Path(bundle_dir)
    manifest_path = bundle_dir / "manifest.json"
    try:
        manifest_bytes = manifest_path.read_bytes()
    except OSError as exc:
        raise ExportError(
            f"no bundle at {bundle_dir} (unreadable manifest.json: "
            f"{exc})") from exc
    errors: list[str] = []
    try:
        manifest = json.loads(manifest_bytes.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ExportError(f"manifest.json is not JSON: {exc}") from exc
    if not isinstance(manifest, dict) \
            or manifest.get("schema") != EXPORT_SCHEMA:
        raise ExportError(
            f"manifest.json is not a {EXPORT_SCHEMA} document")
    try:
        recorded_sig = (bundle_dir / "manifest.sig").read_text(
            encoding="ascii").strip()
    except (OSError, UnicodeDecodeError):
        recorded_sig = ""
        errors.append("manifest.sig is missing or unreadable")
    expected_sig = _sign(manifest_bytes, key)
    if recorded_sig and not hmac.compare_digest(recorded_sig,
                                                expected_sig):
        errors.append("manifest signature mismatch (wrong key, or the "
                      "manifest was modified after signing)")

    files = manifest.get("files")
    files = files if isinstance(files, dict) else {}
    checked = 0
    for relpath, recorded in sorted(files.items()):
        path = (bundle_dir / relpath)
        if (".." in Path(relpath).parts or Path(relpath).is_absolute()):
            errors.append(f"{relpath}: path escapes the bundle")
            continue
        try:
            actual = _sha256_file(path)
        except OSError:
            errors.append(f"{relpath}: listed in the manifest but "
                          f"missing from the bundle")
            continue
        checked += 1
        if actual != recorded:
            errors.append(f"{relpath}: sha256 mismatch")

    keys = manifest.get("keys")
    keys = keys if isinstance(keys, list) else []
    listed = {Path(relpath).stem for relpath in files
              if relpath.startswith("entries/")}
    if set(keys) != listed:
        errors.append(
            f"manifest keys and entry files disagree "
            f"({len(keys)} keys, {len(listed)} entry files)")
    for store_key in sorted(set(keys) & listed):
        path = bundle_dir / "entries" / f"{store_key}.json"
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
            # The bytes come from outside the program: an object with
            # the entry schema and a known status, or no envelope.
            if not isinstance(envelope, dict):
                raise ValueError(f"a JSON {type(envelope).__name__}, "
                                 f"not an object")
            if (envelope.get("schema") != ENTRY_SCHEMA
                    or envelope.get("status") not in ENTRY_STATUSES):
                raise ValueError(f"schema={envelope.get('schema')!r}, "
                                 f"status={envelope.get('status')!r}")
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            errors.append(f"entry {store_key[:12]}: not a valid "
                          f"envelope ({exc})")
            continue
        if envelope.get("key") != store_key:
            errors.append(f"entry {store_key[:12]}: envelope key "
                          f"mismatch")
            continue
        if envelope["status"] != "ok":
            errors.append(f"entry {store_key[:12]}: status "
                          f"{envelope['status']!r} (bundles archive "
                          f"verified results only)")
        if _entry_content_key(envelope) != store_key:
            errors.append(
                f"entry {store_key[:12]}: content address does not "
                f"match its spec/identity (envelope body was modified)")

    return {
        "schema": VERIFY_SCHEMA,
        "ok": not errors,
        "bundle": str(bundle_dir),
        "name": manifest.get("name"),
        "keys": len(keys),
        "files_checked": checked,
        "errors": errors,
    }


def resolve_key(key_text: Optional[str] = None,
                key_file: Optional[str] = None) -> bytes:
    """The CLI's signing-key resolution: ``--key`` wins, then
    ``--key-file`` (raw file bytes), then :data:`DEFAULT_KEY`."""
    if key_text is not None and key_file is not None:
        raise ExportError("pass --key or --key-file, not both")
    if key_text is not None:
        if not key_text:
            raise ExportError("--key must be non-empty")
        return key_text.encode("utf-8")
    if key_file is not None:
        try:
            raw = Path(key_file).read_bytes()
        except OSError as exc:
            raise ExportError(f"cannot read key file: {exc}") from exc
        if not raw.strip():
            raise ExportError(f"key file {key_file} is empty")
        return raw.strip()
    return DEFAULT_KEY


__all__ = ["export_bundle", "verify_bundle", "resolve_key",
           "ExportError", "EXPORT_SCHEMA", "REPORT_SCHEMA",
           "VERIFY_SCHEMA", "DEFAULT_KEY"]
