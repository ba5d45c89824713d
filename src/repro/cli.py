"""Command-line driver: ``python -m repro <command>``.

Exposes the flow as a tool a design team would actually run, built on
the composable :mod:`repro.api` (sessions, stages, campaign specs) and
the pluggable :mod:`repro.workloads` registry:

- ``topology``  — print the selected workload's system model;
- ``flow``      — run the complete four-level methodology and report;
- ``campaign``  — run a :class:`~repro.api.spec.CampaignSpec` file
  (single run or grid sweep, optionally parallel with ``--jobs``);
- ``workloads`` — list the registered workloads;
- ``store``     — inspect/maintain a content-addressed campaign store
  (``ls``/``show``/``pack``/``gc``, with ``gc --dry-run`` previewing
  deletions and ``gc --policy 'QUERY'`` deleting a ledger query's
  result set);
- ``ledger``    — the provenance ledger over a store (``query`` runs a
  relational query over extracted facts, ``export`` writes/verifies
  signed archival bundles); ``repro query`` and ``repro export`` are
  top-level aliases;
- ``service``   — the campaign service daemon and its HTTP client
  (``start``/``submit``/``status``/``watch``);
- ``trace``     — inspect recorded telemetry spans (``show`` lists,
  ``tree`` renders per-trace flamegraph-style trees, ``top``
  aggregates durations by span name); recording is enabled by
  ``--trace`` on ``flow``/``campaign``/``service start`` or the
  ``REPRO_TRACE`` environment variable;
- ``explore``   — the level-2 architecture exploration sweep;
- ``verify``    — the level-1 LPV deadlock proof;
- ``wave``      — synthesise the ROOT module, run it, dump a VCD trace.

Every simulating command takes ``--workload`` (any registered name)
and ``--param key=value`` for workload-specific knobs.  ``flow`` and
``campaign`` take ``--store PATH`` to persist results in a
:mod:`repro.store` directory: ``flow`` is a one-point campaign that
records its outcome there and answers the next identical run from it,
and ``campaign --resume`` skips grid points already completed there
and retries recorded failures.  Commands that produce results accept
``--json`` to emit the schema-stable machine-readable document instead
of prose.

Each command imports what it runs, inside its ``cmd_*`` function: the
module itself loads only the workload registry, so ``repro workloads``,
a sweep answered from the store or a flow answered from it never loads
the simulation flow, and a flow without ``--store`` loads no store.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import TYPE_CHECKING, Optional

from repro.workloads import get_workload, workload_names

if TYPE_CHECKING:
    from repro.api.spec import CampaignSpec

#: Valid ``--log-level`` / ``REPRO_LOG_LEVEL`` spellings.
_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def _setup_logging(level_name: str) -> None:
    """Wire the stdlib root logger once per process.

    ``logging.basicConfig`` is a no-op when the root logger already has
    handlers, so an embedding application's configuration wins.
    """
    level = getattr(logging, str(level_name).upper(), None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(levelname)-7s %(name)s: %(message)s")


def _maybe_enable_tracing(args) -> None:
    """``--trace`` / ``REPRO_TRACE``: point the span sink at the store.

    Spans land under ``<store>/spans`` (:func:`repro.telemetry.spans_dir_for`)
    so the ledger's ``span`` relation finds them next to the results they
    describe.  ``REPRO_TRACE`` may name an explicit sink directory;
    any other truthy value behaves like ``--trace``.
    """
    env = os.environ.get("REPRO_TRACE", "")
    wanted = getattr(args, "trace", False) or \
        env.lower() not in ("", "0", "false", "no")
    if not wanted:
        return
    from repro import telemetry

    if env and env.lower() not in ("1", "true", "yes"):
        telemetry.configure(spans_dir=env, enable_metrics=True)
        return
    store_path = getattr(args, "store", None)
    if not store_path:
        raise SystemExit("--trace needs --store PATH (spans are written "
                         "under <store>/spans)")
    telemetry.configure(
        spans_dir=telemetry.spans_dir_for(store_path),
        enable_metrics=True)


def _parse_param(text: str) -> tuple[str, object]:
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _add_workload_args(parser: argparse.ArgumentParser,
                       frames: bool = True) -> None:
    """Workload options; ``frames`` only where the command simulates."""
    parser.add_argument("--workload", default="facerec",
                        choices=workload_names(),
                        help="registered workload to run (default: facerec)")
    parser.add_argument("--param", action="append", default=[],
                        type=_parse_param, metavar="KEY=VALUE",
                        help="workload-specific parameter (repeatable); "
                             "values parse as JSON, falling back to string")
    parser.add_argument("--identities", type=int, default=10,
                        help="[facerec] database identities (paper: 20)")
    parser.add_argument("--poses", type=int, default=2,
                        help="[facerec] poses per identity (paper: multiple)")
    parser.add_argument("--size", type=int, default=48,
                        help="[facerec] frame side in pixels (even, >= 16)")
    if frames:
        parser.add_argument("--frames", type=int, default=3,
                            help="stimuli (probe frames / blocks) to process")


def _add_json_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable JSON document")


def _spec(args, **extra) -> CampaignSpec:
    from repro.api.spec import CampaignSpec

    fields = {
        "workload": args.workload,
        "identities": args.identities,
        "poses": args.poses,
        "size": args.size,
        "params": dict(args.param),
    }
    if hasattr(args, "frames"):
        fields["frames"] = args.frames
    fields.update(extra)
    return CampaignSpec(**fields)


def _emit(args, document: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(document))
    else:
        print(text)


def cmd_topology(args) -> int:
    from repro.api.session import Session
    from repro.flow.reportgen import topology_figure

    session = Session(_spec(args))
    figure = topology_figure(session.graph)
    _emit(args, {"schema": "repro.topology/v1",
                 "workload": args.workload, "figure": figure}, figure)
    return 0


def _open_store(args):
    """The ``--store`` directory's store; None, loading no store code,
    without the option."""
    if not getattr(args, "store", None):
        return None
    from repro.store import CampaignStore

    return CampaignStore(args.store)


def cmd_flow(args) -> int:
    _maybe_enable_tracing(args)
    spec = _spec(args, run_pcc=args.pcc, deadline_ms=args.deadline_ms)
    # A stored outcome answers without --resume: ``flow --store`` has
    # always reused what the store held (its level-4 entry) unasked.
    return _run_single(args, spec, _open_store(args), answer=True,
                       report=True)


def cmd_campaign(args) -> int:
    from repro.api.campaign import Campaign
    from repro.api.spec import CampaignSpec

    _maybe_enable_tracing(args)
    payload, sweep_grid = _load_submission(args.spec_file)
    spec = CampaignSpec.from_dict(payload)
    store = _open_store(args)
    if args.resume and store is None:
        raise SystemExit("--resume requires --store PATH")
    if sweep_grid:
        result = Campaign.sweep(spec, sweep_grid, jobs=args.jobs,
                                store=store, resume=args.resume)
    elif args.jobs > 1:
        raise SystemExit("--jobs requires a sweep grid in the spec file")
    else:
        return _run_single(args, spec, store, answer=args.resume)
    _emit(args, result.to_dict(), result.describe())
    return 0 if result.passed else 1


def _run_single(args, spec: CampaignSpec, store, answer: bool,
                report: bool = False) -> int:
    """One spec: answered from its ``ok`` campaign entry in ``store``
    when ``answer`` (loading no flow), else run by ``run_recorded``,
    which records the outcome there.

    Prints the campaign outcome, or with ``report`` the outcome's flow
    report (``repro flow``), and exits on the printed verdict.  Without
    a store nothing is serialized that is not printed.
    """
    if store is not None and answer:
        entry = store.get_campaign(spec)
        if entry is not None and entry["status"] == "ok":
            document = entry["payload"]
            if report:
                document = document["report"]
            verdict = "PASSED" if document["passed"] else "FAILED"
            _emit(args, document,
                  f"{args.command} {spec.name!r} merged from store "
                  f"{entry['key'][:12]}: {verdict}")
            return 0 if document["passed"] else 1
    from repro.api.campaign import run_recorded

    outcome, payload = run_recorded(spec, store)
    result = outcome.report if report else outcome
    if not args.json:
        print(result.describe())
    elif payload is None:
        print(json.dumps(result.to_dict()))
    else:
        print(json.dumps(payload["report"] if report else payload))
    return 0 if result.passed else 1


def cmd_store(args) -> int:
    from repro.store import CampaignStore

    try:
        # Maintenance commands never create: a mistyped path should
        # error out, not leave an empty store behind.
        store = CampaignStore(args.store, create=False)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc))
    if args.store_command == "ls":
        from repro.serialize import VOLATILE_KEYS, canonical_document

        rows = store.ls()
        # --json emits the *canonical* listing: sorted keys, volatile
        # created_at stripped, and the entry-file byte size too (it
        # shifts with the stripped timestamp's digit count).  Listings
        # of equivalent stores then diff clean, modulo the queried
        # ``store`` path itself.
        _emit(args, canonical_document({"schema": "repro.store_listing/v1",
                                        "store": str(store.root),
                                        "entries": rows},
                                       volatile=VOLATILE_KEYS | {"bytes"}),
              store.describe(rows))
        return 0
    if args.store_command == "show":
        try:
            envelope = store.show(args.key)
        except (KeyError, ValueError) as exc:
            raise SystemExit(str(exc))
        text = json.dumps(envelope, indent=2, sort_keys=True)
        _emit(args, envelope, text)
        return 0
    if args.store_command == "pack":
        stats = store.pack(dry_run=args.dry_run)
        document = {"schema": "repro.store_pack_report/v1",
                    "store": str(store.root), **stats}
        verb = "would pack" if args.dry_run else "packed"
        text = (f"pack {store.root}: {verb} {stats['packed']} loose "
                f"entries ({stats['bytes']} bytes) into "
                f"{stats['packs']} pack(s)")
        if stats.get("pack"):
            text += f"\n  {stats['pack']}"
        _emit(args, document, text)
        return 0
    # gc
    queue = None
    if getattr(args, "queue", None):
        from repro.service.queue import JobQueue

        try:
            queue = JobQueue(args.queue, create=False)
        except (FileNotFoundError, ValueError) as exc:
            raise SystemExit(str(exc))
    protect = frozenset()
    if queue is not None:
        # Entries referenced by queued/running jobs are live even though
        # the jobs haven't produced (or re-verified) them yet — a gc
        # racing the queue must not delete the failure entries those
        # jobs are about to retry.
        from repro.service.queue import active_store_keys

        protect = active_store_keys(queue)
    drop = frozenset()
    if getattr(args, "policy", None):
        # Ledger-driven gc: the policy query's result set — and exactly
        # it — is deleted (minus the protected keys; dry-run lists it).
        from repro.ledger import Ledger, QueryError, parse_query

        try:
            ledger = Ledger.from_store(store, queue=queue)
            drop = frozenset(parse_query(ledger, args.policy).keys())
        except QueryError as exc:
            raise SystemExit(f"bad --policy query: {exc}")
    stats = store.gc(failed=args.failed, dry_run=args.dry_run,
                     protect=protect, drop=drop)
    document = {"schema": "repro.store_gc/v1", "store": str(store.root),
                **stats}
    verb = "would remove" if args.dry_run else "removed"
    text = (f"gc {store.root}: {verb} {stats['removed_tmp']} temp files, "
            f"{stats['removed_corrupt']} corrupt entries, "
            f"{stats['removed_failed']} failed entries; "
            f"{stats['kept']} entries kept")
    if getattr(args, "policy", None):
        text += (f"; policy matched {stats['removed_policy']} "
                 f"entr{'y' if stats['removed_policy'] == 1 else 'ies'}")
    if stats["protected"]:
        text += (f"; {stats['protected']} spared (referenced by active "
                 f"jobs)")
    if args.dry_run and stats["candidates"]:
        text += "\n" + "\n".join(f"  {path}" for path in stats["candidates"])
    if args.dry_run and stats["protected_keys"]:
        text += "\n" + "\n".join(f"  protected {key}"
                                 for key in stats["protected_keys"])
    _emit(args, document, text)
    return 0


def _rows_table(rows: list) -> str:
    """Query result rows as an aligned operator table."""
    if not rows:
        return "0 rows"
    columns: list[str] = []
    for row in rows:
        for name in row:
            if name not in columns:
                columns.append(name)

    def cell(value) -> str:
        return value if isinstance(value, str) else json.dumps(value)

    table = [[cell(row.get(name)) for name in columns] for row in rows]
    widths = [max(len(name), *(len(line[i]) for line in table))
              for i, name in enumerate(columns)]
    lines = ["  ".join(f"{name:<{width}}"
                       for name, width in zip(columns, widths)).rstrip()]
    for line in table:
        lines.append("  ".join(f"{value:<{width}}" for value, width
                               in zip(line, widths)).rstrip())
    lines.append(f"{len(rows)} row{'' if len(rows) == 1 else 's'}")
    return "\n".join(lines)


def _open_ledger(args):
    """Build a :class:`repro.ledger.Ledger` from ``--store``/``--queue``."""
    from repro.ledger import Ledger
    from repro.store import CampaignStore

    try:
        store = CampaignStore(args.store, create=False)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc))
    queue = None
    if getattr(args, "queue", None):
        from repro.service.queue import JobQueue

        try:
            queue = JobQueue(args.queue, create=False)
        except (FileNotFoundError, ValueError) as exc:
            raise SystemExit(str(exc))
    return Ledger.from_store(store, queue=queue)


def cmd_ledger(args) -> int:
    """``repro ledger query|export`` (aliases: ``repro query|export``)."""
    from repro.ledger import (
        ExportError,
        QueryError,
        export_bundle,
        resolve_key,
        verify_bundle,
    )

    if args.ledger_command == "query":
        if args.url and args.store:
            raise SystemExit("pass --store or --url, not both")
        if args.url:
            from repro.service import ServiceClient, ServiceError

            try:
                document = ServiceClient(args.url).query(args.query)
            except ServiceError as exc:
                raise SystemExit(str(exc))
        else:
            if not args.store:
                raise SystemExit("query needs --store PATH (or --url URL "
                                 "for a running service)")
            ledger = _open_ledger(args)
            try:
                rows = ledger.run(args.query)
            except QueryError as exc:
                raise SystemExit(f"bad query: {exc}")
            document = {"schema": "repro.ledger_query/v1",
                        "query": args.query, "count": len(rows),
                        "rows": rows, "facts": ledger.counts()}
        _emit(args, document, _rows_table(document["rows"]))
        return 0
    # export
    try:
        key = resolve_key(args.key, args.key_file)
    except ExportError as exc:
        raise SystemExit(str(exc))
    if args.verify:
        try:
            report = verify_bundle(args.target, key=key)
        except ExportError as exc:
            raise SystemExit(str(exc))
        verdict = "OK" if report["ok"] else "FAILED"
        text = (f"verify {args.target}: {verdict} — {report['keys']} "
                f"entries, {report['files_checked']} files checked")
        if report["errors"]:
            text += "\n" + "\n".join(f"  {error}"
                                     for error in report["errors"])
        _emit(args, report, text)
        return 0 if report["ok"] else 1
    if not args.store or not args.out:
        raise SystemExit("export needs --store PATH and --out DIR "
                         "(or --verify BUNDLE)")
    from repro.store import CampaignStore

    try:
        store = CampaignStore(args.store, create=False)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc))
    try:
        spec_doc, sweep = _load_submission(args.target)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read spec file {args.target}: {exc}")
    try:
        report = export_bundle(store, spec_doc, args.out, sweep=sweep,
                               key=key)
    except ExportError as exc:
        raise SystemExit(str(exc))
    _emit(args, report,
          f"exported {report['name']!r}: {report['keys']} entries, "
          f"{report['bytes']} bytes -> {report['bundle']}")
    return 0


def _job_text(job: dict) -> str:
    """One job record as operator-facing prose."""
    lines = [f"job {job['id'][:12]} {job['status'].upper()}  "
             f"{job['kind']} {job['name']!r} "
             f"(workload={job['workload']}, priority={job['priority']}, "
             f"attempts={job['attempts']})"]
    result = job.get("result")
    if result:
        resume = result.get("store_resume", {})
        verdict = "PASSED" if result.get("passed") else "FAILED"
        lines.append(
            f"  {verdict}: {result.get('points', 0)} points "
            f"({len(resume.get('hits', ()))} from store, "
            f"{len(resume.get('executed', ()))} executed, "
            f"{len(resume.get('retried', ()))} retried)")
    error = job.get("error")
    if error:
        lines.append(f"  error: {error['type']}: {error['message']}")
    return "\n".join(lines)


def _load_submission(spec_file: str) -> tuple[dict, Optional[dict]]:
    """A campaign file: bare spec document or ``{"spec", "sweep"}``.

    The one definition of the file format both ``repro campaign`` and
    ``repro service submit`` accept.
    """
    with open(spec_file) as stream:
        payload = json.load(stream)
    if isinstance(payload, dict) and "sweep" in payload:
        return payload.get("spec", {}), payload["sweep"]
    return payload, None


def cmd_service(args) -> int:
    from repro.service import ServiceClient, ServiceError

    if args.service_command == "start":
        from repro.service import CampaignService

        trace = args.trace or os.environ.get(
            "REPRO_TRACE", "").lower() not in ("", "0", "false", "no")
        try:
            service = CampaignService(args.root, host=args.host,
                                      port=args.port, workers=args.workers,
                                      job_timeout=args.job_timeout,
                                      max_depth=args.max_depth,
                                      tenant_quota=args.tenant_quota,
                                      trace=trace)
        except (RuntimeError, ValueError, OSError) as exc:
            # Root already served by another daemon, port in use, bad
            # --workers, or a queue/store version mismatch: one clean
            # line, not a traceback.
            raise SystemExit(str(exc))
        service.start()
        workers_note = (f"{len(service.agents)} workers" if service.agents
                        else "coordinator-only, 0 local workers")
        print(f"campaign service at {service.url} "
              f"({workers_note}, root {service.root})")
        if service.recovered:
            print(f"recovered {len(service.recovered)} interrupted jobs: "
                  + ", ".join(job_id[:12] for job_id in service.recovered))
        try:
            import threading

            threading.Event().wait()  # serve until interrupted
        except KeyboardInterrupt:
            print("shutting down (waiting for in-flight jobs)")
        finally:
            service.stop()
        return 0

    client = ServiceClient(args.url)
    try:
        if args.service_command == "submit":
            spec_doc, sweep = _load_submission(args.spec_file)
            job = client.submit(spec_doc, sweep=sweep,
                                priority=args.priority, tenant=args.tenant)
            note = " (coalesced onto existing job)" if job.get("coalesced") \
                else ""
            if not args.watch:
                _emit(args, job, _job_text(job) + note)
                return 0
            # --json --watch emits exactly one document (the terminal
            # record), keeping the one-document-per-invocation contract;
            # prose mode narrates both the submission and the outcome.
            if not args.json:
                print(_job_text(job) + note)
            job = client.wait(job["id"], timeout=args.timeout,
                              interval=args.interval)
            _emit(args, job, _job_text(job))
            return 0 if job["status"] == "done" and \
                job["result"]["passed"] else 1
        if args.service_command == "stats":
            stats = client.stats()
            _emit(args, stats, _stats_table(stats))
            return 0
        if args.service_command == "status":
            if args.job:
                # The server resolves unique id prefixes.
                job = client.get(args.job)
                _emit(args, job, _job_text(job))
                return 0
            stats = client.stats()
            by_status = stats["queue"]["by_status"]
            workers = stats["workers"]
            counts = ", ".join(f"{n} {s}"
                               for s, n in sorted(by_status.items()) if n)
            text = f"queue: {counts or 'empty'}"
            text += (f"\nworkers: {workers['busy']}/{workers['total']} busy, "
                     f"{workers['jobs_done']} jobs done, "
                     f"{workers['jobs_failed']} failed"
                     f"\npoints: {workers['points_hit']} store hits, "
                     f"{workers['points_executed']} executed, "
                     f"{workers['points_retried']} retried")
            _emit(args, stats, text)
            return 0
        # watch
        job = client.wait(args.job, timeout=args.timeout,
                          interval=args.interval)
        _emit(args, job, _job_text(job))
        return 0 if job["status"] == "done" and job["result"]["passed"] \
            else 1
    except (ServiceError, TimeoutError) as exc:
        raise SystemExit(str(exc))


def _stats_table(stats: dict) -> str:
    """``repro service stats``: the /v1/stats document as an operator
    table — queue, workers, store, and the fleet's runner roster."""
    import time as _time

    queue = stats["queue"]
    workers = stats["workers"]
    store = stats["store"]
    fleet = stats.get("fleet", {})
    by_status = ", ".join(f"{count} {status}" for status, count
                          in sorted(queue["by_status"].items()) if count)
    rows = [
        ("queue", f"depth {queue['depth']}"
                  + (f"  ({by_status})" if by_status else "")),
        ("workers", f"{workers['busy']}/{workers['total']} busy | "
                    f"{workers['jobs_done']} done, "
                    f"{workers['jobs_failed']} failed"),
        ("points", f"{workers['points_hit']} store hits, "
                   f"{workers['points_executed']} executed, "
                   f"{workers['points_retried']} retried"),
        ("store", f"{store['entries']} entries, "
                  f"{store['payload_reads']} payload reads"),
        ("fleet", f"{fleet.get('runners_seen', 0)} runners seen, "
                  f"{fleet.get('live_leases', 0)} live leases | "
                  f"{fleet.get('expired_requeues', 0)} expired requeues, "
                  f"{fleet.get('warm_completed', 0)} warm completions, "
                  f"{fleet.get('zombie_drops', 0)} zombie drops"),
        ("uptime", f"{stats['uptime_seconds']:.0f}s"),
    ]
    width = max(len(name) for name, _ in rows)
    lines = [f"{name:<{width}}  {value}" for name, value in rows]
    now = _time.time()
    for name, info in sorted(fleet.get("runners", {}).items()):
        lines.append(f"  runner {name}: {info['claims']} claims, "
                     f"{info['uploads']} uploads, last seen "
                     f"{max(0.0, now - info['last_seen']):.1f}s ago")
    for lease in fleet.get("leases", []):
        lines.append(f"  lease {lease['job_id'][:12]} -> "
                     f"{lease['runner']} (gen {lease['generation']}, "
                     f"expires in {lease['expires_in']:.1f}s)")
    metrics = stats.get("metrics") or {}
    if metrics:
        lines.append("metrics")
        name_width = max(len(name) for name in metrics)
        for name in sorted(metrics):
            value = metrics[name]
            text = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<{name_width}}  {text}")
    return "\n".join(lines)


# -- trace inspection --------------------------------------------------------------


def _span_line(record: dict, indent: str = "") -> str:
    """One span record as an operator-facing line."""
    duration = record.get("duration_ms")
    timing = f"{duration:9.1f}ms" if isinstance(duration, (int, float)) \
        else "         ?"
    status = record.get("status", "?")
    marker = "" if status == "ok" else f"  [{status.upper()}]"
    attrs = record.get("attrs") or {}
    detail = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
    return (f"{timing}  {indent}{record.get('name', '?')}"
            f"{marker}{('  ' + detail) if detail else ''}")


def _render_trace_tree(spans: list[dict]) -> list[str]:
    """Flamegraph-style indented trees, one per trace id."""
    by_id = {record["span_id"]: record for record in spans
             if record.get("span_id")}
    children: dict[Optional[str], list[dict]] = {}
    for record in spans:
        parent = record.get("parent_id")
        # A parent outside the sink (e.g. a span still open when the
        # process died) makes its children roots of their trace.
        key = parent if parent in by_id else None
        children.setdefault(key, []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: r.get("start_unix") or 0.0)
    lines: list[str] = []

    def walk(record: dict, depth: int) -> None:
        lines.append(_span_line(record, "  " * depth))
        for child in children.get(record.get("span_id"), []):
            walk(child, depth + 1)

    roots = children.get(None, [])
    for index, root in enumerate(roots):
        if index:
            lines.append("")
        trace_id = root.get("trace_id", "?")
        lines.append(f"trace {trace_id}")
        walk(root, 1)
    return lines


def cmd_trace(args) -> int:
    """``repro trace show|tree|top``: inspect a store's (or a bare) span sink."""
    from repro.telemetry import read_spans, spans_dir_for

    if not os.path.isdir(args.store):
        raise SystemExit(f"no store directory at {args.store}")
    sink = spans_dir_for(args.store)
    spans = read_spans(sink if sink.is_dir() else args.store)
    if getattr(args, "name", None):
        spans = [record for record in spans
                 if record.get("name") == args.name]
    if getattr(args, "status", None):
        spans = [record for record in spans
                 if record.get("status") == args.status]
    spans.sort(key=lambda r: r.get("start_unix") or 0.0)
    if args.trace_command == "show":
        shown = spans[-args.limit:] if args.limit else spans
        document = {"schema": "repro.trace_show/v1",
                    "store": str(args.store), "count": len(spans),
                    "spans": shown}
        text = "\n".join(_span_line(record) for record in shown) \
            or "0 spans"
        _emit(args, document, text)
        return 0
    if args.trace_command == "tree":
        if getattr(args, "trace_id", None):
            spans = [record for record in spans
                     if record.get("trace_id") == args.trace_id]
        document = {"schema": "repro.trace_tree/v1",
                    "store": str(args.store), "count": len(spans),
                    "spans": spans}
        _emit(args, document,
              "\n".join(_render_trace_tree(spans)) or "0 spans")
        return 0
    # top: aggregate by span name, heaviest total first
    totals: dict[str, dict] = {}
    for record in spans:
        duration = record.get("duration_ms")
        if not isinstance(duration, (int, float)):
            continue
        row = totals.setdefault(record["name"], {
            "name": record["name"], "count": 0, "total_ms": 0.0,
            "max_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += duration
        row["max_ms"] = max(row["max_ms"], duration)
    rows = sorted(totals.values(), key=lambda r: -r["total_ms"])
    if args.limit:
        rows = rows[:args.limit]
    for row in rows:
        row["mean_ms"] = row["total_ms"] / row["count"]
    document = {"schema": "repro.trace_top/v1", "store": str(args.store),
                "rows": rows}
    lines = [f"{'total ms':>10}  {'count':>6}  {'mean ms':>10}  "
             f"{'max ms':>10}  name"]
    for row in rows:
        lines.append(f"{row['total_ms']:10.1f}  {row['count']:6d}  "
                     f"{row['mean_ms']:10.1f}  {row['max_ms']:10.1f}  "
                     f"{row['name']}")
    _emit(args, document, "\n".join(lines) if rows else "0 spans")
    return 0


def cmd_runner(args) -> int:
    """``repro runner start``: one fleet runner draining a coordinator."""
    from repro.fleet import RunnerAgent

    try:
        agent = RunnerAgent(args.server, args.root, name=args.name,
                            ttl=args.ttl, poll_interval=args.poll,
                            job_timeout=args.job_timeout)
    except (ValueError, OSError) as exc:
        raise SystemExit(str(exc))
    print(f"runner {agent.name} -> {args.server} "
          f"(local store {agent.store.root}, lease ttl {agent.ttl:g}s)")
    try:
        processed = agent.run_forever(max_jobs=args.max_jobs)
    except KeyboardInterrupt:
        processed = agent.jobs_done + agent.jobs_failed
        print("runner interrupted")
    print(f"runner {agent.name}: {processed} jobs processed "
          f"({agent.jobs_done} ok, {agent.jobs_failed} failed, "
          f"{agent.leases_lost} leases lost, "
          f"{agent.entries_uploaded} entries uploaded)")
    return 0


def cmd_workloads(args) -> int:
    rows = []
    for name in workload_names():
        workload = get_workload(name)
        rows.append({
            "name": name,
            "description": workload.description,
            "source_task": workload.source_task,
            "min_accuracy": workload.min_accuracy,
        })
    document = {"schema": "repro.workloads/v1", "workloads": rows}
    lines = [f"{len(rows)} registered workloads:"]
    for row in rows:
        lines.append(f"  {row['name']:<12} {row['description']} "
                     f"(accuracy threshold {row['min_accuracy']:.0%})")
    _emit(args, document, "\n".join(lines))
    return 0


def cmd_explore(args) -> int:
    from repro.api.session import Session
    from repro.platform import Explorer

    session = Session(_spec(args))
    profile = session.value("profile")
    result = Explorer(session.graph, profile).explore(
        session.stimuli(), max_hw=args.max_hw)
    document = {
        "schema": "repro.explore/v1",
        "profile": profile.to_dict(),
        "exploration": result.to_dict(),
    }
    text = "\n\n".join([profile.describe(), result.describe()])
    _emit(args, document, text)
    return 0


def cmd_verify(args) -> int:
    from repro.api.session import Session
    from repro.verify.lpv import check_deadlock_freedom, graph_to_petri

    session = Session(_spec(args))
    report = check_deadlock_freedom(graph_to_petri(session.graph),
                                    confirm=False)
    _emit(args, report.to_dict(), report.describe())
    return 0 if report.deadlock_free else 1


def cmd_wave(args) -> int:
    from repro.facerec.swmodels import root_function
    from repro.rtl.synth import synthesize
    from repro.rtl.vcd import dump_fsmd_run

    netlist = synthesize(root_function(16), width=16)
    stimulus = [{"start": 1, "arg_n": args.value}]
    stimulus += [{"start": 0, "arg_n": 0}] * (args.cycles - 1)
    with open(args.out, "w") as stream:
        cycles = dump_fsmd_run(netlist, stimulus, stream)
    _emit(args, {"schema": "repro.wave/v1", "module": netlist.name,
                 "cycles": cycles, "out": args.out},
          f"wrote {cycles} cycles of {netlist.name} to {args.out}")
    return 0


def _add_ledger_query_args(parser: argparse.ArgumentParser) -> None:
    """``repro [ledger] query`` arguments (one definition, two spellings)."""
    parser.add_argument(
        "query",
        help="textual query, e.g. \"entry where engine_rev < 2 and "
             "status == 'ok'\" or \"journal_touched where fpga_ctx == "
             "'FE' join spec on spec_hash = hash select name, key\"")
    parser.add_argument("--store", metavar="PATH", default=None,
                        help="campaign store directory to extract facts "
                             "from")
    parser.add_argument("--queue", metavar="DIR", default=None,
                        help="job queue directory: adds job/lease facts "
                             "and the entry.active_job flag")
    parser.add_argument("--url", metavar="URL", default=None,
                        help="query a running campaign service "
                             "(POST /v1/query) instead of a local store")
    _add_json_arg(parser)
    parser.set_defaults(func=cmd_ledger, ledger_command="query")


def _add_ledger_export_args(parser: argparse.ArgumentParser) -> None:
    """``repro [ledger] export`` arguments (one definition, two
    spellings)."""
    parser.add_argument(
        "target",
        help="campaign spec file to export (a spec document or "
             '{"spec", "sweep"}); with --verify, a bundle directory')
    parser.add_argument("--store", metavar="PATH", default=None,
                        help="campaign store directory holding the "
                             "verified results to bundle")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="bundle directory to write")
    parser.add_argument("--verify", action="store_true",
                        help="treat TARGET as an existing bundle and "
                             "re-check its signature, file hashes and "
                             "entry content addresses")
    parser.add_argument("--key", default=None,
                        help="signing/verification key (utf-8 text); "
                             "default is a public integrity-seal key")
    parser.add_argument("--key-file", metavar="FILE", default=None,
                        help="read the key from FILE (raw bytes, "
                             "surrounding whitespace stripped)")
    _add_json_arg(parser)
    parser.set_defaults(func=cmd_ledger, ledger_command="export")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Symbad reconfigurable-SoC design & verification flow",
    )
    parser.add_argument(
        "--log-level", default=os.environ.get("REPRO_LOG_LEVEL", "warning"),
        choices=_LOG_LEVELS, metavar="LEVEL",
        help="stdlib logging threshold (debug|info|warning|error|critical; "
             "default: warning, REPRO_LOG_LEVEL env overrides)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_topology = sub.add_parser("topology", help="print the system model")
    _add_workload_args(p_topology, frames=False)
    _add_json_arg(p_topology)
    p_topology.set_defaults(func=cmd_topology)

    p_flow = sub.add_parser("flow", help="run the full four-level flow")
    _add_workload_args(p_flow)
    p_flow.add_argument("--pcc", action="store_true",
                        help="include the PCC property-coverage pass (slow)")
    p_flow.add_argument("--deadline-ms", type=float, default=500.0,
                        help="LPV frame deadline in milliseconds")
    p_flow.add_argument("--store", metavar="PATH",
                        help="campaign store directory: answer from the "
                             "spec's stored outcome, or run the flow "
                             "(reloading a stored level 4) and record it")
    p_flow.add_argument("--trace", action="store_true",
                        help="record hierarchical spans under "
                             "<store>/spans (results stay byte-identical; "
                             "REPRO_TRACE env also enables)")
    _add_json_arg(p_flow)
    p_flow.set_defaults(func=cmd_flow)

    p_campaign = sub.add_parser(
        "campaign", help="run a campaign spec file (single run or sweep)")
    p_campaign.add_argument(
        "spec_file",
        help="JSON file: either a campaign spec document, or "
             '{"spec": {...}, "sweep": {field: [values, ...]}}')
    p_campaign.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan sweep grid points out over N worker processes")
    p_campaign.add_argument(
        "--store", metavar="PATH",
        help="campaign store directory: persist every completed point "
             "(and failures) under its content address")
    p_campaign.add_argument(
        "--resume", action="store_true",
        help="skip points already completed in --store; retry only "
             "recorded failures")
    p_campaign.add_argument(
        "--trace", action="store_true",
        help="record hierarchical spans under <store>/spans (results "
             "stay byte-identical; REPRO_TRACE env also enables)")
    _add_json_arg(p_campaign)
    p_campaign.set_defaults(func=cmd_campaign)

    p_store = sub.add_parser(
        "store", help="inspect/maintain a campaign store directory")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_store_ls = store_sub.add_parser("ls", help="list store entries")
    p_store_show = store_sub.add_parser(
        "show", help="print one entry envelope (unique key prefix ok)")
    p_store_show.add_argument("key", help="entry key or unique prefix")
    p_store_gc = store_sub.add_parser(
        "gc", help="reclaim temp litter and corrupt entries")
    p_store_gc.add_argument(
        "--failed", action="store_true",
        help="also remove failure entries (their points will re-run "
             "on the next resumed sweep)")
    p_store_gc.add_argument(
        "--dry-run", action="store_true",
        help="print what would be deleted, delete nothing")
    p_store_gc.add_argument(
        "--queue", metavar="DIR", default=None,
        help="job queue directory: never delete entries referenced by "
             "its queued/running jobs")
    p_store_gc.add_argument(
        "--policy", metavar="QUERY", default=None,
        help="ledger query selecting entries to delete, e.g. "
             "\"entry where engine_rev < 2 and active_job == false\"; "
             "the query's result set — and exactly it — is removed "
             "(combine with --dry-run to preview)")
    p_store_pack = store_sub.add_parser(
        "pack", help="pack loose entries into a pack + index pair")
    p_store_pack.add_argument(
        "--dry-run", action="store_true",
        help="report what would be packed, write nothing")
    for p_sub in (p_store_ls, p_store_show, p_store_gc, p_store_pack):
        p_sub.add_argument("--store", metavar="PATH", required=True,
                           help="campaign store directory")
        _add_json_arg(p_sub)
        p_sub.set_defaults(func=cmd_store)

    p_ledger = sub.add_parser(
        "ledger",
        help="query the provenance ledger / signed export bundles")
    ledger_sub = p_ledger.add_subparsers(dest="ledger_verb", required=True)
    _add_ledger_query_args(ledger_sub.add_parser(
        "query", help="run a relational query over extracted facts"))
    _add_ledger_export_args(ledger_sub.add_parser(
        "export", help="write (or --verify) a signed archival bundle"))
    # Top-level spellings from the ROADMAP: ``repro query '<expr>'``
    # and ``repro export <spec>`` are aliases of the noun-verb forms.
    _add_ledger_query_args(sub.add_parser(
        "query", help="alias for 'ledger query'"))
    _add_ledger_export_args(sub.add_parser(
        "export", help="alias for 'ledger export'"))

    p_service = sub.add_parser(
        "service", help="run or talk to the campaign service daemon")
    service_sub = p_service.add_subparsers(dest="service_command",
                                           required=True)
    p_svc_start = service_sub.add_parser(
        "start", help="run the daemon (queue + workers + HTTP API)")
    p_svc_start.add_argument("--root", required=True, metavar="DIR",
                             help="service root (holds store/ and queue/)")
    p_svc_start.add_argument("--host", default="127.0.0.1",
                             help="bind address (default: 127.0.0.1)")
    p_svc_start.add_argument("--port", type=int, default=8642,
                             help="bind port; 0 picks an ephemeral port")
    p_svc_start.add_argument("--workers", type=int, default=None, metavar="N",
                             help="local runner agents (default: available "
                                  "CPUs; REPRO_JOBS env overrides "
                                  "detection; 0 runs a coordinator for "
                                  "fleet runners only)")
    p_svc_start.add_argument("--job-timeout", type=float, default=None,
                             metavar="SECONDS",
                             help="kill any job still running after this "
                                  "long (default: unlimited)")
    p_svc_start.add_argument("--max-depth", type=int, default=None,
                             metavar="N",
                             help="back-pressure submissions (HTTP 429) "
                                  "once N jobs are queued or running "
                                  "(default: unbounded)")
    p_svc_start.add_argument("--tenant-quota", type=int, default=None,
                             metavar="N",
                             help="cap each submitting tenant at N active "
                                  "jobs (default: unbounded)")
    p_svc_start.add_argument("--trace", action="store_true",
                             help="record job/campaign spans under "
                                  "<root>/store/spans (REPRO_TRACE env "
                                  "also enables)")
    p_svc_start.set_defaults(func=cmd_service)
    p_svc_submit = service_sub.add_parser(
        "submit", help="submit a campaign spec file over HTTP")
    p_svc_submit.add_argument(
        "spec_file",
        help="JSON file: a campaign spec document, or "
             '{"spec": {...}, "sweep": {field: [values, ...]}}')
    p_svc_submit.add_argument("--priority", type=int, default=0,
                              help="queue priority (higher runs first)")
    p_svc_submit.add_argument("--watch", action="store_true",
                              help="wait until the job finishes; exit 0 "
                                   "only if it passed")
    p_svc_submit.add_argument("--tenant", default=None,
                              help="submitter token the server keys its "
                                   "per-tenant quota on")
    p_svc_status = service_sub.add_parser(
        "status", help="one job's record, or service stats without a job")
    p_svc_status.add_argument("job", nargs="?", default=None,
                              help="job id (unique prefix ok); omit for "
                                   "service-wide stats")
    p_svc_stats = service_sub.add_parser(
        "stats", help="queue/worker/store/fleet counters as a table")
    p_svc_watch = service_sub.add_parser(
        "watch", help="wait for one job to finish")
    p_svc_watch.add_argument("job", help="job id (unique prefix ok)")
    for p_sub in (p_svc_submit, p_svc_status, p_svc_stats, p_svc_watch):
        p_sub.add_argument("--url", default="http://127.0.0.1:8642",
                           help="service endpoint "
                                "(default: http://127.0.0.1:8642)")
        _add_json_arg(p_sub)
        p_sub.set_defaults(func=cmd_service)
    for p_sub in (p_svc_submit, p_svc_watch):
        p_sub.add_argument("--timeout", type=float, default=600.0,
                           help="seconds to wait before giving up")
        p_sub.add_argument("--interval", type=float, default=0.5,
                           help="first pause in seconds between status "
                                "reads that come back unfinished (each "
                                "read is held until the job finishes or "
                                "half the client timeout passes)")

    p_runner = sub.add_parser(
        "runner", help="run a fleet runner against a campaign service")
    runner_sub = p_runner.add_subparsers(dest="runner_command",
                                         required=True)
    p_runner_start = runner_sub.add_parser(
        "start", help="claim, execute and upload jobs until interrupted")
    p_runner_start.add_argument("--server", required=True, metavar="URL",
                                help="coordinator endpoint, e.g. "
                                     "http://127.0.0.1:8642")
    p_runner_start.add_argument("--root", required=True, metavar="DIR",
                                help="local campaign store directory "
                                     "(created if missing; re-claimed "
                                     "work resumes warm from it)")
    p_runner_start.add_argument("--name", default=None,
                                help="runner name shown in service stats "
                                     "(default: <hostname>-<pid>)")
    p_runner_start.add_argument("--ttl", type=float, default=30.0,
                                metavar="SECONDS",
                                help="lease TTL; heartbeats every ttl/3 "
                                     "(default: 30)")
    p_runner_start.add_argument("--poll", type=float, default=1.0,
                                metavar="SECONDS",
                                help="how long one claim waits for work "
                                     "when the queue is dry; also the "
                                     "pause after a failed claim "
                                     "(default: 1)")
    p_runner_start.add_argument("--max-jobs", type=int, default=None,
                                metavar="N",
                                help="exit after processing N jobs "
                                     "(default: run until interrupted)")
    p_runner_start.add_argument("--job-timeout", type=float, default=None,
                                metavar="SECONDS",
                                help="kill any job child still running "
                                     "after this long")
    p_runner_start.set_defaults(func=cmd_runner)

    p_trace = sub.add_parser(
        "trace", help="inspect recorded spans (show/tree/top)")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trace_show = trace_sub.add_parser(
        "show", help="flat span listing, oldest first")
    p_trace_tree = trace_sub.add_parser(
        "tree", help="per-trace span trees (flamegraph-style indent)")
    p_trace_top = trace_sub.add_parser(
        "top", help="aggregate span durations by name, heaviest first")
    p_trace_tree.add_argument("--trace-id", default=None,
                              help="render only this trace")
    for p_sub in (p_trace_show, p_trace_tree, p_trace_top):
        p_sub.add_argument("--store", metavar="PATH", required=True,
                           help="store whose spans/ sink to read, or "
                                "a bare spans directory (REPRO_TRACE=<dir>)")
        p_sub.add_argument("--name", default=None,
                           help="only spans with this exact name")
        p_sub.add_argument("--status", default=None,
                           choices=("ok", "error", "aborted"),
                           help="only spans with this terminal status")
        p_sub.add_argument("--limit", type=int,
                           default=50 if p_sub is p_trace_show else 0,
                           metavar="N",
                           help="cap the rows shown (0 = unlimited)")
        _add_json_arg(p_sub)
        p_sub.set_defaults(func=cmd_trace)

    p_workloads = sub.add_parser("workloads",
                                 help="list the registered workloads")
    _add_json_arg(p_workloads)
    p_workloads.set_defaults(func=cmd_workloads)

    p_explore = sub.add_parser("explore", help="level-2 architecture sweep")
    _add_workload_args(p_explore)
    p_explore.add_argument("--max-hw", type=int, default=6,
                           help="largest heaviest-k-to-HW candidate")
    _add_json_arg(p_explore)
    p_explore.set_defaults(func=cmd_explore)

    p_verify = sub.add_parser("verify",
                              help="LPV deadlock proof of the system model")
    _add_workload_args(p_verify, frames=False)
    _add_json_arg(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_wave = sub.add_parser("wave", help="dump a VCD trace of the ROOT FSMD")
    p_wave.add_argument("--value", type=int, default=30_000,
                        help="input to take the square root of")
    p_wave.add_argument("--cycles", type=int, default=64,
                        help="cycles to trace")
    p_wave.add_argument("--out", default="root.vcd", help="output VCD path")
    _add_json_arg(p_wave)
    p_wave.set_defaults(func=cmd_wave)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
