"""``python -m repro`` — run, list and report experiments from the shell.

Subcommands
-----------
``run KIND``
    Build a spec (defaults mirror the benchmark ``fast`` profile, tweakable
    via flags or ``--spec file.json``), execute it on the chosen backend
    and persist the result into the store.
``list``
    Show the registered experiment kinds and the results already stored.
``report NAME``
    Load a stored result and render it (markdown via
    :mod:`repro.analysis.reporting` for comparisons, plain text otherwise).
``serve``
    Start the persistent experiment daemon: an async job queue, a warm
    victim cache and the result store behind a TCP socket
    (:mod:`repro.experiments.service`).
``submit KIND`` / ``status JOB`` / ``cancel JOB`` / ``jobs``
    Client side of the daemon: queue a spec (same spec-building flags as
    ``run``), poll or cancel a job, list the queue.
``fsck``
    Verify every stored result and every line of the queue journal
    against its sha256 checksum, optionally quarantining corrupt files
    and journal lines (``--quarantine``).
``health``
    One-shot health snapshot of a running daemon: queue depth, active
    job, load-shedding limits and victim-cache statistics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.objective import OBJECTIVE_KINDS, ObjectiveConfig
from repro.experiments.runner import ExperimentResult, ExperimentRunner, make_backend
from repro.experiments.specs import (
    SPEC_KINDS,
    ComparisonSpec,
    ExperimentSpec,
    ProfileDensitySpec,
    spec_from_dict,
)
from repro.experiments.store import ResultStore, check_result_name
from repro.nn.quantization import VICTIM_PRECISIONS

DEFAULT_STORE = "benchmarks/results"
DEFAULT_QUEUE = "benchmarks/queue"

#: Backends selectable from the command line.
BACKEND_CHOICES = ("serial", "process")


def _objective_config(args: argparse.Namespace) -> ObjectiveConfig:
    """Build the declarative objective selected by the CLI flags.

    Any registered objective kind is reachable; ``--source-class`` /
    ``--target-class`` fill the targeted kinds' required parameters and
    ``--objective-param KEY=VALUE`` sets everything else (values are parsed
    as JSON where possible, e.g. ``--objective-param stealth_weight=0.5``).
    """
    cls = OBJECTIVE_KINDS[args.objective]
    params = {}
    if {"source_class", "target_class"} <= cls.required_spec_params:
        params["source_class"] = args.source_class
        params["target_class"] = args.target_class
    for item in args.objective_param:
        key, separator, raw = item.partition("=")
        if not separator:
            raise ValueError(f"--objective-param expects KEY=VALUE, got {item!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return ObjectiveConfig(args.objective, params=params)


def build_default_spec(kind: str, args: argparse.Namespace) -> ExperimentSpec:
    """Instantiate a spec of ``kind`` with CLI overrides applied."""
    if kind == "comparison":
        from repro.core.bfa import BitSearchConfig

        return ComparisonSpec(
            model_keys=tuple(args.models.split(",")) if args.models else ("resnet20",),
            repetitions=args.repetitions,
            search=BitSearchConfig(max_flips=args.max_flips, top_k_layers=5),
            eval_samples=80,
            seed=args.seed,
            profile_seed=args.seed,
            objective=_objective_config(args),
            victim_precision=args.victim_precision,
        )
    try:
        spec_cls = SPEC_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(SPEC_KINDS))
        raise SystemExit(f"unknown experiment kind {kind!r}; known kinds: {known}")
    ignored = [
        flag
        for flag, used in (
            ("--models", bool(args.models)),
            ("--repetitions", args.repetitions != 1),
            ("--max-flips", args.max_flips != 150 and kind != "profile_density"),
            ("--objective", args.objective != "untargeted"),
            ("--objective-param", bool(args.objective_param)),
            ("--victim-precision", args.victim_precision != "float32"),
        )
        if used
    ]
    if ignored:
        print(
            f"warning: {'/'.join(ignored)} do not apply to {kind!r}; ignored",
            file=sys.stderr,
        )
    # Route the generic --seed flag to the seed field each kind exposes.
    spec = spec_cls()
    if args.seed != 0:
        if kind == "profile_density":
            spec = ProfileDensitySpec(seed=args.seed, profile_seed=args.seed,
                                      objective_seed=args.seed)
        else:
            # chip-based experiments: defense_matrix / flip_sweep /
            # chip_profile / trr_sampling / refsync_sweep
            spec = spec_cls(chip_seed=args.seed)
    if kind == "profile_density" and args.max_flips != 150:
        from repro.core.bfa import BitSearchConfig

        spec = ProfileDensitySpec(
            seed=spec.seed, profile_seed=spec.profile_seed, objective_seed=spec.objective_seed,
            search=BitSearchConfig(max_flips=args.max_flips, top_k_layers=5),
        )
    return spec


def _render_report(name: str, result: ExperimentResult) -> str:
    """Human-readable rendering of a stored result, per experiment kind."""
    kind = result.kind
    if kind == "comparison":
        from repro.analysis.reporting import comparisons_to_markdown

        return comparisons_to_markdown(result.payload, title=f"{name} (comparison)")
    if kind == "defense_matrix":
        lines = [f"defense bypass matrix — {name}", ""]
        header = f"{'defense':<12} {'mechanism':<10} {'flips (def/undef)':<20} {'NRRs':<6} mitigated"
        lines += [header, "-" * len(header)]
        for defense_name, row in result.payload.items():
            for mechanism, outcome in row.items():
                flips = f"{outcome.flips_with_defense}/{outcome.flips_without_defense}"
                lines.append(
                    f"{defense_name:<12} {mechanism:<10} {flips:<20} "
                    f"{outcome.nrr_issued:<6} {'yes' if outcome.mitigated else 'NO'}"
                )
        return "\n".join(lines) + "\n"
    if kind == "flip_sweep":
        from repro.analysis.figures import render_ascii_curve

        outcome = result.payload
        comparison = outcome.equal_time()
        lines = [f"flip sweep — {name}", ""]
        lines += [f"  {key}: {value:.4g}" for key, value in comparison.items()]
        lines.append(render_ascii_curve(outcome.rowpress.flips, title="RowPress flips vs budget"))
        return "\n".join(lines) + "\n"
    if kind == "chip_profile":
        stats = result.payload.pair.statistics()
        lines = [f"chip profile — {name}", ""]
        lines += [f"  {key}: {value:.6g}" for key, value in stats.items()]
        lines.append(f"  ideal_rowhammer_cells: {result.payload.ideal_rowhammer_cells}")
        lines.append(f"  ideal_rowpress_cells: {result.payload.ideal_rowpress_cells}")
        return "\n".join(lines) + "\n"
    if kind == "profile_density":
        lines = [f"profile-density ablation — {name}", ""]
        for label, row in result.payload.as_table().items():
            lines.append(
                f"  {label:<14} flips={row['num_flips']:<5} converged={row['converged']} "
                f"accuracy_after={row['accuracy_after']:.2f} candidates={row['candidate_bits']}"
            )
        return "\n".join(lines) + "\n"
    if kind == "refsync_sweep":
        from repro.analysis.figures import render_heatmap

        outcome = result.payload
        lines = [f"refsync act-rate/phase sweep — {name}", ""]
        lines.append(render_heatmap(
            outcome.flips, outcome.act_rates, outcome.phases,
            title="latched flips (rows: acts/window, cols: phase slots)",
        ))
        lines.append("")
        lines.append(render_heatmap(
            outcome.nrr_rows, outcome.act_rates, outcome.phases,
            title="TRR NRR rows issued",
        ))
        lines.append("")
        # nan cells (zero-activation grid points) render as '-'.
        lines.append(render_heatmap(
            outcome.sampled_fractions, outcome.act_rates, outcome.phases,
            title="mean sampled fraction", digits=2,
        ))
        return "\n".join(lines) + "\n"
    if kind == "trr_sampling":
        from repro.analysis.figures import render_sampling_histogram
        from repro.analysis.tables import format_ratio

        lines = [f"TRR sampling-capacity sweep — {name}", ""]
        header = f"{'capacity':<9} {'flips':<6} {'NRR rows':<9} {'REFs':<5} sampled fraction"
        lines += [header, "-" * len(header)]
        for capacity, timeline_result in result.payload.entries:
            label = str(capacity) if capacity else "0 (off)"
            lines.append(
                f"{label:<9} {timeline_result.total_flips:<6} "
                f"{timeline_result.nrr_rows_issued:<9} {timeline_result.refs_issued:<5} "
                f"{format_ratio(timeline_result.mean_sampled_fraction)}"
            )
        for capacity, timeline_result in result.payload.entries:
            if timeline_result.sampling_histogram:
                lines.append("")
                lines.append(render_sampling_histogram(
                    timeline_result.sampling_histogram,
                    title=f"sampling histogram (capacity {capacity})",
                ))
        return "\n".join(lines) + "\n"
    return json.dumps({"kind": kind, "spec": result.spec.to_dict()}, indent=2)


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """Spec-building flags shared by ``run`` and ``submit``."""
    parser.add_argument("kind", nargs="?", default=None, help="experiment kind (see `list`)")
    parser.add_argument("--spec", help="JSON spec file overriding the default spec")
    parser.add_argument("--models", default=None, help="comma-separated model keys (comparison)")
    parser.add_argument("--repetitions", type=int, default=1)
    parser.add_argument("--max-flips", type=int, default=150)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--objective",
        default="untargeted",
        choices=sorted(OBJECTIVE_KINDS),
        help="attack objective for comparison specs",
    )
    parser.add_argument(
        "--source-class", type=int, default=0,
        help="class to misclassify (targeted objectives)",
    )
    parser.add_argument(
        "--target-class", type=int, default=1,
        help="class to misclassify the source as (targeted objectives)",
    )
    parser.add_argument(
        "--objective-param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="extra objective parameter (repeatable), e.g. success_threshold=80",
    )
    parser.add_argument(
        "--victim-precision",
        default="float32",
        choices=sorted(VICTIM_PRECISIONS),
        help="deployed weight precision of the victim (comparison specs)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Unified experiment front door for the RowPress reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment and store its result")
    _add_spec_arguments(run)
    run.add_argument("--backend", default="serial", choices=BACKEND_CHOICES)
    run.add_argument("--workers", type=int, default=None, help="worker pool size")
    run.add_argument("--store", default=DEFAULT_STORE, help="result store directory")
    run.add_argument("--save-as", default=None, help="store entry name (default: kind)")
    run.add_argument("--report", action="store_true", help="print the rendered report too")

    lst = sub.add_parser("list", help="list experiment kinds and stored results")
    lst.add_argument("--store", default=DEFAULT_STORE)

    report = sub.add_parser("report", help="render stored results")
    report.add_argument("name", nargs="?", default=None, help="store entry name (see `list`)")
    report.add_argument("--store", default=DEFAULT_STORE)
    report.add_argument("--all", action="store_true",
                        help="render every stored result, streaming one at a time")

    serve = sub.add_parser("serve", help="start the persistent experiment daemon")
    serve.add_argument("--queue", default=DEFAULT_QUEUE, help="job queue directory")
    serve.add_argument("--store", default=DEFAULT_STORE, help="result store directory")
    serve.add_argument("--backend", default="serial", choices=BACKEND_CHOICES,
                       help="execution backend jobs run under")
    serve.add_argument("--workers", type=int, default=None, help="worker pool size")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port (default 7421; 0 picks an ephemeral port)")
    serve.add_argument("--max-pending", type=int, default=None,
                       help="bound the pending queue depth; submissions past it "
                            "are shed with a retry-after hint instead of queued")

    submit = sub.add_parser("submit", help="queue an experiment on a running daemon")
    _add_spec_arguments(submit)
    submit.add_argument("--queue", default=DEFAULT_QUEUE,
                        help="queue directory (for endpoint discovery)")
    submit.add_argument("--name", default=None, help="store entry name for the result")
    submit.add_argument("--wait", action="store_true", help="block until the job finishes")
    submit.add_argument("--timeout", type=float, default=600.0, help="--wait timeout (s)")
    submit.add_argument("--priority", type=int, default=0,
                        help="queue priority (higher claims first; default 0)")
    submit.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                        help="seconds of useful life; the daemon fails the job "
                             "instead of starting it after this budget expires")
    submit.add_argument("--no-retry", action="store_true",
                        help="fail immediately when the daemon sheds the "
                             "submission instead of backing off and retrying")

    status = sub.add_parser("status", help="show one job of a running daemon")
    status.add_argument("job_id")
    status.add_argument("--queue", default=DEFAULT_QUEUE)

    cancel = sub.add_parser("cancel", help="cancel a pending job on a running daemon")
    cancel.add_argument("job_id")
    cancel.add_argument("--queue", default=DEFAULT_QUEUE)

    jobs = sub.add_parser("jobs", help="list a running daemon's jobs")
    jobs.add_argument("--queue", default=DEFAULT_QUEUE)

    fsck = sub.add_parser("fsck",
                          help="verify stored results and queue journal lines "
                               "against their checksums")
    fsck.add_argument("--store", default=DEFAULT_STORE, help="result store directory")
    fsck.add_argument("--queue", default=DEFAULT_QUEUE, help="job queue directory")
    fsck.add_argument("--quarantine", action="store_true",
                      help="move corrupt files (and copy corrupt journal "
                           "lines) into <dir>/quarantine/, dropping them "
                           "from the store and the journal")

    health = sub.add_parser("health", help="health snapshot of a running daemon")
    health.add_argument("--queue", default=DEFAULT_QUEUE)
    return parser


def _resolve_spec(args: argparse.Namespace):
    """The spec selected by ``run``/``submit`` flags, or an error exit code."""
    if not (args.spec or args.kind):
        print("error: provide an experiment kind or --spec file", file=sys.stderr)
        return 2
    if args.spec:
        try:
            payload = json.loads(Path(args.spec).read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: cannot load spec file {args.spec!r}: {error}", file=sys.stderr)
            return 2
    try:
        if args.spec:
            return spec_from_dict(payload)
        return build_default_spec(args.kind, args)
    except (ValueError, TypeError, KeyError) as error:
        # e.g. a targeted objective whose source and target coincide, or
        # an unknown model key (the model registry raises KeyError)
        reason = error.args[0] if isinstance(error, KeyError) and error.args else error
        print(f"error: invalid spec: {reason}", file=sys.stderr)
        return 2


def cmd_run(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    if isinstance(spec, int):
        return spec
    name = args.save_as or spec.kind
    try:
        check_result_name(name)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store = ResultStore(args.store)
    runner = ExperimentRunner(
        backend=make_backend(args.backend, max_workers=args.workers),
        store=store,
    )
    print(f"running {spec.kind!r} on the {args.backend} backend "
          f"({len(spec.work_units())} work units)...")
    result = runner.run(spec, save_as=name)
    print(f"stored result {name!r} at {store.path_for(name)}")
    if args.report:
        print()
        print(_render_report(name, result))
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    print("experiment kinds:")
    for kind in sorted(SPEC_KINDS):
        print(f"  {kind:<18} {SPEC_KINDS[kind].title}")
    store = ResultStore(args.store)
    names = store.names()
    print(f"\nstored results in {store.directory}:")
    if names:
        for name in names:
            print(f"  {name}")
    else:
        print("  (none)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    if args.all:
        rendered = 0
        # iter_results reads and decodes each file only when reached, so
        # this holds one envelope and one decoded result at a time.
        for name, result in store.iter_results():
            print(_render_report(name, result))
            rendered += 1
        if rendered == 0:
            print(f"(no stored results in {store.directory})")
        return 0
    if not args.name:
        print("error: provide a result name or --all", file=sys.stderr)
        return 2
    if args.name not in store:
        print(f"error: no stored result named {args.name!r} in {store.directory}", file=sys.stderr)
        return 1
    try:
        result = store.load(args.name)
    except ValueError as error:
        # e.g. a non-envelope JSON file (legacy output) sharing the directory
        print(f"error: cannot load {args.name!r}: {error}", file=sys.stderr)
        return 1
    print(_render_report(args.name, result))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.experiments.service import DEFAULT_PORT, ExperimentService

    service = ExperimentService(
        queue_dir=args.queue,
        store_dir=args.store,
        backend=args.backend,
        max_workers=args.workers,
        host=args.host,
        port=DEFAULT_PORT if args.port is None else args.port,
        max_pending=args.max_pending,
    )
    service.start()
    print(f"experiment service listening on {service.host}:{service.port}")
    print(f"  queue: {service.queue.directory}   store: {service.store.directory}   "
          f"backend: {args.backend}")
    for job_id in service.recovery["requeued"]:
        print(f"  requeued interrupted job {job_id}")
    for job_id in service.recovery["failed"]:
        print(f"  failed twice-interrupted job {job_id}")
    try:
        service.wait_until_stopped()
    except KeyboardInterrupt:
        print("\nshutting down...")
    finally:
        service.stop()
    return 0


def _client(args: argparse.Namespace):
    """A ServiceClient for the daemon of ``--queue`` (or an exit code)."""
    from repro.experiments.service import ServiceClient

    try:
        return ServiceClient(queue_dir=args.queue)
    except (OSError, json.JSONDecodeError, ValueError) as error:
        print(
            f"error: no running daemon found via {args.queue!r} ({error}); "
            "start one with `python -m repro serve`",
            file=sys.stderr,
        )
        return 1


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.experiments.service import ServiceOverloadError
    from repro.utils.resilience import RetryPolicy

    spec = _resolve_spec(args)
    if isinstance(spec, int):
        return spec
    client = _client(args)
    if isinstance(client, int):
        return client
    retries = None if args.no_retry else RetryPolicy(max_attempts=5, base_delay=0.1)
    try:
        response = client.submit(
            spec.to_dict(),
            name=args.name,
            priority=args.priority,
            deadline=args.deadline,
            retries=retries,
        )
    except ServiceOverloadError as error:
        print(f"error: daemon is overloaded ({error}); "
              f"retry after ~{error.retry_after:.1f}s", file=sys.stderr)
        return 1
    verb = "queued" if response["created"] else "already queued (deduplicated)"
    print(f"{verb}: job {response['job_id']} -> result {response['name']!r} "
          f"[{response['state']}]")
    if not args.wait:
        return 0
    job = client.wait(response["job_id"], timeout=args.timeout)
    print(f"job {job['job_id']} finished: {job['state']}"
          + (f" ({job['error']})" if job.get("error") else ""))
    return 0 if job["state"] == "done" else 1


def cmd_status(args: argparse.Namespace) -> int:
    client = _client(args)
    if isinstance(client, int):
        return client
    try:
        job = client.status(args.job_id)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(job, indent=2))
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    client = _client(args)
    if isinstance(client, int):
        return client
    if client.cancel(args.job_id):
        print(f"cancelled job {args.job_id}")
        return 0
    print(f"job {args.job_id} is not pending (already running, done or unknown)")
    return 1


def cmd_jobs(args: argparse.Namespace) -> int:
    client = _client(args)
    if isinstance(client, int):
        return client
    jobs = client.jobs()
    if not jobs:
        print("(no jobs)")
        return 0
    for job in jobs:
        error = f"  {job['error']}" if job.get("error") else ""
        print(f"{job['job_id']}  {job['state']:<9}  {job['name']}{error}")
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    from repro.experiments.fsck import fsck_queue, fsck_store

    issues = 0
    for label, directory, check in (
        ("store", Path(args.store), fsck_store),
        ("queue", Path(args.queue), fsck_queue),
    ):
        if not directory.is_dir():
            print(f"{label}: {directory} (missing; skipped)")
            continue
        report = check(directory, quarantine=args.quarantine)
        detail = f"{report.scanned} scanned, {report.verified} verified"
        if report.legacy:
            detail += f", {report.legacy} job-*.json from an older daemon (not read)"
        print(f"{label}: {directory} — {detail}")
        for issue in report.issues:
            if issue.quarantined:
                action = "quarantined"
            else:
                action = "found"
                issues += 1
            where = "" if issue.line is None else f" (line {issue.line})"
            print(f"  {action} {issue.problem}: {issue.path}{where}")
            print(f"    {issue.detail}")
    if issues:
        print(f"error: {issues} corrupt file(s) remain; rerun with --quarantine "
              "to move them aside", file=sys.stderr)
        return 1
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    client = _client(args)
    if isinstance(client, int):
        return client
    print(json.dumps(client.health(), indent=2))
    return 0


_COMMANDS = {
    "run": cmd_run,
    "list": cmd_list,
    "report": cmd_report,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "status": cmd_status,
    "cancel": cmd_cancel,
    "jobs": cmd_jobs,
    "fsck": cmd_fsck,
    "health": cmd_health,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)
