"""``repro-experiments`` — run the paper's experiments from the shell.

Examples::

    repro-experiments list
    repro-experiments table1
    repro-experiments fig6 --scale 0.5
    repro-experiments all --out results/
    repro-experiments run --scene truc640 --processors 4 --size 16 \
        --trace-out trace.json --metrics-out metrics.json
    repro-experiments dump-trace --scene quake --path quake.trace
    repro-experiments replay-trace --path quake.trace --processors 16
    repro-experiments serve --port 8765 --workers 2
    repro-experiments serve --port 8765 --no-local-workers --max-queue-depth 256
    repro-experiments worker --url http://127.0.0.1:8765
    repro-experiments submit --url http://127.0.0.1:8765 --run table1 --wait
    repro-experiments status --url http://127.0.0.1:8765 --id job-1
    repro-experiments search --experiment fig7 --budget 1e9 --strategy halving
    repro-experiments archive
    repro-experiments replay --key trial/fig7/halving/r0/<digest>
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

import repro.analysis.experiments  # noqa: F401  (registers every spec in SPECS)
from repro.errors import ConfigurationError, ReproError
from repro.expfw.spec import PANEL_SEPARATOR, SPECS, require_spec
from repro.workloads.scenes import DEFAULT_SCALE, SCALE_ENV_VAR, experiment_scale

#: Utility commands handled outside the experiment registry.
_COMMANDS = {
    "list": "enumerate registered experiments and utility commands",
    "all": "run every registered experiment",
    "run": "simulate one machine point (--scene, --family, --processors, --size)",
    "dump-trace": "write a scene's triangle trace to --path",
    "replay-trace": "simulate a trace file (--path, --processors, --width)",
    "batch": "run a JSON campaign file (--path, optionally --out)",
    "lint": "run the repro-lint static analyzer (same flags as repro-lint)",
    "serve": "start the experiment job service (--host, --port, --workers)",
    "worker": "start a fleet worker pulling jobs from a coordinator (--url)",
    "submit": "submit a job to a running service (--url, --run/--scene/--job)",
    "status": "show a job (--id) or service metrics from --url",
    "search": "budgeted auto-search over an experiment (--experiment, --budget)",
    "archive": "list archived run/trial/search records (--key for one record)",
    "replay": "re-run an archived record and diff it bit-for-bit (--key)",
}

#: Default address for the job service.
DEFAULT_SERVICE_PORT = 8765
SERVICE_URL_ENV_VAR = "REPRO_SERVICE_URL"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'The Best Distribution "
            "for a Parallel OpenGL 3D Engine with Texture Caches' (HPCA 2000)."
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment name, 'all', 'list' to enumerate, "
            "'dump-trace'/'replay-trace' for trace files, "
            "'serve'/'submit'/'status' for the job service"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help=(
            "linear scene scale in (0, 1]; 1.0 is the paper's frame size "
            "(default: REPRO_SCALE env var, else each experiment's declared "
            f"scale; {DEFAULT_SCALE} for run/dump-trace)"
        ),
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to also write each result into (one .txt per panel point)",
    )
    parser.add_argument(
        "--scene",
        default="truc640",
        help="benchmark scene name for dump-trace / submit (default: truc640)",
    )
    parser.add_argument(
        "--path",
        type=Path,
        default=None,
        help="trace file path for dump-trace / replay-trace",
    )
    parser.add_argument(
        "--processors",
        type=int,
        default=16,
        help="processor count for replay-trace / submit (default: 16)",
    )
    parser.add_argument(
        "--width",
        type=int,
        default=16,
        help="block width for replay-trace (default: 16)",
    )
    parser.add_argument(
        "--fifo",
        type=int,
        default=None,
        help="run/submit: triangle FIFO capacity (default: 10000; small values "
        "force the event-driven timing path)",
    )
    parser.add_argument(
        "--bus-ratio",
        type=float,
        default=None,
        help="run/submit: texel-to-fragment bus bandwidth ratio (default: 1.0)",
    )
    parser.add_argument(
        "--workers",
        default=None,
        help=(
            "worker processes for parallel sweeps, 0 runs inline; serve: "
            "in-process worker threads, at least 1 (overrides the "
            "REPRO_WORKERS env var)"
        ),
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="print per-stage pipeline timings and artifact hit rates at exit",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help=(
            "enable the event recorder and write a Chrome trace-event JSON "
            "of the run to FILE (open it in chrome://tracing)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help=(
            "write a JSON metrics dump (registry snapshot, pipeline stats "
            "and, with --trace-out, trace summaries) to FILE at exit"
        ),
    )
    service = parser.add_argument_group("job service (serve / worker / submit / status)")
    service.add_argument(
        "--host", default="127.0.0.1", help="serve: bind address (default: 127.0.0.1)"
    )
    service.add_argument(
        "--port",
        type=int,
        default=DEFAULT_SERVICE_PORT,
        help=f"serve: TCP port, 0 picks an ephemeral one (default: {DEFAULT_SERVICE_PORT})",
    )
    service.add_argument(
        "--url",
        default=None,
        help=(
            "worker/submit/status: service base URL (default: REPRO_SERVICE_URL "
            f"env var or http://127.0.0.1:{DEFAULT_SERVICE_PORT})"
        ),
    )
    service.add_argument(
        "--no-local-workers",
        action="store_true",
        help=(
            "serve: run as a pure coordinator — start no in-process "
            "workers; jobs run only on `worker` processes leasing them"
        ),
    )
    service.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="serve: reject POST /jobs with 429 past this many queued jobs",
    )
    service.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        help=(
            "serve: seconds any worker, in-process or remote, may go "
            "without a heartbeat before its job is requeued (default: 30)"
        ),
    )
    service.add_argument(
        "--worker-id",
        default=None,
        help="worker: fleet-unique name (default: <hostname>-<pid>)",
    )
    service.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="worker: idle seconds between lease attempts (default: 0.5)",
    )
    service.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="worker: exit after this many job attempts (default: run forever)",
    )
    service.add_argument(
        "--run", default=None, help="submit: registered experiment name to run as a job"
    )
    service.add_argument(
        "--job", default=None, help="submit: full job description as inline JSON"
    )
    service.add_argument(
        "--family", default="block", help="submit: distribution family (default: block)"
    )
    service.add_argument(
        "--size", type=int, default=16, help="submit: tile size / SLI lines (default: 16)"
    )
    service.add_argument(
        "--priority", type=int, default=None, help="submit: lower runs first (default: 0)"
    )
    service.add_argument(
        "--job-timeout", type=float, default=None, help="submit: per-attempt timeout (s)"
    )
    service.add_argument(
        "--retries", type=int, default=None, help="submit: extra attempts after the first"
    )
    service.add_argument(
        "--wait", action="store_true", help="submit: poll until done and print the result"
    )
    service.add_argument(
        "--id", default=None, help="status: job id to query (omit for service metrics)"
    )
    expfw = parser.add_argument_group("experiment framework (search / archive / replay)")
    expfw.add_argument(
        "--experiment",
        dest="search_experiment",
        default=None,
        help="search: experiment spec to tune (e.g. fig7)",
    )
    expfw.add_argument(
        "--budget",
        type=float,
        default=None,
        help="search: stop once this much budget is spent (see --budget-unit)",
    )
    expfw.add_argument(
        "--budget-unit",
        choices=("cycles", "seconds"),
        default="cycles",
        help="search: budget currency — simulated cycles or wall seconds",
    )
    expfw.add_argument(
        "--strategy",
        choices=("grid", "halving", "both"),
        default="both",
        help="search: grid sweep, successive halving, or both (default)",
    )
    expfw.add_argument(
        "--seed",
        type=int,
        default=0,
        help="search: explicit PRNG seed for subsampling/trial seeds (default: 0)",
    )
    expfw.add_argument(
        "--max-trials",
        type=int,
        default=None,
        help="search: seeded subsample of the candidate grid to at most N points",
    )
    expfw.add_argument(
        "--eta", type=int, default=2, help="search: halving keep ratio (default: 2)"
    )
    expfw.add_argument(
        "--rungs", type=int, default=3, help="search: halving rung count (default: 3)"
    )
    expfw.add_argument(
        "--wave",
        type=int,
        default=4,
        help="search: trials dispatched per wave (default: 4)",
    )
    expfw.add_argument(
        "--overrides",
        default=None,
        help="search: experiment param overrides as inline JSON",
    )
    expfw.add_argument(
        "--fixed",
        default=None,
        help="search: pinned trial payload fields as inline JSON (e.g. scene)",
    )
    expfw.add_argument(
        "--via-service",
        action="store_true",
        help="search: dispatch trials as jobs to the service at --url",
    )
    expfw.add_argument(
        "--key", default=None, help="archive/replay: record key to fetch or re-run"
    )
    return parser


def _apply_workers(raw: str) -> None:
    """Validate ``--workers`` and export it as ``REPRO_WORKERS``."""
    from repro.analysis.parallel import WORKERS_ENV_VAR, parse_worker_count

    os.environ[WORKERS_ENV_VAR] = str(parse_worker_count(raw, label="--workers"))


def _run_one(name: str, scale: Optional[float], out: Optional[Path]) -> None:
    """Run one spec; with ``out``, write one ``<stem>.txt`` per panel point."""
    spec = require_spec(name)
    started = time.perf_counter()
    panels = spec.panel_texts(scale)
    elapsed = time.perf_counter() - started
    print(PANEL_SEPARATOR.join(text for _, text in panels))
    print(f"[{name}: {spec.description} — {elapsed:.1f}s]\n")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        for stem, text in panels:
            (out / f"{stem}.txt").write_text(text + "\n")


def _list_registry() -> None:
    width = max(len(name) for name in list(SPECS) + list(_COMMANDS))
    print("experiments:")
    for name, spec in SPECS.items():
        print(f"  {name.ljust(width)}  {spec.description}")
        print(f"  {'':{width}}    params: {spec.describe_params()}")
    print("\ncommands:")
    for name, description in _COMMANDS.items():
        print(f"  {name.ljust(width)}  {description}")


def _dump_trace(args, scale: float) -> int:
    from repro.geometry.trace import save_trace
    from repro.workloads.scenes import SCENE_NAMES, build_scene

    if args.path is None:
        print("error: dump-trace needs --path", file=sys.stderr)
        return 2
    if args.scene not in SCENE_NAMES:
        print(
            f"error: unknown scene {args.scene!r}; choose from {', '.join(SCENE_NAMES)}",
            file=sys.stderr,
        )
        return 2
    scene = build_scene(args.scene, scale)
    save_trace(scene, args.path)
    print(
        f"wrote {scene.num_triangles} triangles "
        f"({scene.width}x{scene.height}, {len(scene.textures)} textures) "
        f"to {args.path}"
    )
    return 0


def _replay_trace(args) -> int:
    from repro.core.config import MachineConfig
    from repro.core.machine import simulate_machine, single_processor_baseline
    from repro.distribution.block import BlockInterleaved
    from repro.geometry.trace import load_trace

    if args.path is None:
        print("error: replay-trace needs --path", file=sys.stderr)
        return 2
    scene = load_trace(args.path)
    config = MachineConfig(
        distribution=BlockInterleaved(args.processors, args.width)
    )
    baseline = single_processor_baseline(scene, config)
    result = simulate_machine(scene, config, baseline_cycles=baseline)
    print(result.summary())
    return 0


def _run_point(args, scale: float) -> int:
    """``run``: simulate one machine point through the job vocabulary."""
    from repro.service.jobs import execute_payload

    payload = {
        "scene": args.scene,
        "family": args.family,
        "processors": args.processors,
        "size": args.size,
        "scale": scale,
    }
    if args.fifo is not None:
        payload["fifo"] = args.fifo
    if args.bus_ratio is not None:
        payload["bus_ratio"] = args.bus_ratio
    result = execute_payload(payload)
    print(result["text"])
    return 0


def _write_observability(args) -> None:
    """Write the ``--trace-out`` / ``--metrics-out`` files, if asked."""
    from repro import obs, pipeline

    recorder = obs.recorder()
    if args.trace_out is not None and recorder.enabled:
        recorder.write_chrome_trace(args.trace_out)
        print(f"[wrote Chrome trace to {args.trace_out} — open in chrome://tracing]")
    if args.metrics_out is not None:
        dump = {
            "registry": obs.registry().snapshot(),
            "pipeline": pipeline.stats(),
        }
        if recorder.enabled:
            dump["trace"] = recorder.summary()
        args.metrics_out.write_text(json.dumps(dump, indent=2, sort_keys=True) + "\n")
        print(f"[wrote metrics dump to {args.metrics_out}]")


def _run_batch(args) -> int:
    from repro.analysis.batch import run_batch_file

    if args.path is None:
        print("error: batch needs --path <campaign.json>", file=sys.stderr)
        return 2
    csv_out = None
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        csv_out = args.out / "batch.csv"
    results = run_batch_file(args.path, csv_out=csv_out)
    for result in results:
        print(result.summary())
    if csv_out is not None:
        print(f"[wrote {csv_out}]")
    return 0


# -- job service verbs ------------------------------------------------


def _service_url(args) -> str:
    if args.url is not None:
        return args.url
    return os.environ.get(
        SERVICE_URL_ENV_VAR, f"http://127.0.0.1:{DEFAULT_SERVICE_PORT}"
    )


def _serve(args) -> int:
    from repro.analysis.parallel import worker_count
    from repro.service import Scheduler, serve

    scheduler = Scheduler(
        local_workers=0 if args.no_local_workers else max(1, worker_count()),
        max_queue_depth=args.max_queue_depth,
        lease_timeout=args.lease_timeout,
    )
    serve(scheduler, host=args.host, port=args.port)
    return 0


def _worker(args) -> int:
    from repro.service import WorkerNode

    node = WorkerNode(
        _service_url(args),
        worker_id=args.worker_id,
        poll=args.poll,
        announce=lambda line: print(line, flush=True),
    )
    try:
        node.run(max_jobs=args.max_jobs)
    except KeyboardInterrupt:
        pass
    return 0


def _submit_payload(args, scale: Optional[float]) -> dict:
    if args.job is not None:
        try:
            return json.loads(args.job)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"--job is not valid JSON: {exc}") from exc
    if args.run is not None:
        payload = {"experiment": args.run}
    else:
        payload = {
            "scene": args.scene,
            "family": args.family,
            "processors": args.processors,
            "size": args.size,
        }
        if args.fifo is not None:
            payload["fifo"] = args.fifo
        if args.bus_ratio is not None:
            payload["bus_ratio"] = args.bus_ratio
    if scale is not None:
        payload["scale"] = scale
    if args.priority is not None:
        payload["priority"] = args.priority
    if args.job_timeout is not None:
        payload["timeout"] = args.job_timeout
    if args.retries is not None:
        payload["retries"] = args.retries
    return payload


def _submit(args) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(_service_url(args))
    job = client.submit(_submit_payload(args, args.scale))
    print(json.dumps(job, indent=2))
    if not args.wait:
        return 0
    job = client.wait(job["id"])
    if job["state"] != "done":
        print(
            f"error: {job['id']} ended {job['state']}: {job.get('error')}",
            file=sys.stderr,
        )
        return 1
    print(client.result(job["result_key"])["text"])
    return 0


def _status(args) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(_service_url(args))
    if args.id is not None:
        print(json.dumps(client.job(args.id), indent=2))
    else:
        print(json.dumps(client.metrics(), indent=2))
    return 0


# -- experiment framework verbs ---------------------------------------


def _inline_json(raw: Optional[str], label: str) -> dict:
    if raw is None:
        return {}
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{label} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ConfigurationError(f"{label} must be a JSON object, got {value!r}")
    return value


def _search(args, scale: Optional[float]) -> int:
    from repro.expfw import ClientDispatcher, parse_search_payload, render_report, run_search

    if args.search_experiment is None:
        print("error: search needs --experiment <name>", file=sys.stderr)
        return 2
    if args.budget is None:
        print("error: search needs --budget <amount>", file=sys.stderr)
        return 2
    overrides = _inline_json(args.overrides, "--overrides")
    if scale is not None:
        overrides.setdefault("scale", scale)
    payload = {
        "experiment": args.search_experiment,
        "budget": args.budget,
        "unit": args.budget_unit,
        "strategy": args.strategy,
        "seed": args.seed,
        "overrides": overrides,
        "fixed": _inline_json(args.fixed, "--fixed"),
        "eta": args.eta,
        "rungs": args.rungs,
        "wave": args.wave,
    }
    if args.max_trials is not None:
        payload["max_trials"] = args.max_trials
    config = parse_search_payload(payload)
    dispatcher = None
    if args.via_service:
        from repro.service import ServiceClient

        dispatcher = ClientDispatcher(ServiceClient(_service_url(args)))
    report = run_search(config, dispatcher=dispatcher)
    print(render_report(report))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"search_{config.experiment.replace('-', '_')}.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"[wrote search report to {path}]")
    return 0


def _archive(args) -> int:
    from repro.expfw import RunArchive

    archive = RunArchive()
    if args.key is not None:
        print(json.dumps(archive.get(args.key), indent=2, sort_keys=True))
        return 0
    records = archive.records()
    if not records:
        print(f"archive empty ({archive.root})")
        return 0
    print(f"archive {archive.root}: {len(records)} record(s)")
    for record in records:
        stamp = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(record.get("created_at", 0.0))
        )
        print(f"  {record.get('kind', '?'):<7} {stamp}  {record['key']}")
    return 0


def _replay(args) -> int:
    from repro.expfw import RunArchive, replay_record

    if args.key is None:
        print("error: replay needs --key <record key>", file=sys.stderr)
        return 2
    report = replay_record(RunArchive().get(args.key))
    print(report.summary())
    return 0 if report.ok else 1


def _print_timings() -> None:
    from repro import pipeline

    print(pipeline.render_stats(pipeline.stats()))


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output was piped into something like `head`; exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _main(argv: Optional[List[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "lint":
        # Delegate before argparse: lint has its own flag vocabulary.
        from repro.lintkit.cli import main as lint_main

        return lint_main(raw[1:])
    args = _build_parser().parse_args(raw)
    if args.workers is not None:
        _apply_workers(args.workers)
    if args.trace_out is not None:
        from repro import obs

        obs.enable_tracing()

    if args.experiment == "list":
        _list_registry()
        return 0
    if args.experiment == "serve":
        return _serve(args)
    if args.experiment == "worker":
        return _worker(args)
    if args.experiment == "status":
        return _status(args)
    if args.experiment == "archive":
        return _archive(args)
    if args.experiment == "replay":
        return _replay(args)

    # Unset --scale and REPRO_SCALE leave every experiment at its
    # declared default scale; single machine points use DEFAULT_SCALE.
    scale = args.scale
    if scale is None and SCALE_ENV_VAR in os.environ:
        scale = experiment_scale()
    if scale is not None and not 0 < scale <= 1:
        print(f"error: --scale must be in (0, 1], got {scale}", file=sys.stderr)
        return 2
    point_scale = DEFAULT_SCALE if scale is None else scale

    if args.experiment == "submit":
        # An unset --scale defers to the service's default for the job.
        status = _submit(args)
    elif args.experiment == "search":
        status = _search(args, scale)
    elif args.experiment == "run":
        status = _run_point(args, point_scale)
    elif args.experiment == "dump-trace":
        status = _dump_trace(args, point_scale)
    elif args.experiment == "replay-trace":
        status = _replay_trace(args)
    elif args.experiment == "batch":
        status = _run_batch(args)
    else:
        if args.experiment == "all":
            names = list(SPECS)
        elif args.experiment in SPECS:
            names = [args.experiment]
        else:
            known = ", ".join(list(SPECS) + list(_COMMANDS))
            print(
                f"error: unknown experiment {args.experiment!r}; choose from {known}",
                file=sys.stderr,
            )
            return 2
        for name in names:
            _run_one(name, scale, args.out)
        status = 0

    if args.timings:
        _print_timings()
    if args.trace_out is not None or args.metrics_out is not None:
        _write_observability(args)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
