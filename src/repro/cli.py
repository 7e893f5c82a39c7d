"""``repro-experiments`` — run the paper's experiments from the shell.

Examples::

    repro-experiments list
    repro-experiments table1
    repro-experiments fig6 --scale 0.5
    repro-experiments all --out results/
    repro-experiments run --scene truc640 --processors 4 --size 16 \
        --trace-out trace.json --metrics-out metrics.json
    repro-experiments dump-trace --scene quake --path quake.trace
    repro-experiments run --path quake.trace --processors 16
    repro-experiments serve --port 8765 --workers 2
    repro-experiments serve --port 8765 --no-local-workers --max-queue-depth 256
    repro-experiments worker --url http://127.0.0.1:8765
    repro-experiments submit --url http://127.0.0.1:8765 --run table1 --wait
    repro-experiments status --url http://127.0.0.1:8765 --id job-1

Every verb has its own flags; a flag the verb does not read is an
error (exit 2), not silently ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

import repro.analysis.experiments  # noqa: F401  (registers every spec in SPECS)
from repro.analysis.batch import FAMILIES
from repro.core import config
from repro.errors import ConfigurationError, ReproError
from repro.expfw.spec import PANEL_SEPARATOR, SPECS, require_spec
from repro.workloads.scenes import DEFAULT_SCALE, SCALE_ENV_VAR, experiment_scale

#: Default address for the job service.
DEFAULT_SERVICE_PORT = 8765
SERVICE_URL_ENV_VAR = "REPRO_SERVICE_URL"

#: Every flag, declared once; each verb picks the ones it reads.
_FLAGS = {
    "--scale": dict(
        type=float,
        help="linear scene scale in (0, 1]; 1.0 is the paper's frame size "
        "(default: REPRO_SCALE env var, else each experiment's declared "
        f"scale; {DEFAULT_SCALE} for run/dump-trace)",
    ),
    "--out": dict(
        type=Path,
        help="directory to also write each result into (one .txt per panel point)",
    ),
    "--workers": dict(
        help="worker processes for parallel sweeps, 0 runs inline; serve: "
        "in-process worker threads, at least 1 (overrides the REPRO_WORKERS "
        "env var)",
    ),
    "--timings": dict(
        action="store_true",
        help="print per-stage pipeline timings and artifact hit rates at exit",
    ),
    "--trace-out": dict(
        type=Path,
        help="enable the event recorder and write a Chrome trace-event JSON "
        "of the run to FILE (open it in chrome://tracing)",
    ),
    "--metrics-out": dict(
        type=Path,
        help="write a JSON metrics dump (registry snapshot, pipeline stats "
        "and, with --trace-out, trace summaries) to FILE at exit",
    ),
    "--scene": dict(help="benchmark scene name (default: truc640)"),
    "--path": dict(type=Path, help="trace file to write (dump-trace) or simulate (run)"),
    "--family": dict(
        help=f"distribution family: {', '.join(FAMILIES)} "
        f"(default: {config.DEFAULT_FAMILY})"
    ),
    "--processors": dict(
        type=int, help=f"processor count (default: {config.DEFAULT_PROCESSORS})"
    ),
    "--size": dict(
        type=int, help=f"tile size / SLI lines (default: {config.DEFAULT_SIZE})"
    ),
    "--fifo": dict(
        type=int,
        help=f"triangle FIFO capacity (default: {config.DEFAULT_FIFO_CAPACITY}; "
        "small values force the finite-FIFO timing path)",
    ),
    "--bus-ratio": dict(
        type=float,
        help="texel-to-fragment bus bandwidth ratio "
        f"(default: {config.DEFAULT_BUS_RATIO})",
    ),
    "--host": dict(default="127.0.0.1", help="bind address (default: 127.0.0.1)"),
    "--port": dict(
        type=int,
        default=DEFAULT_SERVICE_PORT,
        help=f"TCP port, 0 picks an ephemeral one (default: {DEFAULT_SERVICE_PORT})",
    ),
    "--url": dict(
        help="service base URL (default: REPRO_SERVICE_URL env var or "
        f"http://127.0.0.1:{DEFAULT_SERVICE_PORT})",
    ),
    "--no-local-workers": dict(
        action="store_true",
        help="run as a pure coordinator — start no in-process workers; jobs "
        "run only on `worker` processes leasing them",
    ),
    "--max-queue-depth": dict(
        type=int, help="reject POST /jobs with 429 past this many queued jobs"
    ),
    "--lease-timeout": dict(
        type=float,
        default=30.0,
        help="seconds any worker, in-process or remote, may go without a "
        "heartbeat before its job is requeued (default: 30)",
    ),
    "--worker-id": dict(help="fleet-unique name (default: <hostname>-<pid>)"),
    "--poll": dict(
        type=float, default=0.5, help="idle seconds between lease attempts (default: 0.5)"
    ),
    "--max-jobs": dict(
        type=int, help="exit after this many job attempts (default: run forever)"
    ),
    "--run": dict(help="registered experiment name to run as a job"),
    "--job": dict(help="full job description as inline JSON"),
    "--priority": dict(type=int, help="lower runs first (default: 0)"),
    "--job-timeout": dict(type=float, help="per-attempt timeout (s)"),
    "--retries": dict(type=int, help="extra attempts after the first"),
    "--wait": dict(action="store_true", help="wait until done and print the result"),
    "--id": dict(help="job id to query (omit for service metrics)"),
}

_OBS = ("--timings", "--trace-out", "--metrics-out")
_POINT = ("--scene", "--family", "--processors", "--size", "--fifo", "--bus-ratio")
#: The shared flags of every experiment verb (and ``all``).
_EXPERIMENT = ("--scale", "--out", "--workers") + _OBS


def _apply_workers(raw: str) -> None:
    """Validate ``--workers`` and export it as ``REPRO_WORKERS``."""
    from repro.analysis.parallel import WORKERS_ENV_VAR, parse_worker_count

    os.environ[WORKERS_ENV_VAR] = str(parse_worker_count(raw, label="--workers"))


def _scale(args) -> Optional[float]:
    """``--scale``, else ``REPRO_SCALE``, else ``None``: every experiment
    then runs at its declared default scale."""
    scale = args.scale
    if scale is None and SCALE_ENV_VAR in os.environ:
        scale = experiment_scale()
    if scale is not None and not 0 < scale <= 1:
        raise ConfigurationError(f"--scale must be in (0, 1], got {scale}")
    return scale


def _point_scale(args) -> float:
    scale = _scale(args)
    return DEFAULT_SCALE if scale is None else scale


def _run_experiments(args) -> int:
    """Run one spec (or ``all``); with ``--out``, write one
    ``<stem>.txt`` per panel point."""
    from repro.obs import span

    scale = _scale(args)
    for name in list(SPECS) if args.verb == "all" else [args.verb]:
        spec = require_spec(name)
        with span(f"experiment.{name}") as timed:
            panels = spec.panel_texts(scale)
        print(PANEL_SEPARATOR.join(text for _, text in panels))
        print(f"[{name}: {spec.description} — {timed.seconds:.1f}s]\n")
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            for stem, text in panels:
                (args.out / f"{stem}.txt").write_text(text + "\n")
    return 0


def _list_registry(args) -> int:
    width = max(len(name) for name in list(SPECS) + list(_COMMANDS))
    print("experiments:")
    for name, spec in SPECS.items():
        print(f"  {name.ljust(width)}  {spec.description}")
        print(f"  {'':{width}}    params: {spec.describe_params()}")
    print("\ncommands:")
    for name, (_handler, description, _flags) in _COMMANDS.items():
        print(f"  {name.ljust(width)}  {description}")
    return 0


def _dump_trace(args) -> int:
    from repro.geometry.trace import save_trace
    from repro.workloads.scenes import SCENE_NAMES, build_scene

    scene_name = args.scene or "truc640"
    if args.path is None:
        print("error: dump-trace needs --path", file=sys.stderr)
        return 2
    if scene_name not in SCENE_NAMES:
        print(
            f"error: unknown scene {scene_name!r}; choose from {', '.join(SCENE_NAMES)}",
            file=sys.stderr,
        )
        return 2
    scene = build_scene(scene_name, _point_scale(args))
    save_trace(scene, args.path)
    print(
        f"wrote {scene.num_triangles} triangles "
        f"({scene.width}x{scene.height}, {len(scene.textures)} textures) "
        f"to {args.path}"
    )
    return 0


def _point_payload(args) -> dict:
    """The machine-point fields given on the command line (run, submit);
    omitted ones take the job defaults."""
    names = [flag[2:].replace("-", "_") for flag in _POINT]
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _run_point(args) -> int:
    """``run``: simulate one machine point on a scene or a trace file."""
    from repro.service.jobs import execute_payload, machine_from_payload, simulate_point

    payload = _point_payload(args)
    if args.path is None:
        payload = {"scene": "truc640", **payload, "scale": _point_scale(args)}
        print(execute_payload(payload)["text"])
        return 0
    if args.scene is not None or args.scale is not None:
        raise ConfigurationError("run --path takes the scene and scale from the trace")
    from repro.geometry.trace import load_trace

    text, _metrics = simulate_point(load_trace(args.path), machine_from_payload(payload))
    print(text)
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


def _inline_json(raw: str, label: str) -> dict:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{label} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ConfigurationError(f"{label} must be a JSON object, got {value!r}")
    return value


def _submit_payload(args) -> dict:
    point = _point_payload(args)
    if (args.run is not None) + (args.job is not None) + bool(point) > 1:
        raise ConfigurationError("submit takes one of --run, --job or machine flags")
    if args.job is not None:
        payload = _inline_json(args.job, "--job")
    elif args.run is not None:
        payload = {"experiment": args.run}
    else:
        payload = {"scene": "truc640", **point}
    # An unset --scale defers to the service's default for the job.
    options = {"scale": args.scale, "priority": args.priority,
               "timeout": args.job_timeout, "retries": args.retries}
    payload.update({name: value for name, value in options.items() if value is not None})
    return payload


def _submit(args) -> int:
    from repro.service import JobDispatcher, ServiceClient

    client = ServiceClient(_service_url(args))
    job = client.submit(_submit_payload(args))
    print(json.dumps(job, indent=2))
    if args.wait:
        print(JobDispatcher(client).collect(job)["text"])
    return 0


def _status(args) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(_service_url(args))
    if args.id is not None:
        print(json.dumps(client.job(args.id), indent=2))
    else:
        print(json.dumps(client.metrics(), indent=2))
    return 0


#: Utility verbs: handler, description and the flags each one reads.
_COMMANDS = {
    "list": (_list_registry, "enumerate registered experiments and utility commands", ()),
    "all": (_run_experiments, "run every registered experiment", _EXPERIMENT),
    "run": (
        _run_point,
        "simulate one machine point on a scene, or on a trace file (--path)",
        _POINT + ("--path", "--scale") + _OBS,
    ),
    "dump-trace": (
        _dump_trace, "write a scene's triangle trace to --path", ("--scene", "--path", "--scale")
    ),
    "serve": (
        _serve,
        "start the experiment job service (--host, --port, --workers)",
        ("--host", "--port", "--workers", "--no-local-workers", "--max-queue-depth",
         "--lease-timeout"),
    ),
    "worker": (
        _worker,
        "start a fleet worker pulling jobs from a coordinator (--url)",
        ("--url", "--worker-id", "--poll", "--max-jobs"),
    ),
    "submit": (
        _submit,
        "submit a job to a running service (--url, --run/--job/machine flags)",
        ("--url", "--run", "--job", "--scale", "--priority", "--job-timeout", "--retries",
         "--wait") + _POINT,
    ),
    "status": (_status, "show a job (--id) or service metrics from --url", ("--url", "--id")),
}


def _parent(flags) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    for flag in flags:
        parent.add_argument(flag, **_FLAGS[flag])
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'The Best Distribution "
            "for a Parallel OpenGL 3D Engine with Texture Caches' (HPCA 2000)."
        ),
    )
    verbs = parser.add_subparsers(dest="verb", metavar="verb", required=True)
    experiment = _parent(_EXPERIMENT)
    for name, spec in SPECS.items():
        verb = verbs.add_parser(name, parents=[experiment], help=spec.description)
        verb.set_defaults(handler=_run_experiments)
    for name, (handler, description, flags) in _COMMANDS.items():
        verb = verbs.add_parser(name, parents=[_parent(flags)], help=description)
        verb.set_defaults(handler=handler)
    return parser


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
    if raw and not raw[0].startswith("-") and raw[0] not in SPECS and raw[0] not in _COMMANDS:
        known = ", ".join(list(SPECS) + list(_COMMANDS))
        print(f"error: unknown experiment {raw[0]!r}; choose from {known}", file=sys.stderr)
        return 2
    args = _build_parser().parse_args(raw)
    if getattr(args, "workers", None) is not None:
        _apply_workers(args.workers)
    if getattr(args, "trace_out", None) is not None:
        from repro import obs

        obs.enable_tracing()
    status = args.handler(args)
    if getattr(args, "timings", False):
        from repro import pipeline

        print(pipeline.render_stats(pipeline.stats()))
    if getattr(args, "trace_out", None) is not None or getattr(args, "metrics_out", None):
        _write_observability(args)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
