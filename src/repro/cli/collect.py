"""``repro collect`` — run the collector as a live network service:
listen for monitor connections, merge and classify slots as they
arrive."""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import signal
import threading

from repro.cli.common import (
    add_classifier_options,
    add_output_options,
    engine_config,
    env_faults,
    scheme_and_feature,
)
from repro.distributed.client import parse_address
from repro.distributed.framing import DEFAULT_MAX_INFLIGHT
from repro.distributed.service import CollectorService
from repro.errors import ReproError


def add_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default="127.0.0.1:0",
        help="address to listen on (port 0 picks a free port)",
    )
    add_classifier_options(command)
    command.add_argument(
        "--k",
        type=int,
        default=None,
        help="re-truncate each merged slot to K entries",
    )
    command.add_argument(
        "--no-fill-gaps",
        action="store_true",
        help="do not synthesise empty slots for intervals "
        "no monitor covered",
    )
    command.add_argument(
        "--max-inflight",
        type=int,
        default=DEFAULT_MAX_INFLIGHT,
        help="unacked summaries each monitor may keep on "
        "the wire (the backpressure window)",
    )
    command.add_argument(
        "--once",
        type=int,
        default=None,
        metavar="RUNS",
        help="exit after N monitor runs completed cleanly "
        "and no monitor is connected",
    )
    command.add_argument(
        "--linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep answering queries this long after the "
        "--once condition is met",
    )
    command.add_argument(
        "--port-file",
        metavar="FILE",
        default=None,
        help="write the bound HOST:PORT here once listening "
        "(for scripts using port 0); written atomically, "
        "removed on exit",
    )
    command.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="persist sealed slots to a write-ahead log under "
        "DIR and restore them on startup, so a restarted "
        "collector answers exactly as the one that died",
    )
    add_output_options(
        command,
        quiet="suppress the startup and shutdown lines",
        json_help=None,
    )


@contextlib.contextmanager
def _refused(what: str):
    """An ``OSError`` in the block as one ``error:`` line about ``what``."""
    try:
        yield
    except OSError as exc:
        raise ReproError(f"{what}: {exc.strerror or exc}") from None


def _write_port_file(path: str, host: str, port: int) -> None:
    """Atomically publish the bound address.

    Scripts poll for this file as the readiness signal, so it must
    never be observable half-written: write a sibling temp file and
    rename it into place.
    """
    temp_path = f"{path}.tmp"
    with _refused(f"cannot write --port-file {path}"):
        with open(temp_path, "w") as handle:
            handle.write(f"{host}:{port}\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)


def run(args: argparse.Namespace) -> int:
    scheme, feature = scheme_and_feature(args)
    host, port = parse_address(args.listen)
    if args.max_inflight < 1:
        raise ReproError("--max-inflight must be >= 1")
    if args.k is not None and args.k < 0:
        raise ReproError("--k must be >= 0")
    if args.once is not None and args.once < 1:
        raise ReproError("--once must be >= 1")
    with _refused(f"cannot use --state-dir {args.state_dir}"):
        service = CollectorService(
            host,
            port,
            k=args.k,
            fill_gaps=not args.no_fill_gaps,
            scheme=scheme,
            feature=feature,
            config=engine_config(args),
            max_inflight=args.max_inflight,
            once=args.once,
            state_dir=args.state_dir,
            faults=env_faults(),
        )

    async def _serve() -> None:
        stop = asyncio.Event()

        async def _once() -> None:
            await service.wait_done()
            if args.linger > 0:
                await asyncio.sleep(args.linger)
            stop.set()

        if threading.current_thread() is threading.main_thread():
            # SIGTERM is what systemd, `docker stop` and `kill` send, and
            # a daemon started with `&` from a script inherits SIGINT
            # ignored, so no KeyboardInterrupt would ever come: both end
            # the daemon as --once does, through the finally below.
            # (Off the main thread there are no signals to handle.)
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, stop.set)
        once = asyncio.create_task(_once())
        try:
            with _refused(f"cannot listen on {args.listen}"):
                bound_host, bound_port = await service.start()
            if args.port_file is not None:
                _write_port_file(args.port_file, bound_host, bound_port)
            if not args.quiet:
                print(
                    f"collector listening on {bound_host}:{bound_port}",
                    flush=True,
                )
            await stop.wait()
        finally:
            once.cancel()
            await service.stop()

    try:
        asyncio.run(_serve())
    finally:
        if args.port_file is not None:
            # a vanished (or never written) port file is the readiness
            # signal's inverse: nothing is listening there any more
            with contextlib.suppress(FileNotFoundError, NotADirectoryError):
                os.remove(args.port_file)
    if not args.quiet:
        collector = service.collector
        sealed = sum(link.slots_sealed for link in collector.links.values())
        print(
            f"collector done: {collector.runs_completed} monitor "
            f"runs, {len(collector.links)} links, {sealed} slots "
            "sealed"
        )
    return 0
