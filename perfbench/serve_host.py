"""Run the assembly service in its own process, as ``repro serve`` does.

Usage::

    python perfbench/serve_host.py --journal J --checkpoint-dir C \\
        --report R.json [--trace]

Prints the service's ``listening on http://host:port`` line, serves until
SIGTERM (graceful drain), then writes ``R.json`` with the process's peak
resident memory and, with ``--trace``, every span the service recorded.
"""

from __future__ import annotations

import argparse
import asyncio
import contextvars
import json
import os
import resource
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from common import ensure_program  # noqa: E402
from tracer import Tracer  # noqa: E402


def stop_when_orphaned() -> None:
    """Stop gracefully once the process that started this one is gone."""
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(1.0)
    os.kill(os.getpid(), signal.SIGTERM)


class ContextThreadPool(ThreadPoolExecutor):
    """A thread pool that runs each task in a copy of the caller's context,
    so spans opened in an executor thread get the awaiting span as parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn,
                              *args, **kwargs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--journal", required=True)
    parser.add_argument("--checkpoint-dir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    ensure_program()

    import repro.serve.service as service_mod
    from repro.serve import serve_forever

    threading.Thread(target=stop_when_orphaned, daemon=True).start()
    tracer = Tracer(enabled=args.trace)
    if args.trace:
        layers.install_engine(tracer)
        layers.install_checkpoint(tracer)
        layers.install_serve(tracer)
        # the service's single wave lane is a ThreadPoolExecutor; with
        # this subclass the worker's spans link to the supervisor's
        service_mod.ThreadPoolExecutor = ContextThreadPool

    async def serve() -> None:
        if args.trace:
            asyncio.get_running_loop().set_default_executor(
                ContextThreadPool())
        await serve_forever("127.0.0.1", 0, workers=1,
                            checkpoint_dir=args.checkpoint_dir,
                            journal_path=args.journal)

    asyncio.run(serve())
    report = {"peak_rss_kb":
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if args.trace:
        report["spans"] = [s.__dict__ for s in tracer.spans]
    Path(args.report).write_text(json.dumps(report, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
