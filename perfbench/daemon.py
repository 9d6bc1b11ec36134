"""The verification daemon under test, in its own process.

Run from the checkout root by the ``service-118`` workload:

    python3 perfbench/daemon.py --sessions 4 [--trace-out PATH]

It serves :class:`repro.service.ReproService` on a free localhost
port, prints that port as its first line of output, and runs until
SIGTERM or SIGINT.  With ``--trace-out`` it first installs the
benchmark's span wrappers (:mod:`tracing`) and writes every span to
PATH on the way out, so the client can join them to its requests.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    from repro.service import ReproService

    recorder = None
    if args.trace_out:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    # One worker: the benchmark drives one request at a time, and a
    # single lane keeps the second core free for the client.
    service = ReproService(host="127.0.0.1", port=0, jobs=1,
                           max_sessions=args.sessions)

    async def serve() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        await service.start()
        print(service.port, flush=True)
        await stop.wait()
        await service.shutdown()

    asyncio.run(serve())
    if recorder is not None:
        recorder.dump(recorder.take(), args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
