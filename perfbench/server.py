"""Run one rewrite server for the benchmark, in its own process.

Usage: ``python3 perfbench/run.py`` starts it as
``python3 perfbench/server.py --trace 0|1`` from the checkout root.  It
prints ``port <n>`` once the server listens and serves until its
standard input closes.  With ``--trace 1`` the caller first writes the
JSON list of request ids to account for; the server then prints, as one
JSON line, their waterfall and server-side time span (``layers.py``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402  (perfbench/layers.py)


async def serve() -> str:
    """Serve until standard input closes; return what it carried."""
    from repro.server import ReproServer, ServerConfig
    server = ReproServer(ServerConfig(port=0))
    await server.start()
    print(f"port {server.port}", flush=True)
    loop = asyncio.get_running_loop()
    text = await loop.run_in_executor(None, sys.stdin.read)
    # Clients have closed their connections; let the handlers see EOF
    # and finish before shutdown would cancel them.
    handlers = asyncio.all_tasks() - {asyncio.current_task()}
    if handlers:
        await asyncio.wait(handlers, timeout=5)
    await server.stop()
    return text


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    log = layers.ServerLog()
    if args.trace:
        layers.install_server(log)
    text = asyncio.run(serve())
    result = {}
    if args.trace:
        waterfall, timeline = layers.served_waterfall(log, json.loads(text))
        result = {"waterfall": vars(waterfall), "timeline": timeline}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
