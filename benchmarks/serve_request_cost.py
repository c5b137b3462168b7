"""What a served request costs the server: its CPU time per HTTP request.

Compares two ``src/`` trees (``--base`` and ``--change``), alternating
them round by round so that host drift hits both alike.  Each round
starts a fresh child under ``PYTHONPATH=<tree>``: a journaled
``QueryService`` behind ``HTTPServer(port=0)`` with the ``serve``
workload's config (``benchmarks/e2e/workloads.py``).  This process then
sends it ``--pairs`` closed-loop pairs over loopback: ``POST /submit``
(``wait: false``), then ``GET /result/<qid>``, which returns once the
query completed.  With one query in flight the GA has nothing to order,
so what the server spends is what serving a request costs.  After
``POST /shutdown`` the child reports its ``time.process_time()`` from
listening to drained; divided by the ``2 × --pairs`` requests that is
one sample.  Prints each tree's median and quartiles (ms per request)
and how many round pairs the change won.  Usage::

    mkdir /tmp/base && git archive HEAD~1 | tar -x -C /tmp/base
    python benchmarks/serve_request_cost.py --base /tmp/base/src [--rounds 10]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))

import workloads  # noqa: E402
from loadgen import http_call  # noqa: E402

#: The child: serve until ``/shutdown``, then print CPU seconds and
#: completions.  Run with ``-B`` so no ``__pycache__`` lands in a tree.
_CHILD = """
import asyncio, json, os, sys, tempfile, time
from repro.serve import HTTPServer, QueryService, ServeConfig

async def main(config):
    with tempfile.TemporaryDirectory() as scratch:
        service = QueryService(
            ServeConfig(**config), journal=os.path.join(scratch, "journal")
        )
        server = HTTPServer(service, port=0)
        await server.start()
        started = time.process_time()
        print("READY", server.address[1], flush=True)
        await server.serve_until_shutdown()
        print(time.process_time() - started, len(service.ledgers), flush=True)

asyncio.run(main(json.loads(sys.argv[1])))
"""


def one_round(src: str, pairs: int) -> float:
    """CPU seconds per request of one fresh server on ``src``."""
    child = subprocess.Popen(
        [sys.executable, "-B", "-c", _CHILD,
         json.dumps(workloads.SERVE_CONFIG)],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = child.stdout.readline().split()
        if ready[:1] != ["READY"]:
            raise RuntimeError(f"server on {src} did not start: {ready}")
        port = int(ready[1])
        for template in workloads.serve_templates(1, pairs):
            status, reply, _ = http_call(
                "127.0.0.1", port, "POST", "/submit",
                {"template": template, "wait": False},
            )
            if status != 200:
                raise RuntimeError(f"submit answered {status}: {reply}")
            status, reply, _ = http_call(
                "127.0.0.1", port, "GET", f"/result/{reply['qid']}"
            )
            if status != 200:
                raise RuntimeError(f"result answered {status}: {reply}")
        http_call("127.0.0.1", port, "POST", "/shutdown")
        cpu, completed = child.stdout.readline().split()
        if int(completed) > pairs:
            raise RuntimeError(f"{completed} completions for {pairs} submits")
    finally:
        child.stdout.close()
        child.wait(timeout=60)
    return float(cpu) / (2 * pairs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent's src/")
    parser.add_argument("--change", default=str(HERE.parent / "src"))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--pairs", type=int, default=40)
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2 (quartiles need two)")
    trees = {"base": args.base, "change": args.change}
    samples: dict[str, list[float]] = {"base": [], "change": []}
    for round_index in range(args.rounds):
        order = ("base", "change") if round_index % 2 == 0 else ("change", "base")
        for name in order:
            samples[name].append(
                one_round(trees[name], args.pairs)
            )
    for name, values in samples.items():
        low, _median, high = statistics.quantiles(values, n=4)
        print(
            f"{name:6s} {trees[name]}: median "
            f"{statistics.median(values) * 1e3:.3f} ms/request  IQR "
            f"{low * 1e3:.3f}-{high * 1e3:.3f}  (n={len(values)})"
        )
    wins = sum(
        change < base for base, change in zip(samples["base"], samples["change"])
    )
    print(f"change cheaper in {wins} of {args.rounds} round pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
