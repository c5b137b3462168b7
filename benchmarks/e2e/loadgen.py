"""Open-loop HTTP load generator for the ``serve`` workload.

Independent report submitters do not wait for one another, so the load
is an open loop: request ``i`` is *due* at ``t0 + i / rate`` whatever the
server is doing, and its latency is timed from that due instant to the
last byte of the response.  A stalled send therefore charges the
requests queued behind it, and how late the generator itself ran is
reported next to the latencies.

One process, at most :data:`workloads.SERVE_CONNECTIONS` worker threads,
one connection per request (the server answers ``Connection: close``).
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

#: One busy loop at ``SCHED_IDLE``, pinned to the CPU named in ``argv[1]``;
#: it ends when the process that started it does.
_SPIN = """
import os, sys
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
os.sched_setaffinity(0, {int(sys.argv[1])})
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(1_000_000):
        pass
"""


class KeepAwake:
    """Keeps every CPU out of the idle path while the open loop runs.

    At 12.5 req/s both the generator and the server sleep between
    requests; a halted vCPU has to be rescheduled by the host, which on
    the shared sandbox added anything from 0 to 30 ms to a request
    (run-wide p50 3.5-10 ms plain, 2.6-4.3 ms awake, alternating runs).
    A ``SCHED_IDLE`` loop per CPU never takes time from the generator or
    the server, it only stops the CPU from halting, so the latencies are
    the program's and not the hypervisor's wake-up time.
    """

    def __enter__(self) -> "KeepAwake":
        self._spinners = [
            subprocess.Popen([sys.executable, "-c", _SPIN, str(cpu)])
            for cpu in sorted(os.sched_getaffinity(0))
        ]
        return self

    def __exit__(self, *_exc) -> None:
        for spinner in self._spinners:
            spinner.kill()
        for spinner in self._spinners:
            spinner.wait()


def http_call(
    host: str, port: int, method: str, path: str,
    body: dict | None = None, timeout: float = 30.0,
    clock=time.perf_counter,
) -> tuple[int, object, float]:
    """One blocking request; ``(status, parsed body, connect seconds)``."""
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("ascii")
    started = clock()
    with socket.create_connection((host, port), timeout=timeout) as sock:
        connect_seconds = clock() - started
        sock.sendall(head + payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw_head, _, raw_body = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(raw_head.split(b" ", 2)[1])
    try:
        parsed: object = json.loads(raw_body.decode("utf-8"))
    except ValueError:
        parsed = raw_body.decode("utf-8", errors="replace")
    return status, parsed, connect_seconds


@dataclass
class Sample:
    """One request as the generator saw it (seconds, generator clock)."""

    index: int
    due: float
    sent: float
    done: float
    ok: bool
    reply: object = None

    @property
    def latency(self) -> float:
        """Due instant -> response complete: what a submitter waits."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """How far behind its schedule the generator sent this request."""
        return self.sent - self.due


@dataclass
class OpenLoop:
    """Sends ``count`` requests on a fixed schedule from a few workers.

    ``send(index)`` performs request ``index`` and returns
    ``(ok, reply)``; ``now`` and ``sleep`` are injectable so the due-time
    accounting is testable against a fake clock.
    """

    rate: float
    count: int
    send: object
    now: object = time.perf_counter
    sleep: object = time.sleep
    samples: list[Sample] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._next = 0
        self._lock = threading.Lock()
        self._origin: float | None = None

    def _claim(self) -> int | None:
        with self._lock:
            if self._next >= self.count:
                return None
            index = self._next
            self._next += 1
            return index

    def worker(self) -> None:
        """Claim and send requests until the schedule is exhausted."""
        while (index := self._claim()) is not None:
            due = self._origin + index / self.rate
            wait = due - self.now()
            if wait > 0:
                self.sleep(wait)
            sent = self.now()
            try:
                ok, reply = self.send(index)
            except (OSError, ValueError, IndexError) as error:
                ok, reply = False, repr(error)
            sample = Sample(index, due, sent, self.now(), ok, reply)
            with self._lock:
                self.samples.append(sample)

    def run(self, workers: int) -> list[Sample]:
        """Drive the whole schedule; returns samples in request order."""
        self._origin = self.now()
        if workers <= 1:
            self.worker()
        else:
            threads = [
                threading.Thread(target=self.worker, daemon=True)
                for _ in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        self.samples.sort(key=lambda sample: sample.index)
        return self.samples
