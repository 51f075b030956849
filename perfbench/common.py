"""Pieces both workloads share: the HTTP client, the host probe, failure
accounting, percentiles and the peak-RSS reading."""

from __future__ import annotations

import http.client
import io
import json
import os
import random
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

_perf = time.perf_counter

#: the text socketserver prints when a request handler raises.
HANDLER_ERROR = "Exception occurred during processing of request"


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50)


def reset_peak_rss() -> None:
    """Reset the kernel's resident-set high-water mark for this process."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


#: what the reference workload takes, in ms, at the reference host speed.
REF_WORK_MS = 2.5


class Host:
    """Keeps the process on a fast CPU and measures how fast it is.

    On a shared 2-core host each core slows down by 1.4-2x, for seconds
    to minutes at a time and independently of the other, whenever
    neighbours load it, so raw timings swing with the neighbours rather
    than with the code.  :meth:`settle` runs between measured steps,
    never inside one.  It times a fixed reference workload (sorting,
    dict building and JSON encoding over a few thousand floats, so it
    stresses the caches and allocator like the program does) on the
    CPU every thread of the process is pinned to, and returns
    ``REF_WORK_MS / probe``: the factor that converts the next step's
    wall time to the reference host speed.  Every ``CHECK_EVERY`` calls
    it also probes the other CPUs and moves the process to one that is
    at least ``SWITCH_GAIN`` faster; moving on every call would put a
    cold-cache migration into the measured steps.  ``probe_ms`` keeps
    each probe (``host.ref_probe_ms``) and ``spent_s`` the time settling
    took, which is excluded from wall times.
    """

    CHECK_EVERY = 25
    SWITCH_GAIN = 1.2

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        rng = random.Random(12345)
        self._values = [rng.random() for _ in range(4000)]
        self.probe_ms: list[float] = []
        self.spent_s = 0.0
        self._current = None
        self._calls = 0

    def reference_work_ms(self) -> float:
        t0 = _perf()
        ordered = sorted(self._values)
        index = {value: i for i, value in enumerate(ordered)}
        pairs = [(value, index[value]) for value in self._values]
        json.dumps(pairs[:1000])
        return (_perf() - t0) * 1e3

    def _probe(self, cpu: int) -> float:
        self._pin({cpu})
        return min(self.reference_work_ms() for _ in range(2))

    def settle(self) -> float:
        t0 = _perf()
        if self._current is None or self._calls % self.CHECK_EVERY == 0:
            speed = {cpu: self._probe(cpu) for cpu in self.cpus if cpu != self._current}
            if self._current is not None:
                speed[self._current] = self._probe(self._current)
            best = min(speed, key=speed.get)
            if self._current is None or speed[best] * self.SWITCH_GAIN < speed[self._current]:
                self._current = best
            probe = speed[self._current]
        else:
            probe = None
        self._pin({self._current})
        if probe is None:
            probe = min(self.reference_work_ms() for _ in range(2))
        self._calls += 1
        self.probe_ms.append(probe)
        self.spent_s += _perf() - t0
        return REF_WORK_MS / probe

    def release(self) -> None:
        self._pin(set(self.cpus))

    @staticmethod
    def _pin(cpus: set) -> None:
        for tid in os.listdir("/proc/self/task"):
            try:
                os.sched_setaffinity(int(tid), cpus)
            except OSError:  # the thread ended meanwhile
                pass


class Retirer:
    """Stops replaced ``ObsServer``s in the background.

    A restart starts a new process; the old one is not shut down first.
    ``ObsServer.stop()`` waits out the serving loop's 0.5 s poll, so each
    retired server stops on its own thread (and releases the store it
    holds) while the new one is set up.
    """

    def __init__(self) -> None:
        self._threads: list[threading.Thread] = []

    def retire(self, server) -> None:
        thread = threading.Thread(target=server.stop)
        thread.start()
        self._threads.append(thread)

    def join(self) -> None:
        for thread in self._threads:
            thread.join()
        self._threads.clear()


@dataclass
class Reply:
    status: int | None  # None: the connection dropped without a response
    body: dict | None
    nbytes: int
    seconds: float


class QueryClient:
    """Closed-loop ``/query`` client: one connection per request, one at a time."""

    def __init__(self, port: int) -> None:
        self.port = port

    def get(self, path: str) -> Reply:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        t0 = _perf()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            raw = response.read()
            seconds = _perf() - t0
        except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
            return Reply(None, None, 0, _perf() - t0)
        finally:
            conn.close()
        return Reply(response.status, json.loads(raw), len(raw), seconds)


class ServerErrorTap:
    """Capture what the in-process HTTP server prints when a handler raises.

    ``socketserver`` writes the traceback of a failed request to
    ``sys.stderr`` and drops the connection.  The tap keeps that text so
    the check can confirm each dropped read is the known defect, instead
    of one traceback per request reaching the real stderr.
    """

    def __init__(self) -> None:
        self.buffer = io.StringIO()
        self._saved = None

    def __enter__(self) -> "ServerErrorTap":
        self._saved = sys.stderr
        sys.stderr = self.buffer
        return self

    def __exit__(self, *exc: object) -> None:
        sys.stderr = self._saved

    @property
    def text(self) -> str:
        return self.buffer.getvalue()

    def errors(self) -> int:
        return self.text.count(HANDLER_ERROR)

    def last_error_line(self) -> str:
        lines = [ln for ln in self.text.splitlines() if ln and not ln.startswith((" ", "-"))]
        return lines[-1] if lines else ""


@dataclass
class Ops:
    """Attempted and failed operations; a wrong answer counts as failed."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    known_defect: int = 0
    notes: list = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail_wrong(self, note: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.wrong += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def fail_known_defect(self) -> None:
        self.attempted += 1
        self.failed += 1
        self.known_defect += 1


def quantile_rank_error(sorted_values: np.ndarray, q: float, value: float) -> float:
    """Distance of ``value``'s true normalized rank interval from ``q``.

    With ties the rank of ``value`` is the interval
    ``[#(x < value), #(x <= value)] / n``; the error is 0 when ``q`` lies
    inside it.
    """
    n = len(sorted_values)
    lo = np.searchsorted(sorted_values, value, side="left") / n
    hi = np.searchsorted(sorted_values, value, side="right") / n
    return float(max(0.0, lo - q, q - hi))


@dataclass
class Measured:
    """Raw samples of one untraced or traced pass."""

    # Raw wall times, each with the factor converting it to the reference
    # host speed (Host.settle, probed on the same CPU just before).
    write_s: list = field(default_factory=list)  # per window write-path time
    write_records: list = field(default_factory=list)  # records in that window
    flush_s: list = field(default_factory=list)  # per window: last record -> readable
    window_scale: list = field(default_factory=list)
    query_s: list = field(default_factory=list)  # client-side /query latency
    query_scale: list = field(default_factory=list)
    response_bytes: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)  # restart -> serving, per restart
    setup_scale: list = field(default_factory=list)
    store_bytes: int = 0
    records: int = 0
    wall_s: float = 0.0  # everything measured, probes and checks excluded
    probe_ms: list = field(default_factory=list)
    render_s: float = 0.0  # client latency minus attributed server spans (traced)
