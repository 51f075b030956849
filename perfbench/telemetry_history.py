"""Workload ``telemetry_history``: self-hosted telemetry, restarted.

Eight labelled ``SketchHistogram``s receive lognormal request latencies
on a simulated clock.  A ``TimelineRecorder`` ticks once per window
with write-through to a ``SketchStore``, and an ``AlertEngine``
evaluates a ``QuantileRule`` and a ``DriftRule`` on every tick; a late
shift on one label makes both fire for real.  The process then
restarts: it reopens the store, replays the ring with
``attach_store(replay=True)`` and starts ``ObsServer``.  After the
restart one client runs a closed loop of ``/query`` range and GROUP BY
reads over the sealed history.  No string is hashed anywhere here.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.obs import MetricsRegistry, ObsServer, TimelineRecorder
from repro.obs.alerts import FIRING, AlertEngine, DriftRule, QuantileRule
from repro.quantiles import KLLSketch
from repro.store import SketchStore

from common import Host, Measured, Ops, QueryClient, Retirer, quantile_rank_error
from inputs import latency_windows

_perf = time.perf_counter

LABELS = 8
OBS_PER_LABEL = 250  # per window
WINDOWS_PER_SECOND = 6  # history windows per --seconds
READS_PER_SECOND = 8  # post-restart reads per --seconds
SHIFTED_WINDOWS = 15  # the last windows of label r3 are shifted
SHIFT_LABEL = 3
RING = 64
PARTITION_WINDOWS = 5  # one tick in five seals: flush p90 falls among those
RESTARTS = 5
RANGE_WINDOWS = 16  # one label over 16 windows
GROUP_WINDOWS = 8  # GROUP BY route over 8 windows
MU, SIGMA = -4.0, 0.5
T0 = 1_000_000.0  # simulated epoch of window 0; windows are 1 s wide
METRIC = "latency_seconds"
QUANTILES = (0.5, 0.9, 0.99)
HIST_K = 200


@dataclass
class Inputs:
    values: list  # [window][label] -> list of float latencies
    raw: np.ndarray  # the same, (windows, labels, obs)
    shift_from: int
    reads: list  # (kind, first window, n windows, label)


def prepare(seed: int, seconds: float, obs_per_label: int = OBS_PER_LABEL) -> Inputs:
    n_windows = max(60, round(WINDOWS_PER_SECOND * seconds))
    shift_from = n_windows - SHIFTED_WINDOWS
    raw = latency_windows(seed, n_windows, LABELS, obs_per_label, SHIFT_LABEL,
                          shift_from, MU, SIGMA)
    values = [[raw[w, lab].tolist() for lab in range(LABELS)] for w in range(n_windows)]
    rng = np.random.default_rng(seed + 1)
    reads = []
    for i in range(max(RESTARTS, round(READS_PER_SECOND * seconds))):
        # One read in five is a GROUP BY, so p50 falls among range reads
        # and p90 among GROUP BY reads rather than between the two.
        kind, span = ("group", GROUP_WINDOWS) if i % 5 == 4 else ("range", RANGE_WINDOWS)
        first = int(rng.integers(0, n_windows - span + 1))
        reads.append((kind, first, span, int(rng.integers(LABELS))))
    return Inputs(values, raw, shift_from, reads)


def _rules() -> list:
    # p90 threshold halfway between the unshifted and the shifted p90.
    threshold = math.exp(MU + SIGMA * (1.2816 + 0.5))
    labels = {"route": f"r{SHIFT_LABEL}"}
    return [
        QuantileRule("p90_r3", METRIC, threshold, q=0.9, over=5, labels=labels),
        DriftRule("drift_r3", METRIC, baseline_windows=40, recent_windows=5,
                  labels=labels),
    ]


def _open(workdir: str):
    """Restart: recover the store, replay the ring, start serving."""
    store = SketchStore(workdir, partition_seconds=float(PARTITION_WINDOWS),
                        registry=MetricsRegistry())
    recorder = TimelineRecorder(registry=MetricsRegistry(), interval=1.0,
                                max_windows=RING, clock=time.time)
    recorder.attach_store(store, replay=True)
    server = ObsServer(registry=recorder.registry, timeline=recorder).start()
    return store, recorder, server


def _path(kind: str, first: int, span: int, label: int) -> str:
    q = ",".join(str(q) for q in QUANTILES)
    since, until = T0 + first, T0 + first + span
    if kind == "range":
        return f"/query?metric={METRIC}&route=r{label}&since={since}&until={until}&q={q}"
    return f"/query?metric={METRIC}&group_by=route&since={since}&until={until}&q={q}"


def run(inputs: Inputs, workdir: str, host: Host, tracer=None) -> tuple[Measured, dict]:
    """Drive the history, the restarts and the reads; returns samples and answers."""
    m = Measured()
    answers = {"events": [], "restarts": [], "reads": []}
    settled = host.spent_s, len(host.probe_ms)
    start = _perf()
    registry = MetricsRegistry()
    hists = [registry.histogram(METRIC, "request latency", k=HIST_K, route=f"r{lab}")
             for lab in range(LABELS)]
    clock = [T0]
    store = SketchStore(workdir, partition_seconds=float(PARTITION_WINDOWS),
                        registry=MetricsRegistry())
    recorder = TimelineRecorder(registry=registry, interval=1.0, max_windows=RING,
                                clock=lambda: clock[0])
    recorder.attach_store(store)
    engine = AlertEngine(recorder, rules=_rules())
    recorder.tick(T0)  # starts the histograms' window mirrors
    for i, per_label in enumerate(inputs.values):
        scale = host.settle()
        t0 = _perf()
        for hist, values in zip(hists, per_label):
            observe = hist.observe
            for value in values:
                observe(value)
        now = clock[0] = T0 + i + 1
        t1 = _perf()
        recorder.tick(now)
        t2 = _perf()
        events = engine.evaluate(now)
        t3 = _perf()
        m.write_s.append(t3 - t0)
        m.flush_s.append(t2 - t1)
        m.write_records.append(sum(len(v) for v in per_label))
        m.window_scale.append(scale)
        answers["events"].extend((i, e.rule, e.to_state) for e in events)
    store.close()
    del recorder, engine, store
    # Restarts are spread over the read loop, so that set-up samples
    # span the run like the other samples do.
    retirer = Retirer()
    per_restart = -(-len(inputs.reads) // RESTARTS)
    for restart in range(RESTARTS):
        if restart:
            store.close()
            retirer.retire(server)
            del store, recorder, server
        m.setup_scale.append(host.settle())
        t0 = _perf()
        store, recorder, server = _open(workdir)
        m.setup_s.append(_perf() - t0)
        answers["restarts"].append((len(recorder), recorder.coverage()))
        client = QueryClient(server.port)
        for kind, first, span, label in inputs.reads[restart * per_restart:][:per_restart]:
            m.query_scale.append(host.settle())
            attributed = tracer.attributed_s if tracer else 0.0
            reply = client.get(_path(kind, first, span, label))
            if tracer:
                m.render_s += reply.seconds - (tracer.attributed_s - attributed)
            m.query_s.append(reply.seconds)
            m.response_bytes.append(reply.nbytes)
            answers["reads"].append(reply)
    store.close()
    retirer.retire(server)
    # Retired servers stop in the background; waiting for them is not work.
    m.wall_s = _perf() - start - (host.spent_s - settled[0])
    retirer.join()
    m.probe_ms = host.probe_ms[settled[1]:]
    m.records = int(inputs.raw.size)
    m.store_bytes = sum(e.stat().st_size for e in os.scandir(workdir) if e.is_file())
    return m, answers


def check(inputs: Inputs, answers: dict, ops: Ops, defect_confirmed: bool) -> None:
    """Every answer against exact references; nothing may fail here."""
    n_windows = len(inputs.values)
    for n_ring, coverage in answers["restarts"]:
        if n_ring == min(RING, n_windows) and coverage and coverage[1] == T0 + n_windows:
            ops.ok()
        else:
            ops.fail_wrong(f"restart replayed {n_ring} windows covering {coverage}")
    for rule in ("p90_r3", "drift_r3"):
        fired = [i for i, name, state in answers["events"] if name == rule and state == FIRING]
        if fired and min(fired) >= inputs.shift_from:
            ops.ok()
        else:
            ops.fail_wrong(f"{rule} fired at {fired}, shift from {inputs.shift_from}")
    epsilon = KLLSketch(k=HIST_K).rank_error_bound()
    for (kind, first, span, label), reply in zip(inputs.reads, answers["reads"]):
        if reply.status != 200:
            ops.fail_wrong(f"{kind} read status {reply.status}")
            continue
        block = inputs.raw[first:first + span]
        if kind == "range":
            groups = {f"r{label}": reply.body}
        else:
            groups = reply.body.get("groups", {})
            if sorted(groups) != [f"r{lab}" for lab in range(LABELS)]:
                ops.fail_wrong(f"group read returned {sorted(groups)}")
                continue
        problem = None
        for name, group in groups.items():
            exact = np.sort(block[:, int(name[1:]), :].ravel())
            if group.get("count") != len(exact):
                problem = f"{name} count {group.get('count')} != {len(exact)}"
                break
            for q, value in group["quantiles"].items():
                err = quantile_rank_error(exact, float(q), value)
                if err > epsilon:
                    problem = f"{name} q{q} rank error {err:.4f} > {epsilon:.4f}"
                    break
        if problem:
            ops.fail_wrong(f"{kind} read [{first},{first + span}): {problem}")
        else:
            ops.ok()
