"""Workload ``flows_live``: the paper's §3 GROUP BY deployment, live.

Flow records keyed by host strings are fed window by window through
``StreamPipeline.feed`` into two ``GroupBySketcher``s:

- per source, a HyperLogLog over ``(src, dst)`` tuples (the scan
  detector), on the batched ``process_many`` -> ``update_many`` path;
- per destination port, a KLL over flow bytes, on the per-record
  ``update_fn`` path.

Each window is flushed with ``flush_to_store``; after every flush one
client reads the trailing windows over ``/query`` (a GROUP BY of the
byte quantiles, and one source's distinct-destination count), so reads
run beside writes and hit the unsealed active segment.  Finally the
process restarts: the store is reopened and ``ObsServer`` started again.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.cardinality import HyperLogLog
from repro.core import z_score
from repro.obs import MetricsRegistry, ObsServer
from repro.quantiles import KLLSketch
from repro.store import SketchStore
from repro.streaming import GroupBySketcher, StreamPipeline

from common import Host, Measured, Ops, QueryClient, Retirer, quantile_rank_error
from inputs import flow_windows

_perf = time.perf_counter

RECORDS_PER_WINDOW = 1000
WINDOWS_PER_SECOND = 4  # of --seconds; 120 windows at 30 s
# Store partition width in (1 s) windows.  With 5, the active segment
# holds 1..5 windows in equal shares and one flush in five seals, so p50
# and p90 of query and flush time fall inside a mode, not between two.
PARTITION_WINDOWS = 5
# Each read covers the trailing 2..8 windows, drawn per read: with one
# fixed range, read costs fall into a few discrete levels (active-segment
# fill x read kind) and p50/p90 would sit on the edge between two.
TRAILING_WINDOWS = (2, 8)
RESTARTS = 5
HLL_P = 8
KLL_K = 200
QUANTILES = (0.5, 0.9, 0.99)
HLL_CONFIDENCE = 0.99


def _group(record):
    """Both record kinds lead with their group: source host, or port."""
    return record[0]


def _new_hll():
    return HyperLogLog(p=HLL_P, seed=7)


def _new_kll():
    return KLLSketch(k=KLL_K, seed=3)


def _add_bytes(sketch, record):
    sketch.update(record[1])


@dataclass
class Inputs:
    windows: list
    hosts: list
    read_sources: list  # host index read after each window
    read_spans: list  # (KLL read, HLL read) trailing windows, per window


def prepare(seed: int, seconds: float, records_per_window: int = RECORDS_PER_WINDOW) -> Inputs:
    n_windows = max(2, round(WINDOWS_PER_SECOND * seconds))
    windows, hosts, scanners = flow_windows(seed, n_windows, records_per_window)
    # Scanners and the heaviest sources: present in every trailing range.
    candidates = [int(s) for s in scanners] + list(range(8))
    rng = np.random.default_rng(seed + 1)
    read_sources = [int(c) for c in rng.choice(candidates, size=n_windows)]
    low, high = TRAILING_WINDOWS
    read_spans = [tuple(int(s) for s in pair)
                  for pair in rng.integers(low, high + 1, size=(n_windows, 2))]
    return Inputs(windows, hosts, read_sources, read_spans)


def _kll_path(lo: int, hi: int) -> str:
    q = ",".join(str(q) for q in QUANTILES)
    return f"/query?metric=flow_bytes&group_by=dst_port&since={lo}&until={hi}&q={q}"


def _hll_path(host: str, lo: int, hi: int) -> str:
    return f"/query?metric=flow_pairs&src={host}&since={lo}&until={hi}"


def run(inputs: Inputs, workdir: str, host: Host, tracer=None) -> tuple[Measured, dict]:
    """Drive the live phase and the restarts; returns samples and answers."""
    m = Measured()
    answers = {"flushes": [], "reads": [], "restarts": []}
    settled = host.spent_s, len(host.probe_ms)
    start = _perf()
    store = SketchStore(workdir, partition_seconds=float(PARTITION_WINDOWS),
                        registry=MetricsRegistry())
    server = ObsServer(registry=MetricsRegistry(), store=store).start()
    client = QueryClient(server.port)
    by_src = GroupBySketcher(_group, _new_hll)
    by_port = GroupBySketcher(_group, _new_kll, update_fn=_add_bytes)
    for i, window in enumerate(inputs.windows):
        scale = host.settle()
        t0 = _perf()
        StreamPipeline(window.pairs).feed(by_src)
        StreamPipeline(window.port_bytes).feed(by_port)
        t1 = _perf()
        groups = (
            by_src.flush_to_store(store, "flow_pairs", i, i + 1, group_label="src"),
            by_port.flush_to_store(store, "flow_bytes", i, i + 1, group_label="dst_port"),
        )
        t2 = _perf()
        m.write_s.append(t2 - t0)
        m.flush_s.append(t2 - t1)
        m.write_records.append(len(window.pairs))
        m.window_scale.append(scale)
        answers["flushes"].append(groups)
        source = inputs.hosts[inputs.read_sources[i]]
        kll_lo, hll_lo = (max(0, i + 1 - span) for span in inputs.read_spans[i])
        for kind, lo, path in (("kll", kll_lo, _kll_path(kll_lo, i + 1)),
                               ("hll", hll_lo, _hll_path(source, hll_lo, i + 1))):
            attributed = tracer.attributed_s if tracer else 0.0
            reply = client.get(path)
            if tracer:
                m.render_s += reply.seconds - (tracer.attributed_s - attributed)
            m.query_s.append(reply.seconds)
            m.query_scale.append(scale)
            m.response_bytes.append(reply.nbytes)
            answers["reads"].append((kind, lo, i + 1, inputs.read_sources[i], reply))
    store.close()
    retirer = Retirer()
    retirer.retire(server)
    # After each restart, the last live KLL read again: it must not change.
    restart_path = _kll_path(kll_lo, len(inputs.windows))
    for _ in range(RESTARTS):
        m.setup_scale.append(host.settle())
        t0 = _perf()
        store = SketchStore(workdir, partition_seconds=float(PARTITION_WINDOWS),
                            registry=MetricsRegistry())
        server = ObsServer(registry=MetricsRegistry(), store=store).start()
        m.setup_s.append(_perf() - t0)
        answers["restarts"].append(QueryClient(server.port).get(restart_path))
        store.close()
        retirer.retire(server)
    # Retired servers stop in the background; waiting for them is not work.
    m.wall_s = _perf() - start - (host.spent_s - settled[0])
    retirer.join()
    m.probe_ms = host.probe_ms[settled[1]:]
    m.records = sum(len(w.pairs) for w in inputs.windows)
    m.store_bytes = sum(e.stat().st_size for e in os.scandir(workdir) if e.is_file())
    return m, answers


def check(inputs: Inputs, answers: dict, ops: Ops, defect_confirmed: bool) -> None:
    """Every answer against exact references built from the same inputs.

    A dropped HLL read is the known ``RangeResult.count`` defect when the
    server's captured traceback says so (``defect_confirmed``); it counts
    as failed either way.
    """
    windows = inputs.windows
    for window, (n_src, n_port) in zip(windows, answers["flushes"]):
        if n_src == len(np.unique(window.src)) and n_port == len(np.unique(window.port)):
            ops.ok()
        else:
            ops.fail_wrong(f"flush wrote {n_src}/{n_port} groups")
    epsilon = KLLSketch(k=KLL_K).rank_error_bound()
    hll_spread = z_score(HLL_CONFIDENCE) * HyperLogLog(p=HLL_P).relative_standard_error
    last_kll = None
    for kind, lo, hi, src, reply in answers["reads"]:
        span = windows[lo:hi]
        if reply.status is None:
            if kind == "hll" and defect_confirmed:
                ops.fail_known_defect()
            else:
                ops.fail_wrong(f"{kind} read [{lo},{hi}) dropped")
            continue
        if reply.status != 200:
            ops.fail_wrong(f"{kind} read [{lo},{hi}) status {reply.status}")
            continue
        if kind == "kll":
            problem = _check_kll(reply.body, span, epsilon)
            last_kll = reply.body
        else:
            dsts = np.concatenate([w.dst[w.src == src] for w in span])
            problem = _check_hll(reply.body, len(np.unique(dsts)), hll_spread)
        if problem:
            ops.fail_wrong(f"{kind} read [{lo},{hi}): {problem}")
        else:
            ops.ok()
    for reply in answers["restarts"]:
        # A reopened store must answer exactly what the live store did.
        if reply.status == 200 and reply.body == last_kll:
            ops.ok()
        else:
            ops.fail_wrong("read after restart differs from the live answer")


def _check_kll(body: dict, span: list, epsilon: float) -> str | None:
    port = np.concatenate([w.port for w in span])
    nbytes = np.concatenate([w.nbytes for w in span])
    groups = body.get("groups", {})
    if sorted(groups) != sorted(str(p) for p in np.unique(port)):
        return f"groups {sorted(groups)}"
    for name, group in groups.items():
        exact = np.sort(nbytes[port == int(name)])
        if group["count"] != len(exact):
            return f"port {name} count {group['count']} != {len(exact)}"
        for q, value in group["quantiles"].items():
            err = quantile_rank_error(exact, float(q), value)
            if err > epsilon:
                return f"port {name} q{q} rank error {err:.4f} > {epsilon:.4f}"
    return None


def _check_hll(body: dict, exact: int, spread: float) -> str | None:
    estimate = body.get("count")
    if not isinstance(estimate, (int, float)):
        return f"no count in {sorted(body)}"
    if not estimate * (1 - spread) <= exact <= estimate * (1 + spread):
        return f"distinct {estimate} vs exact {exact} outside +-{spread:.3f}"
    return None
