"""The benchmark's metrics: names, units and how each is computed.

End-to-end metrics come from the untraced pass; per-layer metrics from
the traced pass.  Every ``*_s`` layer metric is a *self* time (span
duration minus nested spans), so they and ``unattributed_s`` sum to
``traced_wall_s``.
"""

from __future__ import annotations

from common import median, percentile

#: per-layer self-time metric -> the span it reports (tracing.SPANS names).
SELF_TIMES = {
    "streaming.feed_self_s": "streaming.feed",
    "streaming.groupby_self_s": "streaming.groupby",
    "streaming.flush_self_s": "streaming.flush",
    "hashing.canonical_keys_s": "hashing.canonical_keys",
    "cardinality.hll_update_many_self_s": "cardinality.hll_update_many",
    "registry.observe_self_s": "registry.observe",
    "quantiles.kll_update_s": "quantiles.kll_update",
    "quantiles.kll_merge_s": "quantiles.kll_merge",
    "serde.encode_s": "serde.encode",
    "serde.decode_s": "serde.decode",
    "store.append_s": "store.append",
    "store.flush_s": "store.flush",
    "store.seal_s": "store.seal",
    "store.recover_s": "store.recover",
    "store.query_self_s": "store.query",
    "store.read_s": "store.read",
    "store.index_load_s": "store.index_load",
    "store.active_rescan_s": "store.active_rescan",
    "store.fold_s": "store.fold",
    "timeline.tick_s": "timeline.tick",
    "timeline.replay_s": "timeline.replay",
    "alerts.evaluate_s": "alerts.evaluate",
    "http.server_start_s": "http.server_start",
    "tracing.hooks_s": "tracing.hooks",
}


def end_to_end(m, rss_mb: float, scaled: bool = True) -> dict:
    """Every end-to-end metric of one untraced pass, as (value, unit).

    With ``scaled`` (what the result line reports) every timing sample is
    first converted to the reference host speed by its ``Host.settle``
    factor; ``scaled=False`` gives the raw wall-clock figures.
    """
    def at_ref(samples, scales):
        return [s * k for s, k in zip(samples, scales)] if scaled else samples

    write = at_ref(m.write_s, m.window_scale)
    flush = at_ref(m.flush_s, m.window_scale)
    query = at_ref(m.query_s, m.query_scale)
    rates = [n / s for n, s in zip(m.write_records, write)]
    return {
        "setup_s": (median(at_ref(m.setup_s, m.setup_scale)), "s"),
        "ingest_records_per_s": (median(rates), "1/s"),
        "flush_ms_p50": (percentile(flush, 50) * 1e3, "ms"),
        "flush_ms_p90": (percentile(flush, 90) * 1e3, "ms"),
        "query_ms_p50": (percentile(query, 50) * 1e3, "ms"),
        "query_ms_p90": (percentile(query, 90) * 1e3, "ms"),
        "store_bytes_per_record": (m.store_bytes / m.records, "B/record"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, m, untraced, ops) -> dict:
    """Every per-layer metric of one traced pass, as (value, unit).

    ``untraced`` is the pass with the same inputs and no shims; the
    overhead compares the two wall times, each in units of its pass's
    median host probe so that a host phase change between the passes
    does not count as overhead.
    """
    s, c = tracer.self_s, tracer.counts
    unreported = set(s) - set(SELF_TIMES.values())
    if unreported:
        raise RuntimeError(f"spans without a reported metric: {sorted(unreported)}")
    out = {name: (s[span], "s") for name, span in SELF_TIMES.items()}
    out["http.render_s"] = (m.render_s, "s")
    attributed = sum(value for value, _ in out.values())
    out.update({
        "unattributed_s": (m.wall_s - attributed, "s"),
        "traced_wall_s": (m.wall_s, "s"),
        "tracing_overhead_frac": (
            (m.wall_s / median(m.probe_ms)) / (untraced.wall_s / median(untraced.probe_ms)) - 1.0,
            "fraction"),
        "hashing.ns_per_key": (
            _ratio(s["hashing.canonical_keys"], c["hashing.keys"]) * 1e9, "ns/key"),
        "hashing.byte_path_frac": (
            _ratio(c["hashing.byte_path_keys"], c["hashing.keys"]), "fraction"),
        "streaming.groups_per_window": (
            _ratio(c["streaming.groups_flushed"], len(m.write_s)), "groups/window"),
        "registry.observe_ns": (
            _ratio(s["registry.observe"], c["registry.observations"]) * 1e9, "ns/obs"),
        "serde.encode_bytes": (c["serde.encode_bytes"], "B"),
        "serde.blob_bytes_per_partial": (
            _ratio(c["serde.encode_bytes"], c["serde.partials_encoded"]), "B/partial"),
        "store.bytes_written": (m.store_bytes, "B"),
        "store.windows_read_per_query": (
            _ratio(c["store.windows_read"], c["store.queries"]), "windows/query"),
        "store.series_decoded_per_series_returned": (
            _ratio(c["store.series_decoded"], c["store.series_returned"]), "series/series"),
        "store.active_rescans": (c["store.active_rescans"], "count"),
        "http.response_bytes": (
            _ratio(sum(m.response_bytes), len(m.response_bytes)), "B/response"),
        "host.ref_probe_ms": (median(m.probe_ms), "ms"),
        "failed_ops_frac": (_ratio(ops.failed, ops.attempted), "fraction"),
    })
    return out
