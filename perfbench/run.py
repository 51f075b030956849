"""End-to-end benchmark: string/tuple keys -> StreamPipeline -> GroupBySketcher
-> SketchStore -> /query, with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload flows_live --seed 1 --seconds 30 --trace 0

``--seconds`` sizes the run (windows and reads grow linearly with it);
the same seed and seconds always give the same inputs.  With
``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric; with ``--trace 1`` the process runs the same work
twice, untraced and then with the layer shims installed, and reports
the per-layer metrics (self times, counts, ``unattributed_s`` and
``tracing_overhead_frac``).  ``perfbench/README.md`` maps each layer
metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flows_live", "telemetry_history")


def _import_program():
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    import common
    import flows_live
    import metrics as metric_tables
    import telemetry_history
    from tracing import LayerTracer

    workload = {"flows_live": flows_live, "telemetry_history": telemetry_history}[args.workload]
    inputs = workload.prepare(args.seed, args.seconds)
    # The pre-built inputs are benchmark data, not program state: keep them
    # out of the collector's generations and the peak-RSS reading.
    gc.collect()
    gc.freeze()
    common.reset_peak_rss()

    workroot = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workroot, ignore_errors=True)
    ops = common.Ops()
    host = common.Host()
    try:
        with common.ServerErrorTap() as tap:
            measured, answers = workload.run(inputs, str(workroot / "untraced"), host)
            rss_mb = common.peak_rss_mb()
            traced = None
            if args.trace:
                tracer = LayerTracer()
                with tracer:
                    traced, traced_answers = workload.run(
                        inputs, str(workroot / "traced"), host, tracer=tracer)
        dropped = _dropped(answers) + (_dropped(traced_answers) if traced else 0)
        # Every dropped connection must be the RangeResult.count defect.
        confirmed = tap.errors() == dropped and (
            dropped == 0 or "AttributeError" in tap.last_error_line())
        workload.check(inputs, answers, ops, confirmed)
        if traced is not None:
            workload.check(inputs, traced_answers, ops, confirmed)
    finally:
        host.release()
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    if dropped:
        print(f"perfbench: {dropped} /query connections dropped by the server: "
              f"{tap.last_error_line()}", file=sys.stderr)
    for note in ops.notes:
        print(f"perfbench: wrong answer: {note}", file=sys.stderr)
    if args.trace:
        metrics = metric_tables.per_layer(tracer, traced, measured, ops)
    else:
        metrics = metric_tables.end_to_end(measured, rss_mb)
        raw = metric_tables.end_to_end(measured, rss_mb, scaled=False)
        print("raw wall-clock values: " + ", ".join(
            f"{name} {value:.6g} {unit}" for name, (value, unit) in raw.items()
            if unit in ("s", "ms", "1/s")))
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit}")
    print(f"ops: {ops.failed} of {ops.attempted} failed "
          f"({ops.known_defect} known-defect drops, {ops.wrong} wrong answers)")
    print(json.dumps({
        "correct": ops.wrong == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _dropped(answers: dict) -> int:
    """Reads the server dropped without sending a response."""
    from common import Reply

    items = answers["reads"] + answers["restarts"]
    replies = [item[-1] if isinstance(item, tuple) else item for item in items]
    return sum(1 for r in replies if isinstance(r, Reply) and r.status is None)


if __name__ == "__main__":
    sys.exit(main())
