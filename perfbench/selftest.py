"""Tiny-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit on both workloads and both trace settings, that the traced layer
self times plus ``unattributed_s`` add up to the traced wall time, that
the bypass predictions hold, that every timing shim is restored after a
traced run, and that a deliberately wrong answer is counted as failed.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import flows_live  # noqa: E402
import telemetry_history  # noqa: E402
from common import Host, Ops, Reply, ServerErrorTap  # noqa: E402
from metrics import SELF_TIMES  # noqa: E402
from tracing import SPANS, LayerTracer, _resolve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".perfbench_work" / "selftest"


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_cli(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    expect(out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}: {out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_emitted() -> None:
    for entry in SPEC["workloads"]:
        workload = entry["name"]
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            result = run_cli(workload, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"result keys {sorted(result)}")
            expect(result["correct"], f"{workload} trace={trace} answered wrongly")
            metrics = result["metrics"]
            units = {m["name"]: m["unit"] for m in declared}
            expect(set(metrics) == set(units),
                   f"{workload} trace={trace}: emitted {sorted(set(metrics) ^ set(units))}")
            for name, unit in units.items():
                expect(metrics[name]["unit"] == unit, f"{name} unit {metrics[name]['unit']}")
            if trace:
                check_trace(workload, metrics, result)
        print(f"ok  {workload}: every metric emitted with its unit")


def check_trace(workload: str, metrics: dict, result: dict) -> None:
    value = {name: m["value"] for name, m in metrics.items()}
    parts = sum(value[name] for name in SELF_TIMES) + value["http.render_s"]
    total = parts + value["unattributed_s"]
    expect(abs(total - value["traced_wall_s"]) < 1e-6 * value["traced_wall_s"],
           f"layers + unattributed = {total}, wall = {value['traced_wall_s']}")
    if workload == "telemetry_history":
        expect(value["hashing.canonical_keys_s"] == 0.0, "strings hashed on telemetry_history")
        expect(value["store.active_rescans"] == 0, "active rescans on telemetry_history")
        expect(result["failed"] == 0, "failed operations on telemetry_history")
    else:
        expect(value["registry.observe_ns"] == 0.0, "histogram observations on flows_live")
        expect(value["hashing.byte_path_frac"] == 1.0, "flows_live keys on the int path")
        # One HLL read per window, each dropped by the known defect, per pass.
        expect(result["failed"] == 2 * round(flows_live.WINDOWS_PER_SECOND),
               f"flows_live failed {result['failed']}")


def _bindings() -> dict:
    """Every attribute the tracer may touch: repro module globals and the
    class dicts of the patched owners."""
    snapshot = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "repro" or mod_name.startswith("repro.")):
            snapshot[mod_name] = dict(vars(mod))
    for _, owner_path, _, _ in SPANS:
        owner = _resolve(owner_path)
        if isinstance(owner, type):
            snapshot[owner_path] = dict(vars(owner))
    return snapshot


def check_restored(host: Host) -> None:
    import repro.cardinality.hyperloglog as hll_module
    from repro.core import batch

    before = _bindings()
    original = batch.canonical_keys
    tracer = LayerTracer()
    with tracer:
        expect(hll_module.canonical_keys is not original, "consumer binding not shimmed")
        expect(batch.canonical_keys is hll_module.canonical_keys, "shims differ")
        inputs = flows_live.prepare(5, 0.5, records_per_window=200)
        with ServerErrorTap():
            flows_live.run(inputs, str(WORK / "restore"), host, tracer=tracer)
    expect(tracer.self_s["hashing.canonical_keys"] > 0, "canonical_keys shim never ran")
    after = _bindings()
    for owner, attrs in before.items():
        for attr, value in attrs.items():
            expect(after[owner].get(attr) is value, f"{owner}.{attr} not restored")
    print("ok  every shim restored after a traced run")


def _first(answers: list, kind: str) -> int:
    return next(i for i, item in enumerate(answers) if item[0] == kind)


def check_wrong_answers_fail(host: Host) -> None:
    inputs = flows_live.prepare(6, 0.5, records_per_window=200)
    with ServerErrorTap():
        _, answers = flows_live.run(inputs, str(WORK / "flows"), host)
    ops = Ops()
    flows_live.check(inputs, answers, ops, defect_confirmed=True)
    expect(ops.wrong == 0 and ops.known_defect == len(inputs.windows), f"baseline {ops}")
    bad = copy.deepcopy(answers)
    i = _first(bad["reads"], "kll")
    kind, lo, hi, src, reply = bad["reads"][i]
    group = next(iter(reply.body["groups"].values()))
    group["quantiles"]["0.5"] = group["quantiles"]["0.99"]
    wrong = Ops()
    flows_live.check(inputs, bad, wrong, defect_confirmed=True)
    expect(wrong.wrong >= 1 and wrong.failed > ops.failed, "wrong KLL quantile not counted")
    # An HLL answer far from the exact distinct count is wrong, not a drop.
    i = _first(bad["reads"], "hll")
    kind, lo, hi, src, _ = bad["reads"][i]
    bad["reads"][i] = (kind, lo, hi, src, Reply(200, {"count": 1e9}, 10, 0.0))
    wrong_hll = Ops()
    flows_live.check(inputs, bad, wrong_hll, defect_confirmed=True)
    expect(wrong_hll.wrong == wrong.wrong + 1, "wrong HLL count not counted")
    # Drops not confirmed as the known defect are wrong answers.
    unconfirmed = Ops()
    flows_live.check(inputs, answers, unconfirmed, defect_confirmed=False)
    expect(unconfirmed.wrong == len(inputs.windows), "unconfirmed drops not counted")

    t_inputs = telemetry_history.prepare(6, 1, obs_per_label=120)
    _, t_answers = telemetry_history.run(t_inputs, str(WORK / "telemetry"), host)
    t_ops = Ops()
    telemetry_history.check(t_inputs, t_answers, t_ops, defect_confirmed=True)
    expect(t_ops.failed == 0, f"telemetry baseline failed: {t_ops.notes}")
    t_bad = copy.deepcopy(t_answers)
    t_bad["reads"][0].body["count"] += 1
    t_wrong = Ops()
    telemetry_history.check(t_inputs, t_bad, t_wrong, defect_confirmed=True)
    expect(t_wrong.failed == 1 and t_wrong.wrong == 1, "wrong telemetry count not counted")
    print("ok  deliberately wrong answers are counted as failed")


def main() -> int:
    host = Host()
    try:
        check_restored(host)
        check_wrong_answers_fail(host)
        check_emitted()
    finally:
        host.release()
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
