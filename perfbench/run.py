"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root; the program is imported from ``src/``.
The host stamp also goes to stderr. Stdout carries two JSON lines: a
report (host stamp with start/end ``calib_ms``, the share of CPU time
the host stole during the run and whether the run is ``unresolved``;
sent/succeeded/failed and steal per round; calm rounds per phase; failed
checks; and in traced runs the spans aggregated per (kind, arm, phase)),
then the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (every layer is listed on every
workload; 0 marks a layer that is not on the workload's path).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("wire-mixed", "kv-decode", "offline-ppl")

E2E = {"setup_s": "s", "serial_p50_ms": "ms", "serial_p95_ms": "ms",
       "loaded_rps": "1/s", "loaded_p50_ms": "ms", "loaded_p95_ms": "ms",
       "tokens_per_s": "1/s", "rss_mb": "MiB"}

_ARM_FORMATS = ("fp4", "mxfp4", "mxfp4-maxkeep", "mxfp6-e2m3", "mxfp6-e3m2",
                "mxfp8-e4m3", "mxfp8-e5m2", "mxint8", "nvfp4", "smx4",
                "smx6", "smx9", "msfp12", "msfp16", "elem-em", "elem-ee",
                "sg-em", "sg-ee", "m2xfp", "m2-nvfp4")

LAYERS = {
    "host.calib_ms": "ms", "host.steal_frac": "ratio",
    "client.encode_us": "us", "client.decode_us": "us",
    "server.residual_ms": "ms", "server.residual_share": "ratio",
    "server.busy": "ratio",
    "serve.queue_ms": "ms", "serve.batch_ms": "ms",
    "serve.batch_size": "count", "serve.weight_hit_ratio": "ratio",
    "plan.quantize_ms": "ms", "plan.hit_ratio": "ratio",
    "plan.fallback_share": "ratio",
    "codec.pack_ms": "ms", "codec.verify_ms": "ms",
    "codec.fused_share": "ratio", "codec.bits_per_elem": "bit/elem",
    "kv.append_server_ms": "ms", "kv.read_ms": "ms",
    "kv.evicted_tokens": "count",
    "gateway.overhead_ms": "ms",
    "eval.wrapper_s": "s", "eval.ppl_s": "s",
    **{f"eval.{kind}_s.{name}": "s" for name in _ARM_FORMATS
       for kind in ("wrapper", "ppl")},
    "models.calibrate_s": "s", "models.fp16_tokens_per_s": "1/s",
    "obs.trace_overhead_frac": "ratio", "obs.trace_id_collisions": "count",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args) -> dict:
    if not (ROOT / "src" / "repro").is_dir():
        raise RuntimeError(f"no program source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import stats

    host = stats.host_stamp(ROOT)
    calib_start, ticks_start = stats.calib_ms(), stats.cpu_ticks()
    stats.log(f"host: {json.dumps(host)}")
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    try:
        if args.workload == "offline-ppl":
            from perfbench.offline import offline_workload
            out = offline_workload(args.seed, args.seconds, bool(args.trace))
        elif args.workload == "kv-decode":
            from perfbench.serving import kv_workload
            out = kv_workload(ROOT, args.seed, args.seconds,
                              bool(args.trace), tmp)
        else:
            from perfbench.serving import wire_workload
            out = wire_workload(ROOT, args.seed, args.seconds,
                                bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        _stop_resource_tracker()
    steal = stats.steal_share(ticks_start, stats.cpu_ticks())
    calib_end = stats.calib_ms()
    host["calib_ms"] = [round(calib_start, 3), round(calib_end, 3)]
    host["steal_frac"] = round(steal, 4)
    # A run whose calibration doubled or halved, or whose phases found
    # too few calm rounds, straddled a change of host regime: a
    # comparison built on it is unresolved, not a regression. (Calm runs
    # see start/end calibrations up to 1.5x apart.)
    host["unresolved"] = bool(out.details.get("contended")) or \
        max(calib_start, calib_end) > 2 * min(calib_start, calib_end)
    stats.log(f"host after the run: {json.dumps(host)}")

    attempted = sum(p.sent for p in out.phases)
    failed = sum(p.failed for p in out.phases) + len(out.check_errors)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "phases": [p.report() for p in out.phases],
              "checks": out.check_errors, **out.details}
    print(json.dumps(report, sort_keys=True), flush=True)
    if args.trace:
        values = dict.fromkeys(LAYERS, 0.0)
        values.update(out.layers)
        values["host.calib_ms"] = 0.5 * (calib_start + calib_end)
        values["host.steal_frac"] = steal
        units = LAYERS
    else:
        values, units = out.e2e, E2E
    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"metrics without a declared unit: {unknown}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(values[name]),
                               "unit": units[name]} for name in units}}


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts with
    the first spawned worker, so the run leaves no process behind."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        result = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
