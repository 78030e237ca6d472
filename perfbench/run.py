"""Layered host-performance benchmark: build, run one workload, report.

    python3 perfbench/run.py --workload calls|serving|mc --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the
repository's libraries from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when unset; runs the measuring program; prints every
metric by name and unit; and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics; with
--trace 1 its per-layer metrics, plus the attribution of the traced phase's
time to layers and a Chrome trace-event file of the spans.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out_dir):
    """Configure once, then build the measuring program (incremental)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no repository sources under {ROOT / 'src'}")
    if not (out_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(out_dir), "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out_dir / "perfbench"


def end_to_end(raw):
    """The end-to-end metrics of an untraced run.

    Throughput, CPU cost and the median op latency take every op at its
    class's fast-state time (benchstats.fast_state), and set-up time is the
    lower decile of its samples, which are spread over the whole run. The
    tail latency is the observed one, over every op as it ran. The observed
    whole-phase figures are printed beside them.
    """
    timed = raw["timed"]
    units = timed["units"]
    fast = benchstats.fast_state(timed["classes"])
    ops = sum(n for n, _, _ in fast)
    fast_wall_ms = sum(n * wall for n, wall, _ in fast)
    fast_cpu_ms = sum(n * cpu for n, _, cpu in fast)
    observed = benchstats.merge_histograms([c["wall_ms"] for c in timed["classes"]])
    tail, pct, beyond = benchstats.histogram_tail(observed)
    setups = raw["setup_s"]
    metrics = {
        "setup_s": benchstats.lower_decile(setups),
        "units_per_s": units / (fast_wall_ms * 1e-3),
        "cpu_us_per_unit": fast_cpu_ms * 1e3 / units,
        "op_p50_ms": benchstats.weighted_median([(n, wall) for n, wall, _ in fast]),
        "op_tail_ms": tail,
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_frac": 1.0 - timed["failed"] / timed["attempted"],
    }
    observed_p50 = benchstats.histogram_value(observed, (ops + 1) // 2)
    notes = {
        "setup_s": f"lower decile of {len(setups)}; median {benchstats.median(setups):.6g}",
        "units_per_s": f"{raw['unit']}/s; observed {units / timed['wall_s']:.6g} "
                       f"over {timed['wall_s']:.2f} s",
        "cpu_us_per_unit": f"per {raw['unit']}; observed {timed['cpu_s'] * 1e6 / units:.6g}",
        "op_p50_ms": f"over {ops} ops in {len(fast)} class(es); observed {observed_p50:.6g}",
        "op_tail_ms": f"observed p{pct:.2f}, {beyond} of {ops} ops beyond",
        "ok_frac": f"{timed['failed']} of {timed['attempted']} ops failed",
    }
    return metrics, notes, timed["attempted"], timed["failed"]


def per_layer(raw, names, trace_path):
    plain, traced = raw["untraced"], raw["traced"]
    metrics = {name: 0.0 for name in names}
    metrics.update(raw["layer_metrics"])
    threads = raw["threads"]
    metrics["exec.parallel_efficiency"] = plain["cpu_s"] / (plain["wall_s"] * threads)
    # The time attributed to layers is the traced phase's op time, every op
    # at its class's fast-state time as in the end-to-end figures, so that
    # it compares with unit costs read at their fastest passes.
    plain_ms, traced_ms = (sum(n * wall for n, wall, _ in benchstats.fast_state(phase["classes"]))
                           for phase in (plain, traced))
    measured = traced_ms * 1e6
    plain_rate = plain["units"] / plain_ms * 1e3
    traced_rate = traced["units"] / traced_ms * 1e3
    metrics["obs.trace_overhead"] = plain_rate / traced_rate

    layers = raw["attribution"]
    per_layer_ns, residual, residual_pct = benchstats.attribute(measured, layers)
    metrics["attr.residual_pct"] = residual_pct
    for name, ns in per_layer_ns.items():
        metrics[f"attr.share.{name}"] = 100.0 * ns / measured
    if raw["workload"] == "serving":
        # One op is one config. The engine runs its event simulation
        # internally, so its time is what the modelled precompute leaves.
        configs = traced["attempted"]
        metrics["workload.config_ms"] = measured / configs * 1e-6
        metrics["workload.event_sim_s"] = residual / configs * 1e-9

    lines = [
        f"rate: untraced {plain_rate:.6g} {raw['unit']}/s, traced {traced_rate:.6g} "
        f"{raw['unit']}/s (spans and layer counters on)",
        benchstats.share_line(raw["workload"], measured, per_layer_ns, residual),
    ]
    for name in sorted(set(raw["layer_metrics"]) - set(names)):
        lines.append(f"  also {name} {raw['layer_metrics'][name]:.6g}")
    for name, layer in sorted(layers.items()):
        lines.append(f"  {name:<10} {layer['count']:>14.4g} x {layer['unit_ns']:>10.4g} ns"
                     f" = {per_layer_ns[name] * 1e-6:>10.2f} ms")
    lines.append(f"  {'residual':<10} {residual * 1e-6:>41.2f} ms of "
                 f"{measured * 1e-6:.2f} ms measured ({residual_pct:.1f}%)")
    for name, self_us in sorted(benchstats.self_time_by_name(raw["spans"]).items()):
        lines.append(f"  span self time {name:<36} {self_us * 1e-3:>10.2f} ms")
    trace_path.write_text(benchstats.chrome_trace(raw["spans"], f"perfbench {raw['workload']}"))
    lines.append(f"  trace: {trace_path}")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return metrics, lines, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=["calls", "serving", "mc"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = build_dir()
    binary = build(out_dir)
    raw_path = out_dir / f"raw-{args.workload}-{args.seed}-{args.trace}.json"
    subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--reference", str(ROOT / "perfbench" / "reference" / f"{args.workload}.txt"),
         "--out", str(raw_path)],
        check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    raw = json.loads(raw_path.read_text())

    print(f"perfbench {args.workload}: seed {args.seed}, {raw['threads']} thread(s), "
          f"unit {raw['unit']}, trace {args.trace}")
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        values, lines, attempted, failed = per_layer(raw, names, trace_path)
        for name in names:
            print(f"  {name:<40} {values[name]:>14.6g} {units[name]}")
        for line in lines:
            print(line)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, notes, attempted, failed = end_to_end(raw)
        for name in names:
            print(f"  {name:<16} {values[name]:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    for key, passed in sorted(raw["checks"].items()):
        print(f"  check {key}: {passed}")

    correct = bool(raw["checks_ok"]) and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, subprocess.SubprocessError, KeyError, ValueError) as err:
        log(f"perfbench: {err}")
        sys.exit(1)
