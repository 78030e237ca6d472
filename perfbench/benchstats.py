"""Arithmetic of the layered host-performance benchmark.

Pure functions over the raw measurements perfbench writes: quartiles, the
tail-latency rule, latency histograms, fast-state op costs, span self time,
and the attribution of measured time to layers with the residual reported.
Tested by test_benchstats.py.
"""

import json
import math
import statistics

# Samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3), as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def tail_rank(n, min_beyond=TAIL_MIN_BEYOND):
    """Rank (1-based) of the highest percentile with at least `min_beyond`
    of `n` samples beyond it, as (rank, percentile, samples_beyond).

    Nearest rank: the p-th percentile of n sorted samples is the
    ceil(p*n/100)-th smallest, and n - ceil(p*n/100) samples lie beyond it,
    so the highest such p is 100*(n - min_beyond)/n. With no more than
    `min_beyond` samples there is no such percentile; the maximum's rank is
    returned with the count of samples beyond it (zero).
    """
    if n <= min_beyond:
        return n, 100.0, 0
    return n - min_beyond, 100.0 * (n - min_beyond) / n, min_beyond


def tail(values, min_beyond=TAIL_MIN_BEYOND):
    """Value at the highest percentile with at least `min_beyond` samples
    beyond it, as (value, percentile, samples_beyond); see tail_rank()."""
    ordered = sorted(values)
    rank, pct, beyond = tail_rank(len(ordered), min_beyond)
    return ordered[rank - 1], pct, beyond


def histogram_value(histogram, rank):
    """The `rank`-th smallest sample (1-based) of a latency histogram.

    `histogram` is {"lowest_ms", "growth", "buckets": [[index, count], ...]}:
    bucket i holds the samples in [lowest * growth**i, lowest *
    growth**(i+1)). A bucket's samples are taken as spread evenly (in log
    space) through it, so the value is exact to one bucket width.
    """
    lowest, growth = histogram["lowest_ms"], histogram["growth"]
    seen = 0
    for index, count in sorted(histogram["buckets"]):
        if seen + count >= rank:
            return lowest * growth ** (index + (rank - seen - 0.5) / count)
        seen += count
    raise ValueError(f"rank {rank} beyond the {seen} samples")


def histogram_size(histogram):
    return sum(count for _, count in histogram["buckets"])


def histogram_tail(histogram, min_beyond=TAIL_MIN_BEYOND):
    """tail() over a latency histogram."""
    rank, pct, beyond = tail_rank(histogram_size(histogram), min_beyond)
    return histogram_value(histogram, rank), pct, beyond


def merge_histograms(histograms):
    """One histogram of all samples of histograms that share a bucketing."""
    counts = {}
    for histogram in histograms:
        for index, count in histogram["buckets"]:
            counts[index] = counts.get(index, 0) + count
    first = histograms[0]
    return {"lowest_ms": first["lowest_ms"], "growth": first["growth"],
            "buckets": sorted([i, c] for i, c in counts.items())}


def decile_rank(n):
    """Nearest-rank lower decile of n samples: the ceil(n/10)-th smallest."""
    return max(1, math.ceil(n / 10))


def lower_decile(values):
    return sorted(values)[decile_rank(len(values)) - 1]


def fast_state(classes):
    """Each op class's time in the host's fast state, as a list of
    (ops, wall_ms, cpu_ms): the lower decile of the class's observed wall
    and CPU times.

    `classes` holds one {"wall_ms": histogram, "cpu_ms": histogram} per op
    class. The host runs in stretches of a fast and a slow state (see
    README.md), and the share of a run spent slow varies from run to run,
    so a median or mean over all ops moves with it. Ops of one class do
    the same work and host interference only ever slows an op, so the
    lower decile is the class's cost whenever a tenth of a run is fast.
    """
    out = []
    for c in classes:
        n = histogram_size(c["wall_ms"])
        rank = decile_rank(n)
        out.append((n, histogram_value(c["wall_ms"], rank), histogram_value(c["cpu_ms"], rank)))
    return out


def weighted_median(pairs):
    """Nearest-rank median of values given as (count, value) pairs."""
    ordered = sorted(pairs, key=lambda p: p[1])
    half = (sum(count for count, _ in ordered) + 1) // 2
    seen = 0
    for count, value in ordered:
        seen += count
        if seen >= half:
            return value
    raise ValueError("no samples")


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its children (overlapping children count once).

    `spans` is a list of (name, start, end, parent_index, op) tuples, with
    parent_index -1 for a root. Returns a list of self times, index-aligned.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans):
    totals = {}
    for span, self_time in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + self_time
    return totals


def attribute(measured_ns, layers):
    """Predicted time per layer (count x unit cost) and the residual.

    `layers` maps a layer name to {"count": c, "unit_ns": u}. Returns
    (per_layer_ns, residual_ns, residual_pct) where residual_pct is
    (measured - sum of count x unit cost) / measured, in percent.
    """
    per_layer = {name: l["count"] * l["unit_ns"] for name, l in layers.items()}
    residual = measured_ns - sum(per_layer.values())
    pct = 100.0 * residual / measured_ns if measured_ns else 0.0
    return per_layer, residual, pct


def share_line(workload, measured_ns, per_layer, residual_ns):
    """One-line summary: each layer's share of the measured time."""
    parts = [
        f"{100.0 * ns / measured_ns:.1f}% {name}"
        for name, ns in sorted(per_layer.items(), key=lambda kv: -kv[1])
    ]
    parts.append(f"{100.0 * residual_ns / measured_ns:.1f}% residual")
    return f"{workload}: " + ", ".join(parts)


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def chrome_trace(spans, process_name):
    """Chrome trace-event JSON (loads in Perfetto): one host track per layer,
    each span a complete ("X") event carrying its op id and parent."""
    layers = sorted({layer_of(s[0]) for s in spans})
    tid = {layer: i + 1 for i, layer in enumerate(layers)}
    events = [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
               "args": {"name": process_name}}]
    for layer in layers:
        events.append({"ph": "M", "pid": 1, "tid": tid[layer],
                       "name": "thread_name", "args": {"name": layer}})
    for name, start, end, parent, op in spans:
        events.append({"ph": "X", "pid": 1, "tid": tid[layer_of(name)],
                       "name": name, "ts": start, "dur": end - start,
                       "args": {"op": op, "parent": parent}})
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
