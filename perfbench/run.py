"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reduce_heavy --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger (an untraced and a traced half of ``--seconds`` each, so the
tracing overhead is measured too).  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every request returned the right answer.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import ledger
import stats

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
#: Set-ups per untraced run, before and after the measured phase;
#: ``setup_s`` is their median.
SETUPS_BEFORE, SETUPS_AFTER = 3, 3
#: p90 needs this many latency samples to have ten beyond it.
MIN_SAMPLES = 100
#: Seconds the calibration kernel (``workloads.calibrate``) takes at the
#: reference speed.  Time metrics are reported at that speed, because
#: the machine's own speed drifts by ±25% over minutes: each interval is
#: scaled by ``(REFERENCE_CAL_S / kernel time next to it) ** SPEED_EXPONENT``.
REFERENCE_CAL_S = 0.015
#: How engine time follows kernel time when the machine's speed drifts:
#: over 60 forty-second runs on the reference 2-core VM, the workloads'
#: raw throughput went as the kernel's speed to the power 0.5-0.9
#: (least squares on logs: 0.63 reduce_heavy, 0.59 join_heavy), so a
#: full correction (1.0) over-corrects.
SPEED_EXPONENT = 0.6


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def check(records, expected) -> int:
    """Mark each record ok or not against the expected outcomes; return
    the number of failures (reporting the first few on stderr)."""
    failed = 0
    for rec in records:
        count, io = expected[(rec.template, rec.variant)]
        rec.ok = (rec.error is None and rec.results == count
                  and (io is None or rec.io == io))
        if not rec.ok:
            failed += 1
            if failed <= 5:
                print(f"perfbench: FAILED template {rec.template} variant "
                      f"{rec.variant}: error={rec.error} results="
                      f"{rec.results} (want {count}) io={rec.io} "
                      f"(want {io})", file=sys.stderr)
    return failed


def measure(workloads, wl, env, seed: int, seconds: float):
    streams = [wl.make_stream(seed, c) for c in range(wl.clients)]
    return workloads.run_rounds(
        wl.clients, lambda c, rnd: env.send(c, next(streams[c]), rnd),
        seconds=seconds, round_size=wl.round_size,
        between_rounds=env.replace_round, calibrate=workloads.calibrate)


def speed_factor(cal_s: float) -> float:
    """What scales a time measured next to a kernel run of ``cal_s``
    seconds to the reference speed."""
    return (REFERENCE_CAL_S / cal_s) ** SPEED_EXPONENT


def round_factors(loop) -> list[float]:
    """Per round, the speed factor of the mean of the calibrations just
    before and just after the round."""
    cal = loop.calibration_s
    return [speed_factor((cal[r] + cal[r + 1]) / 2)
            for r in range(loop.rounds)]


def at_reference_speed(loop):
    """The loop's records, their latencies in ms and its length in s,
    both scaled to the reference speed."""
    factors = round_factors(loop)
    records = [r for per_client in loop.records for r in per_client]
    latency_ms = [r.latency_s * 1e3 * factors[r.rnd] for r in records]
    elapsed = sum(t * f for t, f in zip(loop.round_s, factors))
    return records, latency_ms, elapsed


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(records, latency_ms, elapsed_s: float,
               setup_times) -> dict:
    """``{name: (value, unit)}`` for every end-to-end metric, from the
    records, their latencies and the measured phase's length (both at
    reference speed) and the set-up times."""
    n = len(records)
    return {
        "qps": (n / elapsed_s, "1/s"),
        "p50_ms": (stats.percentile(latency_ms, 50), "ms"),
        "p90_ms": (stats.percentile(latency_ms, 90), "ms"),
        "results_per_s": (sum(r.results for r in records) / elapsed_s,
                          "1/s"),
        "io_per_query": (sum(r.io for r in records) / n, "pages"),
        "peak_mem_ratio": (max(r.peak_mem / r.M for r in records),
                           "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "max_rss_mb": (max_rss_mb(), "MB"),
    }


def untraced(workloads, wl, data, expected, seed, seconds):
    setup_times, raw_setup_times, warm = [], [], []

    def timed_setup():
        cal = workloads.calibrate()
        env, warm_records, secs = workloads.setup(wl, data)
        raw_setup_times.append(secs)
        setup_times.append(secs * speed_factor(cal))
        warm.extend(warm_records)
        return env

    for _ in range(SETUPS_BEFORE - 1):
        timed_setup().close()
    env = timed_setup()
    try:
        loop = measure(workloads, wl, env, seed, seconds)
        lost = env.flight_lost()
    finally:
        env.close()
    for _ in range(SETUPS_AFTER):
        timed_setup().close()
    records, latency_ms, elapsed = at_reference_speed(loop)
    failed = check(warm + records, expected)
    n = len(records)
    if n < MIN_SAMPLES:
        print(f"perfbench: only {n} latency samples; p90 wants "
              f"{MIN_SAMPLES}", file=sys.stderr)
    metrics = end_to_end(records, latency_ms, elapsed, setup_times)
    raw_ms = [r.latency_s * 1e3 for r in records]
    notes = {
        "qps": f"raw {n / loop.elapsed_s:.3f}",
        "p50_ms": f"n={n}; raw {stats.percentile(raw_ms, 50):.3f}",
        "p90_ms": f"n={n}, {stats.samples_beyond(90, n)} beyond; highest "
                  f"supported percentile p{stats.tail_percentile(n)}; raw "
                  f"{stats.percentile(raw_ms, 90):.3f}",
        "setup_s": f"median of {len(setup_times)}; raw "
                   f"{statistics.median(raw_setup_times):.4f}"}
    extra = {"failed_frac": (failed / len(warm + records), "ratio"),
             "rounds": (loop.rounds, "count"),
             "speed_factor": (statistics.median(round_factors(loop)),
                              "ratio"),
             "flight_lost": (lost, "count")}
    return metrics, notes, extra, len(warm + records), failed, lost == 0


def traced(workloads, wl, data, expected, seed, seconds):
    half = seconds / 2
    env, warm_u, _ = workloads.setup(wl, data)
    try:
        loop_u = measure(workloads, wl, env, seed, half)
    finally:
        env.close()
    recorder = ledger.Recorder()
    with recorder:
        env, warm_t, _ = workloads.setup(wl, data)
        try:
            since = time.perf_counter_ns()
            loop_t = measure(workloads, wl, env, seed, half)
            lost = env.flight_lost()
        finally:
            env.close()
    untraced_records, _, elapsed_u = at_reference_speed(loop_u)
    traced_records, _, elapsed_t = at_reference_speed(loop_t)
    everything = warm_u + untraced_records + warm_t + traced_records
    failed = check(everything, expected)
    correct = lost == 0
    if not wl.pool_frames:
        # Both halves replay the same seeded request sequence, so on a
        # common prefix the exact pool-off I/O must agree.
        k = min(len(untraced_records), len(traced_records))
        io_u = sum(r.io for r in untraced_records[:k])
        io_t = sum(r.io for r in traced_records[:k])
        if io_u != io_t:
            print(f"perfbench: traced io {io_t} != untraced {io_u} over "
                  f"{k} queries", file=sys.stderr)
            correct = False
    qps_u = len(untraced_records) / elapsed_u
    qps_t = len(traced_records) / elapsed_t
    metrics = ledger.layer_metrics(
        recorder.spans, traced_records, since_ns=since, http=wl.http,
        flight_lost=lost, overhead_ratio=qps_t / qps_u)
    out = HERE / "traces"
    out.mkdir(exist_ok=True)
    path = out / f"{wl.name}-seed{seed}.json"
    ledger.write_chrome_trace(recorder, path)
    notes = {"trace.overhead_ratio":
             f"{qps_t:.3f} / {qps_u:.3f} qps at reference speed"}
    extra = {"spans": (len(recorder.spans), "count")}
    print(f"perfbench: Perfetto trace written to {path}", file=sys.stderr)
    return metrics, notes, extra, len(everything), failed, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(1, str(REPO / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the engine from {REPO / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    data = wl.make_data(args.seed)
    expected = workloads.expected_outcomes(wl, data)
    run = traced if args.trace else untraced
    metrics, notes, extra, attempted, failed, correct = run(
        workloads, wl, data, expected, args.seed, args.seconds)
    correct = correct and failed == 0
    print(f"# {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        note = notes.get(name)
        print(f"{name:32s} {value:14.4f} {unit:6s}"
              + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
