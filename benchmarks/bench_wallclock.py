"""Wall-clock benchmark: the block operators against a fixed CPU yardstick.

The I/O counters of this repo are simulated and deterministic; wall
clock is the one axis they cannot show.  This benchmark runs every
cursor-bound operator at sizes large enough for interpreter overhead to
dominate and divides each case's time by the time of a fixed
pure-Python calibration kernel (sort tuples by a key, fold them into a
dict) measured in the same process just before it.  The kernel slows
down when the machine does and no change to the engine moves it, so
the ratio is machine-independent even though the absolute seconds are
not.

Two groups of cases:

* **gated** — operators whose cost is cursor overhead: sequential
  scans, group-boundary scans, filtered scans, light-chunk loads, and
  the semijoin merge pass.  The CI gate holds their geo-mean ratio.
* **context** (``in_gate: false``) — end-to-end workloads (external
  sort, the full reducer, joins) whose wall clock mixes cursor work
  with costs block execution cannot remove: the Python merge heap,
  ``list.sort``, and the emit model's per-result dict+hash.  Reported
  for honesty about whole-query impact, not gated.

``--check-baseline`` (the CI gate) re-measures and fails if

- any case's I/O count, result count or page-access digest differs
  from the committed one (fully deterministic), or
- the geo-mean ratio over the gated cases exceeds the committed
  ``gate_max_ratio`` (``GATE_FACTOR`` times the committed geo-mean:
  generous, so scheduler noise cannot flake the gate, while losing the
  block operators' advantage — tuple-at-a-time cursors ran the gated
  cases about 4x slower — still fails).

Usage::

    python benchmarks/bench_wallclock.py                  # print table
    python benchmarks/bench_wallclock.py --write-baseline
    python benchmarks/bench_wallclock.py --check-baseline \\
        --profile-out wallclock_spans.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import sys
import time
from operator import itemgetter
from pathlib import Path

from _util import (DIGEST_TRACE_CAPACITY,  # noqa: E402 - sibling import
                   page_stream_digest, print_table)

from repro import Device, Instance
from repro.core import CountingEmitter
from repro.data.relation import Relation
from repro.data.schema import RelationSchema
from repro.em import external_sort
from repro.em.loaders import (group_boundaries, load_chunks,
                              load_light_chunks, scan_matching,
                              split_heavy_light)
from repro.obs import Tracer
from repro.obs.spans import SpanProfiler

BASELINE = Path(__file__).with_name("BENCH_wallclock.json")

#: The committed ceiling is this multiple of the committed geo-mean
#: ratio.  Measured ratios vary by well under this factor run to run;
#: the gate only has to catch "the operators lost their block speed",
#: not defend the exact figure against CPU scheduling noise.
GATE_FACTOR = 2.4


# -- calibration -------------------------------------------------------
#
# The same kind of kernel as the repo benchmark's ``calibrate`` (in
# ``perfbench/workloads.py``), kept here so this script stands alone.

_CAL_RNG = random.Random(0)
_CAL_ROWS = [(_CAL_RNG.randrange(1 << 20), _CAL_RNG.randrange(1 << 20))
             for _ in range(20000)]


def calibrate() -> float:
    """Seconds one fixed pure-Python kernel takes right now."""
    t0 = time.perf_counter()
    fold: dict[int, int] = {}
    for a, b in sorted(_CAL_ROWS, key=itemgetter(1)):
        fold[a & 1023] = fold.get(a & 1023, 0) + b
    return time.perf_counter() - t0


# -- cases -------------------------------------------------------------
#
# Each case is a (setup, run) pair: ``setup(device)`` builds the input
# files (untimed) and ``run(device, state)`` executes the measured
# workload, returning a result count.  Sizes are chosen so each case
# takes tens of milliseconds — large enough to measure, small enough
# for CI.


def _fill(device, rows, name="src"):
    f = device.new_file(name)
    with f.writer() as w:
        w.extend(rows)
    return f


def _seq_scan_setup(device):
    return _fill(device, [(i, i * 3) for i in range(120_000)])


def _seq_scan(device, f):
    n = 0
    for chunk in load_chunks(f.whole(), device.M):
        n += len(chunk)
    return n


def _group_scan_setup(device):
    return _fill(device, [(i // 64, i) for i in range(120_000)])


def _group_scan(device, f):
    return len(group_boundaries(f.whole(), lambda t: t[0]))


def _filter_scan_setup(device):
    return _fill(device, [(i % 2048, i) for i in range(120_000)])


def _filter_scan(device, f):
    wanted = set(range(0, 2048, 3))
    return sum(1 for _ in scan_matching(f.whole(), lambda t: t[0],
                                        wanted))


def _light_loads_setup(device):
    return _fill(device, [(i // 8, i) for i in range(60_000)])


def _light_loads(device, f):
    groups = group_boundaries(f.whole(), lambda t: t[0])
    _, light = split_heavy_light(groups, device.M)
    n = 0
    for chunk in load_light_chunks(f.whole(), light, device.M):
        n += len(chunk)
    return n


def _semijoin_merge_setup(device):
    # Pre-sorted inputs so the measurement isolates the merge pass of
    # the reducer (sort_by is a no-op on them).
    n = 60_000
    left = Relation.from_tuples(device, RelationSchema("e1", ("v", "x")),
                                [(i, i * 3) for i in range(n)])
    right = Relation.from_tuples(device,
                                 RelationSchema("e2", ("v", "y")),
                                 [(i * 2, i) for i in range(n // 2)])
    return (dataclasses.replace(left, sorted_on="v"),
            dataclasses.replace(right, sorted_on="v"))


def _semijoin_merge(device, state):
    from repro.core.reducer_em import _semijoin_em

    left, right = state
    return len(_semijoin_em(left, right, "v"))


def _sort_setup(device):
    n = 60_000
    return _fill(device, [(i * 48271 % n, i) for i in range(n)])


def _sort(device, f):
    return len(external_sort(f, lambda t: t[0], name="sorted"))


def _reduce_setup(device):
    from repro.query import line_query
    from repro.workloads import schemas_for

    q = line_query(3)
    n = 30_000
    data = {"e1": [(i, i % 997) for i in range(n)],
            "e2": [(i % 997, i % 499) for i in range(n)],
            "e3": [(i % 499, i) for i in range(n)]}
    return q, Instance.from_dicts(device, schemas_for(q), data)


def _reduce(device, state):
    from repro.core.reducer_em import full_reduce_em

    q, instance = state
    reduced = full_reduce_em(q, instance)
    return sum(len(r) for r in reduced.values())


def _line3_setup(device):
    from repro.workloads import fig3_line3_instance

    schemas, data = fig3_line3_instance(192, 192)
    return Instance.from_dicts(device, schemas, data)


def _line3(device, instance):
    from repro.core import line3_join
    from repro.query import line_query

    emitter = CountingEmitter()
    line3_join(line_query(3), instance, emitter)
    return emitter.count


def wallclock_cases() -> dict:
    """Case name -> (setup, run, M, B, in_gate)."""
    return {
        "seq_scan_120k": (_seq_scan_setup, _seq_scan, 4096, 256, True),
        "group_scan_120k": (_group_scan_setup, _group_scan,
                            4096, 256, True),
        "filter_scan_120k": (_filter_scan_setup, _filter_scan,
                             4096, 256, True),
        "light_loads_60k": (_light_loads_setup, _light_loads,
                            4096, 256, True),
        "semijoin_merge_60k": (_semijoin_merge_setup, _semijoin_merge,
                               4096, 256, True),
        "sort_60k": (_sort_setup, _sort, 4096, 256, False),
        "reduce_line3_30k": (_reduce_setup, _reduce,
                             4096, 256, False),
        "line3_join_192": (_line3_setup, _line3, 64, 8, False),
    }


# -- measurement -------------------------------------------------------


def _run_once(setup, run, M: int, B: int, *,
              profiler: SpanProfiler | None = None,
              tracer: Tracer | None = None) -> dict:
    device = Device(M=M, B=B, profiler=profiler)
    state = setup(device)
    device.stats.reset()
    if tracer is not None:
        device.attach_tracer(tracer)
    t0 = time.perf_counter()
    results = run(device, state)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "results": results,
            "io": device.stats.reads + device.stats.writes}


def _operator_wall(profiler: SpanProfiler) -> dict[str, float]:
    """Exclusive wall seconds per span name (children subtracted)."""
    out: dict[str, float] = {}
    for span in profiler.iter_spans():
        if not span.closed:
            continue
        exclusive = span.wall_s - sum(c.wall_s for c in span.children
                                      if c.closed)
        out[span.name] = out.get(span.name, 0.0) + max(0.0, exclusive)
    return out


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def measure(repeat: int = 3) -> dict:
    """Measure all cases; return the baseline document.

    Each repetition runs the calibration kernel, then the case; the
    ratio is the fastest case run over the fastest kernel run.  One
    extra untimed run per case records its page-access digest.
    """
    cases = {}
    op_wall: dict[str, float] = {}
    for name, (setup, run, M, B, in_gate) in wallclock_cases().items():
        tracer = Tracer(capacity=DIGEST_TRACE_CAPACITY)
        traced = _run_once(setup, run, M, B, tracer=tracer)
        best = None
        best_cal = math.inf
        best_profile: dict[str, float] = {}
        for _ in range(repeat):
            best_cal = min(best_cal, calibrate())
            profiler = SpanProfiler()
            r = _run_once(setup, run, M, B, profiler=profiler)
            if (r["results"], r["io"]) != (traced["results"],
                                           traced["io"]):
                raise AssertionError(
                    f"{name}: counters differ between runs: "
                    f"{r} vs {traced}")
            if best is None or r["wall_s"] < best["wall_s"]:
                best = r
                best_profile = _operator_wall(profiler)
        for op, secs in best_profile.items():
            op_wall[op] = op_wall.get(op, 0.0) + secs
        cases[name] = {
            "block_s": round(best["wall_s"], 4),
            "calibration_s": round(best_cal, 4),
            "ratio": round(best["wall_s"] / best_cal, 2),
            "in_gate": in_gate,
            "io": best["io"],
            "results": best["results"],
            "page_digest": page_stream_digest(tracer),
        }
    gated = [c["ratio"] for c in cases.values() if c["in_gate"]]
    geomean = round(_geomean(gated), 2)
    return {
        "meta": {
            "source": "benchmarks/bench_wallclock.py",
            "note": ("absolute seconds are machine-dependent; the "
                     "gate checks each case's time over a calibration "
                     "kernel's, measured on one machine in one "
                     "process, over the in_gate cases only "
                     "(end-to-end cases are context)"),
            "repeat": repeat,
        },
        "gate_max_ratio": round(GATE_FACTOR * geomean, 2),
        "geomean_ratio": geomean,
        "geomean_ratio_all": round(_geomean(
            [c["ratio"] for c in cases.values()]), 2),
        "cases": cases,
        "operators": {op: {"block_s": round(w, 4)}
                      for op, w in sorted(op_wall.items())},
    }


# -- CLI ---------------------------------------------------------------


def _rows(doc: dict) -> list[dict]:
    return [{"case": name, **{k: v for k, v in vals.items()
                              if k != "page_digest"}}
            for name, vals in sorted(doc["cases"].items())]


def check_baseline_cmd(doc: dict) -> int:
    if not BASELINE.exists():
        print(f"error: no committed baseline at {BASELINE}; create "
              f"one with --write-baseline", file=sys.stderr)
        return 1
    committed = json.loads(BASELINE.read_text(encoding="utf-8"))
    ceiling = committed["gate_max_ratio"]
    failures = []
    missing = set(committed["cases"]) - set(doc["cases"])
    if missing:
        failures.append(f"cases vanished from the sweep: "
                        f"{sorted(missing)}")
    for name, vals in doc["cases"].items():
        pinned = committed["cases"].get(name)
        if pinned is None:
            continue  # a new case is fine until pinned
        for k in ("io", "results", "page_digest"):
            if vals[k] != pinned[k]:
                failures.append(
                    f"{name}.{k}: {pinned[k]} -> {vals[k]} "
                    f"(deterministic counter drifted)")
    if doc["geomean_ratio"] > ceiling:
        failures.append(
            f"gated geo-mean ratio to the calibration kernel "
            f"{doc['geomean_ratio']:.2f} exceeds the ceiling "
            f"{ceiling:.2f} (committed measurement: "
            f"{committed['geomean_ratio']:.2f})")
    if failures:
        print(f"WALL-CLOCK GATE FAILED against {BASELINE} "
              f"({len(failures)} problem(s)):")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"wall-clock gate OK: gated geo-mean ratio "
          f"{doc['geomean_ratio']:.2f} <= {ceiling:.2f}, "
          f"{len(doc['cases'])} cases' counters match {BASELINE}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write-baseline", action="store_true",
                      help=f"measure and write {BASELINE.name}")
    mode.add_argument("--check-baseline", action="store_true",
                      help="measure and gate against the committed "
                           "baseline (ratio + deterministic counters)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions per leg (min wins)")
    parser.add_argument("--profile-out", default=None,
                        help="write the per-operator wall-clock "
                             "breakdown to this JSON file (CI artifact)")
    args = parser.parse_args(argv)

    doc = measure(repeat=args.repeat)
    print_table("wall clock over the calibration kernel", _rows(doc))
    print(f"\ngeo-mean ratio: {doc['geomean_ratio']:.2f} gated, "
          f"{doc['geomean_ratio_all']:.2f} over all cases")

    if args.profile_out:
        with open(args.profile_out, "w", encoding="utf-8") as fh:
            json.dump({"operators": doc["operators"],
                       "meta": doc["meta"]}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
        print(f"wrote per-operator profile to {args.profile_out}")

    if args.write_baseline:
        BASELINE.write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"wrote wall-clock baseline to {BASELINE}")
        return 0
    if args.check_baseline:
        return check_baseline_cmd(doc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
