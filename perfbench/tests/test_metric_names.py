"""The metrics the command prints are exactly those BENCHMARK.json names."""

import json
from pathlib import Path

import workloads
import ledger
import run

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_end_to_end_names_and_units():
    rec = workloads.Record(0, 0, 0.01, results=5, io=9, peak_mem=4, M=8)
    got = run.end_to_end([rec, rec], [10.0, 10.0], 2.0, [0.1, 0.3])
    assert {k: unit for k, (_, unit) in got.items()} == declared("end_to_end")
    assert got["qps"][0] == 1.0 and got["setup_s"][0] == 0.2
    assert got["peak_mem_ratio"][0] == 0.5


def test_per_layer_names_and_units():
    got = ledger.layer_metrics([], [], since_ns=0, http=False,
                               flight_lost=0, overhead_ratio=1.0)
    assert {k: unit for k, (_, unit) in got.items()} == declared("per_layer")


def test_workloads_match():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]


def test_reference_speed_scales_each_round_by_its_calibration():
    ref = run.REFERENCE_CAL_S
    fast = workloads.Record(0, 0, 0.010, rnd=0)
    slow = workloads.Record(0, 0, 0.020, rnd=1)
    # Round 1 sits between calibrations of 1x and 2x: 1.5x slower.
    loop = workloads.LoopResult(records=[[fast, slow]], round_s=[1.0, 2.0],
                                calibration_s=[ref, ref, 2 * ref])
    records, latency_ms, elapsed = run.at_reference_speed(loop)
    factor = (1 / 1.5) ** run.SPEED_EXPONENT
    assert records == [fast, slow]
    assert latency_ms[0] == 10.0
    assert abs(latency_ms[1] - 20.0 * factor) < 1e-9
    assert abs(elapsed - (1.0 + 2.0 * factor)) < 1e-9
