"""Tests for the benchmark's own code (not for the program it measures)."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from repro.obs import quantile as repro_quantile

from perfbench import run, serving, stats
from perfbench.schedule import POOL_ROUNDS, KVPlan, WireMix

ROOT = Path(__file__).resolve().parent.parent


def test_quantile_matches_repro_nearest_rank():
    rng = random.Random(3)
    for n in (0, 1, 2, 7, 100, 1001):
        values = [rng.expovariate(1.0) for _ in range(n)]
        for q in (0.01, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert stats.quantile(values, q) == \
                repro_quantile(sorted(values), q)


def test_one_seed_gives_a_byte_identical_schedule():
    assert WireMix(7).digest() == WireMix(7).digest()
    assert WireMix(7).digest() != WireMix(8).digest()
    assert KVPlan(7).digest() == KVPlan(7).digest()
    assert KVPlan(7).digest() != KVPlan(8).digest()


def test_seeds_change_values_but_not_the_work():
    a, b = WireMix(7), WireMix(8)
    assert a.phases == b.phases
    assert any((a.tensors[k] != b.tensors[k]).any() for k in a.tensors)
    ka, kb = KVPlan(7), KVPlan(8)
    assert {sid: s.ops for sid, s in ka.streams().items()} == \
        {sid: s.ops for sid, s in kb.streams().items()}


def test_rounds_of_a_phase_do_the_same_work():
    mix = WireMix(7, "http")
    for rounds in mix.phases.values():
        shapes = [Counter((r.fmt, r.packed, r.kind) for r in rnd)
                  for rnd in rounds]
        assert shapes[1:] == shapes[:-1]
    # Pool round r of serial and loaded brings weight r of each class
    # twice (the first serial pass misses the memo, then hits); the
    # direct rounds bring weights no other phase sends, so they meet
    # the memo as the HTTP rounds do.
    n = POOL_ROUNDS
    for phase, first in (("serial", 0), ("loaded", 0),
                         ("direct-serial", n)):
        for r, rnd in enumerate(mix.phases[phase]):
            weights = [q for q in rnd if q.kind == "weight"]
            assert {q.index for q in weights} == {first + r}
            assert len(weights) == 2 * len(mix.classes)
    assert "direct-serial" not in WireMix(7).phases


def test_runs_cycle_the_pool_until_the_time_is_spent():
    calls = []
    pool = {"serial": ["s0", "s1", "s2"], "loaded": ["l0", "l1", "l2"]}
    runners = {name: (lambda r, item, phase, walls:
                      calls.append((r, item)))
               for name in pool}
    out = serving._run_rounds(pool, runners, None, [], 0.0)
    # No time at all still runs every pool round once, in pairs.
    assert calls == [(0, "s0"), (0, "l0"), (1, "s1"), (1, "l1"),
                     (2, "s2"), (2, "l2")]
    assert out["items"]["loaded"] == ["l0", "l1", "l2"]
    assert [p.name for p in out["rounds"]["serial"]] == \
        ["serial.1", "serial.2", "serial.3"]
    calls.clear()
    t0 = time.perf_counter()
    out = serving._run_rounds(pool, runners, None, [], 0.05)
    assert time.perf_counter() - t0 >= 0.04
    assert len(calls) > 6
    assert out["items"]["serial"][3] == "s0"


def test_http_and_wire_share_one_mix():
    wire, http = WireMix(7), WireMix(7, "http")
    mix = Counter((r.fmt, r.packed, r.kind) for r in wire.phases["serial"][0])
    assert mix == Counter((r.fmt, r.packed, r.kind)
                          for r in http.phases["serial"][0])
    assert wire.phases["serial"][0] == wire.phases["loaded"][0]


def test_calm_rounds_drop_stolen_rounds():
    def rounds(*steals):
        return [stats.Phase(f"r{i}", steal=s) for i, s in enumerate(steals)]

    mixed = rounds(0.0, 0.3, 0.01, 0.2, 0.04, 0.0)
    assert [p.name for p in stats.calm(mixed)] == ["r0", "r2", "r4", "r5"]
    assert not stats.contended(mixed)
    # Too few calm rounds: the least stolen fill up and the phase is
    # reported as contended.
    busy = rounds(0.3, 0.1, 0.2, 0.25, 0.01, 0.06)
    assert [p.name for p in stats.calm(busy)] == ["r4", "r5"]
    assert stats.contended(busy)
    # A phase's figure is the median of the calm rounds' own figures.
    for p, rps in zip(mixed, (10.0, 1.0, 12.0, 2.0, 11.0, 30.0)):
        p.ok, p.wall_s = rps, 1.0
    assert stats.calm_median(mixed, lambda p: p.rps) == 11.5
    # Set-up time is the median over the calm set-ups.
    setups = [stats.Phase("a", wall_s=1.0, steal=0.0),
              stats.Phase("b", wall_s=9.0, steal=0.4),
              stats.Phase("c", wall_s=2.0, steal=0.01)]
    assert stats.setup_s(setups) == 1.5


def test_offline_times_arms_by_their_calm_evaluations():
    from perfbench import offline
    samples = {name: [stats.Phase(name, wall_s=1.0, steal=0.0)]
               for name in offline.FORMATS}
    samples["sg-em"][0].steal = 0.3
    samples["nvfp4"][0].steal = 0.1
    samples["m2-nvfp4"][0].wall_s = 3.0
    samples["sg-ee"][0].wall_s = 2.0
    # The most stolen arms first, then the least evaluated, slowest
    # first, then in catalog order.
    picked = offline.repeat_arms(samples, 5)
    assert picked == ["sg-em", "nvfp4", "m2-nvfp4", "sg-ee",
                      offline.FORMATS[0]]
    samples["fp4"].append(stats.Phase("fp4", steal=0.0))
    assert "fp4" not in offline.repeat_arms(samples, 5)
    # An arm's figure: its calm evaluations, else its least stolen one.
    stolen = stats.Phase("a", wall_s=2.0, steal=0.3, latencies=[0.5, 1.5])
    assert offline.arm_seconds(
        [stolen, stats.Phase("a", wall_s=1.0, latencies=[0.2, 0.8])]) == 1.0
    assert offline.arm_seconds(
        [stolen, stats.Phase("a", wall_s=1.5, steal=0.2,
                             latencies=[0.4, 1.1])],
        lambda p: p.latencies[1]) == 1.1


def test_steal_share_reads_two_tick_samples():
    assert stats.steal_share((10, 1000), (40, 1200)) == 30 / 200
    assert stats.steal_share((0, 0), (0, 0)) == 0.0


def test_residual_arithmetic_on_a_hand_built_trace_line():
    line = {"request_id": 4, "kind": "quantize",
            "arm": "m2xfp:inherit:packed",
            "spans": [{"name": "queue", "start_s": 0.0, "dur_s": 0.001},
                      {"name": "batch", "start_s": 0.001, "dur_s": 0.0},
                      {"name": "quantize", "start_s": 0.001, "dur_s": 0.002},
                      {"name": "pack", "start_s": 0.003, "dur_s": 0.0005},
                      {"name": "serialize", "start_s": 0.0035,
                       "dur_s": 0.0005}]}
    # 5 ms wall - 0.2 ms encode - 0.3 ms decode - 4 ms of spans = 0.5 ms.
    got = stats.residual_ms(0.005, 0.0002, 0.0003, line)
    assert abs(got - 0.5) < 1e-9
    assert stats.span_s(line, "quantize") == 0.002


def test_id_collisions_count_ids_seen_more_than_once():
    lines = [{"request_id": i} for i in (1, 2, 1, 3, 2, 2)]
    assert stats.id_collisions(lines) == 2


def test_metric_tables_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.LAYERS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    from perfbench.offline import FORMATS
    assert run._ARM_FORMATS == FORMATS


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wire-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
