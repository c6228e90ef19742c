"""The ``offline-ppl`` workload: ``EvalEngine`` perplexity over the catalog.

The path ``tbl3``/``tbl6``/``tbl8`` take, in process, on fresh engines
and freshly calibrated runtimes (the runner's result cache would turn
the work into file reads). ``server``, ``serve``, ``codec`` and ``kv``
sit idle here.

Record the expected perplexities (only when the program's numerics are
meant to change) with::

    PYTHONPATH=src python3 -m perfbench.offline
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.eval.engine import EvalEngine
from repro.models.profiles import clear_runtime_cache, load_runtime
from repro.models.quantized import NO_WEIGHT_CACHE_ENV
from repro.plan import lookup_plan, plan_cache_stats
from repro.runner.formats import list_formats, make_format

from . import stats

PROFILE = "llama2-7b"
#: Every catalog format; fp16 is the unquantized reference (no arm).
FORMATS = tuple(name for name in list_formats() if name != "fp16")
EXPECTED_PATH = Path(__file__).with_name("expected_ppl.json")
#: Calibrations per run (setup_s is their median). Each takes 8-12 s on
#: the reference host.
SETUP_REPEATS = 2
#: A loaded round: each of two caller threads evaluates these arms in
#: this order (plan-compiled m2xfp, fallback nvfp4), so every round does
#: the same work and both callers meet the same arm at once.
LOADED_ARMS = ("m2xfp", "nvfp4")
LOADED_THREADS = 2
#: The first serial rounds walk the catalog in this many fixed chunks.
CHUNKS = 4
#: Arms a later serial round re-evaluates.
REPEAT_ARMS = 5


def calibrate():
    """A freshly calibrated runtime (what every ``repro run`` pays)."""
    clear_runtime_cache()
    return load_runtime(PROFILE)


def scored_tokens(runtime) -> int:
    """Next-token predictions one perplexity pass scores."""
    return int(runtime.tokens[:, 1:].size)


def eval_arm(engine: EvalEngine, runtime, name: str) -> tuple:
    """(perplexity, wrapper seconds, perplexity seconds) of one arm."""
    fmt = make_format(name)
    t0 = time.perf_counter()
    engine.wrapper(runtime, fmt)
    t1 = time.perf_counter()
    ppl = engine.perplexity(runtime, fmt)
    return ppl, t1 - t0, time.perf_counter() - t1


def load_expected() -> dict:
    doc = json.loads(EXPECTED_PATH.read_text())
    return {name: float.fromhex(value) for name, value in doc.items()}


@contextmanager
def cold_weights():
    """``REPRO_NO_WEIGHT_CACHE=1`` while arms are timed: the model keeps
    no quantized weights between wrappers, so every evaluation of an arm
    quantizes its weights as the first one in a ``repro run`` does."""
    saved = os.environ.get(NO_WEIGHT_CACHE_ENV)
    os.environ[NO_WEIGHT_CACHE_ENV] = "1"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(NO_WEIGHT_CACHE_ENV, None)
        else:
            os.environ[NO_WEIGHT_CACHE_ENV] = saved


def serial_round(runtime, arms, label: str, samples: dict,
                 check) -> stats.Phase:
    """One caller evaluates ``arms`` in order on a fresh engine. Each
    evaluation is kept in ``samples[arm]`` as a Phase: ``wall_s`` is
    wrapper + perplexity seconds, ``latencies`` the two apart."""
    phase = stats.Phase(label)
    engine = EvalEngine()
    ticks = stats.cpu_ticks()
    for name in arms:
        arm_ticks = stats.cpu_ticks()
        ppl, w_s, p_s = eval_arm(engine, runtime, name)
        phase.sent += 1
        if not check(phase, name, ppl):
            continue
        phase.ok += 1
        phase.latencies.append(w_s + p_s)
        phase.rows += scored_tokens(runtime)
        samples[name].append(stats.Phase(
            name, wall_s=w_s + p_s, latencies=[w_s, p_s],
            steal=stats.steal_share(arm_ticks, stats.cpu_ticks())))
    phase.wall_s = sum(phase.latencies)
    phase.steal = stats.steal_share(ticks, stats.cpu_ticks())
    return phase


def loaded_round(runtime, label: str, check) -> stats.Phase:
    """LOADED_THREADS caller threads each evaluate LOADED_ARMS in order,
    each on its own fresh engine (a shared one would answer the second
    caller of an arm from its memo)."""
    phase = stats.Phase(label)
    lock = threading.Lock()
    errors = []

    def caller(engine):
        try:
            for name in LOADED_ARMS:
                ppl, w_s, p_s = eval_arm(engine, runtime, name)
                with lock:
                    phase.sent += 1
                    if check(phase, name, ppl):
                        phase.ok += 1
                        phase.latencies.append(w_s + p_s)
        except Exception as exc:   # surfaced below as a failed run
            errors.append(exc)

    threads = [threading.Thread(target=caller, args=(EvalEngine(),),
                                daemon=True)
               for _ in range(LOADED_THREADS)]
    ticks, t0 = stats.cpu_ticks(), time.perf_counter()
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=170)
    phase.wall_s = time.perf_counter() - t0
    phase.steal = stats.steal_share(ticks, stats.cpu_ticks())
    if errors or any(th.is_alive() for th in threads):
        raise RuntimeError(f"loaded callers failed: {errors!r}")
    return phase


def repeat_arms(samples: dict, n: int) -> list:
    """The ``n`` arms a later round re-evaluates: those whose least
    stolen evaluation the host stole most from, then (once every arm has
    a calm one) the least evaluated, slowest first: the slow arms set
    the serial p95 and most of the catalog time."""
    names = list(samples)

    def key(i):
        evals = samples[names[i]]
        best = min((p.steal for p in evals), default=1.0)
        return (-best if best > stats.CALM_STEAL else 0.0, len(evals),
                -max((p.wall_s for p in evals), default=0.0), i)
    return [names[i] for i in sorted(range(len(names)), key=key)[:n]]


def arm_seconds(samples: list, fn=lambda p: p.wall_s) -> float:
    """An arm's figure: the median of ``fn(evaluation)`` over its calm
    evaluations (its least stolen one when fewer than a third were
    calm)."""
    return statistics.median(fn(p) for p in stats.calm(samples))


def fallback_share(runtime) -> float:
    """Share of (format, op, shape) signatures the forward uses that
    have no compiled plan, resolved with ``lookup_plan``."""
    d = runtime.model.config.d_model
    rows = runtime.tokens.size
    sigs = [("weight", np.zeros((d, d))),
            ("weight", np.zeros((runtime.model.config.d_ff, d))),
            ("activation", np.zeros((rows, d)))]
    misses = sum(lookup_plan(make_format(name), op, x, -1) is None
                 for name in FORMATS for op, x in sigs)
    return misses / (len(FORMATS) * len(sigs))


def offline_workload(seed: int, seconds: float, trace: bool):
    """The arms are the same for every seed: the calibrated corpus is
    the profile's own, and the arms are the whole catalog.

    Serial rounds (one caller) alternate with loaded rounds (two callers
    over LOADED_ARMS) until ``seconds`` are spent. The first CHUNKS
    serial rounds evaluate every arm once; later ones re-evaluate the
    arms the host stole most from (``repeat_arms``). An arm's time is
    the median over its calm evaluations, so the serial figures cover
    the whole catalog in every run; the loaded figures follow the
    calm-round rule of the serving workloads."""
    expected = load_expected()
    setup, runtimes = [], []
    for i in range(SETUP_REPEATS):
        runtime, phase = stats.timed(f"setup.{i + 1}", calibrate)
        runtimes.append(runtime)
        setup.append(phase)
    # Resolves (and compiles) the forward's plans before timing.
    fallback = fallback_share(runtimes[0])
    stats.settle()

    def check(phase, name, ppl):
        if ppl != expected[name]:
            phase.fail(f"{name}: perplexity {ppl!r} != recorded "
                       f"{expected[name]!r}")
            return False
        return True

    fp16 = stats.Phase("fp16")
    fp16.sent = 1
    if check(fp16, "fp16", runtimes[0].fp16_ppl):
        fp16.ok = 1

    samples = {name: [] for name in FORMATS}
    serial, loaded = [], []
    plan0 = plan_cache_stats()
    end = time.perf_counter() + seconds
    r, last = 0, 0.0
    with cold_weights():
        # A round pair is not started when half of it would overrun.
        while r < CHUNKS or time.perf_counter() + last / 2 < end:
            t0 = time.perf_counter()
            arms = FORMATS[r::CHUNKS] if r < CHUNKS \
                else repeat_arms(samples, REPEAT_ARMS)
            serial.append(serial_round(runtimes[0], arms,
                                       f"serial.{r + 1}", samples, check))
            loaded.append(loaded_round(runtimes[1], f"loaded.{r + 1}",
                                       check))
            last = time.perf_counter() - t0
            r += 1
    plan1 = plan_cache_stats()
    # An arm without a correct evaluation is a counted failure; the
    # figures then cover the arms that have one.
    samples = {name: s for name, s in samples.items() if s}

    per_arm = [arm_seconds(s) for s in samples.values()]
    e2e = {"setup_s": stats.setup_s(setup),
           "serial_p50_ms": stats.quantile(per_arm, 0.50) * 1e3,
           "serial_p95_ms": stats.quantile(per_arm, 0.95) * 1e3,
           "loaded_rps": stats.calm_median(loaded, lambda p: p.rps),
           "loaded_p50_ms": stats.calm_median(loaded, lambda p: p.p(0.50)),
           "loaded_p95_ms": stats.calm_quantile_ms(loaded, 0.95),
           "tokens_per_s": len(per_arm) * scored_tokens(runtimes[0])
           / sum(per_arm),
           "rss_mb": stats.self_peak_rss_mb()}
    layers = {}
    if trace:
        # The unquantized forward; wrappers never modify the model.
        fp16_s = min(_timed(runtimes[0].model.perplexity, runtimes[0].tokens)
                     for _ in range(3))
        hits = plan1["hits"] - plan0["hits"]
        misses = plan1["misses"] - plan0["misses"]
        wrapper_s = {name: arm_seconds(s, lambda p: p.latencies[0])
                     for name, s in samples.items()}
        ppl_s = {name: arm_seconds(s, lambda p: p.latencies[1])
                 for name, s in samples.items()}
        layers = {"models.calibrate_s": stats.setup_s(setup),
                  "models.fp16_tokens_per_s":
                      scored_tokens(runtimes[0]) / fp16_s,
                  "eval.wrapper_s": sum(wrapper_s.values()),
                  "eval.ppl_s": sum(ppl_s.values()),
                  "plan.hit_ratio": hits / (hits + misses)
                  if hits + misses else 0.0,
                  "plan.fallback_share": fallback}
        for name in samples:
            layers[f"eval.wrapper_s.{name}"] = wrapper_s[name]
            layers[f"eval.ppl_s.{name}"] = ppl_s[name]
    stolen = [name for name, s in samples.items()
              if min(p.steal for p in s) > stats.CALM_STEAL]
    contended = (["serial"] if len(stolen) > len(FORMATS) / 3 else []) + \
        (["loaded"] if stats.contended(loaded) else [])
    return stats.Outcome([*setup, fp16, *serial, *loaded], e2e, layers,
                         {"stolen_arms": stolen, "contended": contended,
                          "latency_samples": {
                              "serial": len(per_arm),
                              "loaded": sum(len(p.latencies)
                                            for p in stats.calm(loaded))},
                          "evaluations": {name: len(s)
                                          for name, s in samples.items()}})


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


if __name__ == "__main__":
    runtime = calibrate()
    engine = EvalEngine()
    record = {"fp16": runtime.fp16_ppl.hex()}
    for fmt_name in FORMATS:
        record[fmt_name] = eval_arm(engine, runtime, fmt_name)[0].hex()
    EXPECTED_PATH.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {EXPECTED_PATH}")
